"""Seeded input generator, run as its own process.

Writes everything a workload reads into ``<work>/seed-<n>-.../`` so that the
measured processes only read files, and the generator's CPU and memory
stay out of every metric.  Each part is written under a temporary name
and renamed into place, so an interrupted run never leaves half a part;
a part already present for the seed is reused.

Parts:

``corpus``   the inputs: the XML crawl directory (``crawl/``), the same
             corpus as a ``.mcol`` file, the delta stream and the query
             stream;
``fit``      the facade's fit of the ``.mcol`` corpus: its snapshot
             payload and epoch (the serving and cold-fit oracle);
``staged``   the staged cold fit's epoch and the reference backend's
             influence scores of the crawl;
``grown``    a cold fit of the corpus grown by the first
             ``CRASH_SEQ`` deltas: influence scores.

The inputs are kept per seed and per version of this generator only, so
a changed program reads the same input files as its parent.  They are
written with the program's own synthesizer and writers, though, so
``inputs.json`` pins their content hash for the seeds claims are made
on; generating different inputs for a pinned seed is an error.  The
oracles are the program's answers and are kept per version of the
program as well.

Usage: ``python3 perfbench/gen.py --seed N --parts corpus,fit``
(``--bloggers`` shrinks the corpus for the smoke tests).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shutil
import sys
from pathlib import Path

from common import (
    BENCH_DIR, BLOGGERS, POSTS_PER_BLOGGER, ROOT, SRC, WORK, read_json,
    write_json,
)

#: Deltas in the stream (more than any run applies).
STREAM_DELTAS = 400
#: The shape of one delta.  These are assumptions, not measured crawler
#: traffic; each follows the generated corpus's own proportions (seed
#: 2010: 5.2 posts per blogger, 2.1 comments per post, 2.95 links per
#: blogger).  Every delta adds POSTS_PER_DELTA posts by existing
#: bloggers and two comments per post.  A growth delta also adds a
#: blogger with one post and LINKS_PER_NEWCOMER links to and from
#: existing bloggers, which moves GL.
POSTS_PER_DELTA = 2
COMMENTS_PER_DELTA = 4
LINKS_PER_NEWCOMER = 3
#: Deltas whose sequence number modulo 5 is listed here are growth
#: deltas.  Two in five adds one blogger per 6 new posts, the nearest
#: to the corpus's 5.2 posts per blogger that keeps content-only deltas
#: the majority (one in two would add one per 5 posts).
GROWTH_SEQS_MOD_5 = (2, 4)
#: The delta-ingest run copies its durable directory after this many
#: deltas, one checkpoint interval (16) plus a 4-record WAL tail.
CRASH_SEQ = 20
#: Requests in the query stream (more than any run sends).
STREAM_QUERIES = 40000
#: Distinct composite weight vectors: far more than the server's
#: 1024-entry result cache, so most composite queries miss it.
WEIGHT_POOL = 16384

PARTS = ("corpus", "fit", "staged", "grown")
#: Content hashes of the inputs of the seeds claims are made on.
PINNED = BENCH_DIR / "inputs.json"
#: The files of the ``corpus`` part, as hashed.
INPUT_FILES = ("crawl", "corpus.mcol", "deltas.json", "queries.json")


def _digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def generator_digest() -> str:
    """Digest of the benchmark code that makes the inputs."""
    return _digest([BENCH_DIR / "gen.py", BENCH_DIR / "common.py"])


def code_digest() -> str:
    """Digest of the program and of the code that computes the oracles."""
    return _digest(sorted(SRC.rglob("*.py"))
                   + [BENCH_DIR / "gen.py", BENCH_DIR / "common.py",
                      BENCH_DIR / "stages.py"])


def seed_dir(seed: int, bloggers: int = BLOGGERS) -> Path:
    """Where the seed's inputs live (the ``corpus`` part)."""
    return WORK / f"seed-{seed}-b{bloggers}-{generator_digest()}"


def oracle_dir(seed: int, bloggers: int = BLOGGERS) -> Path:
    """Where this program's oracles for the seed's inputs live."""
    return seed_dir(seed, bloggers) / f"oracles-{code_digest()}"


def part_dir(part: str, seed: int, bloggers: int) -> Path:
    return (seed_dir if part == "corpus" else oracle_dir)(seed, bloggers)


def inputs_hash(directory: Path) -> str:
    """SHA-256 over the names and bytes of every input file."""
    digest = hashlib.sha256()
    for name in INPUT_FILES:
        path = directory / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for item in files:
            digest.update(str(item.relative_to(directory)).encode())
            digest.update(item.read_bytes())
    return digest.hexdigest()


def check_pinned(seed: int, bloggers: int, actual: str) -> None:
    """Refuse inputs that differ from the pinned hash of their seed."""
    pinned = read_json(PINNED)
    expected = pinned["sha256"].get(str(seed))
    if bloggers == pinned["bloggers"] and expected and actual != expected:
        raise RuntimeError(
            f"seed {seed} generated inputs {actual[:12]}, but {PINNED.name} "
            f"pins {expected[:12]}: the program's synthesizer or writers "
            f"changed what the benchmark measures")


def _publish(target: Path, part: str, staging: Path) -> None:
    """Move every file of a finished part into place, then mark it."""
    for entry in sorted(staging.iterdir()):
        dest = target / entry.name
        if dest.is_dir():
            shutil.rmtree(dest)
        os.replace(entry, dest)
    staging.rmdir()
    (target / f"{part}.done").write_text("ok\n")


def _classifier():
    from repro.nlp import NaiveBayesClassifier
    from repro.synth import DOMAIN_VOCABULARIES

    return NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)


def make_corpus(seed: int, bloggers: int, out: Path) -> None:
    from repro.data.xml_store import load_corpus, save_corpus
    from repro.store import write_corpus
    from repro.synth import BlogosphereConfig, generate_blogosphere

    generated, _ = generate_blogosphere(
        BlogosphereConfig(num_bloggers=bloggers,
                          posts_per_blogger=POSTS_PER_BLOGGER),
        seed=seed,
    )
    save_corpus(generated, out / "crawl")
    # The .mcol file is written from the crawl as stored, exactly as
    # ``repro migrate`` does, so both planes hold the same corpus.
    corpus = load_corpus(out / "crawl")
    write_corpus(corpus, out / "corpus.mcol")
    rng = random.Random(seed * 7919 + 1)
    write_json(out / "deltas.json", delta_stream(corpus, rng))
    write_json(out / "queries.json", query_stream(corpus, rng))
    digest = inputs_hash(out)
    check_pinned(seed, bloggers, digest)
    (out / "inputs.sha256").write_text(digest + "\n")


def delta_stream(corpus, rng: random.Random) -> list[dict]:
    """Seeded deltas in the shape the constants above describe."""
    from repro.nlp.sentiment import Sentiment
    from repro.synth import DOMAIN_VOCABULARIES
    from repro.synth.textgen import TextGenerator

    text = TextGenerator(rng)
    domains = sorted(DOMAIN_VOCABULARIES)
    sentiments = list(Sentiment)
    bloggers = corpus.blogger_ids()
    old_posts = sorted(corpus.posts)
    day = 1 + max(
        [p.created_day for p in corpus.posts.values()]
        + [c.created_day for c in corpus.comments.values()]
    )
    deltas = []
    for seq in range(1, STREAM_DELTAS + 1):
        growth = seq % 5 in GROWTH_SEQS_MOD_5
        delta = {"kind": "growth" if growth else "local", "bloggers": [],
                 "posts": [], "comments": [], "links": []}
        authors = rng.sample(bloggers, POSTS_PER_DELTA)
        new_posts = []
        if growth:
            newcomer = f"bench-blogger-{seq:05d}"
            domain = rng.choice(domains)
            delta["bloggers"].append(
                [newcomer, f"Bench {seq}",
                 text.post_body({domain: 1.0}, 12), day + seq])
            authors.append(newcomer)
            targets = rng.sample(bloggers, LINKS_PER_NEWCOMER)
            # Out-links from the newcomer, and one in-link to it.
            delta["links"] = [[newcomer, t, 1.0] for t in targets[:-1]]
            delta["links"].append([targets[-1], newcomer, 1.0])
        for i, author in enumerate(authors):
            domain = rng.choice(domains)
            post_id = f"bench-post-{seq:05d}-{i}"
            new_posts.append(post_id)
            delta["posts"].append(
                [post_id, author, text.post_title(domain),
                 text.post_body({domain: 1.0}, rng.randint(40, 160)),
                 day + seq])
        for i in range(COMMENTS_PER_DELTA):
            # Half the comments answer the delta's posts, half old ones.
            post_id = new_posts[i % len(new_posts)] \
                if i < COMMENTS_PER_DELTA // 2 else rng.choice(old_posts)
            domain = rng.choice(domains)
            delta["comments"].append(
                [f"bench-comment-{seq:05d}-{i}", post_id,
                 rng.choice(bloggers),
                 text.comment_text(rng.choice(sentiments), domain),
                 day + seq])
        deltas.append(delta)
    return deltas


def query_stream(corpus, rng: random.Random) -> list[list[str]]:
    """Seeded ``[route, path]`` requests in the demo UI's shapes.

    Half are top-k lists (general or per domain, a key set the engine
    cache holds), 30% are Eq. 5 composite queries drawn from a pool of
    WEIGHT_POOL positive weight vectors (most miss the cache), and 20%
    are profiles of existing bloggers.
    """
    from urllib.parse import quote

    from repro.synth import DOMAIN_VOCABULARIES

    domains = sorted(DOMAIN_VOCABULARIES)
    bloggers = corpus.blogger_ids()
    pool = []
    for _ in range(WEIGHT_POOL):
        picked = rng.sample(domains, rng.randint(2, 4))
        pool.append(",".join(
            f"{quote(d)}:{rng.randint(1, 1000) / 1000:.3f}" for d in picked
        ))
    requests = []
    for _ in range(STREAM_QUERIES):
        draw = rng.random()
        k = rng.choice((3, 5, 10))
        if draw < 0.5:
            domain = rng.choice([None] + domains)
            path = f"/top?k={k}" + (
                f"&domain={quote(domain)}" if domain else "")
            requests.append(["top", path])
        elif draw < 0.8:
            requests.append(
                ["query", f"/query?k={k}&weights={rng.choice(pool)}"])
        else:
            requests.append(
                ["profile", f"/blogger/{quote(rng.choice(bloggers))}"])
    return requests


def load_deltas(path: Path, upto: int | None = None):
    """The delta stream as ``(kind, CorpusDelta)`` pairs."""
    from repro.core.incremental import CorpusDelta
    from repro.data.entities import Blogger, Comment, Link, Post

    out = []
    for raw in read_json(path)[:upto]:
        out.append((raw["kind"], CorpusDelta(
            bloggers=tuple(Blogger(b, name=n, profile_text=t, joined_day=d)
                           for b, n, t, d in raw["bloggers"]),
            posts=tuple(Post(p, a, title=t, body=b, created_day=d)
                        for p, a, t, b, d in raw["posts"]),
            comments=tuple(Comment(c, p, w, text=t, created_day=d)
                           for c, p, w, t, d in raw["comments"]),
            links=tuple(Link(s, t, w) for s, t, w in raw["links"]),
        )))
    return out


def make_fit(seed: int, bloggers: int, out: Path) -> None:
    from repro.core import MassModel
    from repro.data.xml_store import open_corpus
    from repro.serve import InfluenceSnapshot

    corpus = open_corpus(seed_dir(seed, bloggers) / "corpus.mcol")
    report = MassModel(classifier=_classifier()).fit(corpus)
    snapshot = InfluenceSnapshot.compile(report)
    (out / "snapshot.payload").write_bytes(snapshot.to_payload())
    write_json(out / "fit.json", {"epoch": snapshot.epoch})


def make_staged(seed: int, bloggers: int, out: Path) -> None:
    from repro.core.parameters import MassParameters
    from repro.core.solver import InfluenceSolver
    from spans import NullRecorder
    from stages import staged_fit

    cache: dict = {}
    corpus, _, snapshot = staged_fit(
        seed_dir(seed, bloggers) / "crawl", _classifier(), NullRecorder(),
        sentiment_cache=cache,
    )
    reference = InfluenceSolver(
        corpus, MassParameters(solver_backend="reference"),
        sentiment_cache=cache,
    ).solve()
    write_json(out / "staged.json", {
        "epoch": snapshot.epoch,
        "reference_influence": reference.influence,
    })


def make_grown(seed: int, bloggers: int, out: Path) -> None:
    from repro.core import MassModel
    from repro.data.corpus import BlogCorpus
    from repro.data.xml_store import load_corpus

    base = load_corpus(seed_dir(seed, bloggers) / "crawl")
    grown = BlogCorpus()
    for blogger_id in base.blogger_ids():
        grown.add_blogger(base.blogger(blogger_id))
    for post_id in sorted(base.posts):
        grown.add_post(base.post(post_id))
    for comment_id in sorted(base.comments):
        grown.add_comment(base.comments[comment_id])
    for link in base.links:
        grown.add_link(link)
    deltas = load_deltas(seed_dir(seed, bloggers) / "deltas.json", CRASH_SEQ)
    for _, delta in deltas:
        grown.extend(bloggers=delta.bloggers, posts=delta.posts,
                     comments=delta.comments, links=delta.links)
    report = MassModel(classifier=_classifier()).fit(grown.freeze())
    write_json(out / "grown.json", {"influence": report.scores.influence})


_MAKERS = {"corpus": make_corpus, "fit": make_fit,
           "staged": make_staged, "grown": make_grown}


def missing(seed: int, bloggers: int, parts: list[str]) -> list[str]:
    """The parts not yet generated for this seed and size."""
    return [p for p in parts
            if not (part_dir(p, seed, bloggers) / f"{p}.done").exists()]


def ensure(seed: int, bloggers: int, parts: list[str]) -> None:
    """Generate every missing part; the corpus first, the rest read it."""
    todo = set(missing(seed, bloggers, ["corpus", *parts]))
    for part in sorted(todo, key=PARTS.index):
        target = part_dir(part, seed, bloggers)
        target.mkdir(parents=True, exist_ok=True)
        staging = target / f".{part}.{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        _MAKERS[part](seed, bloggers, staging)
        _publish(target, part, staging)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--bloggers", type=int, default=BLOGGERS)
    parser.add_argument("--parts", required=True,
                        help=f"comma-separated subset of {','.join(PARTS)}")
    args = parser.parse_args(argv)
    parts = [p for p in args.parts.split(",") if p]
    unknown = set(parts) - set(PARTS)
    if unknown:
        parser.error(f"unknown parts {sorted(unknown)}")
    ensure(args.seed, args.bloggers, parts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
