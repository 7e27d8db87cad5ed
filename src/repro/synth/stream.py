"""Streaming synthesis: web-scale blogospheres straight to columnar files.

:class:`~repro.synth.generator.BlogosphereGenerator` materializes the
whole corpus as Python objects, which tops out around 10^4 bloggers.
This module generates the same *kind* of blogosphere — heavy-tailed
latent influence, domain-concentrated affinities, planted influencers,
engagement-driven comments, influence-preferential links — as a single
ordered sweep that feeds a :class:`~repro.store.ColumnarBuilder`
directly: entity text spools to scratch files and per-entity state
lives in compact typed arrays, so 10^6 bloggers stream to disk in
bounded memory without a corpus object ever existing.

The sweep is phase-ordered to satisfy the builder's append contract
(bloggers, then posts, then comments, then links; each kind in strictly
ascending id order).  Heavy-weight population scans (domain-weighted
commenter pools, preferential link attachment) are replaced by
rejection sampling against the compact per-blogger arrays, which keeps
every pick O(1) expected instead of O(population).

The realized distribution is intentionally *close to* but not
bit-identical with the batch generator — equivalence of the columnar
data plane itself is proven separately by round-tripping batch-built
fixtures through :func:`repro.store.write_corpus`.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.nlp.sentiment import Sentiment
from repro.store import ColumnarBuilder
from repro.synth.generator import BlogosphereConfig
from repro.synth.textgen import TextGenerator

__all__ = ["StreamSummary", "stream_blogosphere"]

_EXP_NEG = 2.718281828459045


@dataclass(frozen=True, slots=True)
class StreamSummary:
    """What a streaming generation produced (no corpus object)."""

    path: Path
    num_bloggers: int
    num_posts: int
    num_comments: int
    num_links: int
    planted: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's sampler; every rate in this model is small."""
    if lam <= 0:
        return 0
    threshold = pow(_EXP_NEG, -lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _affinity(
    domains: list[str], primary: int, secondary: int
) -> dict[str, float]:
    """Reconstruct a blogger's affinity vector from two stored bytes."""
    epsilon = 0.02
    weights = {domain: epsilon for domain in domains}
    if secondary >= 0:
        weights[domains[primary]] += 0.55
        weights[domains[secondary]] += 0.2
    else:
        weights[domains[primary]] += 0.75
    total = sum(weights.values())
    return {domain: weight / total for domain, weight in weights.items()}


def _domain_weight(
    domain_index: int, primary: int, secondary: int, n_domains: int
) -> float:
    """One entry of :func:`_affinity` without building the dict."""
    epsilon = 0.02
    if secondary >= 0:
        boost = 0.55 if domain_index == primary else (
            0.2 if domain_index == secondary else 0.0
        )
        total = n_domains * epsilon + 0.75
    else:
        boost = 0.75 if domain_index == primary else 0.0
        total = n_domains * epsilon + 0.75
    return (epsilon + boost) / total


def stream_blogosphere(
    path: str | Path,
    config: BlogosphereConfig | None = None,
    seed: int = 0,
    *,
    scratch_dir: str | Path | None = None,
) -> StreamSummary:
    """Generate a blogosphere directly into a ``.mcol`` columnar file.

    Same seed → identical file.  Memory is bounded by compact
    per-entity arrays (roughly 10 bytes per blogger and 13 per post)
    plus the builder's id index, independent of how much text the
    corpus carries.  Returns a :class:`StreamSummary`; open the
    result with :class:`repro.store.ColumnarCorpus`.
    """
    config = config or BlogosphereConfig()
    rng = random.Random(seed)
    text = TextGenerator(
        random.Random(rng.randrange(2**31)), domain_mix=config.domain_mix
    )
    domains = list(config.domains)
    n_domains = len(domains)
    n = config.num_bloggers
    width = max(4, len(str(n)))

    # Planted influencers: a small deterministic sample, assigned to
    # domains round-robin, exactly as many per domain as configured.
    planted_total = min(n, config.planted_per_domain * n_domains)
    planted_domain = {
        index: pos % n_domains
        for pos, index in enumerate(sorted(rng.sample(range(n), planted_total)))
    }

    builder = ColumnarBuilder(scratch_dir=scratch_dir)
    try:
        # ---------------------------------------------------------- bloggers
        latent = array("d", bytes(8 * n))
        primary = array("b", bytes(n))
        secondary = array("b", bytes(n))
        planted_ids: dict[str, tuple[str, ...]] = {}
        for i in range(n):
            blogger_id = f"blogger-{i:0{width}d}"
            plant = planted_domain.get(i)
            if plant is not None:
                latent[i] = 0.9 + 0.1 * rng.random()
                primary[i] = plant
                secondary[i] = -1
                planted_ids[blogger_id] = (domains[plant],)
            else:
                raw = rng.paretovariate(2.2)
                latent[i] = min(1.0, (raw - 1.0) / 4.0 + 0.05)
                primary[i] = rng.randrange(n_domains)
                if (
                    n_domains > 1
                    and rng.random() < config.secondary_domain_probability
                ):
                    other = rng.randrange(n_domains - 1)
                    secondary[i] = other if other < primary[i] else other + 1
                else:
                    secondary[i] = -1
            builder.add_blogger(
                blogger_id,
                name=f"user {i:0{width}d}",
                profile_text=text.profile(
                    _affinity(domains, primary[i], secondary[i])
                ),
                joined_day=rng.randint(0, config.horizon_days // 2),
            )

        # ------------------------------------------------------------- posts
        post_author = array("q")
        post_domain = array("b")
        post_created = array("l")
        # Fixed 12-digit sequences: ascending integers stay ascending
        # strings at any scale this generator can reach.
        post_width = 12
        sequence = 0
        for i in range(n):
            activity = config.posts_per_blogger * (0.5 + latent[i])
            count = max(1, _poisson(rng, activity))
            affinity = _affinity(domains, primary[i], secondary[i])
            names = sorted(affinity)
            weights = [affinity[name] for name in names]
            for _ in range(count):
                sequence += 1
                domain = rng.choices(names, weights=weights, k=1)[0]
                domain_index = domains.index(domain)
                words = max(
                    20,
                    int(rng.gauss(
                        config.mean_post_words * (0.6 + 0.8 * latent[i]),
                        config.mean_post_words * 0.25,
                    )),
                )
                focus = {d: 0.0 for d in domains}
                focus[domain] = 0.8
                for d, weight in affinity.items():
                    focus[d] += 0.2 * weight
                created = rng.randint(0, config.horizon_days - 1)
                builder.add_post(
                    f"post-{sequence:0{post_width}d}",
                    f"blogger-{i:0{width}d}",
                    title=text.post_title(domain),
                    body=text.post_body(focus, words),
                    created_day=created,
                )
                post_author.append(i)
                post_domain.append(domain_index)
                post_created.append(created)

        # ---------------------------------------------------------- comments
        # Commenters are drawn preferentially by interest × engagement
        # via rejection sampling: propose uniformly, accept with
        # probability proportional to the proposal's weight.  The bound
        # 1.2 dominates every possible weight (affinity <= 1, latent
        # <= 1 → weight <= 1 × 1.2).
        n_posts = len(post_author)
        comment_width = 12
        sentiments = (
            Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.NEUTRAL
        )
        sequence = 0
        for p in range(n_posts):
            author = post_author[p]
            domain_index = post_domain[p]
            strength = latent[author] * _domain_weight(
                domain_index, primary[author], secondary[author], n_domains
            )
            lam = (
                config.base_comment_rate
                + config.influence_comment_rate * strength
            )
            count = _poisson(rng, lam)
            if count == 0:
                continue
            quality = latent[author]
            p_positive = min(0.75, 0.30 + 0.45 * quality)
            p_negative = max(0.05, 0.25 - 0.15 * quality)
            for _ in range(count):
                commenter = -1
                for _attempt in range(64):
                    candidate = rng.randrange(n)
                    weight = _domain_weight(
                        domain_index, primary[candidate],
                        secondary[candidate], n_domains,
                    ) * (0.2 + latent[candidate])
                    if candidate != author and rng.random() * 1.2 < weight:
                        commenter = candidate
                        break
                if commenter < 0:
                    continue
                sequence += 1
                roll = rng.random()
                if roll < p_positive:
                    sentiment = sentiments[0]
                elif roll < p_positive + p_negative:
                    sentiment = sentiments[1]
                else:
                    sentiment = sentiments[2]
                builder.add_comment(
                    f"comment-{sequence:0{comment_width}d}",
                    f"post-{p + 1:0{post_width}d}",
                    f"blogger-{commenter:0{width}d}",
                    text=text.comment_text(sentiment, domains[domain_index]),
                    created_day=min(
                        config.horizon_days,
                        post_created[p] + _poisson(rng, 3.0),
                    ),
                )

        # ------------------------------------------------------------- links
        # Preferential attachment to overall latent influence, squared
        # to sharpen the head; acceptance bound (0.05 + 1)^2.
        if n > 1:
            bound = 1.05 * 1.05
            for i in range(n):
                count = _poisson(rng, config.links_per_blogger)
                if count == 0:
                    continue
                seen: set[int] = set()
                for _ in range(count):
                    for _attempt in range(256):
                        candidate = rng.randrange(n)
                        score = (0.05 + latent[candidate]) ** 2
                        if (
                            candidate != i
                            and candidate not in seen
                            and rng.random() * bound < score
                        ):
                            seen.add(candidate)
                            builder.add_link(
                                f"blogger-{i:0{width}d}",
                                f"blogger-{candidate:0{width}d}",
                            )
                            break

        counts = builder.counts
        result = builder.finish(path)
    finally:
        builder.close()
    return StreamSummary(
        path=result,
        num_bloggers=counts["bloggers"],
        num_posts=counts["posts"],
        num_comments=counts["comments"],
        num_links=counts["links"],
        planted=planted_ids,
    )
