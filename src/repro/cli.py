"""Command-line interface: the MASS demo workflow without the GUI.

Every interaction the ICDE demo walked through is available as a
subcommand over an XML data directory:

    python -m repro generate  --out crawl/ --bloggers 400 --seed 1
    python -m repro crawl     --store crawl/ --seed-blogger blogger-0001 \
                              --radius 2 --out mycrawl/
    python -m repro analyze   --data mycrawl/ --domain Sports --top 3
    python -m repro advertise --data mycrawl/ --text "marathon shoes ..." --top 3
    python -m repro recommend --data mycrawl/ --profile "I paint ..." --top 3
    python -m repro detail    --data mycrawl/ --blogger blogger-0001
    python -m repro visualize --data mycrawl/ --center blogger-0001 \
                              --out network.xml
    python -m repro serve     --data mycrawl/ --port 8350
    python -m repro table1    --bloggers 800 --seed 2010

``--alpha`` / ``--beta`` reproduce the demo toolbar on every analysis
command; ``--solver-backend`` selects the fixed-point implementation
(``reference`` dict sweeps or the compiled ``sparse`` backend).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core import MassParameters
from repro.crawler import SimulatedBlogService
from repro.data import load_corpus, open_corpus, save_corpus
from repro.errors import ReproError
from repro.obs import Instrumentation, configure_logging, get_logger
from repro.synth import BlogosphereConfig, generate_blogosphere
from repro.system import MassSystem
from repro.viz import render_network, render_ranking

__all__ = ["main", "build_parser"]

_LOG = get_logger("cli")


def _add_toolbar(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="AP vs GL weight (paper default 0.5)")
    parser.add_argument("--beta", type=float, default=0.6,
                        help="quality vs comment weight (paper default 0.6)")
    parser.add_argument("--solver-backend",
                        choices=("reference", "sparse", "auto"),
                        default="auto",
                        help="fixed-point implementation: the dict-based "
                             "reference solver, the compiled sparse solver, "
                             "or auto (default: sparse)")


def _toolbar_params(args: argparse.Namespace) -> MassParameters:
    return MassParameters(
        alpha=args.alpha,
        beta=args.beta,
        solver_backend=args.solver_backend,
    )


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True,
                        help="corpus to analyze: XML crawl directory "
                             "or columnar .mcol file")


def _observability_parent() -> argparse.ArgumentParser:
    """Flags every subcommand shares: logging, metrics, tracing."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="enable repro.* logging at this level (off by default)")
    group.add_argument(
        "--log-json", action="store_true",
        help="emit logs as one JSON object per line")
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics-registry snapshot as JSON on exit")
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the pipeline span tree as JSON on exit")
    group.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="sample the process while the command runs and write "
             "collapsed stacks (flamegraph input) on exit")
    group.add_argument(
        "--profile-interval", type=float, default=0.005, metavar="SECONDS",
        help="sampling-profiler interval (default 0.005)")
    return parent


def _instrumentation(args: argparse.Namespace) -> Instrumentation | None:
    return getattr(args, "instrumentation", None)


def _system(args: argparse.Namespace) -> MassSystem:
    system = MassSystem(
        params=_toolbar_params(args),
        instrumentation=_instrumentation(args),
    )
    system.load_dataset(args.data)
    return system


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MASS: multi-facet domain-specific influential "
                    "blogger mining (ICDE 2010 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    observability = _observability_parent()

    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        return commands.add_parser(name, help=help, parents=[observability])

    generate = subcommand(
        "generate", help="generate a synthetic blogosphere as an XML store"
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--bloggers", type=int, default=400)
    generate.add_argument("--posts-per-blogger", type=float, default=7.0)
    generate.add_argument("--seed", type=int, default=0)

    crawl = subcommand(
        "crawl", help="crawl a stored blogosphere from a seed blogger"
    )
    crawl.add_argument("--store", required=True,
                       help="XML directory serving as the live blogosphere")
    crawl.add_argument("--seed-blogger", required=True, action="append",
                       dest="seeds", help="crawl seed (repeatable)")
    crawl.add_argument("--radius", type=int, default=2)
    crawl.add_argument("--threads", type=int, default=4)
    crawl.add_argument("--max-spaces", type=int, default=None)
    crawl.add_argument("--out", required=True, help="output XML directory")

    analyze = subcommand(
        "analyze", help="rank the top-k influential bloggers"
    )
    _add_data(analyze)
    _add_toolbar(analyze)
    analyze.add_argument("--domain", default=None,
                         help="domain to rank in (omit for general)")
    analyze.add_argument("--top", type=int, default=3)
    analyze.add_argument("--diagnostics", action="store_true",
                         help="also print solver/corpus diagnostics as JSON")

    advertise = subcommand(
        "advertise", help="Scenario 1: recommend bloggers for an ad"
    )
    _add_data(advertise)
    _add_toolbar(advertise)
    advertise.add_argument("--text", default=None,
                           help="advertisement copy (free-text mode)")
    advertise.add_argument("--domain", action="append", dest="domains",
                           default=None, help="dropdown mode (repeatable)")
    advertise.add_argument("--top", type=int, default=3)

    recommend = subcommand(
        "recommend", help="Scenario 2: personalized recommendation"
    )
    _add_data(recommend)
    _add_toolbar(recommend)
    who = recommend.add_mutually_exclusive_group(required=True)
    who.add_argument("--profile", help="new-user profile text")
    who.add_argument("--blogger", help="existing blogger id")
    recommend.add_argument("--domain", default=None,
                           help="explicit domain (with --blogger)")
    recommend.add_argument("--top", type=int, default=3)

    detail = subcommand(
        "detail", help="show a blogger's influence pop-up"
    )
    _add_data(detail)
    _add_toolbar(detail)
    detail.add_argument("--blogger", required=True)

    visualize = subcommand(
        "visualize", help="render a post-reply ego network"
    )
    _add_data(visualize)
    _add_toolbar(visualize)
    visualize.add_argument("--center", required=True)
    visualize.add_argument("--radius", type=int, default=1)
    visualize.add_argument("--out", default=None,
                           help="save the graph as visualization XML")
    visualize.add_argument("--svg", default=None,
                           help="also save an SVG rendering")

    campaign = subcommand(
        "campaign", help="coverage-aware campaign planning"
    )
    _add_data(campaign)
    _add_toolbar(campaign)
    who = campaign.add_mutually_exclusive_group(required=True)
    who.add_argument("--text", help="advertisement copy")
    who.add_argument("--domain", action="append", dest="domains",
                     help="target domain (repeatable)")
    campaign.add_argument("--top", type=int, default=3)
    campaign.add_argument("--coverage-weight", type=float, default=0.5)

    trend = subcommand(
        "trend", help="influence trajectories and rising bloggers"
    )
    _add_data(trend)
    _add_toolbar(trend)
    trend.add_argument("--window-days", type=int, default=90)
    trend.add_argument("--step-days", type=int, default=90)
    trend.add_argument("--top", type=int, default=5)

    discover = subcommand(
        "discover", help="discover domains automatically (k-means topics)"
    )
    _add_data(discover)
    discover.add_argument("--k", type=int, default=10)
    discover.add_argument("--seed", type=int, default=0)
    discover.add_argument("--max-posts", type=int, default=3000)

    serve = subcommand(
        "serve", help="run the influence query service over HTTP"
    )
    _add_data(serve)
    _add_toolbar(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8350,
                       help="bind port; 0 picks a free one (default 8350)")
    serve.add_argument("--max-staleness", type=float, default=0.5,
                       help="seconds a queued corpus delta may wait before "
                            "it must be folded into the served snapshot")
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="max concurrently executing requests before "
                            "load shedding answers 503")
    serve.add_argument("--max-k", type=int, default=100,
                       help="largest k a single query may ask for")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="bounded LRU result-cache entries (0 disables)")
    serve.add_argument("--workers", type=int, default=1,
                       help="serving worker processes; >1 runs the "
                            "pre-fork shared-memory tier (default 1: "
                            "single-process, in the foreground)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="max queries a single POST /query/batch "
                            "may carry")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       metavar="QPS",
                       help="per-tenant token-bucket rate limit in "
                            "queries/second, keyed on the X-Repro-Tenant "
                            "header (0 disables); with --workers the "
                            "budget is shared cluster-wide, not "
                            "multiplied per worker")
    serve.add_argument("--rate-limit-burst", type=float, default=0.0,
                       help="token-bucket burst capacity (0 derives it "
                            "from --rate-limit and --max-batch)")
    serve.add_argument("--durable-dir", default=None, metavar="DIR",
                       help="enable durable ingestion: WAL + checkpoints "
                            "under DIR, with crash recovery on startup")
    serve.add_argument("--slo-config", default=None, metavar="PATH",
                       help="JSON file of SLO objectives replacing the "
                            "built-in serving defaults (see "
                            "docs/observability.md)")
    serve.add_argument("--retain", default="last:1", metavar="POLICY",
                       help="checkpoint retention policy for the durable "
                            "dir: 'last:N', 'all', or 'horizon:SECONDS' "
                            "(default last:1); more than one retained "
                            "checkpoint turns on the /asof, /trend and "
                            "/timeline time-travel endpoints' history")

    ingest = subcommand(
        "ingest", help="durably ingest corpus deltas (WAL + checkpoints)"
    )
    _add_toolbar(ingest)
    ingest.add_argument("--data", default=None,
                        help="XML crawl directory bootstrapping an empty "
                             "durable dir (ignored once state exists)")
    ingest.add_argument("--dir", required=True, dest="durable_dir",
                        help="durable root: wal/ and checkpoints/ live here")
    ingest.add_argument("--synthetic", type=int, default=0, metavar="N",
                        help="ingest deterministic synthetic deltas until "
                             "N have been durably applied (resumable: a "
                             "restart continues where the crash stopped)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="seed keying the synthetic delta stream")
    ingest.add_argument("--checkpoint-every", type=int, default=16,
                        help="applied batches between checkpoints "
                             "(0 disables periodic checkpoints)")
    ingest.add_argument("--fsync", choices=("always", "batch", "never"),
                        default="batch", help="WAL durability policy")
    ingest.add_argument("--queue-capacity", type=int, default=64,
                        help="bounded submit queue size")
    ingest.add_argument("--backpressure", choices=("block", "shed"),
                        default="block",
                        help="what a full queue does to submitters")
    ingest.add_argument("--delta-delay", type=float, default=0.0,
                        help="seconds to sleep between synthetic deltas")
    ingest.add_argument("--top", type=int, default=3,
                        help="print the top-k ranking after ingesting")
    ingest.add_argument("--status", action="store_true",
                        help="recover, print durability diagnostics as "
                             "JSON, and exit without ingesting")
    ingest.add_argument("--retain", default="last:1", metavar="POLICY",
                        help="checkpoint retention policy: 'last:N', "
                             "'all', or 'horizon:SECONDS' (default "
                             "last:1)")

    timeline = subcommand(
        "timeline", help="query the retained checkpoint history "
                         "(time travel and trends)"
    )
    _add_toolbar(timeline)
    timeline.add_argument("--dir", required=True, dest="durable_dir",
                          help="durable root holding the retained "
                               "checkpoints (same --dir as ingest/serve)")
    timeline.add_argument("--asof", type=float, default=None, metavar="T",
                          help="materialize the top-k ranking as of wall "
                               "time T (seconds since the epoch)")
    timeline.add_argument("--seq", type=int, default=None,
                          help="materialize as of delta sequence number "
                               "SEQ instead of a wall time")
    timeline.add_argument("--trend", action="store_true",
                          help="print rising influencers over sliding "
                               "windows instead of a ranking")
    timeline.add_argument("--domain", default=None,
                          help="restrict --asof/--trend to one domain")
    timeline.add_argument("--window-days", type=int, default=90)
    timeline.add_argument("--step-days", type=int, default=30)
    timeline.add_argument("--top", type=int, default=3,
                          help="how many bloggers to print")

    migrate = subcommand(
        "migrate", help="migrate an XML crawl directory to a columnar "
                        ".mcol file"
    )
    migrate.add_argument("--data", required=True,
                         help="source XML crawl directory")
    migrate.add_argument("--out", required=True,
                         help="destination .mcol file")

    stats = subcommand(
        "stats", help="corpus and network structure summary"
    )
    _add_data(stats)

    table1 = subcommand(
        "table1", help="reproduce the paper's Table I user study"
    )
    table1.add_argument("--bloggers", type=int, default=800)
    table1.add_argument("--seed", type=int, default=2010)
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    corpus, _ = generate_blogosphere(
        BlogosphereConfig(
            num_bloggers=args.bloggers,
            posts_per_blogger=args.posts_per_blogger,
        ),
        seed=args.seed,
    )
    save_corpus(corpus, args.out)
    stats = corpus.stats()
    print(f"wrote {args.out}: {stats.num_bloggers} bloggers, "
          f"{stats.num_posts} posts, {stats.num_comments} comments, "
          f"{stats.num_links} links")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    store = load_corpus(args.store)
    service = SimulatedBlogService(store)
    system = MassSystem(instrumentation=_instrumentation(args))
    result = system.crawl(
        service, args.seeds, radius=args.radius,
        max_spaces=args.max_spaces, num_threads=args.threads,
        save_to=args.out,
    )
    print(f"crawled {len(result.fetched)} spaces (depth {result.max_depth}) "
          f"in {result.elapsed:.2f}s; {len(result.failed)} failed; "
          f"wrote {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    system = _system(args)
    title = (
        f"Top {args.top} in {args.domain}" if args.domain
        else f"Top {args.top} overall"
    )
    print(render_ranking(
        system.top_influencers(args.top, domain=args.domain), title
    ))
    if args.diagnostics:
        print(json.dumps(system.report.diagnostics(), indent=2))
    return 0


def _cmd_advertise(args: argparse.Namespace) -> int:
    system = _system(args)
    engine = system.advertising()
    if args.text:
        result = engine.recommend_for_text(args.text, k=args.top)
        print("mined interest vector:")
        for domain, weight in result.interest_vector.top_domains(3):
            print(f"  {domain:<15s} {weight:.3f}")
    else:
        result = engine.recommend_for_domains(args.domains or [], k=args.top)
        print(f"mode: {result.mode}")
    print(render_ranking(result.recommendations, "Recommended bloggers"))
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    system = _system(args)
    engine = system.recommendations()
    if args.profile:
        rec = engine.recommend_for_profile(args.profile, k=args.top)
        print("mined interests:", ", ".join(
            f"{domain}={weight:.2f}"
            for domain, weight in rec.interest_vector.top_domains(3)
        ))
    else:
        rec = engine.recommend_for_blogger(
            args.blogger, k=args.top, domain=args.domain
        )
    print(render_ranking(rec.recommendations, "Bloggers to follow"))
    return 0


def _cmd_detail(args: argparse.Namespace) -> int:
    system = _system(args)
    detail = system.blogger_detail(args.blogger)
    print(f"{detail.name} ({detail.blogger_id})")
    print(f"  total influence : {detail.influence:.4f}")
    print(f"  AP / GL         : {detail.ap:.4f} / {detail.gl:.4f}")
    print(f"  posts written   : {detail.num_posts}")
    print(f"  comments recv'd : {detail.num_comments_received}")
    print(f"  comments written: {detail.num_comments_written}")
    print("  domain scores   :")
    for domain, score in sorted(detail.domain_scores.items(),
                                key=lambda kv: -kv[1]):
        print(f"    {domain:<15s} {score:.4f}")
    if detail.top_posts:
        print("  important posts :",
              ", ".join(post_id for post_id, _ in detail.top_posts))
    return 0


def _cmd_visualize(args: argparse.Namespace) -> int:
    system = _system(args)
    viz = system.visualize(center=args.center, radius=args.radius)
    print(render_network(viz))
    if args.out:
        viz.save_xml(args.out)
        print(f"saved visualization XML to {args.out}")
    if args.svg:
        from repro.viz import save_svg

        save_svg(viz, args.svg,
                 title=f"Post-reply network of {args.center}")
        print(f"saved SVG rendering to {args.svg}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.apps import CampaignPlanner

    system = _system(args)
    planner = CampaignPlanner(system.report, system.classifier)
    plan = planner.plan(
        ad_text=args.text,
        domains=args.domains,
        k=args.top,
        coverage_weight=args.coverage_weight,
    )
    print("target interests:", ", ".join(
        f"{domain}={weight:.2f}"
        for domain, weight in plan.interest_vector.top_domains(3)
    ))
    print("Campaign selection")
    print("==================")
    covered: set[str] = set()
    for position, blogger_id in enumerate(plan.selected, start=1):
        audience = planner.audience_of(blogger_id)
        new_readers = len(audience - covered)
        covered |= audience
        print(f"{position:2d}. {blogger_id:<24s} "
              f"+{new_readers} new readers ({len(audience)} total)")
    print(f"audience covered: {plan.covered_audience}/{plan.total_audience} "
          f"({plan.coverage:.0%}); naive top-k would cover "
          f"{plan.naive_covered_audience} "
          f"(gain {plan.coverage_gain_over_naive:+d} readers)")
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.core import trajectory

    system = _system(args)
    result = trajectory(
        system.corpus,
        params=system.params,
        window_days=args.window_days,
        step_days=args.step_days,
    )
    bounds = result.window_bounds()
    print(f"{result.num_windows} windows: {bounds[0][0]}..{bounds[-1][1]} "
          f"days ({args.window_days}-day windows, {args.step_days}-day step)")
    print("\nrising bloggers (by influence trend):")
    for blogger_id, slope in result.rising_bloggers(args.top):
        series = " ".join(f"{value:6.2f}" for value in
                          result.series(blogger_id))
        print(f"  {blogger_id:<18s} {series}   slope {slope:+.3f}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    from repro.nlp import discover_domains

    corpus = open_corpus(args.data)
    post_ids = sorted(corpus.posts)[: args.max_posts]
    texts = [corpus.posts[post_id].text for post_id in post_ids]
    result = discover_domains(texts, k=args.k, seed=args.seed)
    print(f"discovered {result.k} topics over {len(texts)} posts "
          f"(inertia {result.inertia:.3f}, {result.iterations} iterations):")
    sizes = result.cluster_sizes()
    for index, name in enumerate(result.names):
        terms = ", ".join(term for term, _ in
                          result.centroid_terms[index][:6])
        print(f"  [{sizes[index]:4d} posts] {name}: {terms}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServiceConfig, SnapshotStore, create_server

    params = _toolbar_params(args)
    corpus = open_corpus(args.data)
    # /metrics is part of the API, so the service always records even
    # without --metrics-out.
    from repro.obs import Instrumentation as _Instrumentation

    instr = _instrumentation(args) or _Instrumentation.enabled()
    args.instrumentation = instr  # so --metrics-out/--trace-out still work
    ingest_config = None
    if args.durable_dir is not None:
        from repro.ingest import IngestConfig

        ingest_config = IngestConfig(retention=args.retain)
    elif args.retain != "last:1":
        print("--retain requires --durable-dir (there is no checkpoint "
              "history to retain without one)", file=sys.stderr)
        return 2
    store = SnapshotStore(
        corpus,
        params=params,
        max_staleness=args.max_staleness,
        durable_dir=args.durable_dir,
        ingest_config=ingest_config,
        instrumentation=instr,
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_k=args.max_k,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        rate_limit_qps=args.rate_limit,
        rate_limit_burst=args.rate_limit_burst,
        timeline_dir=args.durable_dir,
    )
    objectives = None
    if args.slo_config:
        from repro.obs import load_slo_config

        objectives = load_slo_config(args.slo_config)
    snapshot = store.snapshot
    banner = (f"serving {snapshot.stats()['bloggers']} bloggers "
              f"({len(snapshot.domains)} domains, "
              f"epoch {snapshot.epoch[:12]})")
    endpoints = ("endpoints: /top /query /query/batch /blogger/<id> "
                 "/healthz /metrics")
    if args.durable_dir is not None:
        endpoints += " /asof /trend /timeline"
    if args.workers > 1:
        import signal as _signal
        import time as _time

        from repro.serve import ClusterConfig, ServingCluster

        cluster = ServingCluster(
            store, config, ClusterConfig(workers=args.workers),
            instrumentation=instr, slo_objectives=objectives,
        )
        # SIGTERM (the supervisor's polite kill) must tear the workers
        # down too, or they outlive the master holding its stdio pipes.
        def _terminated(signum, frame):  # noqa: ARG001 - signal API
            raise KeyboardInterrupt

        previous = _signal.signal(_signal.SIGTERM, _terminated)
        try:
            with store, cluster:
                cluster.wait_ready()
                print(f"{banner} on {cluster.url} "
                      f"({args.workers} workers, "
                      f"pids {cluster.worker_pids})",
                      flush=True)
                print(endpoints, flush=True)
                try:
                    while True:
                        _time.sleep(3600)
                except KeyboardInterrupt:
                    print("shutting down")
        finally:
            _signal.signal(_signal.SIGTERM, previous)
        return 0
    server = create_server(store, config, instr, slo_objectives=objectives)
    print(f"{banner} on {server.url}", flush=True)
    print(endpoints, flush=True)
    with store:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down")
        finally:
            server.server_close()
    return 0


def _synthetic_delta(seed: int, seq: int):
    """The ``seq``-th delta of the deterministic synthetic stream.

    Keyed purely on ``(seed, seq)`` and on entities earlier deltas of
    the *same stream* created, so any run that durably applied deltas
    ``1..k`` — crashed or not — continues with an identical delta
    ``k+1``.  That property is what the crash-recovery smoke test
    exercises end to end.
    """
    from repro.core.incremental import CorpusDelta
    from repro.data.entities import Blogger, Comment, Link, Post
    from repro.synth import DOMAIN_VOCABULARIES

    domains = sorted(DOMAIN_VOCABULARIES)
    domain = domains[(seed + seq) % len(domains)]
    words = " ".join(sorted(DOMAIN_VOCABULARIES[domain])[:6])
    blogger_id = f"ingest-{seed}-blogger-{seq:05d}"
    post_id = f"ingest-{seed}-post-{seq:05d}"
    previous_post = f"ingest-{seed}-post-{seq - 1:05d}"
    previous_blogger = f"ingest-{seed}-blogger-{seq - 1:05d}"
    comments = ()
    links = ()
    if seq > 1:
        comments = (Comment(
            f"ingest-{seed}-comment-{seq:05d}", previous_post, blogger_id,
            text=f"thoughts on {words}", created_day=seq,
        ),)
        links = (Link(blogger_id, previous_blogger, 1.0),)
    return CorpusDelta(
        bloggers=(Blogger(
            blogger_id, name=f"Ingest {seq}",
            profile_text=f"writes about {words}", joined_day=seq,
        ),),
        posts=(Post(
            post_id, blogger_id, title=f"{domain} update {seq}",
            body=f"{words} update number {seq}", created_day=seq,
        ),),
        comments=comments,
        links=links,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    import time as _time

    from repro.core.incremental import IncrementalAnalyzer
    from repro.ingest import IngestConfig, IngestPipeline
    from repro.nlp import NaiveBayesClassifier
    from repro.serve import InfluenceSnapshot
    from repro.synth import DOMAIN_VOCABULARIES

    params = _toolbar_params(args)
    classifier = NaiveBayesClassifier.from_seed_vocabulary(
        DOMAIN_VOCABULARIES
    )
    analyzer = IncrementalAnalyzer(
        classifier, params=params, instrumentation=_instrumentation(args)
    )
    config = IngestConfig(
        checkpoint_interval=args.checkpoint_every,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        fsync=args.fsync,
        retention=args.retain,
    )
    pipeline = IngestPipeline(
        args.durable_dir, analyzer, config,
        instrumentation=_instrumentation(args),
    )
    base = open_corpus(args.data) if args.data else None
    pipeline.open(base)
    if args.status:
        print(json.dumps(pipeline.diagnostics(), indent=2))
        pipeline.close()
        return 0

    while pipeline.applied_seq < args.synthetic:
        pipeline.apply(_synthetic_delta(args.seed, pipeline.applied_seq + 1))
        if args.delta_delay:
            _time.sleep(args.delta_delay)
    report = pipeline.report
    snapshot = InfluenceSnapshot.compile(report)
    print(f"applied {pipeline.applied_seq}", flush=True)
    print(f"epoch {snapshot.epoch}", flush=True)
    for position, (blogger_id, score) in enumerate(
        report.top_influencers(args.top), start=1
    ):
        print(f"{position:2d}. {blogger_id} {score:.6f}", flush=True)
    pipeline.close()
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.timeline import TimelineService

    params = _toolbar_params(args)
    service = TimelineService(
        args.durable_dir, params, instrumentation=_instrumentation(args)
    )
    if args.trend:
        payload = service.trend(
            domain=args.domain,
            window_days=args.window_days,
            step_days=args.step_days,
            k=args.top,
            timestamp=args.asof,
        )
    elif args.asof is not None or args.seq is not None or args.domain:
        payload = service.as_of(
            timestamp=args.asof, seq=args.seq,
            k=args.top, domain=args.domain,
        )
    else:
        payload = service.history_listing()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.data import migrate_to_columnar
    from repro.store import ColumnarCorpus

    path = migrate_to_columnar(args.data, args.out)
    size = path.stat().st_size
    with ColumnarCorpus.open(path) as corpus:
        stats = corpus.stats()
        print(f"wrote {path} ({size} bytes)")
        print(f"bloggers : {stats.num_bloggers}")
        print(f"posts    : {stats.num_posts}")
        print(f"comments : {stats.num_comments}")
        print(f"links    : {stats.num_links}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph import link_graph, post_reply_graph, summarize_network

    corpus = open_corpus(args.data)
    stats = corpus.stats()
    print(f"bloggers : {stats.num_bloggers}")
    print(f"posts    : {stats.num_posts} "
          f"({stats.posts_per_blogger:.1f}/blogger)")
    print(f"comments : {stats.num_comments} "
          f"({stats.comments_per_post:.1f}/post)")
    print(f"links    : {stats.num_links}")
    for label, graph in (("post-reply network", post_reply_graph(corpus)),
                         ("link graph", link_graph(corpus))):
        print(f"\n{label}:")
        for name, value in summarize_network(graph).rows():
            print(f"  {name:<16s} {value}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.baselines import GeneralInfluenceBaseline, LiveIndexBaseline
    from repro.core import MassModel
    from repro.synth import DOMAIN_VOCABULARIES
    from repro.userstudy import TABLE1_DOMAINS, UserStudy

    corpus, truth = generate_blogosphere(
        BlogosphereConfig(num_bloggers=args.bloggers, posts_per_blogger=8.0),
        seed=args.seed,
    )
    report = MassModel(domain_seed_words=DOMAIN_VOCABULARIES).fit(corpus)
    general = GeneralInfluenceBaseline().top_ids(corpus, 3)
    live = LiveIndexBaseline().top_ids(corpus, 3)
    systems = {
        "General": {d: general for d in TABLE1_DOMAINS},
        "Live Index": {d: live for d in TABLE1_DOMAINS},
        "Domain Specific": {
            d: [b for b, _ in report.top_influencers(3, d)]
            for d in TABLE1_DOMAINS
        },
    }
    result = UserStudy(truth, seed=args.seed).run(systems)
    print(result.as_table())
    print("\npaper's Table I: General 3.2/3.2/3.2, Live Index 3.0/3.3/3.1, "
          "Domain Specific 4.3/4.1/4.6")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "crawl": _cmd_crawl,
    "analyze": _cmd_analyze,
    "advertise": _cmd_advertise,
    "recommend": _cmd_recommend,
    "detail": _cmd_detail,
    "visualize": _cmd_visualize,
    "campaign": _cmd_campaign,
    "trend": _cmd_trend,
    "discover": _cmd_discover,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "timeline": _cmd_timeline,
    "migrate": _cmd_migrate,
    "stats": _cmd_stats,
    "table1": _cmd_table1,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The shared observability flags work on every subcommand:
    ``--log-level`` configures the ``repro.*`` logger hierarchy,
    ``--metrics-out`` / ``--trace-out`` turn on instrumentation and
    write the metrics snapshot / span tree as JSON when the command
    finishes (even if it fails, so a crashed run still leaves
    telemetry behind), and ``--profile-out`` samples every thread for
    the whole run and writes collapsed stacks on exit.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level, json=args.log_json)
    instrument = bool(args.metrics_out or args.trace_out)
    args.instrumentation = Instrumentation.enabled() if instrument else None
    profiler = None
    if args.profile_out:
        from repro.obs import SamplingProfiler

        try:
            profiler = SamplingProfiler(interval=args.profile_interval)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        profiler.start()
    code = 1
    try:
        code = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        if profiler is not None and not _write_profile(args, profiler):
            code = code or 1
        if instrument and not _write_telemetry(args):
            code = code or 1
    return code


def _write_profile(args: argparse.Namespace, profiler) -> bool:
    """Stop the profiler and write collapsed stacks; False on failure."""
    profiler.stop()
    try:
        profiler.write(args.profile_out)
    except OSError as exc:
        print(f"error: cannot write profile to {args.profile_out}: {exc}",
              file=sys.stderr)
        return False
    _LOG.info("wrote %d profile samples to %s",
              profiler.sample_count, args.profile_out)
    return True


def _write_telemetry(args: argparse.Namespace) -> bool:
    """Write requested telemetry files; returns False if any write fails."""
    ok = True
    outputs = (
        (args.metrics_out, "metrics snapshot",
         args.instrumentation.metrics.render_json),
        (args.trace_out, "trace", args.instrumentation.tracer.render_json),
    )
    for target, label, render in outputs:
        if not target:
            continue
        path = Path(target)
        try:
            path.write_text(render() + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {label} to {path}: {exc}",
                  file=sys.stderr)
            ok = False
        else:
            _LOG.info("wrote %s to %s", label, path)
    return ok


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
