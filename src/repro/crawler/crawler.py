"""The multi-threaded blog crawler (the paper's Crawler Module).

"The Crawler Module uses a multi-thread crawling technique to
efficiently crawl blogosphere and stores the bloggers' information ...
in XML files."

The crawler expands a radius-bounded BFS frontier from user-supplied
seeds, fetching each wave's spaces concurrently with a thread pool and
retrying transient failures.  The result is a validated
:class:`BlogCorpus` restricted to the crawled neighbourhood — comments
by, and links to, bloggers outside the crawl are dropped, exactly as a
real crawl only knows about users it has visited — which can then be
persisted with :func:`repro.data.xml_store.save_corpus`.

Crawls are deterministic: waves are sorted before dispatch and results
are merged in sorted order, so thread scheduling never changes output.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.crawler.frontier import Frontier
from repro.crawler.service import (
    BlogService,
    SpaceNotFoundError,
    SpacePage,
    TransientFetchError,
)
from repro.data.corpus import BlogCorpus
from repro.data.xml_store import save_corpus
from repro.errors import CrawlError
from repro.obs import NULL_INSTRUMENTATION, Instrumentation, get_logger

if TYPE_CHECKING:
    from repro.core.incremental import CorpusDelta

__all__ = [
    "CrawlConfig",
    "CrawlResult",
    "CrawlWave",
    "DeltaStream",
    "BlogCrawler",
]

_LOG = get_logger("crawler")


@dataclass(frozen=True, slots=True)
class CrawlConfig:
    """Crawl policy: how far, how many, how parallel, how patient."""

    radius: int = 2
    max_spaces: int | None = None
    num_threads: int = 4
    max_retries: int = 2
    retry_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise CrawlError(f"radius must be >= 0, got {self.radius}")
        if self.max_spaces is not None and self.max_spaces < 1:
            raise CrawlError(f"max_spaces must be >= 1, got {self.max_spaces}")
        if self.num_threads < 1:
            raise CrawlError(f"num_threads must be >= 1, got {self.num_threads}")
        if self.max_retries < 0:
            raise CrawlError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_delay < 0:
            raise CrawlError(f"retry_delay must be >= 0, got {self.retry_delay}")


@dataclass(slots=True)
class CrawlResult:
    """Output of one crawl."""

    corpus: BlogCorpus
    fetched: list[str]
    failed: dict[str, str] = field(default_factory=dict)
    dropped_comments: int = 0
    dropped_links: int = 0
    max_depth: int = 0
    elapsed: float = 0.0


@dataclass(slots=True)
class CrawlWave:
    """One BFS wave of a streaming crawl, delivered as a delta."""

    depth: int
    delta: CorpusDelta
    fetched: list[str]
    failed: dict[str, str]


class DeltaStream:
    """A crawl delivered wave-by-wave as :class:`CorpusDelta` batches.

    Iterating fetches one BFS wave at a time and yields the wave's
    entities as an incremental delta instead of buffering the whole
    crawl into a second corpus: memory stays bounded by one wave plus
    the pending cross-wave references.  Comments and links whose
    referenced blogger has not been crawled yet are held back and
    flushed in the wave that crawls the reference; references the
    crawl never reaches are dropped at the end (the same crawl-boundary
    rule :meth:`BlogCrawler.crawl` applies), so the concatenation of
    every yielded delta carries exactly the batch crawl's entities.

    A stream is consumed once; ``fetched``, ``failed``, ``max_depth``,
    ``waves``, and the ``dropped_*`` counts are complete after
    exhaustion.  The waves come from the batch crawl's own loop
    (:meth:`BlogCrawler._waves`), so, like the batch crawl, a stream
    whose every seed fails raises :class:`CrawlError` (from its first
    iteration step, which is also its last).
    """

    def __init__(self, crawler: BlogCrawler, seeds: list[str]) -> None:
        self._crawler = crawler
        self._seeds = list(seeds)
        self.fetched: list[str] = []
        self.failed: dict[str, str] = {}
        self.dropped_comments = 0
        self.dropped_links = 0
        self.max_depth = 0
        self.waves = 0
        self._iterated = False

    def __iter__(self):
        if self._iterated:
            raise CrawlError("a DeltaStream can only be iterated once")
        self._iterated = True
        return self._generate()

    def _generate(self):
        from repro.core.incremental import CorpusDelta

        crawled: set[str] = set()
        pending_comments: dict[str, list] = {}
        pending_links: dict[str, list] = {}

        with self._crawler._instr.tracer.span("crawl-stream"):
            for depth, pages, wave_failed in self._crawler._waves(
                self._seeds
            ):
                self.max_depth = depth
                self.failed.update(wave_failed)
                if not pages:
                    continue

                # The whole wave joins the crawl before references are
                # checked, so intra-wave comments and links resolve
                # immediately.
                wave_ids = list(pages)
                crawled.update(wave_ids)
                self.fetched.extend(wave_ids)
                bloggers, posts, comments, links = [], [], [], []
                for page in pages.values():  # waves arrive in sorted id order
                    bloggers.append(page.blogger)
                    posts.extend(page.posts)
                    for link in page.links:
                        if link.target_id in crawled:
                            links.append(link)
                        else:
                            pending_links.setdefault(
                                link.target_id, []
                            ).append(link)
                    for comment in page.comments:
                        if comment.commenter_id in crawled:
                            comments.append(comment)
                        else:
                            pending_comments.setdefault(
                                comment.commenter_id, []
                            ).append(comment)
                for blogger_id in wave_ids:
                    comments.extend(pending_comments.pop(blogger_id, ()))
                    links.extend(pending_links.pop(blogger_id, ()))
                self.waves += 1
                yield CrawlWave(
                    depth=depth,
                    delta=CorpusDelta(
                        bloggers=tuple(bloggers),
                        posts=tuple(posts),
                        comments=tuple(comments),
                        links=tuple(links),
                    ),
                    fetched=wave_ids,
                    failed=wave_failed,
                )

        self.dropped_comments = sum(
            len(held) for held in pending_comments.values()
        )
        self.dropped_links = sum(
            len(held) for held in pending_links.values()
        )
        _LOG.info(
            "streamed %d spaces to depth %d in %d waves (%d failed, "
            "%d comments / %d links dropped at the boundary)",
            len(self.fetched), self.max_depth, self.waves, len(self.failed),
            self.dropped_comments, self.dropped_links,
        )


class BlogCrawler:
    """Crawl a :class:`BlogService` into a :class:`BlogCorpus`.

    ``instrumentation`` (optional) receives fetch/failure counters, a
    frontier-size gauge, and a ``crawl`` span with one child per BFS
    wave; omitted, all of that is a no-op.
    """

    def __init__(
        self,
        service: BlogService,
        config: CrawlConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._service = service
        self._config = config or CrawlConfig()
        self._instr = instrumentation or NULL_INSTRUMENTATION

    @property
    def config(self) -> CrawlConfig:
        """The crawl policy."""
        return self._config

    # ------------------------------------------------------------------
    def _fetch_with_retries(self, blogger_id: str) -> SpacePage | Exception:
        attempts = self._config.max_retries + 1
        last_error: Exception = CrawlError("unreachable")
        for attempt in range(attempts):
            try:
                return self._service.fetch_space(blogger_id)
            except TransientFetchError as exc:
                last_error = exc
                if attempt + 1 < attempts and self._config.retry_delay:
                    time.sleep(self._config.retry_delay)
            except SpaceNotFoundError as exc:
                return exc
        return last_error

    def _waves(self, seeds: list[str]):
        """Fetch the radius-bounded BFS outward from ``seeds``, wave by wave.

        The one crawl loop behind :meth:`crawl` and :meth:`stream`.
        Each wave's spaces are fetched concurrently on one thread pool
        (with retries) under a ``wave-N`` span; the generator yields
        ``(depth, pages, failed)`` per wave, where ``pages`` maps each
        fetched id to its :class:`SpacePage` in sorted id order and
        ``failed`` maps each failed id to its error.  Raises
        :class:`CrawlError` when every seed fails — nothing is fetched
        at all then, since later waves only expand fetched pages.
        """
        metrics = self._instr.metrics
        fetched_counter = metrics.counter(
            "repro_crawler_pages_fetched_total", "Spaces fetched successfully"
        )
        failure_counter = metrics.counter(
            "repro_crawler_fetch_failures_total", "Space fetches that failed"
        )
        frontier_gauge = metrics.gauge(
            "repro_crawler_frontier_size", "Ids queued but not yet fetched"
        )
        wave_seconds = metrics.histogram(
            "repro_crawler_wave_seconds", "Wall time per BFS wave"
        )
        frontier = Frontier(
            seeds, self._config.radius, max_spaces=self._config.max_spaces
        )
        with ThreadPoolExecutor(max_workers=self._config.num_threads) as pool:
            while wave := frontier.next_wave():
                depth = frontier.current_depth
                with self._instr.tracer.span(f"wave-{depth}") as wave_span, \
                        wave_seconds.time():
                    results = list(pool.map(self._fetch_with_retries, wave))
                    pages: dict[str, SpacePage] = {}
                    failed: dict[str, str] = {}
                    for blogger_id, outcome in zip(wave, results):
                        if isinstance(outcome, Exception):
                            failed[blogger_id] = str(outcome)
                            _LOG.warning(
                                "fetch of %s failed: %s", blogger_id, outcome
                            )
                            continue
                        pages[blogger_id] = outcome
                        frontier.discover(outcome.neighbors)
                    fetched_counter.inc(len(pages))
                    failure_counter.inc(len(failed))
                    frontier_gauge.set(frontier.pending)
                    wave_span.event(
                        depth=depth,
                        spaces=len(wave),
                        failures=len(failed),
                        frontier=frontier.pending,
                    )
                    _LOG.debug(
                        "wave %d: fetched %d spaces (%d failed), "
                        "frontier now %d",
                        depth, len(pages), len(failed), frontier.pending,
                    )
                if depth == 0 and not pages:
                    raise CrawlError(
                        f"crawl produced no pages; all seeds failed: {failed}"
                    )
                yield depth, pages, failed

    def crawl(self, seeds: list[str]) -> CrawlResult:
        """Crawl outward from ``seeds`` and return the assembled corpus.

        Raises :class:`CrawlError` if *no* seed could be fetched (a
        crawl that never starts is an error; partial failures are
        reported in ``result.failed``).
        """
        started = time.monotonic()
        pages: dict[str, SpacePage] = {}
        failed: dict[str, str] = {}
        max_depth = 0

        tracer = self._instr.tracer
        with tracer.span("crawl"):
            for max_depth, wave_pages, wave_failed in self._waves(seeds):
                pages.update(wave_pages)
                failed.update(wave_failed)
            with tracer.span("assemble"):
                corpus, dropped_comments, dropped_links = self._assemble(pages)

        elapsed = time.monotonic() - started
        self._instr.metrics.histogram(
            "repro_crawler_crawl_seconds", "Wall time per full crawl"
        ).observe(elapsed)
        _LOG.info(
            "crawled %d spaces to depth %d in %.2fs (%d failed, "
            "%d comments / %d links dropped at the boundary)",
            len(pages), max_depth, elapsed, len(failed),
            dropped_comments, dropped_links,
        )
        return CrawlResult(
            corpus=corpus,
            fetched=sorted(pages),
            failed=failed,
            dropped_comments=dropped_comments,
            dropped_links=dropped_links,
            max_depth=max_depth,
            elapsed=elapsed,
        )

    @staticmethod
    def _assemble(
        pages: dict[str, SpacePage]
    ) -> tuple[BlogCorpus, int, int]:
        """Merge pages into a corpus, dropping references outside the crawl."""
        corpus = BlogCorpus()
        crawled = set(pages)
        for blogger_id in sorted(pages):
            corpus.add_blogger(pages[blogger_id].blogger)
        dropped_comments = 0
        dropped_links = 0
        for blogger_id in sorted(pages):
            page = pages[blogger_id]
            for post in page.posts:
                corpus.add_post(post)
            for link in page.links:
                if link.target_id in crawled:
                    corpus.add_link(link)
                else:
                    dropped_links += 1
        for blogger_id in sorted(pages):
            for comment in pages[blogger_id].comments:
                if comment.commenter_id in crawled:
                    corpus.add_comment(comment)
                else:
                    dropped_comments += 1
        return corpus.freeze(), dropped_comments, dropped_links

    # ------------------------------------------------------------------
    def stream(self, seeds: list[str]) -> DeltaStream:
        """Crawl as a wave-by-wave stream of deltas (bounded memory).

        Returns a single-use :class:`DeltaStream`; iterate it to drive
        the crawl.  Nothing is fetched until iteration begins.
        """
        return DeltaStream(self, seeds)

    # ------------------------------------------------------------------
    def crawl_to_directory(
        self, seeds: list[str], directory: str | Path
    ) -> CrawlResult:
        """Crawl and persist the corpus as XML files (the paper's flow)."""
        result = self.crawl(seeds)
        save_corpus(result.corpus, directory)
        return result
