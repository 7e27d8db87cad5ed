"""Unit and integration tests for the multi-threaded crawler."""

import pytest

from repro.crawler import BlogCrawler, CrawlConfig, SimulatedBlogService
from repro.data import dumps_corpus, load_corpus
from repro.errors import CrawlError


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": -1},
            {"max_spaces": 0},
            {"num_threads": 0},
            {"max_retries": -1},
            {"retry_delay": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(CrawlError):
            CrawlConfig(**kwargs)


class TestCrawlFig1:
    def test_radius_zero_is_seed_only(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        )
        result = crawler.crawl(["amery"])
        assert result.fetched == ["amery"]
        # Comments by un-crawled bob/cary are dropped.
        assert result.dropped_comments == 3
        assert len(result.corpus.posts) == 2

    def test_radius_one_reaches_commenters(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=1)
        )
        result = crawler.crawl(["amery"])
        # Neighbours of amery's page: bob, cary (commenters).
        assert result.fetched == ["amery", "bob", "cary"]
        assert result.dropped_comments == 0
        assert result.max_depth == 1

    def test_radius_covers_whole_graph(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=5)
        )
        result = crawler.crawl(["amery"])
        # bob/cary/helen link to amery, so amery's page doesn't reveal
        # helen; but helen's out-link to amery means helen is only
        # discoverable from pages that list her. jane/eddie comment on
        # helen. Everything reachable undirected-forward: the crawl
        # follows outgoing references only (commenters + linkees), so
        # from amery we see bob, cary; their pages link to amery only.
        assert set(result.fetched) == {"amery", "bob", "cary"}

    def test_seed_at_helen_expands_down(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=3)
        )
        result = crawler.crawl(["helen"])
        # helen's page: commenters jane, eddie; link to amery.
        assert set(result.fetched) >= {"helen", "jane", "eddie", "amery"}

    def test_multiple_seeds(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        )
        result = crawler.crawl(["amery", "dolly"])
        assert result.fetched == ["amery", "dolly"]

    def test_unknown_seed_reported_failed(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        )
        result = crawler.crawl(["amery", "ghost"])
        assert "ghost" in result.failed
        assert result.fetched == ["amery"]

    def test_repeated_failing_seed_is_not_every_seed(self, fig1_corpus):
        """A failed seed given twice does not outnumber the good one."""
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        )
        seeds = ["ghost", "ghost", "amery"]
        assert crawler.crawl(seeds).fetched == ["amery"]
        stream = crawler.stream(seeds)
        assert [wave.fetched for wave in stream] == [["amery"]]
        assert list(stream.failed) == ["ghost"]

    def test_all_seeds_failing_raises(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        )
        with pytest.raises(CrawlError, match="seed"):
            crawler.crawl(["ghost", "phantom"])

    def test_max_spaces_budget(self, fig1_corpus):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus),
            CrawlConfig(radius=3, max_spaces=2),
        )
        result = crawler.crawl(["amery"])
        assert len(result.fetched) == 2


class TestRetriesAndThreads:
    def test_retries_recover_transient_failures(self, small_blogosphere):
        corpus, _ = small_blogosphere
        service = SimulatedBlogService(corpus, failure_rate=0.4, seed=5)
        crawler = BlogCrawler(
            service, CrawlConfig(radius=2, max_retries=2, num_threads=4)
        )
        seed = corpus.blogger_ids()[0]
        result = crawler.crawl([seed])
        assert not result.failed
        assert service.stats.transient_failures > 0

    def test_no_retries_surfaces_failures(self, small_blogosphere):
        corpus, _ = small_blogosphere
        service = SimulatedBlogService(corpus, failure_rate=0.5, seed=5)
        crawler = BlogCrawler(
            service, CrawlConfig(radius=2, max_retries=0, num_threads=2)
        )
        # Use a seed that survives, then expect some frontier failures.
        for seed in corpus.blogger_ids():
            try:
                result = crawler.crawl([seed])
                break
            except CrawlError:
                continue
        assert result.failed

    def test_thread_count_does_not_change_output(self, small_blogosphere):
        corpus, _ = small_blogosphere
        seed = corpus.blogger_ids()[3]

        def crawl(threads):
            crawler = BlogCrawler(
                SimulatedBlogService(corpus),
                CrawlConfig(radius=2, num_threads=threads),
            )
            return crawler.crawl([seed])

        assert dumps_corpus(crawl(1).corpus) == dumps_corpus(crawl(8).corpus)

    def test_parallel_crawl_uses_latency_budget(self, fig1_corpus):
        # With 3 spaces at depth<=1 and per-fetch latency, 4 threads
        # must be faster than the serialized lower bound of 1 thread.
        service = SimulatedBlogService(fig1_corpus, latency=0.05)
        fast = BlogCrawler(
            service, CrawlConfig(radius=1, num_threads=4)
        ).crawl(["helen"])
        slow = BlogCrawler(
            service, CrawlConfig(radius=1, num_threads=1)
        ).crawl(["helen"])
        assert fast.elapsed < slow.elapsed


class TestPersistence:
    def test_crawl_to_directory(self, fig1_corpus, tmp_path):
        crawler = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=1)
        )
        result = crawler.crawl_to_directory(["amery"], tmp_path)
        loaded = load_corpus(tmp_path)
        assert dumps_corpus(loaded) == dumps_corpus(result.corpus)


class TestDeltaStream:
    """The streaming crawl is the batch crawl, delivered in waves."""

    def _accumulate(self, stream):
        from repro.data import BlogCorpus

        accumulated = BlogCorpus()
        last_depth = -1
        for wave in stream:
            assert wave.depth >= last_depth
            last_depth = wave.depth
            assert wave.fetched
            accumulated.extend(
                bloggers=wave.delta.bloggers,
                posts=wave.delta.posts,
                comments=wave.delta.comments,
                links=wave.delta.links,
            )
        return accumulated

    @pytest.mark.parametrize("radius", [0, 1, 3])
    def test_waves_accumulate_to_the_batch_crawl(self, fig1_corpus, radius):
        from repro.core import CorpusDelta

        config = CrawlConfig(radius=radius)
        batch = BlogCrawler(
            SimulatedBlogService(fig1_corpus), config
        ).crawl(["amery"])
        stream = BlogCrawler(
            SimulatedBlogService(fig1_corpus), config
        ).stream(["amery"])
        accumulated = self._accumulate(stream)

        # Identical corpora: nothing new in either direction, and the
        # strict superset check passes both ways.
        assert CorpusDelta.between(accumulated, batch.corpus).is_empty()
        assert CorpusDelta.between(batch.corpus, accumulated).is_empty()
        assert sorted(stream.fetched) == sorted(batch.fetched)
        assert stream.failed == batch.failed
        assert stream.max_depth == batch.max_depth
        assert stream.dropped_comments == batch.dropped_comments
        assert stream.dropped_links == batch.dropped_links
        assert stream.waves >= 1

    def test_stream_matches_batch_on_a_generated_blogosphere(
        self, small_blogosphere
    ):
        from repro.core import CorpusDelta

        corpus, _ = small_blogosphere
        seeds = corpus.blogger_ids()[:3]
        config = CrawlConfig(radius=2)
        batch = BlogCrawler(
            SimulatedBlogService(corpus), config
        ).crawl(seeds)
        stream = BlogCrawler(
            SimulatedBlogService(corpus), config
        ).stream(seeds)
        accumulated = self._accumulate(stream)
        assert CorpusDelta.between(accumulated, batch.corpus).is_empty()
        assert CorpusDelta.between(batch.corpus, accumulated).is_empty()

    def test_stream_is_single_use(self, fig1_corpus):
        stream = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        ).stream(["amery"])
        self._accumulate(stream)
        with pytest.raises(CrawlError, match="once"):
            iter(stream)

    def test_stream_with_all_seeds_failing_raises(self, fig1_corpus):
        stream = BlogCrawler(
            SimulatedBlogService(fig1_corpus), CrawlConfig(radius=0)
        ).stream(["nobody", "missing"])
        with pytest.raises(CrawlError, match="seed"):
            self._accumulate(stream)
