"""Tests for streaming blogosphere synthesis into columnar files."""

from __future__ import annotations

from repro.core import MassModel
from repro.store import ColumnarCorpus
from repro.synth import DOMAIN_VOCABULARIES, BlogosphereConfig
from repro.synth.stream import stream_blogosphere

_CONFIG = BlogosphereConfig(num_bloggers=60, posts_per_blogger=2)


class TestStreamBlogosphere:
    def test_same_seed_is_byte_identical(self, tmp_path):
        first = stream_blogosphere(tmp_path / "a.mcol", _CONFIG, seed=42)
        second = stream_blogosphere(tmp_path / "b.mcol", _CONFIG, seed=42)
        assert first.path.read_bytes() == second.path.read_bytes()
        different = stream_blogosphere(
            tmp_path / "c.mcol", _CONFIG, seed=43
        )
        assert different.path.read_bytes() != first.path.read_bytes()

    def test_summary_matches_the_stored_corpus(self, tmp_path):
        summary = stream_blogosphere(
            tmp_path / "sphere.mcol", _CONFIG, seed=7
        )
        assert summary.num_bloggers == _CONFIG.num_bloggers
        with ColumnarCorpus.open(summary.path) as view:
            stats = view.stats()
            assert stats.num_bloggers == summary.num_bloggers
            assert stats.num_posts == summary.num_posts
            assert stats.num_comments == summary.num_comments
            assert stats.num_links == summary.num_links
            # Planted influencers exist and write in their domain.
            assert summary.planted
            for blogger_id in summary.planted:
                assert blogger_id in view
                assert view.posts_by(blogger_id)

    def test_streamed_corpus_is_solvable(self, tmp_path):
        summary = stream_blogosphere(
            tmp_path / "sphere.mcol", _CONFIG, seed=11
        )
        with ColumnarCorpus.open(summary.path) as view:
            report = MassModel(
                domain_seed_words=DOMAIN_VOCABULARIES
            ).fit(view)
            scores = report.general_scores()
        assert set(scores) == {
            f"blogger-{i:04d}" for i in range(_CONFIG.num_bloggers)
        }
