"""Checkpoint format 3: the report as ``.mcol`` columns.

The column codec (:func:`repro.core.report_io.save_report_columns`)
must load the same report as the XML codec, bit for bit and in the same
key order; a damaged, truncated or foreign ``report.mcol`` must be
refused; and ``IncrementalAnalyzer.restore`` must adopt the loaded
membership table by reference.
"""

from __future__ import annotations

import shutil
import struct

import pytest

from repro.core import (
    CorpusDelta,
    IncrementalAnalyzer,
    MassModel,
    MassParameters,
    load_report,
    load_report_columns,
    save_report,
    save_report_columns,
)
from repro.data import Blogger, Comment, Link, Post
from repro.errors import CheckpointError, StoreFormatError
from repro.ingest import CheckpointManager
from repro.nlp import NaiveBayesClassifier
from repro.serve import InfluenceSnapshot
from repro.store import ColumnarCorpus, write_corpus
from repro.synth import DOMAIN_VOCABULARIES

SCORE_FIELDS = (
    "influence", "post_influence", "ap", "gl", "quality", "comment_score",
)


def _bits(values: dict[str, float]) -> list[tuple[str, bytes]]:
    """Keys in order, each with its float's bytes."""
    return [(key, struct.pack("<d", value)) for key, value in values.items()]


def _delta(corpus, tag: str) -> CorpusDelta:
    """A new blogger and two posts whose ids sort before and after the rest."""
    authors = sorted(corpus.blogger_ids())
    newcomer = f"newcomer-{tag}"
    posts = [
        Post(f"a-post-{tag}", authors[0],
             body="the stadium crowd and the final game " * 3,
             created_day=400),
        Post(f"z-post-{tag}", newcomer,
             body="a museum of painting and sculpture " * 3,
             created_day=401),
    ]
    return CorpusDelta(
        bloggers=[Blogger(newcomer)],
        posts=posts,
        comments=[Comment(f"c-{tag}", posts[1].post_id, authors[1],
                          text="I agree, a wonderful read",
                          created_day=402)],
        links=[Link(authors[2], newcomer)],
    )


@pytest.fixture(scope="module")
def classifier():
    return NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)


@pytest.fixture(scope="module", params=["fig1", "small-after-apply"])
def live_report(request, fig1_corpus, fig1_seed_words, small_blogosphere,
                classifier):
    if request.param == "fig1":
        return MassModel(
            params=MassParameters(alpha=0.7, beta=0.4, gl_method="hits"),
            domain_seed_words=fig1_seed_words,
        ).fit(fig1_corpus)
    corpus, _ = small_blogosphere
    analyzer = IncrementalAnalyzer(classifier)
    analyzer.fit(corpus)
    # The delta's membership rows are appended out of post-id order.
    return analyzer.apply(_delta(corpus, "0"))


class TestRoundTrip:
    def test_columns_load_what_the_xml_codec_loads(self, live_report,
                                                   tmp_path):
        corpus = ColumnarCorpus.open(
            write_corpus(live_report.corpus, tmp_path / "corpus.mcol")
        )
        from_xml = load_report(
            save_report(live_report, tmp_path / "report.xml"), corpus
        )
        path = save_report_columns(live_report, tmp_path / "report.mcol")
        from_columns = load_report_columns(path, corpus)
        # Paired with the object corpus, whose posts are not in id order.
        from_objects = load_report_columns(path, live_report.corpus)
        for name in SCORE_FIELDS:
            expected = _bits(dict(sorted(
                getattr(live_report.scores, name).items()
            )))
            assert _bits(getattr(from_xml.scores, name)) == expected, name
            assert _bits(getattr(from_columns.scores, name)) == expected, \
                name
            assert _bits(getattr(from_objects.scores, name)) == expected, \
                name
        for name in ("iterations", "converged", "backend"):
            assert getattr(from_columns.scores, name) == \
                getattr(live_report.scores, name), name
        assert struct.pack("<d", from_columns.scores.residual) == \
            struct.pack("<d", live_report.scores.residual)
        assert from_columns.params == live_report.params
        assert from_columns.domains == live_report.domains
        live_memberships = live_report.domain_influence
        for post_id in corpus.posts:
            row = from_columns.domain_influence.post_membership(post_id)
            assert _bits(row) == _bits(
                live_memberships.post_membership(post_id)
            ), post_id
        assert InfluenceSnapshot.compile(from_columns).epoch == \
            InfluenceSnapshot.compile(live_report).epoch
        corpus.close()

    def test_checkpoint_restores_the_live_epoch(self, live_report,
                                                tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.write(live_report.corpus, live_report, seq=4)
        assert sorted(p.name for p in path.iterdir()) == [
            "corpus.mcol", "meta.json", "report.mcol",
        ]
        loaded = manager.load(live_report.params)
        assert loaded.report.domain_influence.memberships.values.tobytes() \
            == live_report.domain_influence.memberships.matrix(
                sorted(live_report.corpus.posts)
            ).tobytes()
        assert InfluenceSnapshot.compile(loaded.report).epoch == \
            InfluenceSnapshot.compile(live_report).epoch
        loaded.corpus.close()


class TestDamageIsRefused:
    @pytest.fixture()
    def checkpoint(self, tmp_path, classifier, small_blogosphere):
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        report = analyzer.apply(_delta(corpus, "0"))
        manager = CheckpointManager(tmp_path / "ckpt")
        return manager, manager.write(report.corpus, report, seq=1)

    def _refused(self, manager, path) -> None:
        with pytest.raises(CheckpointError, match=path.name) as info:
            manager.load()
        assert "unreadable" in str(info.value)

    def test_flipped_byte(self, checkpoint):
        manager, path = checkpoint
        target = path / "report.mcol"
        data = bytearray(target.read_bytes())
        data[len(data) // 3] ^= 0x01
        target.write_bytes(bytes(data))
        self._refused(manager, path)

    def test_truncated(self, checkpoint):
        manager, path = checkpoint
        target = path / "report.mcol"
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        self._refused(manager, path)

    def test_report_of_another_corpus_with_other_counts(
        self, checkpoint, tmp_path, fig1_corpus, fig1_seed_words
    ):
        manager, path = checkpoint
        other = MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)
        foreign = CheckpointManager(tmp_path / "foreign").write(
            fig1_corpus, other, seq=1
        )
        shutil.copyfile(foreign / "report.mcol", path / "report.mcol")
        self._refused(manager, path)

    def test_report_of_another_corpus_with_the_same_counts(
        self, checkpoint, tmp_path, classifier, small_blogosphere
    ):
        # Same bloggers and posts counted, other ids: only the id CRCs
        # tell the two apart.
        manager, path = checkpoint
        corpus, _ = small_blogosphere
        analyzer = IncrementalAnalyzer(classifier)
        analyzer.fit(corpus)
        report = analyzer.apply(_delta(corpus, "1"))
        foreign = CheckpointManager(tmp_path / "foreign").write(
            report.corpus, report, seq=1
        )
        shutil.copyfile(foreign / "report.mcol", path / "report.mcol")
        with pytest.raises(CheckpointError, match="ids do not match"):
            manager.load()

    def test_corpus_file_is_not_a_report(self, tmp_path, fig1_corpus):
        path = write_corpus(fig1_corpus, tmp_path / "corpus.mcol")
        with pytest.raises(StoreFormatError, match="not a report"):
            load_report_columns(path, fig1_corpus)


class TestRestoreAdoptsTheTable:
    def test_restore_then_apply_matches_the_uninterrupted_run(
        self, tmp_path, classifier, small_blogosphere
    ):
        corpus, _ = small_blogosphere
        live = IncrementalAnalyzer(classifier)
        live.fit(corpus)
        report = live.apply(_delta(corpus, "0"))
        manager = CheckpointManager(tmp_path)
        manager.write(report.corpus, report, seq=1)

        loaded = manager.load(live.params)
        restored = IncrementalAnalyzer(classifier)
        restored.restore(loaded.corpus, loaded.report)
        table = loaded.report.domain_influence.memberships
        assert restored._memberships is table

        delta = _delta(corpus, "1")
        expected = live.apply(delta)
        resumed = restored.apply(delta)
        assert restored._memberships is table
        assert len(table) == len(resumed.corpus.posts)
        assert InfluenceSnapshot.compile(resumed).epoch == \
            InfluenceSnapshot.compile(expected).epoch
