"""Unit and equivalence tests for the columnar data plane.

Covers the builder's append contract (ordering, referential integrity,
link merging), the container writer, bit-identical solves between the
object and columnar planes, the ``open_corpus`` dispatcher plus the
``migrate`` CLI, columnar checkpoints (format version 3, with
version-1 and version-2 checkpoints still readable), and the pinned
bytes of a written file.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import MassModel
from repro.core.report_io import save_report
from repro.data import (
    BlogCorpus,
    dumps_corpus,
    migrate_to_columnar,
    open_corpus,
    save_corpus,
)
from repro.errors import CorpusError, StoreFormatError
from repro.ingest.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointManager,
)
from repro.nlp import NaiveBayesClassifier
from repro.serve import compile_snapshot
from repro.store import (
    ColumnarBuilder,
    ColumnarCorpus,
    StoreReader,
    StoreWriter,
    write_corpus,
)
from repro.synth import DOMAIN_VOCABULARIES
from tests.test_report_io import format1_epoch
from tests.test_store_properties import _assert_equivalent

#: ``write_corpus(figure1_corpus())``.  ``perfbench/inputs.json`` pins
#: the SHA-256 of the files ``write_corpus`` writes for the benchmark,
#: so a change to the layout or the manifest flags must fail here first.
FIG1_MCOL_BYTES = 8090
FIG1_MCOL_SHA256 = (
    "60d441d02c4a0d3f87fcba03228336f09311688e8db0eebdc1608f4c1fb96bb6"
)
#: The Fig. 1 corpus written with the four interest-vector token
#: sections (the ``vocab`` pool and three per-post term-count columns)
#: that the store no longer writes or reads.
TOKENS_MCOL = Path(__file__).parent / "compat" / "fig1_tokens.mcol"
#: The Fig. 1 snapshot epoch (format 2) under the seed-vocabulary
#: classifier, and the format-1 epoch of the same fit.
FIG1_EPOCH = (
    "6d1214db488ebfc5ac8e12802d7f4563a9cc323672ea6123d36e166e9a7afbfa"
)
FIG1_EPOCH_FORMAT_1 = (
    "dbb078c0deceb804f4865cbb91a48c64955bdaca71922c9f7ec9d58c2fee01ab"
)


@pytest.fixture()
def builder():
    instance = ColumnarBuilder()
    yield instance
    instance.close()


class TestBuilderValidation:
    def test_ids_must_strictly_ascend(self, builder):
        builder.add_blogger("b")
        with pytest.raises(CorpusError, match="ascending"):
            builder.add_blogger("a")
        with pytest.raises(CorpusError, match="ascending"):
            builder.add_blogger("b")
        builder.add_post("p1", "b")
        with pytest.raises(CorpusError, match="ascending"):
            builder.add_post("p0", "b")
        builder.add_comment("c1", "p1", "b")
        with pytest.raises(CorpusError, match="ascending"):
            builder.add_comment("c1", "p1", "b")

    def test_referential_integrity_at_append(self, builder):
        builder.add_blogger("alice")
        with pytest.raises(CorpusError, match="unknown blogger"):
            builder.add_post("p0", "nobody")
        builder.add_post("p0", "alice")
        with pytest.raises(CorpusError, match="unknown post"):
            builder.add_comment("c0", "p-missing", "alice")
        with pytest.raises(CorpusError, match="unknown blogger"):
            builder.add_comment("c0", "p0", "nobody")

    def test_link_validation(self, builder):
        builder.add_blogger("alice")
        builder.add_blogger("bob")
        with pytest.raises(CorpusError, match="self-link"):
            builder.add_link("alice", "alice")
        with pytest.raises(CorpusError, match="unknown"):
            builder.add_link("alice", "nobody")
        with pytest.raises(CorpusError, match="unknown"):
            builder.add_link("nobody", "bob")
        for bad in (0.0, -1.0, math.nan, math.inf, "heavy"):
            with pytest.raises(CorpusError, match="positive"):
                builder.add_link("alice", "bob", bad)

    def test_merge_that_overflows_is_refused(self, builder, tmp_path):
        builder.add_blogger("a")
        builder.add_blogger("b")
        builder.add_link("a", "b", 1e308)
        with pytest.raises(CorpusError, match="finite positive"):
            builder.add_link("a", "b", 1e308)
        path = builder.finish(tmp_path / "links.mcol")
        with ColumnarCorpus.open(path) as view:
            assert [link.weight for link in view.links] == [1e308]

    def test_parallel_links_merge_in_first_position(self, builder, tmp_path):
        for blogger_id in ("a", "b", "c"):
            builder.add_blogger(blogger_id)
        builder.add_link("a", "b", 1.0)
        builder.add_link("a", "c", 0.5)
        builder.add_link("a", "b", 2.0)
        assert builder.counts["links"] == 2
        path = builder.finish(tmp_path / "links.mcol")
        with ColumnarCorpus.open(path) as view:
            assert [
                (link.source_id, link.target_id, link.weight)
                for link in view.links
            ] == [("a", "b", 3.0), ("a", "c", 0.5)]

    def test_counts_track_appends(self, builder):
        assert builder.counts == {
            "bloggers": 0, "posts": 0, "comments": 0, "links": 0,
        }
        builder.add_blogger("a")
        builder.add_blogger("b")
        builder.add_post("p", "a")
        builder.add_comment("c", "p", "b")
        builder.add_link("b", "a")
        assert builder.counts == {
            "bloggers": 2, "posts": 1, "comments": 1, "links": 1,
        }

    def test_finished_builder_rejects_appends(self, builder, tmp_path):
        builder.add_blogger("a")
        builder.finish(tmp_path / "done.mcol")
        with pytest.raises(CorpusError, match="finished"):
            builder.add_blogger("b")

    def test_empty_ids_and_negative_days_rejected(self, builder):
        with pytest.raises(CorpusError):
            builder.add_blogger("")
        with pytest.raises(CorpusError):
            builder.add_blogger("a", joined_day=-1)

    def test_empty_corpus_round_trips(self, builder, tmp_path):
        path = builder.finish(tmp_path / "empty.mcol")
        with ColumnarCorpus.open(path) as view:
            assert len(view) == 0
            assert view.blogger_ids() == []
            assert list(view.links) == []

    def test_scratch_is_released_on_close(self, tmp_path):
        instance = ColumnarBuilder(scratch_dir=tmp_path)
        scratch_dirs = list(tmp_path.glob("mass-col-*"))
        assert len(scratch_dirs) == 1
        instance.add_blogger("a")
        instance.close()
        assert not scratch_dirs[0].exists()
        instance.close()  # idempotent


class TestStoreWriter:
    def test_duplicate_section_rejected(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.mcol")
        writer.add_section("col", "i64", [b"\x00" * 8])
        with pytest.raises(StoreFormatError, match="duplicate"):
            writer.add_section("col", "i64", [b""])
        writer.abort()

    def test_unknown_kind_rejected(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.mcol")
        with pytest.raises(StoreFormatError, match="unknown section kind"):
            writer.add_section("col", "u32", [b""])
        writer.abort()

    def test_finish_twice_rejected(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.mcol")
        writer.finish({})
        with pytest.raises(StoreFormatError, match="twice"):
            writer.finish({})

    def test_abort_leaves_nothing_behind(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.mcol")
        writer.add_section("col", "raw", [b"abc"])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_odd_length_sections_stay_aligned_and_chunked(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.mcol")
        writer.add_section("blob", "raw", [b"abc", b"", b"de"])
        writer.add_section("col", "i64", [(7).to_bytes(8, "little"),
                                          (9).to_bytes(8, "little")])
        path = writer.finish({"rows": 2}, flags={"testing": True})
        reader = StoreReader(path)
        try:
            assert bytes(reader.raw("blob")) == b"abcde"
            assert list(reader.i64("col")) == [7, 9]
            assert reader.counts == {"rows": 2}
            assert reader.flags == {"testing": True}
            assert reader.has("blob") and not reader.has("missing")
        finally:
            reader.close()


@pytest.fixture(scope="module")
def fig1_planes(tmp_path_factory, fig1_corpus):
    """The Fig. 1 corpus on both planes: objects and mapped columns."""
    path = tmp_path_factory.mktemp("planes") / "fig1.mcol"
    write_corpus(fig1_corpus, path)
    view = ColumnarCorpus.open(path)
    yield fig1_corpus, view
    view.close()


class TestSolveEquivalence:
    def test_fig1_solve_is_bit_identical(self, fig1_planes, fig1_seed_words):
        corpus, view = fig1_planes
        object_report = MassModel(
            domain_seed_words=fig1_seed_words
        ).fit(corpus)
        columnar_report = MassModel(
            domain_seed_words=fig1_seed_words
        ).fit(view)
        assert columnar_report.general_scores() == \
            object_report.general_scores()
        # The snapshot epoch hashes every id and score: equality here
        # is bit-identity of the whole served surface.
        assert compile_snapshot(columnar_report).epoch == \
            compile_snapshot(object_report).epoch

    def test_generated_blogosphere_epoch_matches(self, small_blogosphere,
                                                 tmp_path):
        corpus, _ = small_blogosphere
        path = write_corpus(corpus, tmp_path / "small.mcol")
        with ColumnarCorpus.open(path) as view:
            columnar_report = MassModel(
                domain_seed_words=DOMAIN_VOCABULARIES
            ).fit(view)
        object_report = MassModel(
            domain_seed_words=DOMAIN_VOCABULARIES
        ).fit(corpus)
        assert compile_snapshot(columnar_report).epoch == \
            compile_snapshot(object_report).epoch

    def test_derived_views_match_object_plane(self, fig1_planes):
        corpus, view = fig1_planes
        some = corpus.blogger_ids()[:4]
        assert dumps_corpus(view.subset(some)) == \
            dumps_corpus(corpus.subset(some))
        assert dumps_corpus(view.time_slice(0, 30)) == \
            dumps_corpus(corpus.time_slice(0, 30))

    def test_lookup_errors_match_protocol(self, fig1_planes):
        _, view = fig1_planes
        with pytest.raises(CorpusError, match="unknown blogger"):
            view.blogger("nobody")
        with pytest.raises(CorpusError, match="unknown post"):
            view.post("no-post")
        with pytest.raises(CorpusError, match="unknown post"):
            view.post_author_id("no-post")
        assert view.posts_by("nobody") == []
        assert view.comments_on("no-post") == []
        assert view.num_comments_on("no-post") == 0
        assert view.in_links("nobody") == []
        with pytest.raises(CorpusError, match="unknown bloggers"):
            view.subset(["nobody"])
        with pytest.raises(CorpusError, match="empty window"):
            view.time_slice(5, 5)


class TestFileCompatibility:
    def test_written_bytes_are_pinned(self, fig1_corpus, tmp_path):
        blob = write_corpus(fig1_corpus, tmp_path / "fig1.mcol").read_bytes()
        assert len(blob) == FIG1_MCOL_BYTES
        assert hashlib.sha256(blob).hexdigest() == FIG1_MCOL_SHA256

    def test_token_file_opens_and_answers_like_fig1(self, fig1_corpus):
        reader = StoreReader(TOKENS_MCOL)
        try:
            assert reader.flags == {"tokens": True}
            assert reader.has("vocab_off") and reader.has("vocab_blob")
        finally:
            reader.close()
        with ColumnarCorpus.open(TOKENS_MCOL) as view:
            _assert_equivalent(fig1_corpus, view)

    def test_token_file_fits_to_the_plain_epoch(self, fig1_corpus,
                                                tmp_path):
        classifier = NaiveBayesClassifier.from_seed_vocabulary(
            DOMAIN_VOCABULARIES
        )
        plain = write_corpus(fig1_corpus, tmp_path / "fig1.mcol")
        epochs = []
        for path in (plain, TOKENS_MCOL):
            with ColumnarCorpus.open(path) as view:
                report = MassModel(classifier=classifier).fit(view)
                epochs.append(
                    (compile_snapshot(report).epoch, format1_epoch(report))
                )
        assert epochs == [(FIG1_EPOCH, FIG1_EPOCH_FORMAT_1)] * 2

    def test_token_file_rewrites_to_the_pinned_bytes(self, tmp_path):
        with ColumnarCorpus.open(TOKENS_MCOL) as view:
            blob = write_corpus(view, tmp_path / "plain.mcol").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == FIG1_MCOL_SHA256


class TestMigrationAndDispatch:
    def test_migrate_round_trips_the_xml_store(self, fig1_corpus, tmp_path):
        directory = save_corpus(fig1_corpus, tmp_path / "crawl")
        dest = migrate_to_columnar(directory, tmp_path / "crawl.mcol")
        with ColumnarCorpus.open(dest) as view:
            assert view.blogger_ids() == fig1_corpus.blogger_ids()
            assert list(view.posts) == sorted(fig1_corpus.posts)
            assert list(view.comments) == sorted(fig1_corpus.comments)
            assert len(view.links) == len(fig1_corpus.links)

    def test_open_corpus_dispatches_on_disk_form(self, fig1_corpus,
                                                 tmp_path):
        directory = save_corpus(fig1_corpus, tmp_path / "crawl")
        dest = write_corpus(fig1_corpus, tmp_path / "crawl.mcol")
        loaded = open_corpus(directory)
        assert isinstance(loaded, BlogCorpus)
        view = open_corpus(dest)
        try:
            assert isinstance(view, ColumnarCorpus)
            assert view.blogger_ids() == loaded.blogger_ids()
        finally:
            view.close()

    def test_migrate_cli(self, fig1_corpus, tmp_path):
        directory = save_corpus(fig1_corpus, tmp_path / "crawl")
        out = tmp_path / "migrated.mcol"
        assert main([
            "migrate", "--data", str(directory), "--out", str(out),
        ]) == 0
        with ColumnarCorpus.open(out) as view:
            assert len(view) == len(fig1_corpus.bloggers)

    def test_analyze_cli_accepts_columnar_data(self, small_blogosphere,
                                               tmp_path):
        corpus, _ = small_blogosphere
        dest = write_corpus(corpus, tmp_path / "small.mcol")
        assert main(["analyze", "--data", str(dest), "--top", "3"]) == 0


class TestCheckpointV2:
    def test_checkpoint_round_trips_columnar(self, tmp_path, fig1_corpus,
                                             fig1_seed_words):
        report = MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)
        manager = CheckpointManager(tmp_path / "ckpt")
        path = manager.write(fig1_corpus, report, seq=3)
        assert (path / "corpus.mcol").is_file()
        assert not (path / "corpus").exists()
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
        assert (path / "report.mcol").is_file()
        assert not (path / "report.xml").exists()
        loaded = manager.load(report.params)
        assert loaded.seq == 3
        assert isinstance(loaded.corpus, ColumnarCorpus)
        assert loaded.report.general_scores() == report.general_scores()
        loaded.corpus.close()

    def test_version1_xml_checkpoints_still_load(self, tmp_path,
                                                 fig1_corpus,
                                                 fig1_seed_words):
        report = MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)
        directory = tmp_path / "ckpt" / "ckpt-00000007"
        directory.mkdir(parents=True)
        save_corpus(fig1_corpus, directory / "corpus")
        save_report(report, directory / "report.xml")
        (directory / "meta.json").write_text(json.dumps({
            "format_version": 1,
            "seq": 7,
            "params_fingerprint": report.params.fingerprint(),
        }), encoding="utf-8")
        loaded = CheckpointManager(tmp_path / "ckpt").load(report.params)
        assert loaded.seq == 7
        assert isinstance(loaded.corpus, BlogCorpus)
        assert loaded.report.general_scores() == report.general_scores()

    def test_version2_checkpoints_still_load(self, tmp_path, fig1_corpus,
                                             fig1_seed_words):
        # Version 2: a columnar corpus beside an XML report.
        report = MassModel(domain_seed_words=fig1_seed_words).fit(fig1_corpus)
        directory = tmp_path / "ckpt" / "ckpt-00000005"
        directory.mkdir(parents=True)
        write_corpus(fig1_corpus, directory / "corpus.mcol")
        save_report(report, directory / "report.xml")
        (directory / "meta.json").write_text(json.dumps({
            "format_version": 2,
            "seq": 5,
            "params_fingerprint": report.params.fingerprint(),
        }), encoding="utf-8")
        loaded = CheckpointManager(tmp_path / "ckpt").load(report.params)
        assert loaded.seq == 5
        assert isinstance(loaded.corpus, ColumnarCorpus)
        assert compile_snapshot(loaded.report).epoch == \
            compile_snapshot(report).epoch
        loaded.corpus.close()
