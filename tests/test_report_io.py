"""Tests for analysis-report XML persistence."""

import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.core import MassModel, MassParameters, load_report, save_report
from repro.data import figure1_corpus, figure1_domains
from repro.errors import XmlFormatError
from repro.serve import InfluenceSnapshot
from tests.test_parameters import DEFAULT_FINGERPRINT

#: The default-parameter Fig. 1 report as saved while the shard-parallel
#: backend existed: 22 ``<param>`` elements, ``num_workers`` and
#: ``shard_count`` among them.
COMPAT_REPORT = Path(__file__).parent / "compat" / "fig1_report.xml"
#: The snapshot epoch (format 2) that report compiles to.
COMPAT_EPOCH = (
    "0066bdfc310043ac8fc8a9da425d00b7f08a6a5e94494096d8231ec66078507c"
)
#: The format-1 epoch it compiled to when it was written.
COMPAT_EPOCH_FORMAT_1 = (
    "31b5ae96c4a0333fc8e0943b982150826e58b6190c4dbf108ab0a819d6da2db9"
)


def format1_epoch(report) -> str:
    """The snapshot epoch of ``report`` under epoch format 1.

    Snapshots before epoch format 2 hashed the parameter fingerprint,
    the ``\\x1f``-joined domains, then per blogger in sorted id order
    its id, ``repr`` of its influence and the comma-joined ``repr``\\ s
    of its domain row, with nothing between the pieces, all UTF-8.
    Recomputing it checks that a report still reproduces the analysis
    it was saved from, bit for bit.
    """
    blogger_ids = sorted(report.scores.influence)
    rows = report.domain_influence.rows(blogger_ids)
    width = len(report.domains)
    stream = [report.params.fingerprint(), "\x1f".join(report.domains)]
    for row, blogger_id in enumerate(blogger_ids):
        stream.append(blogger_id)
        stream.append(repr(report.scores.influence[blogger_id]))
        stream.append(",".join(map(repr, rows[row * width:(row + 1) * width])))
    return hashlib.sha256("".join(stream).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fig1_report():
    corpus = figure1_corpus()
    params = MassParameters(alpha=0.7, beta=0.4, gl_method="hits")
    report = MassModel(
        params=params, domain_seed_words=figure1_domains()
    ).fit(corpus)
    return corpus, report


class TestRoundTrip:
    def test_scores_bit_exact(self, fig1_report, tmp_path):
        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        assert loaded.scores.influence == report.scores.influence
        assert loaded.scores.ap == report.scores.ap
        assert loaded.scores.gl == report.scores.gl
        assert loaded.scores.post_influence == report.scores.post_influence
        assert loaded.scores.quality == report.scores.quality
        assert loaded.scores.comment_score == report.scores.comment_score

    def test_params_restored(self, fig1_report, tmp_path):
        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        assert loaded.params == report.params

    def test_domain_vectors_restored(self, fig1_report, tmp_path):
        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        for blogger_id in corpus.blogger_ids():
            assert loaded.domain_influence.vector(blogger_id) == \
                report.domain_influence.vector(blogger_id)

    def test_rankings_identical(self, fig1_report, tmp_path):
        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        assert loaded.top_influencers(3) == report.top_influencers(3)
        assert loaded.ranking("Computer") == report.ranking("Computer")

    def test_solver_diagnostics_restored(self, fig1_report, tmp_path):
        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        assert loaded.scores.iterations == report.scores.iterations
        assert loaded.scores.converged == report.scores.converged
        assert loaded.scores.residual == report.scores.residual
        assert loaded.scores.iterations > 0

    def test_diagnostics_view_survives_round_trip(self, fig1_report,
                                                  tmp_path):
        """The report's diagnostics() view is identical after reload."""
        import json

        corpus, report = fig1_report
        path = save_report(report, tmp_path / "analysis.xml")
        loaded = load_report(path, corpus)
        original = report.diagnostics()
        restored = loaded.diagnostics()
        assert restored == original
        assert restored["solver"]["iterations"] == report.scores.iterations
        assert restored["solver"]["converged"] == report.scores.converged
        assert restored["solver"]["residual"] == report.scores.residual
        # The view must be strict-JSON serializable for dashboards.
        json.dumps(restored, allow_nan=False)


class TestErrors:
    def test_wrong_corpus_rejected(self, fig1_report, tmp_path,
                                   small_blogosphere):
        _, report = fig1_report
        other_corpus, _ = small_blogosphere
        path = save_report(report, tmp_path / "analysis.xml")
        with pytest.raises(XmlFormatError, match="do not match"):
            load_report(path, other_corpus)

    def test_invalid_xml(self, tmp_path, fig1_report):
        corpus, _ = fig1_report
        path = tmp_path / "broken.xml"
        path.write_text("<analysis><solver>")
        with pytest.raises(XmlFormatError, match="invalid analysis XML"):
            load_report(path, corpus)

    def test_wrong_root(self, tmp_path, fig1_report):
        corpus, _ = fig1_report
        path = tmp_path / "wrong.xml"
        path.write_text("<other/>")
        with pytest.raises(XmlFormatError, match="expected <analysis>"):
            load_report(path, corpus)

    def test_missing_sections(self, tmp_path, fig1_report):
        corpus, _ = fig1_report
        path = tmp_path / "empty.xml"
        path.write_text("<analysis/>")
        with pytest.raises(XmlFormatError, match="no <parameters>"):
            load_report(path, corpus)


class TestCompatibility:
    def test_report_with_retired_params_loads_to_the_same_epoch(self):
        names = [
            param.get("name")
            for param in ET.parse(COMPAT_REPORT).getroot().iter("param")
        ]
        assert len(names) == 22
        assert {"num_workers", "shard_count"} <= set(names)

        loaded = load_report(COMPAT_REPORT, figure1_corpus())
        assert loaded.params == MassParameters()
        assert loaded.params.fingerprint() == DEFAULT_FINGERPRINT
        assert InfluenceSnapshot.compile(loaded).epoch == COMPAT_EPOCH
        assert format1_epoch(loaded) == COMPAT_EPOCH_FORMAT_1

    @pytest.mark.parametrize("name, old, new", [
        ("solver_backend", "'auto'", "'parallel'"),
        ("alpha", "0.5", "3.0"),
        ("max_iterations", "500", "'many'"),
    ])
    def test_invalid_param_value_is_a_format_error(self, tmp_path, name,
                                                   old, new):
        text = COMPAT_REPORT.read_text(encoding="utf-8")
        before = f'<param name="{name}" value="{old}" />'
        assert before in text
        path = tmp_path / "analysis.xml"
        path.write_text(
            text.replace(before, f'<param name="{name}" value="{new}" />'),
            encoding="utf-8",
        )
        with pytest.raises(XmlFormatError, match="invalid <parameters>"):
            load_report(path, figure1_corpus())
