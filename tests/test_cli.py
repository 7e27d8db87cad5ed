"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data import figure1_corpus, save_corpus


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """An XML store backing the CLI's --store / --data options."""
    path = tmp_path_factory.mktemp("clistore")
    assert main(["generate", "--out", str(path), "--bloggers", "120",
                 "--seed", "6"]) == 0
    return path


class TestGenerate:
    def test_generate_writes_store(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "g"),
                     "--bloggers", "30", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "30 bloggers" in out
        assert (tmp_path / "g" / "index.xml").exists()


class TestCrawl:
    def test_crawl_from_store(self, store_dir, tmp_path, capsys):
        code = main([
            "crawl", "--store", str(store_dir),
            "--seed-blogger", "blogger-0000", "--radius", "1",
            "--out", str(tmp_path / "c"),
        ])
        assert code == 0
        assert "crawled" in capsys.readouterr().out
        assert (tmp_path / "c" / "index.xml").exists()

    def test_crawl_bad_seed_errors(self, store_dir, tmp_path, capsys):
        code = main([
            "crawl", "--store", str(store_dir),
            "--seed-blogger", "ghost", "--out", str(tmp_path / "c2"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyze:
    def test_general_ranking(self, store_dir, capsys):
        assert main(["analyze", "--data", str(store_dir), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "Top 2 overall" in out
        assert "1. blogger-" in out

    def test_domain_ranking(self, store_dir, capsys):
        assert main([
            "analyze", "--data", str(store_dir), "--domain", "Art",
            "--top", "3",
        ]) == 0
        assert "Top 3 in Art" in capsys.readouterr().out

    def test_toolbar_parameters(self, store_dir, capsys):
        assert main([
            "analyze", "--data", str(store_dir), "--alpha", "1.0",
            "--beta", "0.2", "--top", "1",
        ]) == 0


class TestAdvertise:
    def test_text_mode(self, store_dir, capsys):
        assert main([
            "advertise", "--data", str(store_dir),
            "--text", "a marathon stadium game for every athlete",
            "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mined interest vector" in out
        assert "Recommended bloggers" in out

    def test_dropdown_mode(self, store_dir, capsys):
        assert main([
            "advertise", "--data", str(store_dir),
            "--domain", "Sports", "--domain", "Travel", "--top", "2",
        ]) == 0
        assert "mode: domains" in capsys.readouterr().out

    def test_general_fallback(self, store_dir, capsys):
        assert main(["advertise", "--data", str(store_dir)]) == 0
        assert "mode: general" in capsys.readouterr().out


class TestRecommend:
    def test_profile_mode(self, store_dir, capsys):
        assert main([
            "recommend", "--data", str(store_dir),
            "--profile", "painting sculpture gallery museum art",
        ]) == 0
        out = capsys.readouterr().out
        assert "mined interests" in out
        assert "Bloggers to follow" in out

    def test_blogger_mode(self, store_dir, capsys):
        assert main([
            "recommend", "--data", str(store_dir),
            "--blogger", "blogger-0000", "--domain", "Travel",
        ]) == 0
        out = capsys.readouterr().out
        assert "blogger-0000" not in out.split("Bloggers to follow")[1]


class TestDetailAndVisualize:
    def test_detail(self, store_dir, capsys):
        assert main([
            "detail", "--data", str(store_dir), "--blogger", "blogger-0001",
        ]) == 0
        out = capsys.readouterr().out
        assert "total influence" in out
        assert "domain scores" in out

    def test_detail_unknown_blogger(self, store_dir, capsys):
        assert main([
            "detail", "--data", str(store_dir), "--blogger", "ghost",
        ]) == 1

    def test_visualize_with_save(self, store_dir, tmp_path, capsys):
        out_file = tmp_path / "net.xml"
        assert main([
            "visualize", "--data", str(store_dir),
            "--center", "blogger-0001", "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert "bloggers" in capsys.readouterr().out


class TestTable1:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--bloggers", "150", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Average Applicable Scores" in out
        assert "Domain Specific" in out


class TestFig1Data:
    def test_analyze_fig1_store(self, tmp_path, capsys):
        # The CLI works on any XML store, including the Fig. 1 sample.
        save_corpus(figure1_corpus(), tmp_path)
        assert main(["analyze", "--data", str(tmp_path), "--top", "1"]) == 0
        assert "amery" in capsys.readouterr().out


class TestCampaign:
    def test_domain_mode(self, store_dir, capsys):
        assert main([
            "campaign", "--data", str(store_dir), "--domain", "Sports",
            "--top", "2", "--coverage-weight", "0.7",
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign selection" in out
        assert "audience covered" in out

    def test_text_mode(self, store_dir, capsys):
        assert main([
            "campaign", "--data", str(store_dir),
            "--text", "the stadium game and marathon",
        ]) == 0
        assert "target interests" in capsys.readouterr().out


class TestTrend:
    def test_trend_output(self, store_dir, capsys):
        assert main([
            "trend", "--data", str(store_dir),
            "--window-days", "120", "--step-days", "120", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "rising bloggers" in out
        assert "slope" in out


class TestDiscover:
    def test_discover_topics(self, store_dir, capsys):
        assert main([
            "discover", "--data", str(store_dir), "--k", "4",
            "--max-posts", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "discovered 4 topics" in out
        assert "posts]" in out


class TestStats:
    def test_stats_output(self, store_dir, capsys):
        assert main(["stats", "--data", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "post-reply network" in out
        assert "in-degree Gini" in out


class TestVisualizeSvg:
    def test_svg_written(self, store_dir, tmp_path, capsys):
        svg_path = tmp_path / "net.svg"
        assert main([
            "visualize", "--data", str(store_dir),
            "--center", "blogger-0001", "--svg", str(svg_path),
        ]) == 0
        assert svg_path.exists()
        assert svg_path.read_text().startswith("<svg")


class TestErrorHandling:
    def test_invalid_toolbar_value_exits_nonzero(self, store_dir, capsys):
        code = main(["analyze", "--data", str(store_dir), "--alpha", "7"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_data_directory(self, tmp_path, capsys):
        code = main(["analyze", "--data", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_visualize_unknown_center(self, store_dir, capsys):
        code = main([
            "visualize", "--data", str(store_dir), "--center", "ghost",
        ])
        assert code == 1

    def test_timeline_on_a_missing_directory_creates_nothing(
        self, tmp_path, capsys
    ):
        code = main(["timeline", "--dir", str(tmp_path / "nodir" / "durable")])
        assert code == 1
        assert "no checkpoint history" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _restore_repro_logger(self):
        """main(--log-level …) reconfigures the repro logger; undo it."""
        import logging

        logger = logging.getLogger("repro")
        saved = (list(logger.handlers), logger.level, logger.propagate)
        yield
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        for handler in saved[0]:
            logger.addHandler(handler)
        logger.setLevel(saved[1])
        logger.propagate = saved[2]

    def test_analyze_writes_metrics_and_trace(self, store_dir, tmp_path,
                                              capsys):
        import json

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        code = main([
            "analyze", "--data", str(store_dir),
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_solver_solves_total"]["value"] == 1
        assert metrics["repro_solver_iterations_total"]["value"] > 0
        assert metrics["repro_analyze_seconds"]["count"] == 1

        trace = json.loads(trace_path.read_text())
        names = [span["name"] for span in trace["spans"]]
        assert "analyze" in names
        analyze = trace["spans"][names.index("analyze")]
        children = [child["name"] for child in analyze["children"]]
        for stage in ("classify", "quality", "gl", "solver"):
            assert stage in children, children
        solver = analyze["children"][children.index("solver")]
        assert solver["events"][0]["iteration"] == 1

    def test_log_level_debug_emits_solver_iterations(self, store_dir,
                                                     tmp_path, capsys):
        code = main([
            "analyze", "--data", str(store_dir), "--log-level", "DEBUG",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.solver" in err
        assert "iteration 1: residual" in err

    def test_log_json_lines(self, store_dir, capsys):
        import json

        code = main([
            "analyze", "--data", str(store_dir),
            "--log-level", "INFO", "--log-json",
        ])
        assert code == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.strip()]
        records = [json.loads(line) for line in lines]
        assert any(record["logger"].startswith("repro") for record in records)

    def test_diagnostics_flag_prints_solver_telemetry(self, store_dir,
                                                      capsys):
        import json

        code = main([
            "analyze", "--data", str(store_dir), "--diagnostics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["solver"]["converged"] is True
        assert payload["solver"]["iterations"] > 0
        assert payload["corpus"]["bloggers"] > 0

    def test_telemetry_written_even_on_error(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "m.json"
        code = main([
            "analyze", "--data", str(tmp_path / "nowhere"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 1
        assert json.loads(metrics_path.read_text()) == {}

    def test_crawl_with_metrics(self, store_dir, tmp_path):
        import json

        metrics_path = tmp_path / "m.json"
        code = main([
            "crawl", "--store", str(store_dir),
            "--seed-blogger", "blogger-0000", "--radius", "1",
            "--out", str(tmp_path / "c"),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_crawler_pages_fetched_total"]["value"] > 0
        assert "repro_crawler_frontier_size" in metrics
