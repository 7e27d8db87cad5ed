"""Unit tests for network metrics, plus generator realism checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import (
    Digraph,
    average_clustering,
    clustering_coefficient,
    degree_histogram,
    gini_coefficient,
    link_graph,
    post_reply_graph,
    reciprocity,
    summarize_network,
)


def triangle_plus_tail() -> Digraph:
    graph = Digraph()
    graph.add_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    return graph


class TestDegreeHistogram:
    def test_counts(self):
        histogram = degree_histogram(triangle_plus_tail(), "in")
        # a, b, c, d all have in-degree 1.
        assert histogram == {1: 4}

    def test_out_direction(self):
        histogram = degree_histogram(triangle_plus_tail(), "out")
        # a and b have out-degree 1, c has 2, d has 0.
        assert histogram == {0: 1, 1: 2, 2: 1}

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            degree_histogram(Digraph(), "sideways")


class TestGini:
    def test_equal_values_zero(self):
        assert gini_coefficient([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_concentrated_high(self):
        assert gini_coefficient([0.0] * 9 + [100.0]) > 0.85

    def test_empty_and_zero(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1.0, 2.0])

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=30))
    def test_bounded(self, values):
        value = gini_coefficient(values)
        assert -1e-9 <= value <= 1.0

    @given(st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2,
                    max_size=30), st.floats(0.1, 10))
    def test_scale_invariant(self, values, scale):
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient([v * scale for v in values]), abs=1e-9
        )


class TestReciprocity:
    def test_no_edges(self):
        assert reciprocity(Digraph()) == 0.0

    def test_fully_mutual(self):
        graph = Digraph()
        graph.add_edges([("a", "b"), ("b", "a")])
        assert reciprocity(graph) == 1.0

    def test_one_way(self):
        graph = Digraph()
        graph.add_edges([("a", "b"), ("b", "c")])
        assert reciprocity(graph) == 0.0

    def test_mixed(self):
        graph = Digraph()
        graph.add_edges([("a", "b"), ("b", "a"), ("a", "c"), ("a", "d")])
        assert reciprocity(graph) == 0.5


class TestClustering:
    def test_triangle_node(self):
        graph = triangle_plus_tail()
        # a's neighbours are b and c, which are connected -> 1.0.
        assert clustering_coefficient(graph, "a") == 1.0

    def test_tail_node(self):
        graph = triangle_plus_tail()
        assert clustering_coefficient(graph, "d") == 0.0

    def test_hub_of_unconnected_spokes(self):
        graph = Digraph()
        graph.add_edges([("hub", "x"), ("hub", "y"), ("hub", "z")])
        assert clustering_coefficient(graph, "hub") == 0.0

    def test_average(self):
        graph = triangle_plus_tail()
        # a: 1.0, b: 1.0, c: 1/3 (neighbours a,b,d; only a-b linked), d: 0.
        expected = (1.0 + 1.0 + 1 / 3 + 0.0) / 4
        assert average_clustering(graph) == pytest.approx(expected)

    def test_average_empty(self):
        assert average_clustering(Digraph()) == 0.0


class TestSummary:
    def test_summary_fields(self):
        graph = triangle_plus_tail()
        graph.add_node("loner")
        summary = summarize_network(graph)
        assert summary.nodes == 5
        assert summary.edges == 4
        assert summary.isolated_nodes == 1
        assert summary.max_in_degree == 1
        assert len(summary.rows()) == 8


class TestGeneratorRealism:
    """The synthetic blogosphere must look like a real one."""

    def test_comment_indegree_heavy_tailed(self, medium_blogosphere):
        corpus, _ = medium_blogosphere
        graph = post_reply_graph(corpus)
        degrees = [graph.in_degree(node, weighted=True) for node in graph]
        # Strong inequality: a small elite receives most comments.
        assert gini_coefficient(degrees) > 0.5
        assert max(degrees) > 5 * (sum(degrees) / len(degrees))

    def test_link_graph_skewed_but_less(self, medium_blogosphere):
        corpus, _ = medium_blogosphere
        graph = link_graph(corpus)
        degrees = [graph.in_degree(node) for node in graph]
        assert gini_coefficient(degrees) > 0.3

    def test_reciprocity_low(self, medium_blogosphere):
        # Endorsement links point up the influence gradient, so mutual
        # links are rare — as in real blogrolls.
        corpus, _ = medium_blogosphere
        assert reciprocity(link_graph(corpus)) < 0.3

    def test_summary_runs_at_scale(self, medium_blogosphere):
        corpus, _ = medium_blogosphere
        summary = summarize_network(post_reply_graph(corpus))
        assert summary.nodes == 400
        assert summary.mean_in_degree > 1.0
