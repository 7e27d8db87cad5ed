"""GL on link arrays: the CSR matrix and the order contract of its kernels.

PageRank and HITS sweep a :class:`LinkMatrix` on the sparse solver's
kernel (numpy or pure Python).  Both kernels must return exactly what
the dict-of-dicts power iterations they replaced returned: the copies
below are those iterations, with every sum written as an explicit
left-to-right loop so the check holds on every Python version (3.12+
compensates ``sum()`` of floats).
"""

import math
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MassParameters, compute_gl_scores
from repro.data import BlogCorpus, Blogger, Link, figure1_corpus
from repro.graph import (
    Digraph,
    LinkMatrix,
    hits,
    link_graph,
    link_matrix,
    pagerank,
    personalized_pagerank,
)
from repro.store import ColumnarCorpus, write_corpus

KERNELS = ("numpy", "python")


def forced_kernel(kernel: str):
    return mock.patch.dict(os.environ, {"REPRO_SPARSE_KERNEL": kernel})


def left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def reference_personalized_pagerank(graph, teleport, damping, tolerance,
                                    max_iterations):
    """The dict power iteration GL ran before the matrix."""
    nodes = graph.nodes()
    scores = {node: teleport[node] for node in nodes}
    out_weight = {
        node: left_sum(graph.successors(node).values()) for node in nodes
    }
    dangling = [node for node in nodes if out_weight[node] == 0.0]
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        dangling_mass = left_sum(scores[node] for node in dangling)
        next_scores = {
            node: (1.0 - damping) * teleport[node]
            + damping * dangling_mass * teleport[node]
            for node in nodes
        }
        for source in nodes:
            total = out_weight[source]
            if total == 0.0:
                continue
            share = damping * scores[source] / total
            for target, weight in graph.successors(source).items():
                next_scores[target] += share * weight
        residual = left_sum(
            abs(next_scores[node] - scores[node]) for node in nodes
        )
        scores = next_scores
        if residual < tolerance:
            return scores, iteration, True, residual
    return scores, max_iterations, False, residual


def reference_hits(graph, tolerance, max_iterations):
    """The dict HITS iteration GL ran before the matrix."""

    def l2_normalize(scores):
        norm = math.sqrt(left_sum(value * value for value in scores.values()))
        if norm == 0.0:
            return scores
        return {node: value / norm for node, value in scores.items()}

    def sum_normalize(scores):
        total = left_sum(scores.values())
        if total == 0.0:
            return scores
        return {node: value / total for node, value in scores.items()}

    nodes = graph.nodes()
    hubs = {node: 1.0 for node in nodes}
    authorities = {node: 1.0 for node in nodes}
    residual = 0.0
    converged = False
    iterations = max_iterations
    for iteration in range(1, max_iterations + 1):
        new_authorities = {node: 0.0 for node in nodes}
        for source in nodes:
            hub = hubs[source]
            for target, weight in graph.successors(source).items():
                new_authorities[target] += weight * hub
        new_authorities = l2_normalize(new_authorities)
        new_hubs = {node: 0.0 for node in nodes}
        for source in nodes:
            total = 0.0
            for target, weight in graph.successors(source).items():
                total += weight * new_authorities[target]
            new_hubs[source] = total
        new_hubs = l2_normalize(new_hubs)
        residual = left_sum(
            abs(new_authorities[node] - authorities[node]) for node in nodes
        ) + left_sum(abs(new_hubs[node] - hubs[node]) for node in nodes)
        authorities, hubs = new_authorities, new_hubs
        if residual < tolerance:
            converged, iterations = True, iteration
            break
    return (sum_normalize(authorities), sum_normalize(hubs), iterations,
            converged, residual)


NAMES = [f"n{i:02d}" for i in range(40)]
WEIGHT = st.one_of(
    st.integers(min_value=1, max_value=5).map(float),
    st.floats(min_value=1e-3, max_value=1e3),
    # Non-dyadic fractions: sums of these round differently in
    # different orders.
    st.integers(min_value=1, max_value=1000).map(lambda k: k / 7),
)


@st.composite
def weighted_graphs(draw):
    """A Digraph with parallel links, self-loops, dangling and isolated
    nodes, plus a random non-uniform teleport over its nodes.

    Small name pools make parallel links and self-loops common; large
    ones give sums long enough (8+ terms) that numpy's pairwise
    ``np.sum`` would round differently from a left-to-right sum.
    """
    node = st.sampled_from(NAMES[:draw(st.integers(1, len(NAMES)))])
    graph = Digraph()
    for name in draw(st.lists(node, max_size=12)):
        graph.add_node(name)  # isolated unless a link touches it
    for source, target, weight in draw(
        st.lists(st.tuples(node, node, WEIGHT), max_size=80)
    ):
        graph.add_edge(source, target, weight)
    nodes = graph.nodes()
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)),
        min_size=len(nodes), max_size=len(nodes),
    ))
    if nodes and sum(weights) <= 0.0:
        weights[0] = 1.0
    return graph, dict(zip(nodes, weights))


CONTROLS = st.tuples(
    st.sampled_from([0.0, 0.5, 0.85, 0.95]),   # damping
    st.sampled_from([1e-6, 1e-10, 1e-14]),     # tolerance
    st.integers(min_value=1, max_value=120),   # iteration cap
)


class TestPageRankOrderContract:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs(), CONTROLS)
    def test_both_kernels_equal_the_dict_iteration(self, drawn, controls):
        graph, teleport = drawn
        damping, tolerance, max_iterations = controls
        if len(graph) == 0:
            return
        scores, iterations, converged, residual = (
            reference_personalized_pagerank(
                graph, teleport, damping, tolerance, max_iterations
            )
        )
        matrix = LinkMatrix.from_digraph(graph)
        for kernel in KERNELS:
            for source in (graph, matrix):
                with forced_kernel(kernel):
                    result = personalized_pagerank(
                        source, teleport, damping=damping,
                        tolerance=tolerance, max_iterations=max_iterations,
                    )
                assert result.scores == scores, kernel
                assert result.iterations == iterations, kernel
                assert result.converged == converged, kernel
                assert result.residual == residual, kernel

    @settings(max_examples=50, deadline=None)
    @given(weighted_graphs())
    def test_uniform_pagerank_equals_the_dict_iteration(self, drawn):
        graph, _ = drawn
        if len(graph) == 0:
            return
        uniform = 1.0 / len(graph)
        scores, iterations, _, residual = reference_personalized_pagerank(
            graph, {node: uniform for node in graph.nodes()}, 0.85, 1e-10,
            200,
        )
        for kernel in KERNELS:
            with forced_kernel(kernel):
                result = pagerank(graph)
            assert (result.scores, result.iterations, result.residual) == (
                scores, iterations, residual
            )


def lopsided_row() -> Digraph:
    """Row "a" sums to 1.0 left to right but to 1.0 + 2**-52 exactly,
    so any other summation order of its out-weight moves every score."""
    graph = Digraph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("a", "c", 2.0 ** -53)
    graph.add_edge("a", "d", 2.0 ** -53)
    graph.add_edge("d", "a", 0.5)
    graph.add_edge("d", "b", 2.0 ** -54)
    graph.add_edge("d", "c", 2.0 ** -54)
    return graph


@pytest.mark.parametrize("kernel", KERNELS)
def test_row_sums_run_left_to_right(kernel):
    graph = lopsided_row()
    uniform = {node: 0.25 for node in graph.nodes()}
    scores, iterations, _, residual = reference_personalized_pagerank(
        graph, uniform, 0.85, 1e-12, 200
    )
    with forced_kernel(kernel):
        result = personalized_pagerank(graph, uniform, tolerance=1e-12)
        authorities = hits(graph, tolerance=1e-12)
    assert (result.scores, result.iterations, result.residual) == (
        scores, iterations, residual
    )
    expected = reference_hits(graph, 1e-12, 200)
    assert (authorities.authorities, authorities.hubs,
            authorities.iterations) == expected[:3]


class TestHitsOrderContract:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs(), CONTROLS)
    def test_both_kernels_equal_the_dict_iteration(self, drawn, controls):
        graph, _ = drawn
        _, tolerance, max_iterations = controls
        if len(graph) == 0:
            return
        expected = reference_hits(graph, tolerance, max_iterations)
        matrix = LinkMatrix.from_digraph(graph)
        for kernel in KERNELS:
            for source in (graph, matrix):
                with forced_kernel(kernel):
                    result = hits(source, tolerance=tolerance,
                                  max_iterations=max_iterations)
                assert (
                    result.authorities, result.hubs, result.iterations,
                    result.converged, result.residual,
                ) == expected, kernel


class TestLinkMatrix:
    def test_row_layout(self):
        graph = Digraph()
        graph.add_edge("b", "c", 2.0)
        graph.add_edge("b", "a", 1.0)
        graph.add_edge("a", "a", 0.5)   # self-loop kept
        graph.add_edge("b", "c", 0.25)  # parallel: summed into "b -> c"
        graph.add_node("d")             # isolated
        matrix = LinkMatrix.from_digraph(graph)
        assert matrix.nodes == ["a", "b", "c", "d"]
        assert list(matrix.row_ptr) == [0, 1, 3, 3, 3]
        # Row "b" keeps first-link order: c before a.
        assert list(matrix.col_idx) == [0, 2, 0]
        assert list(matrix.weights) == [0.5, 2.25, 1.0]

    def test_from_edges_adds_unknown_endpoints(self):
        matrix = LinkMatrix.from_edges(["b"], [("b", "a", 1.0), ("c", "b", 2)])
        assert matrix.nodes == ["a", "b", "c"]
        assert list(matrix.row_ptr) == [0, 0, 1, 2]
        assert list(matrix.col_idx) == [0, 1]
        assert list(matrix.weights) == [1.0, 2.0]

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_from_edges_rejects_weights_a_digraph_rejects(self, weight):
        # A zero-weight row would be dangling to one kernel and NaN to
        # the other; Digraph.add_edge refuses such a weight too.
        with pytest.raises(ValueError, match="positive and finite"):
            LinkMatrix.from_edges(["a", "b"], [("a", "b", 1.0),
                                               ("b", "a", weight)])

    def test_empty(self):
        matrix = LinkMatrix.from_digraph(Digraph())
        assert len(matrix) == 0
        assert list(matrix.row_ptr) == [0]

    def test_corpus_matrix_equals_the_graph_matrix(self, small_blogosphere,
                                                   tmp_path):
        corpus, _ = small_blogosphere
        expected = LinkMatrix.from_digraph(link_graph(corpus))
        assert link_matrix(corpus) == expected
        path = write_corpus(corpus, tmp_path / "small.mcol")
        with ColumnarCorpus.open(path) as columnar:
            assert link_matrix(columnar) == expected
            assert link_matrix(columnar) == LinkMatrix.from_digraph(
                link_graph(columnar)
            )

    def test_unvalidated_corpus_link_to_unknown_blogger(self):
        corpus = BlogCorpus()
        corpus.add_blogger(Blogger("b", "B"))
        corpus.add_link(Link("b", "ghost", 1.5))
        assert link_matrix(corpus) == LinkMatrix.from_digraph(
            link_graph(corpus)
        )
        assert link_matrix(corpus).nodes == ["b", "ghost"]


class TestGlBuildsNoDigraph:
    @pytest.mark.parametrize("method", ["pagerank", "hits", "inlinks"])
    def test_compute_gl_scores_reads_the_matrix(self, method, monkeypatch):
        corpus = figure1_corpus()
        params = MassParameters(gl_method=method)
        expected = compute_gl_scores(corpus, params)

        def refuse(*args, **kwargs):
            raise AssertionError("GL built a Digraph")

        monkeypatch.setattr(Digraph, "add_edge", refuse)
        monkeypatch.setattr(Digraph, "add_node", refuse)
        assert compute_gl_scores(corpus, params) == expected
        assert len(expected) == len(corpus.bloggers)
