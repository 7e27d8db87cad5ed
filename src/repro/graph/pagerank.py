"""PageRank over the blogger link graph.

The paper's General Links (GL) authority score "is similar to a webpage
authority and PageRank"; this is the default GL backend.  The
implementation is standard power iteration with weighted out-edge
distribution and dangling-mass redistribution, and it reports its own
convergence so callers can distinguish "converged" from "hit the
iteration cap".

:func:`personalized_pagerank` is the general routine — the teleport
distribution is caller-supplied, and dangling mass is redistributed
*by that same distribution*.  :func:`pagerank` is the uniform-teleport
special case, and the opinion-leader baseline
(:mod:`repro.baselines.opinion_leaders`) supplies its novelty-weighted
teleport; both share this one dangling-node code path.

Both take a :class:`~repro.graph.csr.LinkMatrix` or a
:class:`~repro.graph.digraph.Digraph` (converted once on entry) and
sweep the matrix's CSR arrays.  Each sweep computes, per target, the
restart term ``(1 − d)·t + d·dangling·t`` and then adds
``share·w`` with ``share = d·x[s] / out_weight[s]`` over sources in
sorted order and, within a source, over its row.  The numpy kernel
(one ``bincount``) and the pure-Python kernel add in that same order,
and the dangling mass, the out-weights and the L1 residual are
left-to-right sums, so both kernels return the same bits.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConvergenceError, ParameterError
from repro.graph.csr import (
    LinkMatrix,
    as_link_matrix,
    kernel_numpy,
    left_sum,
    numpy_edges,
)
from repro.graph.digraph import Digraph

__all__ = ["PageRankResult", "pagerank", "personalized_pagerank"]


@dataclass(frozen=True, slots=True)
class PageRankResult:
    """Scores plus convergence diagnostics."""

    scores: dict[str, float]
    iterations: int
    converged: bool
    residual: float


def pagerank(
    graph: Digraph | LinkMatrix,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    strict: bool = False,
) -> PageRankResult:
    """Compute PageRank scores summing to 1.

    Parameters
    ----------
    graph:
        The link graph; edge weights shape the random surfer's choice.
    damping:
        Probability of following a link (the classic 0.85).
    tolerance:
        L1 change between iterations below which we stop.
    max_iterations:
        Iteration cap.
    strict:
        If True, raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    """
    _validate_controls(damping, tolerance, max_iterations)
    matrix = as_link_matrix(graph)
    nodes = matrix.nodes
    if not nodes:
        return PageRankResult({}, 0, True, 0.0)
    uniform = 1.0 / len(nodes)
    result = personalized_pagerank(
        matrix,
        {node: uniform for node in nodes},
        damping=damping,
        tolerance=tolerance,
        max_iterations=max_iterations,
    )
    if strict and not result.converged:
        raise ConvergenceError(
            f"pagerank did not converge in {max_iterations} iterations "
            f"(residual {result.residual:.3e} > tolerance {tolerance:.3e})"
        )
    return result


def personalized_pagerank(
    graph: Digraph | LinkMatrix,
    teleport: Mapping[str, float],
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    strict: bool = False,
) -> PageRankResult:
    """Power iteration with a caller-supplied teleport distribution.

    ``teleport`` must cover every node with non-negative weight and a
    positive total; it is used as given (no renormalization), both for
    the restart term and for redistributing the mass parked on
    dangling (zero-out-weight) nodes.  The walk starts *from* the
    teleport distribution.  With a uniform teleport this computes
    exactly :func:`pagerank` — operation-for-operation, so the two
    entry points can never drift.
    """
    _validate_controls(damping, tolerance, max_iterations)
    matrix = as_link_matrix(graph)
    nodes = matrix.nodes
    if not nodes:
        return PageRankResult({}, 0, True, 0.0)
    missing = [node for node in nodes if node not in teleport]
    if missing:
        raise ParameterError(
            f"teleport distribution misses {len(missing)} node(s), "
            f"e.g. {missing[0]!r}"
        )
    if any(teleport[node] < 0.0 for node in nodes):
        raise ParameterError("teleport weights must be >= 0")
    if sum(teleport[node] for node in nodes) <= 0.0:
        raise ParameterError("teleport weights must have a positive sum")

    start = [teleport[node] for node in nodes]
    np = kernel_numpy()
    if np is None:
        scores, iterations, residual = _iterate_python(
            matrix, start, damping, tolerance, max_iterations
        )
    else:
        scores, iterations, residual = _iterate_numpy(
            np, matrix, start, damping, tolerance, max_iterations
        )
    converged = residual < tolerance
    if strict and not converged:
        raise ConvergenceError(
            f"personalized pagerank did not converge in {max_iterations} "
            f"iterations (residual {residual:.3e} > tolerance {tolerance:.3e})"
        )
    return PageRankResult(
        dict(zip(nodes, scores)), iterations, converged, residual
    )


def _iterate_python(
    matrix: LinkMatrix,
    teleport: list[float],
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[list[float], int, float]:
    """The power iteration as loops over the CSR arrays."""
    row_ptr, col_idx, weights = matrix.row_ptr, matrix.col_idx, matrix.weights
    rows = []  # (source, out-weight, first entry, end) of each linking row
    dangling = []
    for source in range(len(matrix.nodes)):
        start, end = row_ptr[source], row_ptr[source + 1]
        total = left_sum(weights[start:end])
        if total == 0.0:
            dangling.append(source)
        else:
            rows.append((source, total, start, end))
    restart = [(1.0 - damping) * value for value in teleport]
    scores = teleport
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        spread = damping * left_sum([scores[node] for node in dangling])
        next_scores = [
            kept + spread * value for kept, value in zip(restart, teleport)
        ]
        for source, total, start, end in rows:
            share = damping * scores[source] / total
            for entry in range(start, end):
                next_scores[col_idx[entry]] += share * weights[entry]
        residual = left_sum(
            [abs(new - old) for new, old in zip(next_scores, scores)]
        )
        scores = next_scores
        if residual < tolerance:
            return scores, iteration, residual
    return scores, max_iterations, residual


def _iterate_numpy(
    np,
    matrix: LinkMatrix,
    teleport: list[float],
    damping: float,
    tolerance: float,
    max_iterations: int,
) -> tuple[list[float], int, float]:
    """:func:`_iterate_python` as one ``bincount`` per sweep.

    ``bincount`` adds its weights in input order, so bins
    ``[0..n−1 ; targets]`` with weights ``[restart ; shares]`` start
    each target at its restart term and then add the shares in entry
    order — the python kernel's order.
    """
    n = len(matrix.nodes)
    sources, targets, weights = numpy_edges(matrix)
    out_weight = np.bincount(sources, weights, minlength=n)
    dangling = np.flatnonzero(out_weight == 0.0)
    entry_out_weight = out_weight[sources]
    bins = np.concatenate((np.arange(n), targets))
    teleport = np.asarray(teleport, dtype=np.float64)
    restart = (1.0 - damping) * teleport
    scores = teleport
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        spread = damping * left_sum(scores[dangling])
        shares = damping * scores[sources] / entry_out_weight * weights
        next_scores = np.bincount(
            bins, np.concatenate((restart + spread * teleport, shares)),
            minlength=n,
        )
        residual = left_sum(np.abs(next_scores - scores))
        scores = next_scores
        if residual < tolerance:
            return scores.tolist(), iteration, residual
    return scores.tolist(), max_iterations, residual


def _validate_controls(
    damping: float, tolerance: float, max_iterations: int
) -> None:
    if not 0.0 <= damping < 1.0:
        raise ParameterError(f"damping must be in [0, 1), got {damping}")
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
