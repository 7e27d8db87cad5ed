"""HITS (hubs and authorities) over the blogger link graph.

The paper cites HITS alongside PageRank as the model for external-link
authority; MASS exposes it as an alternative General Links backend
(``gl_method="hits"``), and the GL-backend ablation bench compares the
two.

:func:`hits` takes a :class:`~repro.graph.csr.LinkMatrix` or a
:class:`~repro.graph.digraph.Digraph` (converted once on entry) and
sweeps the matrix's CSR arrays.  Authorities add ``w·hub[s]`` per
target in entry order, hubs add ``w·authority[t]`` along each row, and
every norm and residual is a left-to-right sum; the numpy kernel
(``bincount``) and the pure-Python kernel add in that same order, so
both return the same bits.
"""

from __future__ import annotations

import math
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

__all__ = ["HitsResult", "hits"]


@dataclass(frozen=True, slots=True)
class HitsResult:
    """Hub and authority scores plus convergence diagnostics."""

    authorities: dict[str, float]
    hubs: dict[str, float]
    iterations: int
    converged: bool
    residual: float


def hits(
    graph: Digraph | LinkMatrix,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    strict: bool = False,
) -> HitsResult:
    """Run the HITS mutual-reinforcement iteration to a fixed point.

    Authority(v) = Σ_{u→v} w(u,v)·Hub(u);  Hub(u) = Σ_{u→v} w(u,v)·Authority(v);
    both L2-normalized each round.  Returns scores L1-normalized to sum
    to 1 so they are directly comparable with PageRank as a GL score.
    """
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")

    matrix = as_link_matrix(graph)
    nodes = matrix.nodes
    if not nodes:
        return HitsResult({}, {}, 0, True, 0.0)

    np = kernel_numpy()
    if np is None:
        authorities, hubs, iterations, residual = _iterate_python(
            matrix, tolerance, max_iterations
        )
    else:
        authorities, hubs, iterations, residual = _iterate_numpy(
            np, matrix, tolerance, max_iterations
        )
    converged = residual < tolerance
    if strict and not converged:
        raise ConvergenceError(
            f"hits did not converge in {max_iterations} iterations "
            f"(residual {residual:.3e} > tolerance {tolerance:.3e})"
        )
    return HitsResult(
        dict(zip(nodes, _sum_normalize(authorities))),
        dict(zip(nodes, _sum_normalize(hubs))),
        iterations, converged, residual,
    )


def _iterate_python(
    matrix: LinkMatrix, tolerance: float, max_iterations: int
) -> tuple[list[float], list[float], int, float]:
    """The mutual reinforcement as loops over the CSR arrays."""
    row_ptr, col_idx, weights = matrix.row_ptr, matrix.col_idx, matrix.weights
    rows = [
        range(row_ptr[source], row_ptr[source + 1])
        for source in range(len(matrix.nodes))
    ]
    hubs = [1.0] * len(rows)
    authorities = hubs
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        new_authorities = [0.0] * len(rows)
        for source, entries in enumerate(rows):
            hub = hubs[source]
            for entry in entries:
                new_authorities[col_idx[entry]] += weights[entry] * hub
        new_authorities = _l2_normalize(new_authorities)
        new_hubs = _l2_normalize([
            left_sum([
                weights[entry] * new_authorities[col_idx[entry]]
                for entry in entries
            ])
            for entries in rows
        ])
        residual = left_sum(
            [abs(new - old) for new, old in zip(new_authorities, authorities)]
        ) + left_sum([abs(new - old) for new, old in zip(new_hubs, hubs)])
        authorities, hubs = new_authorities, new_hubs
        if residual < tolerance:
            return authorities, hubs, iteration, residual
    return authorities, hubs, max_iterations, residual


def _iterate_numpy(
    np, matrix: LinkMatrix, tolerance: float, max_iterations: int
) -> tuple[list[float], list[float], int, float]:
    """:func:`_iterate_python` as two ``bincount`` calls per round.

    ``bincount`` adds its weights in input order: authorities gather
    each target's terms in entry order, hubs each row's terms left to
    right — the python kernel's order.
    """
    n = len(matrix.nodes)
    sources, targets, weights = numpy_edges(matrix)
    hubs = np.ones(n)
    authorities = hubs
    residual = 0.0
    for iteration in range(1, max_iterations + 1):
        new_authorities = _l2_normalize_array(
            np.bincount(targets, weights * hubs[sources], minlength=n)
        )
        new_hubs = _l2_normalize_array(
            np.bincount(sources, weights * new_authorities[targets],
                        minlength=n)
        )
        residual = left_sum(np.abs(new_authorities - authorities)) + left_sum(
            np.abs(new_hubs - hubs)
        )
        authorities, hubs = new_authorities, new_hubs
        if residual < tolerance:
            return authorities.tolist(), hubs.tolist(), iteration, residual
    return authorities.tolist(), hubs.tolist(), max_iterations, residual


def _l2_normalize(values: list[float]) -> list[float]:
    norm = math.sqrt(left_sum([value * value for value in values]))
    if norm == 0.0:
        return values
    return [value / norm for value in values]


def _l2_normalize_array(values):
    norm = math.sqrt(left_sum(values * values))
    if norm == 0.0:
        return values
    return values / norm


def _sum_normalize(values: list[float]) -> list[float]:
    total = left_sum(values)
    if total == 0.0:
        return values
    return [value / total for value in values]
