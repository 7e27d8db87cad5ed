"""The link graph as one CSR (compressed sparse row) matrix.

General Links authority (Eq. 1) runs PageRank or HITS over the blogger
link graph.  :class:`LinkMatrix` holds that graph as flat ``array``
columns, so the power iterations in :mod:`repro.graph.pagerank` and
:mod:`repro.graph.hits` sweep arrays instead of a dict of dicts.

Row layout, which fixes the summation order of both iterations:

- rows are the source nodes in sorted-id order (``nodes``);
- within a row, targets keep first-link order, with parallel links
  summed in link order: exactly the order of ``Digraph.successors``;
- self-loops are kept, as :class:`Digraph` keeps them.

Build one straight from a corpus with
:func:`repro.graph.influence_graph.link_matrix`, or from a
:class:`Digraph` with :meth:`LinkMatrix.from_digraph`.

Both iterations run on the sparse solver's kernel choice
(:func:`repro.core.sparse_solver.default_kernel`): numpy when it
imports, else pure Python.  The two kernels add in the same order, so
they return the same bits.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate

try:  # The numpy kernels are optional; the python kernels are complete.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel forcing
    _np = None

from repro.graph.digraph import Digraph

__all__ = [
    "LinkMatrix",
    "as_link_matrix",
    "kernel_numpy",
    "left_sum",
    "numpy_edges",
]


@dataclass(frozen=True, slots=True)
class LinkMatrix:
    """A weighted directed graph in CSR form.

    Row ``s`` is node ``nodes[s]``; it links to ``nodes[col_idx[e]]``
    with weight ``weights[e]`` for each ``e`` in
    ``range(row_ptr[s], row_ptr[s + 1])``.
    """

    nodes: list[str]
    row_ptr: array
    col_idx: array
    weights: array

    @classmethod
    def from_edges(
        cls, nodes: Iterable[str], edges: Iterable[tuple[str, str, float]]
    ) -> "LinkMatrix":
        """The matrix of ``edges`` (source, target, weight) over ``nodes``.

        Edges are read in order.  A repeated (source, target) pair adds
        its weight to the pair's first entry, and an endpoint missing
        from ``nodes`` becomes a node.  As with :meth:`Digraph.add_edge`,
        a weight that is not positive raises ``ValueError``; so does a
        non-finite one, which would turn every score into NaN.
        """
        edges = list(edges)
        names = set(nodes)
        for source, target, _ in edges:
            names.add(source)
            names.add(target)
        ordered = sorted(names)
        index = {node: row for row, node in enumerate(ordered)}
        return cls._merged(ordered, (
            ((index[source], index[target]), weight)
            for source, target, weight in edges
        ))

    @classmethod
    def from_rows(
        cls,
        nodes: Iterable[str],
        sources: Iterable[int],
        targets: Iterable[int],
        weights: Iterable[float],
    ) -> "LinkMatrix":
        """The matrix of edges given as rows of ``nodes`` (sorted ids).

        Edge ``e`` links row ``sources[e]`` to row ``targets[e]`` with
        weight ``weights[e]``; edges are read in order, and repeated
        pairs and bad weights are treated as in :meth:`from_edges`.  A
        columnar corpus's link columns are in this form already.
        """
        return cls._merged(list(nodes), zip(zip(sources, targets), weights))

    @classmethod
    def _merged(
        cls, nodes: list[str],
        edges: Iterable[tuple[tuple[int, int], float]],
    ) -> "LinkMatrix":
        """The matrix of ``((source row, target row), weight)`` edges."""
        merged: dict[tuple[int, int], float] = {}
        get, inf = merged.get, math.inf
        for key, weight in edges:
            if not 0.0 < weight < inf:
                raise ValueError(
                    f"edge weight must be positive and finite, got {weight}"
                )
            merged[key] = get(key, 0.0) + weight
        # A stable sort: within a row, entries keep first-link order.
        entries = sorted(merged.items(), key=lambda entry: entry[0][0])
        counts = [0] * len(nodes)
        for (source, _), _ in entries:
            counts[source] += 1
        return cls(
            nodes,
            array("q", accumulate(counts, initial=0)),
            array("q", [target for (_, target), _ in entries]),
            array("d", [weight for _, weight in entries]),
        )

    @classmethod
    def from_digraph(cls, graph: Digraph) -> "LinkMatrix":
        """The matrix of ``graph``, rows in ``successors`` order."""
        nodes = graph.nodes()
        return cls.from_edges(nodes, (
            (source, target, weight)
            for source in nodes
            for target, weight in graph.successors(source).items()
        ))

    def __len__(self) -> int:
        return len(self.nodes)


def as_link_matrix(graph: Digraph | LinkMatrix) -> LinkMatrix:
    """``graph`` itself when it is a matrix, else its matrix."""
    if isinstance(graph, LinkMatrix):
        return graph
    return LinkMatrix.from_digraph(graph)


def kernel_numpy():
    """numpy when the sparse solver's kernel is numpy, else ``None``."""
    # Imported here: repro.core imports this package.
    from repro.core.sparse_solver import default_kernel

    if default_kernel() == "numpy" and _np is not None:
        return _np
    return None


def numpy_edges(matrix: LinkMatrix):
    """(source row, target row, weight) of every entry as numpy arrays."""
    counts = _np.diff(_np.asarray(matrix.row_ptr))
    return (
        _np.repeat(_np.arange(len(matrix.nodes)), counts),
        _np.asarray(matrix.col_idx),
        _np.asarray(matrix.weights),
    )


def left_sum(values) -> float:
    """The left-to-right sum of ``values`` (a list or a numpy array).

    ``sum()`` of floats is compensated on Python 3.12+ and ``np.sum``
    adds pairwise; the iterations pin this order instead.
    """
    if _np is not None and isinstance(values, _np.ndarray):
        return float(_np.cumsum(values)[-1]) if len(values) else 0.0
    total = 0.0
    for value in values:
        total += value
    return total
