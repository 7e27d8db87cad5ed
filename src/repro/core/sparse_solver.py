"""Array-sweep Jacobi kernels over a :class:`CompiledSystem`.

The sparse backend's fixed-point iteration ``x ← c + α(1−β)·A x`` runs
here as flat array sweeps over the CSR arrays built by
:mod:`repro.core.assemble`.  Two kernels implement the same sweep:

- ``"numpy"`` — vectorized gather (``weights · x[col_idx]``) plus a
  ``bincount`` row reduction; used automatically when numpy imports.
- ``"python"`` — pure-python loops over ``array``-module buffers; no
  third-party dependency, still allocation-free per sweep.

Kernel selection is ``"auto"`` by default: numpy when available unless
the ``REPRO_SPARSE_KERNEL`` environment variable forces ``"python"`` or
``"numpy"`` (the CI pure-python job sets it).  Both kernels and the
reference solver agree to 1e-9; see ``tests/test_backend_equivalence``.

The module is deliberately ignorant of corpora and parameters — it
takes a compiled system plus scalar tolerances, so it can be unit- and
property-tested in isolation.  That ignorance extends to the temporal
facet: recency decay is folded into the CSR weights (and ``Σ SF·decay``
sums) at assembly time, so the kernels here solve the decayed system
with zero changes — and with inert decay, bit-identical inputs.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass

try:  # The numpy fast path is optional; the python kernel is complete.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel forcing
    _np = None

from repro.core.assemble import CompiledSystem

__all__ = [
    "HAS_NUMPY",
    "SparseSolution",
    "default_kernel",
    "jacobi_solve",
    "evaluate_posts",
]

HAS_NUMPY = _np is not None

_KERNEL_ENV = "REPRO_SPARSE_KERNEL"


def default_kernel() -> str:
    """The kernel ``"auto"`` resolves to (honours ``REPRO_SPARSE_KERNEL``)."""
    forced = os.environ.get(_KERNEL_ENV, "").strip().lower()
    if forced in ("python", "numpy"):
        return forced
    return "numpy" if HAS_NUMPY else "python"


def _resolve_kernel(kernel: str) -> str:
    if kernel == "auto":
        return default_kernel()
    if kernel not in ("python", "numpy"):
        raise ValueError(f"unknown sparse kernel {kernel!r}")
    if kernel == "numpy" and not HAS_NUMPY:
        raise ValueError("numpy kernel requested but numpy is unavailable")
    return kernel


@dataclass(slots=True)
class SparseSolution:
    """Converged influence vector plus solver diagnostics."""

    influence: list[float]
    iterations: int
    converged: bool
    residual: float
    kernel: str


def jacobi_solve(
    compiled: CompiledSystem,
    tolerance: float,
    max_iterations: int,
    initial: Sequence[float] | None = None,
    kernel: str = "auto",
    on_iteration: Callable[[int, float], None] | None = None,
) -> SparseSolution:
    """Iterate ``x ← c + coupling·A x`` to the fixed point.

    ``initial`` warm-starts the sweep (row order of ``compiled``);
    ``on_iteration(iteration, residual)`` is invoked once per sweep for
    instrumentation.  A system with no stored entries (no counted
    comments, or the citation ablation) is already closed: the constant
    term is returned exactly, with zero iterations — matching the
    reference solver.
    """
    kernel = _resolve_kernel(kernel)
    if compiled.nnz == 0:
        return SparseSolution(
            influence=list(compiled.constant),
            iterations=0,
            converged=True,
            residual=0.0,
            kernel=kernel,
        )
    if kernel == "numpy":
        return _jacobi_numpy(
            compiled, tolerance, max_iterations, initial, on_iteration
        )
    return _jacobi_python(
        compiled, tolerance, max_iterations, initial, on_iteration
    )


def _jacobi_numpy(
    compiled: CompiledSystem,
    tolerance: float,
    max_iterations: int,
    initial: Sequence[float] | None,
    on_iteration: Callable[[int, float], None] | None,
) -> SparseSolution:
    n = compiled.num_bloggers
    constant = _np.frombuffer(compiled.constant, dtype=_np.float64)
    weights = _np.frombuffer(compiled.weights, dtype=_np.float64)
    col = _np.frombuffer(compiled.col_idx, dtype=_np.int64)
    row_ptr = _np.frombuffer(compiled.row_ptr, dtype=_np.int64)
    rows = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(row_ptr))
    coupling = compiled.coupling

    if initial is None:
        x = constant.copy()
    else:
        x = _np.asarray(initial, dtype=_np.float64).copy()
    iterations = 0
    residual = 0.0
    converged = False
    while not converged and iterations < max_iterations:
        iterations += 1
        acc = _np.bincount(rows, weights=weights * x[col], minlength=n)
        x_next = constant + coupling * acc
        residual = float(_np.abs(x_next - x).sum())
        x = x_next
        if residual < tolerance:
            converged = True
        if on_iteration is not None:
            on_iteration(iterations, residual)
    return SparseSolution(
        influence=x.tolist(),
        iterations=iterations,
        converged=converged,
        residual=residual,
        kernel="numpy",
    )


def _jacobi_python(
    compiled: CompiledSystem,
    tolerance: float,
    max_iterations: int,
    initial: Sequence[float] | None,
    on_iteration: Callable[[int, float], None] | None,
) -> SparseSolution:
    n = compiled.num_bloggers
    constant = compiled.constant
    weights = compiled.weights
    col = compiled.col_idx
    row_ptr = compiled.row_ptr
    coupling = compiled.coupling

    x = array("d", constant if initial is None else initial)
    iterations = 0
    residual = 0.0
    converged = False
    while not converged and iterations < max_iterations:
        iterations += 1
        x_next = array("d", constant)
        residual = 0.0
        start = row_ptr[0]
        for row in range(n):
            end = row_ptr[row + 1]
            acc = 0.0
            for k in range(start, end):
                acc += x[col[k]] * weights[k]
            start = end
            value = constant[row] + coupling * acc
            x_next[row] = value
            residual += abs(value - x[row])
        x = x_next
        if residual < tolerance:
            converged = True
        if on_iteration is not None:
            on_iteration(iterations, residual)
    return SparseSolution(
        influence=list(x),
        iterations=iterations,
        converged=converged,
        residual=residual,
        kernel="python",
    )


def evaluate_posts(
    compiled: CompiledSystem,
    influence: Sequence[float],
    kernel: str = "auto",
) -> tuple[list[float], list[float], list[float]]:
    """Scatter the fixed point back onto posts and authors.

    Returns ``(comment_score, post_influence, ap)`` — the first two in
    ``compiled.post_ids`` order, ``ap`` in row order.  This is Eqs. 2–4
    evaluated once at the converged solution.
    """
    kernel = _resolve_kernel(kernel)
    num_posts = len(compiled.post_ids)
    beta = compiled.beta
    if kernel == "numpy" and num_posts:
        x = _np.asarray(influence, dtype=_np.float64)
        quality = _np.frombuffer(compiled.post_quality, dtype=_np.float64)
        if compiled.use_citation:
            ptr = _np.frombuffer(compiled.post_row_ptr, dtype=_np.int64)
            post_rows = _np.repeat(
                _np.arange(num_posts, dtype=_np.int64), _np.diff(ptr)
            )
            pweights = _np.frombuffer(
                compiled.post_weights, dtype=_np.float64
            )
            pcol = _np.frombuffer(compiled.post_col_idx, dtype=_np.int64)
            comment_score = _np.bincount(
                post_rows, weights=pweights * x[pcol], minlength=num_posts
            )
        else:
            comment_score = _np.frombuffer(
                compiled.post_sf_sum, dtype=_np.float64
            ).copy()
        post_influence = beta * quality + (1.0 - beta) * comment_score
        author = _np.frombuffer(compiled.post_author, dtype=_np.int64)
        ap = _np.bincount(
            author, weights=post_influence, minlength=compiled.num_bloggers
        )
        return comment_score.tolist(), post_influence.tolist(), ap.tolist()

    comment_scores: list[float] = []
    post_influences: list[float] = []
    ap_list = [0.0] * compiled.num_bloggers
    for k in range(num_posts):
        if compiled.use_citation:
            score = 0.0
            for j in range(
                compiled.post_row_ptr[k], compiled.post_row_ptr[k + 1]
            ):
                score += (
                    influence[compiled.post_col_idx[j]]
                    * compiled.post_weights[j]
                )
        else:
            score = compiled.post_sf_sum[k]
        comment_scores.append(score)
        value = beta * compiled.post_quality[k] + (1.0 - beta) * score
        post_influences.append(value)
        ap_list[compiled.post_author[k]] += value
    return comment_scores, post_influences, ap_list
