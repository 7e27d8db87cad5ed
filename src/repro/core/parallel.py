"""Shard-parallel block-Jacobi solves over a :class:`CompiledSystem`.

PR 2's sparse backend made one Jacobi sweep a flat array pass; this
module makes the sweep *parallel*.  The row space of the compiled CSR
system is cut into contiguous shards by a deterministic, balanced
partitioner (:func:`plan_shards`), and each sweep updates every shard
from the *previous* iterate — plain block-Jacobi.  Because a Jacobi
update of row ``i`` reads only the old ``x``, rows can be swept in any
grouping without changing a single bit of any row's new value: the
per-row arithmetic of both kernels here is operation-for-operation
identical to :mod:`repro.core.sparse_solver`, so the parallel backend
reproduces the serial sparse iterates exactly, shard-by-shard.

The one place floating point can notice the sharding is the
convergence check: the L1 residual is reduced *per shard* and the
partial sums are then merged **in ascending shard order** (the
documented cross-shard reduction order).  That merged sum can differ
from the serial residual in its last ulps (different association), so
the parallel backend may — in principle — stop one sweep before or
after the serial backend.  Either way both are within the tolerance of
the unique fixed point; the equivalence suite holds all backends to
1e-9.

Three execution modes share one driver loop:

- ``"process"`` — a persistent per-solve pool of forked workers; the
  two ``x`` double-buffers live in shared memory (``RawArray``) so a
  sweep moves no vector data, only a buffer index per worker.
- ``"thread"`` — a thread pool over the numpy kernel (which releases
  the GIL inside the gather/bincount ops).
- ``"serial"`` — the shard schedule run in-process; the degenerate
  fallback for the pure-python kernel and single-worker configs.

``mode="auto"`` picks process when fork is available and more than one
worker is requested, thread for the numpy kernel otherwise, serial as
the last resort.  Worker count resolution honours the
``REPRO_PARALLEL_WORKERS`` environment variable when the caller leaves
``num_workers=0``.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import queue as _queue
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

try:  # Mirrors sparse_solver: numpy is the fast path, never required.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via kernel forcing
    _np = None

from repro.core.assemble import CompiledSystem
from repro.core.sparse_solver import _resolve_kernel
from repro.errors import ReproError
from repro.obs import current_trace, get_logger

__all__ = [
    "ShardPlan",
    "ShardPlanCache",
    "ParallelSolution",
    "SeqlockArena",
    "SharedF64Array",
    "default_row_weights",
    "plan_shards",
    "resolve_num_workers",
    "resolve_shard_count",
    "parallel_solve",
]

_LOG = get_logger("core.parallel")

_WORKERS_ENV = "REPRO_PARALLEL_WORKERS"

#: Shards per worker under ``shard_count="auto"``.  More shards than
#: workers keeps the pool busy when shard weights are imperfect.
_SHARDS_PER_WORKER = 4

_MODES = ("auto", "process", "thread", "serial")


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardPlan:
    """A contiguous, exhaustive partition of the row space.

    ``bounds[s] = (start, end)`` is the half-open row range of shard
    ``s``; ranges are ascending, non-empty, and cover ``[0, num_rows)``
    exactly.  ``weights[s]`` is the summed row weight the partitioner
    balanced on.  The plan is a pure function of the row-weight
    sequence — no identifiers, hashes, or dict order enter it — so two
    corpora whose rows carry the same weights in the same order shard
    identically no matter how their bloggers are labelled.
    """

    bounds: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    num_rows: int

    @property
    def shard_count(self) -> int:
        """Number of shards in the plan."""
        return len(self.bounds)

    def shard_of(self, row: int) -> int:
        """The shard index holding ``row``."""
        if not 0 <= row < self.num_rows:
            raise IndexError(f"row {row} outside [0, {self.num_rows})")
        starts = [start for start, _ in self.bounds]
        return bisect_right(starts, row) - 1

    def dirty_shards(self, rows: Iterable[int]) -> set[int]:
        """Shard indices touched by the given (dirty) row indices.

        Rows beyond ``num_rows`` (e.g. stale indices from a previous
        compilation) are ignored rather than raising — the caller only
        wants telemetry about the current plan.
        """
        starts = [start for start, _ in self.bounds]
        touched: set[int] = set()
        for row in rows:
            if 0 <= row < self.num_rows:
                touched.add(bisect_right(starts, row) - 1)
        return touched


def default_row_weights(compiled: CompiledSystem) -> list[float]:
    """Post-count row weights: ``1 + posts authored`` per blogger.

    A blogger's sweep cost is dominated by the comment terms on their
    posts, which scale with how many posts they author; the ``+1``
    keeps post-less bloggers from collapsing to zero weight (their row
    still costs a constant-term write per sweep).
    """
    counts = [0] * compiled.num_bloggers
    for author_row in compiled.post_author:
        counts[author_row] += 1
    return [1.0 + count for count in counts]


def plan_shards(
    row_weights: Sequence[float], shard_count: int
) -> ShardPlan:
    """Cut rows into ``shard_count`` contiguous, weight-balanced shards.

    Deterministic greedy cuts at the ideal cumulative-weight targets
    ``total · s / shard_count``: shard boundaries are found by binary
    search over the prefix-sum array, then clamped so every shard gets
    at least one row.  ``shard_count`` is clamped to ``len(row_weights)``.
    """
    n = len(row_weights)
    if n == 0:
        return ShardPlan(bounds=(), weights=(), num_rows=0)
    count = max(1, min(int(shard_count), n))
    prefix = list(accumulate(float(w) for w in row_weights))
    total = prefix[-1]
    bounds: list[tuple[int, int]] = []
    weights: list[float] = []
    start = 0
    for s in range(count):
        if s == count - 1:
            end = n
        else:
            target = total * (s + 1) / count
            end = bisect_left(prefix, target, lo=start) + 1
            end = min(max(end, start + 1), n - (count - 1 - s))
        bounds.append((start, end))
        weights.append(prefix[end - 1] - (prefix[start - 1] if start else 0.0))
        start = end
    return ShardPlan(
        bounds=tuple(bounds), weights=tuple(weights), num_rows=n
    )


class ShardPlanCache:
    """Carries a :class:`ShardPlan` across warm re-solves.

    The incremental analyzer builds a fresh solver per solve but keeps
    its :class:`~repro.core.assemble.AssemblyCache`; hanging one of
    these off the assembly cache lets consecutive solves over an
    unchanged row space skip re-planning.  The plan is keyed on
    ``(num_rows, shard_count)`` only — per-row weights may drift as
    posts arrive, which can unbalance (but never invalidates) a plan.
    """

    __slots__ = ("_key", "_plan")

    def __init__(self) -> None:
        self._key: tuple[int, int] | None = None
        self._plan: ShardPlan | None = None

    def plan_for(
        self, compiled: CompiledSystem, shard_count: int
    ) -> tuple[ShardPlan, bool]:
        """Return ``(plan, reused)`` for the compiled system."""
        key = (compiled.num_bloggers, shard_count)
        if self._plan is not None and self._key == key:
            return self._plan, True
        plan = plan_shards(default_row_weights(compiled), shard_count)
        self._key, self._plan = key, plan
        return plan, False


# ----------------------------------------------------------------------
# Resolution helpers
# ----------------------------------------------------------------------
def resolve_num_workers(num_workers: int) -> int:
    """Concrete worker count: argument, else env override, else cores."""
    if num_workers and num_workers > 0:
        return int(num_workers)
    env = os.environ.get(_WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ReproError(
                f"{_WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
        if value >= 1:
            return value
    return os.cpu_count() or 1


def resolve_shard_count(
    shard_count: int | str, num_rows: int, num_workers: int
) -> int:
    """Concrete shard count, clamped to the row count."""
    if num_rows <= 0:
        return 0
    if shard_count == "auto":
        return max(1, min(num_rows, num_workers * _SHARDS_PER_WORKER))
    return max(1, min(int(shard_count), num_rows))


def _resolve_mode(mode: str, kernel: str, num_workers: int) -> str:
    if mode not in _MODES:
        raise ReproError(f"unknown parallel mode {mode!r}; expected {_MODES}")
    if mode != "auto":
        return mode
    if num_workers <= 1:
        return "serial"
    if "fork" in multiprocessing.get_all_start_methods():
        return "process"
    if kernel == "numpy":
        return "thread"
    return "serial"


# ----------------------------------------------------------------------
# Shard sweep kernels (must mirror sparse_solver op-for-op)
# ----------------------------------------------------------------------
def _sweep_shard_python(
    bounds: tuple[int, int],
    compiled: CompiledSystem,
    x: Sequence[float],
    x_next,
) -> float:
    """One python-kernel Jacobi sweep over a row shard.

    The per-row arithmetic is identical to ``_jacobi_python`` in
    :mod:`repro.core.sparse_solver`; only the row range differs.
    """
    start, end = bounds
    constant = compiled.constant
    weights = compiled.weights
    col = compiled.col_idx
    row_ptr = compiled.row_ptr
    coupling = compiled.coupling
    residual = 0.0
    ptr = row_ptr[start]
    for row in range(start, end):
        stop = row_ptr[row + 1]
        acc = 0.0
        for k in range(ptr, stop):
            acc += x[col[k]] * weights[k]
        ptr = stop
        value = constant[row] + coupling * acc
        x_next[row] = value
        residual += abs(value - x[row])
    return residual


class _NumpyShardKernel:
    """Precomputed per-shard views for numpy Jacobi sweeps.

    Each shard's ``bincount`` over its contiguous CSR slice accumulates
    every row from the same entries in the same order as the global
    ``bincount`` of the serial kernel, so per-row values are
    bit-identical; only the shard-local residual (a numpy pairwise sum
    over fewer elements) differs from the serial reduction.
    """

    __slots__ = ("coupling", "shards")

    def __init__(
        self,
        compiled: CompiledSystem,
        bounds: Sequence[tuple[int, int]],
    ) -> None:
        row_ptr = _np.frombuffer(compiled.row_ptr, dtype=_np.int64)
        weights = _np.frombuffer(compiled.weights, dtype=_np.float64)
        col = _np.frombuffer(compiled.col_idx, dtype=_np.int64)
        constant = _np.frombuffer(compiled.constant, dtype=_np.float64)
        self.coupling = compiled.coupling
        self.shards = []
        for start, end in bounds:
            lo = int(row_ptr[start])
            hi = int(row_ptr[end])
            rel_rows = _np.repeat(
                _np.arange(end - start, dtype=_np.int64),
                _np.diff(row_ptr[start:end + 1]),
            )
            self.shards.append(
                (
                    start,
                    end,
                    rel_rows,
                    weights[lo:hi],
                    col[lo:hi],
                    constant[start:end],
                )
            )

    def sweep(self, index: int, x, x_next) -> float:
        start, end, rel_rows, wseg, colseg, cseg = self.shards[index]
        acc = _np.bincount(
            rel_rows, weights=wseg * x[colseg], minlength=end - start
        )
        nxt = cseg + self.coupling * acc
        x_next[start:end] = nxt
        return float(_np.abs(nxt - x[start:end]).sum())


# ----------------------------------------------------------------------
# Executors: serial / thread / process behind one driver interface
# ----------------------------------------------------------------------
class _SerialExecutor:
    """The shard schedule run in-process (also the 1-worker fast path)."""

    mode = "serial"
    # In-process executors sweep on the driver's own threads, already
    # inside the ambient trace — no remote spans to graft back.
    worker_spans: tuple[dict[str, object], ...] = ()

    def __init__(
        self, compiled: CompiledSystem, plan: ShardPlan, kernel: str
    ) -> None:
        self._compiled = compiled
        self._plan = plan
        self._kernel = kernel
        n = compiled.num_bloggers
        if kernel == "numpy":
            self._nk = _NumpyShardKernel(compiled, plan.bounds)
            self._buffers = (
                _np.empty(n, dtype=_np.float64),
                _np.empty(n, dtype=_np.float64),
            )
        else:
            self._nk = None
            self._buffers = (
                array("d", bytes(8 * n)),
                array("d", bytes(8 * n)),
            )
        self.num_workers = 1

    def initialize(self, x0: Sequence[float]) -> None:
        if self._kernel == "numpy":
            self._buffers[0][:] = x0
        else:
            self._buffers[0][:] = array("d", x0)

    def _run_shard(self, sid: int, x, x_next) -> float:
        if self._nk is not None:
            return self._nk.sweep(sid, x, x_next)
        return _sweep_shard_python(
            self._plan.bounds[sid], self._compiled, x, x_next
        )

    def sweep(self, src: int) -> list[tuple[int, float, float]]:
        x = self._buffers[src]
        x_next = self._buffers[1 - src]
        out = []
        for sid in range(self._plan.shard_count):
            t0 = time.perf_counter()
            residual = self._run_shard(sid, x, x_next)
            out.append((sid, residual, time.perf_counter() - t0))
        return out

    def read(self, src: int) -> list[float]:
        buf = self._buffers[src]
        return buf.tolist() if self._kernel == "numpy" else list(buf)

    def close(self) -> None:
        pass


class _ThreadExecutor(_SerialExecutor):
    """A persistent thread pool over the shard schedule.

    Only pays off with the numpy kernel (whose gather/reduce ops drop
    the GIL); the pure-python kernel runs but serializes on the GIL.
    """

    mode = "thread"

    def __init__(
        self,
        compiled: CompiledSystem,
        plan: ShardPlan,
        kernel: str,
        num_workers: int,
    ) -> None:
        super().__init__(compiled, plan, kernel)
        self.num_workers = max(1, min(num_workers, plan.shard_count))
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_workers,
            thread_name_prefix="mass-shard",
        )

    def sweep(self, src: int) -> list[tuple[int, float, float]]:
        x = self._buffers[src]
        x_next = self._buffers[1 - src]

        def run(sid: int) -> tuple[int, float, float]:
            t0 = time.perf_counter()
            residual = self._run_shard(sid, x, x_next)
            return sid, residual, time.perf_counter() - t0

        futures = [
            self._pool.submit(run, sid)
            for sid in range(self._plan.shard_count)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def _process_worker(
    compiled: CompiledSystem,
    bounds: tuple[tuple[int, int], ...],
    shard_ids: list[int],
    kernel: str,
    raw_buffers,
    cmd_queue,
    result_queue,
    worker_id: int,
    trace: dict[str, object] | None = None,
) -> None:
    """Worker loop: sweep my shards each time a buffer index arrives.

    Runs in a forked child, so every argument is inherited memory — the
    compiled arrays are shared copy-on-write and the ``x`` double
    buffers are genuinely shared (``RawArray``).  ``None`` on the
    command queue is the shutdown sentinel.

    Result messages are tagged tuples: ``("sweep", worker_id, parts)``
    per sweep, and — on shutdown — one ``("span", worker_id, record)``
    summarising this worker's lifetime under ``trace`` (the serialized
    :class:`~repro.obs.TraceContext` of the originating request), which
    the driver grafts back into the request's span tree.
    """
    wall_start = time.time()
    t_start = time.perf_counter()
    sweeps = 0
    busy_seconds = 0.0
    if kernel == "numpy":
        views = tuple(
            _np.frombuffer(raw, dtype=_np.float64) for raw in raw_buffers
        )
        nk = _NumpyShardKernel(compiled, [bounds[sid] for sid in shard_ids])

        def run(slot: int, src: int) -> float:
            return nk.sweep(slot, views[src], views[1 - src])

    else:

        def run(slot: int, src: int) -> float:
            return _sweep_shard_python(
                bounds[shard_ids[slot]],
                compiled,
                raw_buffers[src],
                raw_buffers[1 - src],
            )

    while True:
        src = cmd_queue.get()
        if src is None:
            break
        parts = []
        for slot, sid in enumerate(shard_ids):
            t0 = time.perf_counter()
            residual = run(slot, src)
            elapsed = time.perf_counter() - t0
            busy_seconds += elapsed
            parts.append((sid, residual, elapsed))
        sweeps += 1
        result_queue.put(("sweep", worker_id, parts))

    record: dict[str, object] = {
        "name": "shard-worker",
        "duration": time.perf_counter() - t_start,
        "wall_start": wall_start,
        "worker_id": worker_id,
        "shards": len(shard_ids),
        "sweeps": sweeps,
        "busy_seconds": round(busy_seconds, 6),
    }
    if trace:
        record["trace_id"] = trace.get("trace_id")
        record["parent_id"] = trace.get("span_id")
    try:
        result_queue.put(("span", worker_id, record))
    except (OSError, ValueError):  # pragma: no cover - queue torn down
        pass


class _ProcessExecutor:
    """A persistent pool of forked workers over shared ``x`` buffers.

    Shards are dealt to workers round-robin (shard ``s`` to worker
    ``s mod workers``) — combined with the weight-balanced plan this
    keeps per-worker load even.  Each sweep sends one integer (the
    source-buffer index) per worker and collects one message per
    worker; vector data never crosses the pipe.
    """

    mode = "process"

    _SWEEP_TIMEOUT = 300.0

    def __init__(
        self,
        compiled: CompiledSystem,
        plan: ShardPlan,
        kernel: str,
        num_workers: int,
        trace: dict[str, object] | None = None,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        n = compiled.num_bloggers
        self._kernel = kernel
        self.worker_spans: tuple[dict[str, object], ...] = ()
        self._raw = (
            ctx.RawArray("d", n),
            ctx.RawArray("d", n),
        )
        self._views = None
        if kernel == "numpy":
            self._views = tuple(
                _np.frombuffer(raw, dtype=_np.float64) for raw in self._raw
            )
        workers = max(1, min(num_workers, plan.shard_count))
        assignments = [
            list(range(wid, plan.shard_count, workers))
            for wid in range(workers)
        ]
        self._result_queue = ctx.Queue()
        self._cmd_queues = []
        self._procs = []
        for worker_id, shard_ids in enumerate(assignments):
            cmd_queue = ctx.Queue()
            proc = ctx.Process(
                target=_process_worker,
                args=(
                    compiled,
                    plan.bounds,
                    shard_ids,
                    kernel,
                    self._raw,
                    cmd_queue,
                    self._result_queue,
                    worker_id,
                    trace,
                ),
                name=f"mass-shard-{worker_id}",
                daemon=True,
            )
            proc.start()
            self._cmd_queues.append(cmd_queue)
            self._procs.append(proc)
        self.num_workers = len(self._procs)

    def initialize(self, x0: Sequence[float]) -> None:
        if self._views is not None:
            self._views[0][:] = x0
        else:
            self._raw[0][:] = list(x0)

    def sweep(self, src: int) -> list[tuple[int, float, float]]:
        for cmd_queue in self._cmd_queues:
            cmd_queue.put(src)
        out: list[tuple[int, float, float]] = []
        pending = len(self._procs)
        while pending:
            try:
                tag, _, payload = self._result_queue.get(
                    timeout=self._SWEEP_TIMEOUT
                )
            except _queue.Empty:
                self.close()
                raise ReproError(
                    "parallel solver worker did not report a sweep "
                    f"within {self._SWEEP_TIMEOUT:.0f}s; pool torn down"
                ) from None
            if tag != "sweep":  # pragma: no cover - shutdown race
                continue
            out.extend(payload)
            pending -= 1
        return out

    def read(self, src: int) -> list[float]:
        if self._views is not None:
            return self._views[src].tolist()
        return list(self._raw[src])

    def close(self) -> None:
        if not self._procs:
            return
        for cmd_queue in self._cmd_queues:
            try:
                cmd_queue.put(None)
            except (OSError, ValueError):  # queue already torn down
                pass
        # Collect the per-worker lifetime spans BEFORE joining: each
        # worker's final message must drain from the queue's feeder
        # pipe for the process to exit cleanly.  Best effort — a wedged
        # worker (the timeout path) simply yields no span.
        spans: list[dict[str, object]] = []
        for _ in self._procs:
            try:
                tag, _, payload = self._result_queue.get(timeout=2.0)
            except _queue.Empty:  # pragma: no cover - wedged worker
                break
            if tag == "span":
                spans.append(payload)
        self.worker_spans = tuple(spans)
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=5.0)
        for cmd_queue in self._cmd_queues:
            cmd_queue.close()
        self._result_queue.close()
        self._cmd_queues = []
        self._procs = []


def _build_executor(
    compiled: CompiledSystem, plan: ShardPlan, kernel: str,
    mode: str, num_workers: int, trace: dict[str, object] | None = None,
):
    if mode == "process":
        try:
            return _ProcessExecutor(
                compiled, plan, kernel, num_workers, trace=trace
            )
        except OSError as exc:  # pragma: no cover - fork denied (rare)
            _LOG.warning(
                "process pool unavailable (%s); falling back to %s",
                exc, "thread" if kernel == "numpy" else "serial",
            )
            mode = "thread" if kernel == "numpy" else "serial"
    if mode == "thread":
        return _ThreadExecutor(compiled, plan, kernel, num_workers)
    return _SerialExecutor(compiled, plan, kernel)


# ----------------------------------------------------------------------
# The solve driver
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ParallelSolution:
    """Converged influence vector plus shard-pipeline diagnostics."""

    influence: list[float]
    iterations: int
    converged: bool
    residual: float
    kernel: str
    mode: str
    num_workers: int
    plan: ShardPlan
    shard_seconds: tuple[float, ...]
    # Lifetime records shipped back from forked workers (process mode
    # only): plain dicts the caller grafts into its span tree via
    # ``Tracer.adopt`` so shard work appears under the request's trace.
    worker_spans: tuple[dict[str, object], ...] = ()


def parallel_solve(
    compiled: CompiledSystem,
    tolerance: float,
    max_iterations: int,
    initial: Sequence[float] | None = None,
    kernel: str = "auto",
    num_workers: int = 0,
    shard_count: int | str = "auto",
    mode: str = "auto",
    plan: ShardPlan | None = None,
    on_iteration: Callable[[int, float], None] | None = None,
) -> ParallelSolution:
    """Iterate ``x ← c + coupling·A x`` with block-Jacobi shard sweeps.

    Semantics match :func:`repro.core.sparse_solver.jacobi_solve`: same
    warm start, same closed-form return for an entry-free system, same
    per-sweep ``on_iteration`` callback.  Per-row values reproduce the
    serial kernels bit-for-bit each sweep; the convergence residual is
    reduced per shard and merged in ascending shard order (see the
    module docstring for why iteration counts may differ by one).

    ``plan`` lets a caller (the solver's :class:`ShardPlanCache`) reuse
    a partition across warm re-solves; it must cover exactly
    ``compiled.num_bloggers`` rows.
    """
    kernel = _resolve_kernel(kernel)
    workers = resolve_num_workers(num_workers)
    n = compiled.num_bloggers
    if plan is not None and plan.num_rows != n:
        raise ReproError(
            f"shard plan covers {plan.num_rows} rows but the compiled "
            f"system has {n}"
        )
    if plan is None:
        plan = plan_shards(
            default_row_weights(compiled),
            resolve_shard_count(shard_count, n, workers),
        )
    if compiled.nnz == 0:
        # Entry-free system: the constant term is the exact fixed point
        # (matches jacobi_solve); no pool is ever spun up.
        return ParallelSolution(
            influence=list(compiled.constant),
            iterations=0,
            converged=True,
            residual=0.0,
            kernel=kernel,
            mode="serial",
            num_workers=0,
            plan=plan,
            shard_seconds=tuple(0.0 for _ in plan.bounds),
        )
    workers = max(1, min(workers, plan.shard_count))
    resolved_mode = _resolve_mode(mode, kernel, workers)
    # Serialize the ambient trace context for forked workers: their
    # shutdown span reports re-enter the originating request's tree.
    ambient = current_trace()
    executor = _build_executor(
        compiled, plan, kernel, resolved_mode, workers,
        trace=ambient.to_dict() if ambient is not None else None,
    )
    try:
        x0 = list(compiled.constant) if initial is None else list(initial)
        executor.initialize(x0)
        shard_seconds = [0.0] * plan.shard_count
        src = 0
        iterations = 0
        residual = 0.0
        converged = False
        while not converged and iterations < max_iterations:
            iterations += 1
            parts = executor.sweep(src)
            src = 1 - src
            # Cross-shard reduction order: ascending shard index.  This
            # is the only float operation whose association differs
            # from the serial backend.
            parts.sort(key=lambda item: item[0])
            residual = 0.0
            for sid, part_residual, seconds in parts:
                residual += part_residual
                shard_seconds[sid] += seconds
            if residual < tolerance:
                converged = True
            if on_iteration is not None:
                on_iteration(iterations, residual)
        influence = executor.read(src)
    finally:
        executor.close()
    return ParallelSolution(
        influence=influence,
        iterations=iterations,
        converged=converged,
        residual=residual,
        kernel=kernel,
        mode=executor.mode,
        num_workers=executor.num_workers,
        plan=plan,
        shard_seconds=tuple(shard_seconds),
        worker_spans=executor.worker_spans,
    )


# ----------------------------------------------------------------------
# Shared-memory primitives (fork-inherited, single-writer)
# ----------------------------------------------------------------------
# The solver above shares its ``x`` double-buffers through RawArray;
# the serving tier needs two more generic shapes over the same
# anonymous-``mmap`` mechanism (``mmap.mmap(-1, n)`` maps MAP_SHARED
# pages, so children forked *after* construction see the same memory):
#
# - :class:`SeqlockArena` — a variable-length payload one writer
#   republishes and many reader processes poll, with a seqlock version
#   word so a reader can never observe a torn (half-swapped) payload;
# - :class:`SharedF64Array` — a flat float64 slot array for counters
#   that must aggregate across processes, on the discipline that each
#   slot has exactly one writer.

_SEQLOCK_HEADER_BYTES = 16  # (version, payload length) words
_SEQLOCK_TAG_BYTES = 128


class SeqlockArena:
    """A single-writer, multi-reader shared-memory publication slot.

    Layout: an 8-byte version word, an 8-byte payload length, a
    fixed-width UTF-8 tag (truncated to :data:`_SEQLOCK_TAG_BYTES`),
    then the payload bytes.  The writer bumps the version to an *odd*
    value, rewrites tag + payload, then bumps it to the next *even*
    value; readers retry while the version is odd or changes across
    their copy.  Version 0 means "never published".

    One process writes (:meth:`publish`), any number of processes that
    inherited the arena over ``fork`` read (:meth:`read`); there is no
    cross-process locking, only the version protocol, so readers never
    block the writer and vice versa.

    Each header word is stored and loaded as one aligned 8-byte access
    through a ``"Q"`` view (as :class:`SharedF64Array` does), so a
    reader sees either the old or the new value of a word, never a
    partly written one.  The writer stores the odd version before the
    length, tag and payload, and the even version last.
    """

    __slots__ = ("_mmap", "_header", "_capacity", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ReproError(
                f"arena capacity must be >= 1 byte, got {capacity}"
            )
        self._capacity = int(capacity)
        total = _SEQLOCK_HEADER_BYTES + _SEQLOCK_TAG_BYTES + self._capacity
        self._mmap = mmap.mmap(-1, total)
        self._header = memoryview(self._mmap)[:_SEQLOCK_HEADER_BYTES].cast(
            "Q"
        )
        # Serializes *threads* of the single writer process; the
        # cross-process story is the seqlock itself.
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Largest payload this arena can hold, in bytes."""
        return self._capacity

    @property
    def version(self) -> int:
        """The current version word (even = stable, odd = mid-swap)."""
        return self._header[0]

    def publish(self, payload: bytes, tag: str = "") -> int:
        """Swap in a new payload; returns the new (even) version."""
        if len(payload) > self._capacity:
            raise ReproError(
                f"payload of {len(payload)} bytes exceeds arena "
                f"capacity {self._capacity}"
            )
        raw_tag = tag.encode("utf-8")[:_SEQLOCK_TAG_BYTES]
        raw_tag = raw_tag.ljust(_SEQLOCK_TAG_BYTES, b"\x00")
        header = self._header
        with self._lock:
            version = header[0]
            odd = version + 1 if version % 2 == 0 else version
            header[0] = odd
            header[1] = len(payload)
            start = _SEQLOCK_HEADER_BYTES
            self._mmap[start:start + _SEQLOCK_TAG_BYTES] = raw_tag
            body = start + _SEQLOCK_TAG_BYTES
            self._mmap[body:body + len(payload)] = payload
            final = odd + 1
            header[0] = final
            return final

    def read(self) -> tuple[int, str, bytes] | None:
        """A consistent ``(version, tag, payload)``; None if unpublished.

        Retries until a stable even version brackets the copy — a
        reader overlapping a swap gets either the old or the new
        payload, never a mix.
        """
        header = self._header
        spins = 0
        while True:
            before = header[0]
            if before == 0:
                return None
            if before % 2 == 0:
                length = header[1]
                start = _SEQLOCK_HEADER_BYTES
                raw_tag = bytes(
                    self._mmap[start:start + _SEQLOCK_TAG_BYTES]
                )
                body = start + _SEQLOCK_TAG_BYTES
                payload = bytes(self._mmap[body:body + length])
                after = header[0]
                if after == before:
                    tag = raw_tag.rstrip(b"\x00").decode("utf-8")
                    return before, tag, payload
            spins += 1
            if spins >= 64:  # writer mid-swap for a while: yield the CPU
                time.sleep(0.0005)

    def close(self) -> None:
        """Unmap the arena (call only after every reader is gone)."""
        self._header.release()
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass


class SharedF64Array:
    """A flat float64 slot array in fork-shared anonymous memory.

    No locking: correctness relies on the *single-writer-per-slot*
    discipline (each worker process updates only its own slots) plus
    aligned 8-byte stores, which do not interleave with concurrent
    8-byte loads on the platforms fork exists on.  Readers aggregating
    across slots may observe different slots at slightly different
    instants — fine for monitoring counters, which is the use case.
    """

    __slots__ = ("_mmap", "_view", "_slots")

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ReproError(f"need at least one slot, got {slots}")
        self._slots = int(slots)
        self._mmap = mmap.mmap(-1, self._slots * 8)
        self._view = memoryview(self._mmap).cast("d")

    def __len__(self) -> int:
        return self._slots

    def __getitem__(self, index: int) -> float:
        return self._view[index]

    def __setitem__(self, index: int, value: float) -> None:
        self._view[index] = value

    def add(self, index: int, amount: float) -> None:
        """Read-modify-write one slot (single writer per slot only)."""
        self._view[index] += amount

    def snapshot(self) -> list[float]:
        """Copy out every slot (one float read each, not atomic as a set)."""
        return self._view.tolist()

    def close(self) -> None:
        """Release the view and unmap (after every reader is gone)."""
        self._view.release()
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass
