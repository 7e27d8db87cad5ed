"""Shared plumbing for the benchmark: paths, child processes, statistics.

Every file the benchmark writes lives under ``.bench_build/perfbench``
in the checkout it runs from; the program under test is imported from
the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: Temporary files of the benchmark's children (the program spools
#: columnar writes through ``tempfile``) stay inside the checkout too.
TMP = WORK / "tmp"

#: The paper's crawl size at the CLI generator's default density.
BLOGGERS = 3000
POSTS_PER_BLOGGER = 7.0

#: Scores of two solves of one corpus must agree to this (the repo-wide
#: backend-equivalence bound, ``repro.core.solver.EQUIVALENCE_TOLERANCE``).
TOLERANCE = 1e-9


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The program's kernel override would change what is measured.
    env.pop("REPRO_SPARSE_KERNEL", None)
    TMP.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(TMP)
    return env


@contextmanager
def one_cpu():
    """Run this process, and the children it starts meanwhile, on one CPU.

    The measured process then shares its CPU's speed with every thread
    it runs and with the calibration loop that measures that speed
    (``speed.py``), and never migrates to a vCPU in another phase.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def python_cmd(script: str, *args: object) -> list[str]:
    """Command line running one of the benchmark's own scripts."""
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def run_child(cmd: list[str], timeout: float) -> None:
    """Run a child to completion; raise with its stderr if it fails."""
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{Path(cmd[1]).name} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one checked op; returns ``condition``."""
        if condition:
            self.attempted += 1
        else:
            self.fail(reason)
        return condition


def end_to_end(values: dict[str, tuple[float, str]], traced: bool) -> dict:
    """``{name: (value, unit)}`` as metrics; a traced run's get ``traced.``."""
    prefix = "traced." if traced else ""
    return {f"{prefix}{name}": {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def max_abs_diff(left: dict[str, float], right: dict[str, float]) -> float:
    """Largest score difference; infinite when the id sets differ."""
    if left.keys() != right.keys():
        return math.inf
    return max((abs(left[k] - right[k]) for k in left), default=0.0)


def ranking(scores: dict[str, float]) -> list[str]:
    """Ids by descending score, ties broken by id."""
    return sorted(scores, key=lambda key: (-scores[key], key))
