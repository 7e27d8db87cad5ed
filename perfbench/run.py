"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload cold-fit --seed 2010 \\
        --seconds 15 --trace 0

Generates the seed's inputs in a separate process (reused when already
present), runs the workload for ``--seconds`` of ops, checks its
outputs, prints the layer table (traced runs) and the sample counts,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A per-layer
metric of a layer the workload never runs reads 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from common import (
    BLOGGERS, ROOT, SRC, TMP, WORK, Tally, child_env, program_present,
    python_cmd, run_child,
)

#: Generated parts each workload reads (see gen.py).
PARTS = {
    "cold-fit": ["corpus", "fit", "staged"],
    "delta-ingest": ["corpus", "grown"],
    "query-serve": ["corpus", "fit"],
}


def _declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _select(metrics: dict, declared: dict[str, str],
            fill_missing: bool) -> dict:
    out = {}
    for name, unit in declared.items():
        if name not in metrics:
            if not fill_missing:
                raise RuntimeError(f"workload did not measure {name}")
            out[name] = {"value": 0.0, "unit": unit}
            continue
        if metrics[name]["unit"] != unit:
            raise RuntimeError(
                f"{name} measured in {metrics[name]['unit']}, "
                f"declared in {unit}")
        out[name] = {"value": metrics[name]["value"], "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bloggers", type=int, default=BLOGGERS,
                        help="corpus size (smaller only for smoke tests)")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()

    # Set-up outside every metric: bytecode, then the seed's inputs.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC),
         str(ROOT / "perfbench")],
        env=child_env(), check=True, stdout=subprocess.DEVNULL,
    )
    import gen

    inputs = gen.seed_dir(args.seed, args.bloggers)
    oracles = gen.oracle_dir(args.seed, args.bloggers)
    if gen.missing(args.seed, args.bloggers, PARTS[args.workload]):
        run_child(python_cmd("gen.py", "--seed", args.seed, "--bloggers",
                             args.bloggers, "--parts",
                             ",".join(PARTS[args.workload])),
                  timeout=170)
    work = WORK / f"run-{args.workload}"
    for path in (work, TMP):
        if path.exists():
            shutil.rmtree(path)
    work.mkdir(parents=True)

    trace = bool(args.trace)
    tally = Tally()
    if args.workload == "cold-fit":
        import coldfit

        metrics, table, samples = coldfit.run(
            inputs, oracles, work, args.seconds, trace, tally)
    elif args.workload == "delta-ingest":
        import ingest

        metrics, table, samples = ingest.run(
            inputs, oracles, work, args.seconds, trace, tally)
    else:
        import serve

        metrics, table, samples = serve.run(
            inputs, oracles, work, args.seconds, trace, tally, args.seed)

    if trace:
        print(table)
        print("traced end to end: " + ", ".join(
            f"{name[len('traced.'):]}={m['value']:.6g} {m['unit']}"
            for name, m in metrics.items() if name.startswith("traced.")))
        selected = _select(metrics, declared["per_layer"], True)
    else:
        selected = _select(metrics, declared["end_to_end"], False)
    samples["inputs"] = (inputs / "inputs.sha256").read_text()[:12]
    print("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    for reason in tally.reasons:
        print(f"check failed: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": selected,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
