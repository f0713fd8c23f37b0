"""Fleet benchmark: end-to-end wall time and per-layer self time.

Run from the repository root:

    python3 perfbench/run.py --workload flat-lockstep-n64 --seed 0 --seconds 10 --trace 0

``--trace 0`` times untraced fleet runs and reports the end-to-end metrics
declared in ``BENCHMARK.json``; ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics.  A readable table goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with its run manifest, is written under ``perfbench/out/``.

BLAS is pinned to one thread per process before numpy loads, so the
two-worker workload uses at most two busy threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: BLAS threads per process; workers inherit the environment
BLAS_THREADS = 1
_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def declared_metrics(traced: bool) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if traced else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> bool:
    """Pin BLAS and put the sources on the path; False if they are missing.

    Must run before numpy is first imported for the pin to take effect.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return False
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(BENCH_DIR), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def stop_helper_processes() -> None:
    """Stop this process's multiprocessing helpers and wait for each to end.

    The worker pool's shared memory and locks start multiprocessing's
    resource tracker, which would otherwise outlive this process until it
    noticed the exit.  Pool workers are joined by ``FleetWorkerPool.shutdown``;
    any child still around is joined here too.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not prepare_environment():
        return 2
    try:
        return _run(args)
    finally:
        stop_helper_processes()


def _run(args) -> int:
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    declared = declared_metrics(traced)
    OUT_DIR.mkdir(exist_ok=True)
    run = measure.trace if traced else measure.measure
    outcome = run(args.workload, args.seed, args.seconds, OUT_DIR, REFERENCE)
    missing = [name for name, _ in declared if name not in outcome.metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    header = measure.manifest(args.workload, args.seed, args.seconds, traced, ROOT)
    measure.write_result(
        OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json",
        header,
        outcome,
    )
    for reason in outcome.failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ({header['spec_sha256'][:12]})")
    for key, value in sorted(outcome.details.items()):
        if isinstance(value, list) and value and isinstance(value[0], float):
            print(f"  {key}: n={len(value)}")
    for name, unit in declared:
        print(f"  {name:<36} {outcome.metrics[name]:>14.6f} {unit}")
    if not traced:  # printed for reading, not declared
        for name, unit in (
            ("failed_frac", "1"),
            ("setup_wall_s", "s"),
            ("run_wall_s", "s"),
        ):
            print(f"  {name:<36} {outcome.metrics[name]:>14.6f} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
