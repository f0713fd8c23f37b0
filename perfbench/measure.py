"""Timed and traced runs of one workload, with their correctness checks.

``measure`` (untraced) reports the end-to-end metrics; ``trace`` reports
the per-layer ones.  Both count every fleet run they start in
``attempted`` and every run that raised or failed a check in ``failed``;
a failing run is counted, never raised.  Only a failing set-up, or an
invocation in which no run completed, stops with an exception.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import spans
import workloads

#: cold set-ups per untraced run; ``setup_s`` is their probe-scaled median
SETUP_REPEATS = 5

#: span names whose self time is reported from the traced set-up; only
#: these are wrapped there, so each includes the nn work it drives
SETUP_LAYERS = ("data.render", "data.drift", "selfsup.pretrain", "core.cloud.init")

#: per-layer metrics named differently from ``<span>.self_s``
_SELF_NAMES = {
    "fleet.pool.dispatch": "fleet.pool.dispatch.wait_s",
    "obs.trace.write": "obs.trace.write_s",
    spans.HOOK_SPAN: "trace.hooks.self_s",
}

_RUN_LAYERS = (
    "nn.conv.forward",
    "nn.im2col",
    "nn.linear.forward",
    "nn.conv.backward",
    "nn.linear.backward",
    "nn.predict",
    "transfer.evaluate",
    "transfer.train",
    "transfer.distill",
    "diagnosis.flags",
    "core.node.process_stage",
    "core.guard.check",
    "core.cloud.update",
    "fleet.engine",
    "fleet.scheduler.rollout",
    "fleet.pool.publish",
    "fleet.pool.dispatch",
    "events.kernel",
    "events.flows",
    "topology.gateway",
    "topology.second_opinion",
    "scenario.heads",
    "obs.trace.emit",
    "obs.trace.write",
    "obs.metrics",
    spans.HOOK_SPAN,
)


class Outcome:
    """Attempt and failure tally plus the metrics one invocation reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.details: dict = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _git_head(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if Path(top).resolve() == root.resolve() else None


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def manifest(name: str, seed: int, seconds: int, traced: bool, root: Path) -> dict:
    """What a result needs to be reproduced and compared."""
    return {
        "workload": name,
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
        "spec_sha256": workloads.spec_sha256(name),
        "git_head": _git_head(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": _cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "workers": workloads.WORKLOADS[name]["workers"],
        "run_seconds": seconds,
        "trace": traced,
    }


def _processes() -> list[str]:
    """``/proc`` directories of this process and its direct children.

    The children are the pool's workers (and, on ``-w2``, the
    multiprocessing resource tracker), so their memory is part of a run's.
    """
    me = os.getpid()
    found = [f"/proc/{me}"]
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # exited meanwhile, or not ours to read
        if ppid == me:
            found.append(f"/proc/{entry}")
    return found


def trim_heap() -> None:
    """Collect cycles and hand freed heap pages back to the OS (glibc).

    How much freed memory the heap keeps resident depends on how earlier
    set-ups fragmented it, which varies with the process's hash seed: it
    moved the resident size a run starts from by up to 100 MB.
    """
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: nothing to trim
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def reset_peak_rss() -> None:
    """Lower every process's resident high-water mark to its current size.

    Linux only (``clear_refs``).
    """
    for proc in _processes():
        try:
            with open(f"{proc}/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")
        except FileNotFoundError:
            continue  # a child that exited meanwhile


def peak_rss_mb() -> float:
    """Resident high-water mark summed over the process and its children."""
    kib = 0
    for proc in _processes():
        try:
            with open(f"{proc}/status", encoding="ascii") as fh:
                kib += next(
                    int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
                )
        except FileNotFoundError:
            continue
    return kib / 1024.0


def _timed_run(outcome, prepared, reference, out_dir):
    """One checked fleet run: (wall seconds, node epochs), or (None, 0).

    The report is dropped before returning: it keeps the run's networks
    and their scratch buffers alive, which would inflate the next run's
    peak memory.
    """
    outcome.attempted += 1
    # Free earlier runs' reference cycles first, so this run's peak memory
    # does not depend on when the cyclic collector last ran.
    gc.collect()
    try:
        start = time.perf_counter()
        report, emitted = workloads.run_once(prepared, out_dir)
        elapsed = time.perf_counter() - start
        problem = workloads.check_digest(
            reference, prepared.name, prepared.seed, workloads.report_digest(report)
        )
        if problem is None and emitted is not None:
            problem = workloads.check_trace(prepared.name, emitted, out_dir)
        epochs = workloads.node_epochs(report)
    except Exception:  # any program failure is a failed run, not a crash
        outcome.fail(traceback.format_exc(limit=4))
        return None, 0
    if problem is not None:
        outcome.fail(problem)
    return elapsed, epochs


def measure(name, seed, seconds, out_dir, reference_path):
    """Untraced invocation: the end-to-end metrics.

    ``setup_s`` and ``run_s`` are probe-scaled medians (see ``hostspeed``);
    the raw wall times are kept in the details.  ``peak_rss_mb`` is the
    median over the timed runs of each run's own peak: before every run
    the heap is trimmed and the high-water marks are reset, so set-up and
    earlier runs stay out.
    """
    outcome = Outcome()
    reference = workloads.load_reference(reference_path)
    setup_walls, setup_probes = [], []
    run_walls, run_probes, run_peaks = [], [], []
    prepared = None
    # One probe between every two timed steps; each step is scaled by the
    # mean of the probes on either side of it.
    after = hostspeed.probe()
    try:
        for _ in range(SETUP_REPEATS):
            if prepared is not None:
                prepared.close()
                prepared = None
            start = time.perf_counter()
            prepared = workloads.setup(name, seed)
            setup_walls.append(time.perf_counter() - start)
            before, after = after, hostspeed.probe()
            setup_probes.append((before + after) / 2)
        start = time.perf_counter()
        while outcome.attempted == 0 or time.perf_counter() - start < seconds:
            trim_heap()
            reset_peak_rss()
            elapsed, count = _timed_run(outcome, prepared, reference, out_dir)
            peak_mb = peak_rss_mb()
            before, after = after, hostspeed.probe()
            if elapsed is not None:
                run_walls.append(elapsed)
                run_probes.append((before + after) / 2)
                run_peaks.append(peak_mb)
                epochs = count
    finally:
        if prepared is not None:
            prepared.close()
    if not run_walls:
        raise RuntimeError("no run completed:\n" + "\n".join(outcome.failures))
    run_s = hostspeed.scaled(run_walls, run_probes)
    outcome.metrics = {
        "setup_s": hostspeed.scaled(setup_walls, setup_probes),
        "run_s": run_s,
        "node_epochs_per_s": epochs / run_s,
        "peak_rss_mb": statistics.median(run_peaks),
        "failed_frac": outcome.failed / outcome.attempted,
        "setup_wall_s": statistics.median(setup_walls),
        "run_wall_s": statistics.median(run_walls),
    }
    outcome.details = {
        "setup_samples_s": setup_walls,
        "setup_probes_s": setup_probes,
        "run_samples_s": run_walls,
        "run_probes_s": run_probes,
        "run_peaks_mb": run_peaks,
        "node_epochs": epochs,
    }
    return outcome


def _waste_counts(rec) -> tuple:
    return (
        spans.call_count(rec, "nn.predict"),
        len(rec.distinct["nn.predict"]),
        spans.call_count(rec, "transfer.evaluate"),
        len(rec.distinct["transfer.evaluate"]),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(setup_rec, prepared, rec, run_s) -> dict[str, float]:
    setup_self = setup_rec.self_times()
    run_self = rec.self_times()
    counts = rec.counts
    metrics = {
        f"{layer}.self_s": setup_self.get(layer, 0.0) for layer in SETUP_LAYERS
    }
    metrics["data.render.images"] = setup_rec.counts.get("data.render.images", 0.0)
    metrics["fleet.pool.start_s"] = prepared.pool_start_s
    for layer in _RUN_LAYERS:
        metrics[_SELF_NAMES.get(layer, f"{layer}.self_s")] = run_self.get(layer, 0.0)
    conv_calls = spans.call_count(rec, "nn.conv.forward")
    predict_calls, predict_pairs, eval_calls, eval_pairs = _waste_counts(rec)
    metrics.update(
        {
            "nn.conv.forward.calls": conv_calls,
            "nn.conv.forward.rows_per_call": _ratio(
                counts.get("nn.conv.forward.rows", 0.0), conv_calls
            ),
            "nn.predict.calls": predict_calls,
            "nn.predict.distinct_ratio": _ratio(predict_pairs, predict_calls),
            "transfer.evaluate.calls": eval_calls,
            "transfer.evaluate.distinct_ratio": _ratio(eval_pairs, eval_calls),
            "transfer.train.samples": counts.get("transfer.train.samples", 0.0),
            "diagnosis.flags.calls": spans.call_count(rec, "diagnosis.flags"),
            "diagnosis.flagged_ratio": _ratio(
                counts.get("diagnosis.flagged", 0.0),
                counts.get("diagnosis.offered", 0.0),
            ),
            "core.node.process_stage.calls": spans.call_count(
                rec, "core.node.process_stage"
            ),
            "core.guard.reject_ratio": _ratio(
                counts.get("core.guard.rejects", 0.0),
                spans.call_count(rec, "core.guard.check"),
            ),
            "fleet.pool.tasks": counts.get("fleet.pool.tasks", 0.0),
            "events.kernel.steps": counts.get("calls:Simulator.step", 0.0),
            "events.flows.transfers": counts.get("calls:FlowLink.transfer", 0.0),
            "topology.gateway.flushes": counts.get("topology.gateway.flushes", 0.0),
            "obs.trace.records": counts.get("obs.trace.records", 0.0),
            "trace.run_s": run_s,
            "trace.unattributed_s": run_s
            - sum(run_self.get(layer, 0.0) for layer in _RUN_LAYERS),
        }
    )
    return metrics


def trace(name, seed, seconds, out_dir, reference_path):
    """Traced invocation: the per-layer metrics.

    Untraced and traced fleet runs alternate until ``seconds`` pass.  The
    per-layer figures come from the traced run with the median wall time,
    so they add up to that run's ``trace.run_s``; ``trace.overhead_s`` is
    the median traced minus the median untraced wall time.
    """
    outcome = Outcome()
    reference = workloads.load_reference(reference_path)
    setup_rec = spans.Recorder()
    prepared = None
    try:
        with spans.Instrumentation(setup_rec, spans.SETUP_TARGETS) as inst:
            prepared = workloads.setup(name, seed)
        _check_restored(outcome, inst)
        plain, traced = [], []
        start = time.perf_counter()
        while outcome.attempted == 0 or time.perf_counter() - start < seconds:
            elapsed, _ = _timed_run(outcome, prepared, reference, out_dir)
            if elapsed is not None:
                plain.append(elapsed)
            rec = spans.Recorder()
            with spans.Instrumentation(rec) as inst:
                elapsed, _ = _timed_run(outcome, prepared, reference, out_dir)
            _check_restored(outcome, inst)
            if elapsed is not None:
                traced.append((elapsed, rec))
    finally:
        if prepared is not None:
            prepared.close()
    if not plain or not traced:
        raise RuntimeError("no run completed:\n" + "\n".join(outcome.failures))
    if len({_waste_counts(rec) for _, rec in traced}) != 1:
        outcome.fail("waste counts differ between traced runs of one seed")
    ordered = sorted(traced, key=lambda sample: sample[0])
    run_s, rec = ordered[(len(ordered) - 1) // 2]
    outcome.metrics = _layer_metrics(setup_rec, prepared, rec, run_s)
    outcome.metrics["trace.overhead_s"] = statistics.median(
        t for t, _ in traced
    ) - statistics.median(plain)
    outcome.details = {
        # set-up layers seen during the run; their time is unattributed
        "unreported_run_spans": sorted(set(rec.self_times()) - set(_RUN_LAYERS)),
        "untraced_samples_s": plain,
        "traced_samples_s": [t for t, _ in traced],
        "waste_counts": list(_waste_counts(rec)),
    }
    setup_rec.write_jsonl(out_dir / f"{name}.seed{seed}.setup-spans.jsonl")
    rec.write_jsonl(out_dir / f"{name}.seed{seed}.run-spans.jsonl")
    return outcome


def _check_restored(outcome: Outcome, inst: spans.Instrumentation) -> None:
    left = inst.unrestored()
    if left:
        outcome.fail(f"wrapped functions not restored: {left}")


def write_result(path: Path, header: dict, outcome: Outcome) -> None:
    doc = {
        "manifest": header,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": outcome.metrics,
        "details": outcome.details,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
