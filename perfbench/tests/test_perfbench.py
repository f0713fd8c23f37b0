"""Tests of the fleet benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (path set up above)

run.prepare_environment()

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Instrumentation, Recorder, Span, self_times  # noqa: E402

#: the cheapest workload; used wherever a test needs real fleet runs
CHEAP = "scenario-churn-train"


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------
def test_self_times_of_synthetic_nested_spans():
    spans_ = [
        Span("engine", 0.0, 10.0, -1),
        Span("evaluate", 1.0, 4.0, 0),
        Span("conv", 2.0, 3.0, 1),
        Span("evaluate", 5.0, 9.0, 0),
        Span("conv", 5.5, 6.0, 3),
        Span("conv", 6.0, 7.5, 3),
        Span("engine", 11.0, 12.0, -1),
    ]
    got = self_times(spans_)
    assert got == pytest.approx(
        {"engine": (10.0 - 3.0 - 4.0) + 1.0, "evaluate": 2.0 + 2.0, "conv": 3.0}
    )
    roots = sum(s.end - s.start for s in spans_ if s.parent < 0)
    assert sum(got.values()) == pytest.approx(roots)


def test_recorder_nests_by_call_order():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.enter("a")  # t=0
    rec.enter("b")  # t=1
    rec.exit()  # t=2
    rec.enter("b")  # t=3
    rec.enter("c")  # t=4
    rec.exit()  # t=5
    rec.exit()  # t=6
    rec.exit()  # t=7
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 2]
    assert rec.self_times() == {"a": 7.0 - 1.0 - 3.0, "b": 1.0 + 2.0, "c": 1.0}


def test_self_times_refuse_open_spans():
    rec = Recorder()
    rec.enter("a")
    with pytest.raises(RuntimeError):
        rec.self_times()


# ---------------------------------------------------------------------------
# Instrumentation restores what it wraps
# ---------------------------------------------------------------------------
def _by_name_sites():
    import repro.core.cloud as cloud
    import repro.core.node as node
    import repro.fleet.async_sim as async_sim
    import repro.fleet.simulation as simulation
    import repro.nn.conv as conv
    import repro.scenario.heads as heads
    import repro.transfer.finetune as finetune

    return {
        "evaluate": [finetune, simulation, async_sim, node, heads],
        "train_classifier": [finetune, cloud, heads],
        "im2col": [conv],
    }


def test_instrumentation_restores_every_site_by_identity():
    from repro.nn.conv import Conv2D

    sites = _by_name_sites()
    before = {
        (mod.__name__, name): getattr(mod, name)
        for name, mods in sites.items()
        for mod in mods
    }
    forward = Conv2D.__dict__["forward"]
    with Instrumentation(Recorder()) as inst:
        for (mod_name, name), original in before.items():
            assert getattr(sys.modules[mod_name], name) is not original, (
                f"{mod_name}.{name} was not wrapped"
            )
        assert Conv2D.__dict__["forward"] is not forward
    assert inst.unrestored() == []
    for (mod_name, name), original in before.items():
        assert getattr(sys.modules[mod_name], name) is original
    assert Conv2D.__dict__["forward"] is forward


def test_instrumentation_restores_when_the_run_raises():
    import repro.transfer.finetune as finetune

    evaluate = finetune.evaluate
    with pytest.raises(ZeroDivisionError):
        with Instrumentation(Recorder()):
            1 / 0
    assert finetune.evaluate is evaluate


def test_wrapped_evaluate_records_spans_and_distinct_pairs():
    import numpy as np
    from repro.data.datasets import Dataset
    from repro.models.iot_models import build_classifier
    from repro.transfer.finetune import evaluate

    net = build_classifier(4, np.random.default_rng(0), width=0.25, hidden=16)
    rng = np.random.default_rng(1)
    data = Dataset(
        rng.random((3, 3, 48, 48), dtype=np.float32), np.array([0, 1, 2])
    )
    rec = Recorder()
    with Instrumentation(rec):
        import repro.transfer.finetune as finetune

        finetune.evaluate(net, data)
        finetune.evaluate(net, data)
    assert evaluate is finetune.evaluate
    assert spans.call_count(rec, "transfer.evaluate") == 2
    assert len(rec.distinct["transfer.evaluate"]) == 1
    assert len(rec.distinct["nn.predict"]) == 1
    names = [s.name for s in rec.spans]
    assert names[0] == "transfer.evaluate"
    assert "nn.conv.forward" in names and "nn.im2col" in names


# ---------------------------------------------------------------------------
# Seeds, digests and the committed reference
# ---------------------------------------------------------------------------
def _run_digest(name: str, seed: int) -> tuple[str, str]:
    """(sha256 of the generated stage images, digest of the run's report)."""
    import hashlib

    prepared = workloads.setup(name, seed)
    try:
        report, _ = workloads.run_once(prepared, run.OUT_DIR)
    finally:
        prepared.close()
    inputs = hashlib.sha256()
    for stages in prepared.assets.node_stages:
        for stage in stages:
            inputs.update(stage.new_data.images.tobytes())
            inputs.update(stage.new_data.labels.tobytes())
    return inputs.hexdigest(), workloads.report_digest(report)


def test_same_seed_same_digest_different_seed_different_inputs():
    run.OUT_DIR.mkdir(exist_ok=True)
    inputs_a, digest_a = _run_digest(CHEAP, 3)
    inputs_b, digest_b = _run_digest(CHEAP, 3 + workloads.REFERENCE_SLOTS)
    inputs_c, _ = _run_digest(CHEAP, 4)
    assert (inputs_a, digest_a) == (inputs_b, digest_b)
    assert inputs_c != inputs_a
    reference = workloads.load_reference(run.REFERENCE)
    assert workloads.check_digest(reference, CHEAP, 3, digest_a) is None


def test_reference_covers_every_workload_and_slot():
    reference = workloads.load_reference(run.REFERENCE)
    for name in workloads.WORKLOADS:
        ref_name = workloads.REFERENCE_OF.get(name, name)
        assert reference["specs"][ref_name] == workloads.spec_sha256(ref_name)
        assert len(reference["digests"][ref_name]) == workloads.REFERENCE_SLOTS


def test_corrupted_reference_is_a_failure_not_a_crash(tmp_path):
    reference = workloads.load_reference(run.REFERENCE)
    reference["digests"][CHEAP] = [
        d[::-1] for d in reference["digests"][CHEAP]
    ]
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(reference))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    for path in (flipped, garbage, tmp_path / "missing.json"):
        outcome = measure.measure(CHEAP, 0, 1, tmp_path, path)
        assert outcome.attempted >= 1
        assert outcome.failed == outcome.attempted
        assert not outcome.correct
        assert outcome.metrics["failed_frac"] == 1.0


def test_make_reference_redoes_only_stale_workloads():
    import make_reference

    reference = workloads.load_reference(run.REFERENCE)
    assert make_reference.stale(reference, workloads) == []
    reference["specs"][CHEAP] = "0" * 64
    del reference["digests"]["topo-event-horizon"][-1]
    assert sorted(make_reference.stale(reference, workloads)) == [
        CHEAP,
        "topo-event-horizon",
    ]
    assert "flat-lockstep-n64-w2" not in make_reference.stale({}, workloads)


def test_check_digest_names_stale_spec():
    reference = workloads.load_reference(run.REFERENCE)
    reference["specs"][CHEAP] = "0" * 64
    digest = reference["digests"][CHEAP][0]
    assert "another spec" in workloads.check_digest(reference, CHEAP, 0, digest)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------
def test_traced_run_adds_up_and_repeats_waste_counts(tmp_path):
    first = measure.trace(CHEAP, 0, 1, tmp_path, run.REFERENCE)
    second = measure.trace(CHEAP, 0, 1, tmp_path, run.REFERENCE)
    assert first.correct and second.correct, first.failures + second.failures
    assert first.details["waste_counts"] == second.details["waste_counts"]
    m = first.metrics
    run_layers = [
        measure._SELF_NAMES.get(layer, f"{layer}.self_s")
        for layer in measure._RUN_LAYERS
    ]
    total = sum(m[key] for key in run_layers) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.run_s"], abs=1e-9)
    assert 0.0 <= m["trace.unattributed_s"] < 0.05 * m["trace.run_s"]
    declared = {name for name, _ in run.declared_metrics(traced=True)}
    assert declared <= set(m)
    assert all(math.isfinite(v) for v in m.values())


def test_untraced_run_produces_every_end_to_end_metric(tmp_path):
    outcome = measure.measure(CHEAP, 0, 1, tmp_path, run.REFERENCE)
    assert outcome.correct, outcome.failures
    declared = {name for name, _ in run.declared_metrics(traced=False)}
    assert declared <= set(outcome.metrics)
    assert all(outcome.metrics[name] > 0 for name in declared)


def test_peak_rss_leaves_out_memory_freed_before_the_reset():
    import mmap

    measure.trim_heap()
    measure.reset_peak_rss()
    # a fresh anonymous mapping, so no page freed earlier in the process
    # (and still resident) is reused
    size = 64 * 2**20
    block = mmap.mmap(-1, size)
    block.write(b"\x01" * size)  # 64 MiB, all pages touched
    block.close()
    with_block = measure.peak_rss_mb()
    measure.reset_peak_rss()
    assert measure.peak_rss_mb() < with_block - 48


# ---------------------------------------------------------------------------
# The entry script
# ---------------------------------------------------------------------------
def test_run_script_keeps_main_guard():
    # The worker pool spawns fresh interpreters that re-import the main
    # module; without the guard each one would start the benchmark again.
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    guards = [
        node
        for node in tree.body
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    ]
    assert guards, "run.py lost its __main__ guard"
    calls = [
        node
        for node in tree.body
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    ]
    assert not calls, "run.py calls something at import time"


def test_run_script_fails_cleanly_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", CHEAP,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_helper_processes_are_stopped_and_reaped():
    # The pool's shared memory starts multiprocessing's resource tracker,
    # which must not outlive the benchmark.
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already reaped: no such child
