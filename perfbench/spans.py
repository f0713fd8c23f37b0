"""Outside-in layer tracing for the fleet benchmark.

The benchmark measures the program from the outside: :class:`Instrumentation`
wraps public functions and methods of each ``repro`` layer for the length of
one traced run, records one span per call (name, start, end, parent) in
memory, and restores every original object afterwards.  Nothing inside
``src/`` knows it is being traced.

A layer's *self time* is the summed duration of its spans minus the time
their direct child spans cover.  Calls nest strictly (the fleet engines are
single-threaded in the parent process), so children of one span never
overlap each other and the subtraction is exact.  Summed over every span
name, self times equal the total time covered by root spans; whatever the
traced region spent outside any root span is reported as unattributed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

#: span name under which counting hooks (digests, ratios) run, so their
#: cost is kept out of the self time of the layer they observe
HOOK_SPAN = "trace.hooks"


@dataclass(frozen=True)
class Span:
    """One wrapped call: ``parent`` indexes the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: durations minus direct-child coverage."""
    child_cover = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_cover[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - child_cover[i]
    return dict(totals)


@dataclass
class Recorder:
    """In-memory span stack plus named counters and distinct-key sets."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    distinct: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    #: (start, span index) of every span entered but not yet exited
    _open: list[tuple[float, int]] = field(default_factory=list)

    def enter(self, name: str) -> None:
        parent = self._open[-1][1] if self._open else -1
        # Reserve the span's index now so children can point at it.
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._open.append((self.clock(), len(self.spans) - 1))

    def exit(self) -> None:
        end = self.clock()
        start, index = self._open.pop()
        span = self.spans[index]
        self.spans[index] = Span(span.name, start, end, span.parent)

    def self_times(self) -> dict[str, float]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return self_times(self.spans)

    def write_jsonl(self, path) -> None:
        """Dump the spans, one JSON object per line, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Digests for the waste ratios
# ---------------------------------------------------------------------------
def array_digest(array) -> str:
    h = hashlib.sha1(str((array.shape, array.dtype.str)).encode())
    h.update(np.ascontiguousarray(array))
    return h.hexdigest()


def weights_digest(net) -> str:
    h = hashlib.sha1()
    for param in net.parameters:
        h.update(array_digest(param.data).encode())
    return h.hexdigest()


def dataset_digest(data) -> str:
    return array_digest(data.images) + array_digest(data.labels)


# ---------------------------------------------------------------------------
# Counting hooks: hook(recorder, args, kwargs, result) runs after the call
# ---------------------------------------------------------------------------
def _count_conv_rows(rec, args, kwargs, out):
    # im2col rows of the call: batch * out_h * out_w
    rec.counts["nn.conv.forward.rows"] += out.shape[0] * out.shape[2] * out.shape[3]


def _predict_pair(rec, args, kwargs, out):
    net, x = args[0], args[1]
    rec.distinct["nn.predict"].add((weights_digest(net), array_digest(x)))


def _evaluate_pair(rec, args, kwargs, out):
    net, data = args[0], args[1]
    rec.distinct["transfer.evaluate"].add((weights_digest(net), dataset_digest(data)))


def _train_samples(rec, args, kwargs, result):
    rec.counts["transfer.train.samples"] += result.sample_steps


def _flag_counts(rec, args, kwargs, flags):
    rec.counts["diagnosis.flagged"] += int(flags.sum())
    rec.counts["diagnosis.offered"] += len(flags)


def _guard_counts(rec, args, kwargs, decision):
    if not decision.accepted:
        rec.counts["core.guard.rejects"] += 1


def _render_images(rec, args, kwargs, out):
    rec.counts["data.render.images"] += len(out)


def _pool_tasks(rec, args, kwargs, out):
    rec.counts["fleet.pool.tasks"] += len(args[3] if len(args) > 3 else kwargs["tasks"])


def _gateway_flushes(rec, args, kwargs, entries):
    if entries:
        rec.counts["topology.gateway.flushes"] += 1


def _trace_records(rec, args, kwargs, out):
    rec.counts["obs.trace.records"] += len(args[0].records)


#: (module, qualified attribute, span name, hook or None).  Methods are
#: patched on the class that defines them; module functions are patched in
#: every ``repro`` module that holds a reference to the same object, which
#: covers by-name imports such as ``from repro.transfer.finetune import
#: evaluate``.
SETUP_TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.data.images", "ImageGenerator.batch", "data.render", _render_images),
    ("repro.data.drift", "DriftModel.apply_batch", "data.drift", None),
    ("repro.selfsup.pretrain", "pretrain", "selfsup.pretrain", None),
    ("repro.core.cloud", "InSituCloud.initialize_inference", "core.cloud.init", None),
)

TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = SETUP_TARGETS + (
    ("repro.nn.conv", "Conv2D.forward", "nn.conv.forward", _count_conv_rows),
    ("repro.nn.conv", "Conv2D.backward", "nn.conv.backward", None),
    ("repro.nn.im2col", "im2col", "nn.im2col", None),
    ("repro.nn.linear", "Linear.forward", "nn.linear.forward", None),
    ("repro.nn.linear", "Linear.backward", "nn.linear.backward", None),
    ("repro.nn.network", "Sequential.predict", "nn.predict", _predict_pair),
    ("repro.transfer.finetune", "evaluate", "transfer.evaluate", _evaluate_pair),
    ("repro.transfer.finetune", "train_classifier", "transfer.train", _train_samples),
    ("repro.transfer.distill", "distill_classifier", "transfer.distill", _train_samples),
    ("repro.diagnosis.diagnoser", "OracleDiagnoser.flags", "diagnosis.flags", _flag_counts),
    ("repro.diagnosis.diagnoser", "InferenceConfidenceDiagnoser.flags", "diagnosis.flags", _flag_counts),
    ("repro.diagnosis.diagnoser", "JigsawDiagnoser.flags", "diagnosis.flags", _flag_counts),
    ("repro.core.node", "InSituNode.process_stage", "core.node.process_stage", None),
    ("repro.core.registry", "UpdateGuard.check", "core.guard.check", _guard_counts),
    ("repro.core.cloud", "InSituCloud.incremental_update", "core.cloud.update", None),
    ("repro.fleet.simulation", "run_fleet", "fleet.engine", None),
    ("repro.fleet.async_sim", "run_fleet_event", "fleet.engine", None),
    ("repro.scenario.lockstep", "run_scenario_lockstep", "fleet.engine", None),
    ("repro.scenario.event", "run_scenario_event", "fleet.engine", None),
    ("repro.fleet.scheduler", "FleetScheduler.rollout", "fleet.scheduler.rollout", None),
    ("repro.fleet.pool", "FleetWorkerPool.publish", "fleet.pool.publish", None),
    ("repro.fleet.pool", "FleetWorkerPool.run_stage", "fleet.pool.dispatch", _pool_tasks),
    ("repro.events.kernel", "Simulator.run", "events.kernel", None),
    ("repro.events.kernel", "Simulator.step", "events.kernel", None),
    ("repro.events.flows", "FlowLink.transfer", "events.flows", None),
    ("repro.events.flows", "FlowLink.cancel", "events.flows", None),
    ("repro.events.flows", "max_min_rates", "events.flows", None),
    ("repro.topology.gateway", "GatewayBuffer.offer", "topology.gateway", None),
    ("repro.topology.gateway", "GatewayBuffer.should_flush", "topology.gateway", None),
    ("repro.topology.gateway", "GatewayBuffer.flush", "topology.gateway", _gateway_flushes),
    ("repro.topology.gateway", "SecondOpinion.resolve", "topology.second_opinion", None),
    ("repro.scenario.heads", "run_head_updates", "scenario.heads", None),
    ("repro.obs.trace", "Tracer.span", "obs.trace.emit", None),
    ("repro.obs.trace", "Tracer.event", "obs.trace.emit", None),
    ("repro.obs.trace", "Tracer.extend", "obs.trace.emit", None),
    ("repro.obs.trace", "make_span", "obs.trace.emit", None),
    ("repro.obs.trace", "make_event", "obs.trace.emit", None),
    ("repro.obs.trace", "Tracer.write_jsonl", "obs.trace.write", _trace_records),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs.metrics", None),
    ("repro.obs.metrics", "MetricsRegistry.write_json", "obs.metrics", None),
    ("repro.obs.metrics", "Counter.inc", "obs.metrics", None),
    ("repro.obs.metrics", "Gauge.set", "obs.metrics", None),
    ("repro.obs.metrics", "Gauge.inc", "obs.metrics", None),
    ("repro.obs.metrics", "Gauge.dec", "obs.metrics", None),
    ("repro.obs.metrics", "Histogram.observe", "obs.metrics", None),
)


def _wrap(fn, qualname: str, name: str, hook, rec: Recorder):
    calls = "calls:" + qualname

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.counts[calls] += 1
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            rec.enter(HOOK_SPAN)
            try:
                hook(rec, args, kwargs, result)
            finally:
                rec.exit()
        return result

    return traced


class Instrumentation:
    """Patch every target for the lifetime of a ``with`` block.

    ``sites`` lists ``(owner, attribute, original)`` for every replaced
    reference; leaving the block puts each original object back, so
    afterwards ``getattr(owner, attribute) is original`` for all of them.
    """

    def __init__(self, recorder: Recorder, targets=TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        self.sites: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for module_name, qualname, span_name, hook in self.targets:
                self._install(module_name, qualname, span_name, hook)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _install(self, module_name, qualname, span_name, hook) -> None:
        module = sys.modules[module_name]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            holders = [(owner, attr)]
        else:
            original = getattr(module, attr)
            holders = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not None and mod_name.split(".")[0] == "repro"
                for key, value in list(vars(mod).items())
                if value is original
            ]
        wrapper = _wrap(original, qualname, span_name, hook, self.recorder)
        for holder, key in holders:
            setattr(holder, key, wrapper)
            self.sites.append((holder, key, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.sites):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Sites whose current object is not the original, by identity."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.sites
            if getattr(owner, attr) is not original
        ]


def call_count(recorder: Recorder, span_name: str, targets=TARGETS) -> float:
    """Calls into every target recorded under ``span_name``."""
    return sum(
        recorder.counts.get("calls:" + qualname, 0.0)
        for _, qualname, name, _ in targets
        if name == span_name
    )
