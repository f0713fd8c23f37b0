"""The fleet benchmark's workloads: specs, set-up, one timed run, digests.

Every workload is a closed-loop batch job: the caller starts one fleet run,
waits for it to finish, and only then starts the next.  Each spec is plain
JSON-able data; its sha256 goes into the run manifest, and the reference
digests in ``reference.json`` are only valid for the spec hash stored next
to them.

Inputs come from the benchmark seed only.  ``input_seed(seed)`` folds the
seed into ``REFERENCE_SLOTS`` input sets, one committed reference digest
each, so every run of every seed is checked against a known-good result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict
from pathlib import Path

import repro.fleet
import repro.scenario
from repro.core import system_by_id
from repro.data.cache import dataset_cache
from repro.fleet import FleetScenario, fleet_base_scenario
from repro.fleet.pool import FleetWorkerPool
from repro.fleet.simulation import pooled_node_stage
from repro.obs import MetricsRegistry, Tracer, iter_jsonl
from repro.topology import AggregationPolicy, Topology

#: distinct input sets; seeds are folded onto them (see module docstring)
REFERENCE_SLOTS = 32

#: per-node stream and model sizes shared by the three 64-node workloads:
#: one to four images per node and stage, so per-call overhead dominates
_SMALL_BASE = {
    "stream_scale": 0.01,
    "pretrain_images": 64,
    "pretrain_epochs": 1,
    "init_epochs": 2,
    "update_epochs": 1,
    "eval_images": 32,
    "width": 0.5,
}

_FLAT = {
    "engine": "run_fleet",
    "system": "d",
    "nodes": 64,
    "workers": 1,
    "base": _SMALL_BASE,
    # the pooled uploads never reach the threshold, so after its
    # initialisation the Cloud does not retrain and node-side reads dominate
    "fleet": {"scheduler_policy": "threshold", "upload_threshold": 100_000},
}

#: batch_size 16: conv layers keep one scratch buffer per distinct batch
#: shape, and which remainder-batch shapes occur depends on the seed's
#: churn; smaller batches keep that seed-dependent share of peak memory
#: small (at 32 the peak ranged 350-500 MB over ten seeds)
_SCENARIO_YAML = """\
scenario:
  name: churn-train
  seed: {seed}
  engine: lockstep
fleet:
  nodes: 8
  stages: 4
  base:
    stream_scale: 0.03
    pretrain_images: 48
    pretrain_epochs: 1
    init_epochs: 2
    update_epochs: 3
    eval_images: 32
    width: 0.5
    batch_size: 16
processes:
  churn:
    rate: 0.1
    max_outage_stages: 1
  class_incremental:
    groups:
      - [0, 1]
      - [2, 3]
    phase_stages: [0, 2]
    exemplar_capacity: 48
  per_node_heads:
    groups: 2
    epochs: 1
"""

WORKLOADS: dict[str, dict] = {
    "flat-lockstep-n64": _FLAT,
    "flat-lockstep-n64-w2": {**_FLAT, "workers": 2},
    "topo-event-horizon": {
        "engine": "run_fleet_event",
        "system": "d",
        "nodes": 64,
        "workers": 1,
        "base": _SMALL_BASE,
        # a backhaul fast enough that the gateways drain every node's
        # first upload and the Cloud initialises inside the horizon
        "fleet": {
            "scheduler_policy": "threshold",
            "upload_threshold": 300,
            "backhaul_bps": 400e6,
        },
        "topology": {
            "fan_out": 8,
            "second_opinion_fraction": 0.5,
            "flush_images": 16,
            "max_age_stages": 1,
        },
        "horizon_s": 0.6,
    },
    "scenario-churn-train": {
        "engine": "run_scenario_lockstep",
        # system a uploads everything and retrains the whole network, so
        # the training volume follows the alive set (churn) rather than
        # how many images a seed's model happens to misclassify
        "system": "a",
        "workers": 1,
        "yaml": _SCENARIO_YAML,
    },
}

#: workloads whose results must equal another workload's, digest for digest
REFERENCE_OF = {"flat-lockstep-n64-w2": "flat-lockstep-n64"}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SLOTS


def spec_sha256(name: str) -> str:
    """sha256 of a workload's spec, the worker count left out.

    The worker count changes how a run is computed, not what it computes,
    so ``flat-lockstep-n64-w2`` shares its hash (and reference digests)
    with ``flat-lockstep-n64``; the run manifest records the worker count
    next to the hash.
    """
    spec = {k: v for k, v in WORKLOADS[name].items() if k != "workers"}
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Prepared:
    """Set-up output one timed run consumes: assets plus optional pool."""

    def __init__(self, name: str, seed: int, assets, scenario_spec=None):
        self.name = name
        self.seed = seed
        self.assets = assets
        self.scenario_spec = scenario_spec
        self.pool = None
        #: wall seconds of pool construction plus worker warm-up
        self.pool_start_s = 0.0

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None


def _fleet_scenario(spec: dict, seed: int) -> FleetScenario:
    base = fleet_base_scenario(seed=seed, **spec["base"])
    return FleetScenario(
        base=base, num_nodes=spec["nodes"], seed=seed, **spec["fleet"]
    )


def setup(name: str, seed: int) -> Prepared:
    """Prepare one workload's assets from a cold dataset cache.

    The inputs come from ``input_seed(seed)``.  With ``workers > 1`` this
    also starts the worker pool and runs one stage-0 task per worker, so
    process spawn and asset attach are paid here rather than inside the
    first timed run.
    """
    spec = WORKLOADS[name]
    seed = input_seed(seed)
    dataset_cache.clear()
    if spec["engine"] == "run_scenario_lockstep":
        scenario_spec = repro.scenario.load_spec(spec["yaml"].format(seed=seed))
        assets = repro.scenario.prepare_scenario_assets(scenario_spec)
        return Prepared(name, seed, assets, scenario_spec=scenario_spec)
    assets = repro.fleet.prepare_fleet_assets(_fleet_scenario(spec, seed))
    prepared = Prepared(name, seed, assets)
    if spec["workers"] > 1:
        start = time.perf_counter()
        prepared.pool = FleetWorkerPool(assets, spec["workers"])
        try:
            pooled_node_stage(
                prepared.pool,
                spec["system"],
                0,
                [(i, assets.initial_state) for i in range(spec["workers"])],
            )
        except BaseException:
            prepared.close()
            raise
        prepared.pool_start_s = time.perf_counter() - start
    return prepared


def run_once(prepared: Prepared, out_dir: Path):
    """One closed-loop fleet run through the public API.

    Returns ``(report, emitted)``: ``emitted`` is the number of trace
    records the run produced, or None for workloads without a tracer.  The
    topology workload also writes its trace JSONL and metrics dump, which
    is part of what it measures.
    """
    spec = WORKLOADS[prepared.name]
    config = system_by_id(spec["system"])
    engine = spec["engine"]
    if engine == "run_fleet":
        report = repro.fleet.run_fleet(
            config, prepared.assets, workers=spec["workers"], pool=prepared.pool
        )
        return report, None
    if engine == "run_scenario_lockstep":
        report = repro.scenario.run_scenario_lockstep(
            prepared.scenario_spec,
            assets=prepared.assets,
            system_id=spec["system"],
        )
        return report, None
    topo = spec["topology"]
    topology = Topology.fan_out(
        spec["nodes"],
        topo["fan_out"],
        aggregation=AggregationPolicy(
            flush_images=topo["flush_images"],
            max_age_stages=topo["max_age_stages"],
        ),
        second_opinion_fraction=topo["second_opinion_fraction"],
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = repro.fleet.run_fleet_event(
        config,
        prepared.assets,
        horizon_s=spec["horizon_s"],
        topology=topology,
        tracer=tracer,
        metrics=metrics,
    )
    tracer.write_jsonl(out_dir / f"{prepared.name}.trace.jsonl")
    metrics.write_json(out_dir / f"{prepared.name}.metrics.json")
    return report, len(tracer.records)


def check_trace(name: str, emitted: int, out_dir: Path) -> str | None:
    """The written trace must parse and hold every emitted record."""
    parsed = sum(1 for _ in iter_jsonl(out_dir / f"{name}.trace.jsonl"))
    if parsed != emitted or parsed == 0:
        return f"trace holds {parsed} records, run emitted {emitted}"
    return None


def node_epochs(report) -> int:
    """Node epochs the run completed (alive nodes only under churn)."""
    if hasattr(report, "stage_info"):
        return sum(len(info.alive) for info in report.stage_info)
    return sum(len(t.records) for t in report.nodes)


def _plain(value):
    """JSON-able copy with floats rounded to 9 digits."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, float):
        return round(value, 9)
    return value


def report_digest(report) -> str:
    """sha256 over the values both fleet report types expose.

    Per-node accuracy trajectories, the fleet byte-ledger totals, the
    registry's version history and the virtual run time: the event
    report's makespan, or each lockstep stage's upload makespan and
    modeled update time.  Trace bytes are deliberately not covered.
    """
    fleet = getattr(report, "fleet", report)
    registry = getattr(report, "registry", fleet.registry)
    if hasattr(fleet, "makespan_s"):
        timeline = fleet.makespan_s
    else:
        timeline = [
            [s.upload_makespan_s, s.modeled_update_time_s] for s in fleet.stages
        ]
    doc = {
        "accuracy": [t.accuracy_trajectory for t in fleet.nodes],
        "ledger": asdict(fleet.ledger.snapshot()),
        "registry": [
            [v.version, v.track, v.metadata] for v in registry.versions()
        ],
        "active": registry.active.version if len(registry) else None,
        "timeline": timeline,
    }
    text = json.dumps(_plain(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path) -> dict:
    """The committed reference, or ``{}`` when it is missing or unreadable.

    An empty reference fails every digest check, so a broken file shows up
    as failed runs rather than as an exception.
    """
    try:
        reference = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return reference if isinstance(reference, dict) else {}


def check_digest(reference: dict, name: str, seed: int, digest: str) -> str | None:
    """None when ``digest`` matches the committed reference, else why not.

    Never raises: a missing, stale or corrupted reference is a failed
    check, reported like a wrong result.
    """
    ref_name = REFERENCE_OF.get(name, name)
    try:
        if reference["specs"][ref_name] != spec_sha256(ref_name):
            return f"reference for {ref_name} was made for another spec"
        expected = reference["digests"][ref_name][input_seed(seed)]
    except (KeyError, IndexError, TypeError) as exc:
        return f"no usable reference digest for {ref_name}: {exc!r}"
    if digest != expected:
        return f"digest {digest[:12]} != reference {str(expected)[:12]}"
    return None

