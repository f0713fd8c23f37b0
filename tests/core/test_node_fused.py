"""One forward pass per node stage: fused accuracy and diagnosis flags.

``InSituNode.process_stage`` runs its inference network once and, when the
diagnoser reads that same network, derives the diagnosis mask from the same
logits.  These tests pin the fused stage to the two-pass computation it
replaces (accuracy by ``Dataset.batches``, then the diagnoser's own
per-slice forward), count the forward passes, and check that nothing is
carried over between stages.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InSituNode
from repro.data import Dataset
from repro.data.stream import AcquisitionStage
from repro.diagnosis import InferenceConfidenceDiagnoser, OracleDiagnoser
from repro.hw import TX1
from repro.models import alexnet_spec, build_classifier, diagnosis_spec
from repro.nn import Sequential, softmax

POOL = 300
SIZE = 24


def _net(seed: int) -> Sequential:
    return build_classifier(
        4, np.random.default_rng(seed), width=0.25, input_size=SIZE, hidden=16
    )


@lru_cache(maxsize=None)
def _pool() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    images = rng.normal(size=(POOL, 3, SIZE, SIZE)).astype(np.float32)
    labels = rng.integers(0, 4, size=POOL)
    return images, labels


def _stage(start: int, count: int) -> AcquisitionStage:
    images, labels = _pool()
    data = Dataset(images[start : start + count], labels[start : start + count])
    return AcquisitionStage(
        index=1, new_data=data, cumulative_count=count, drift_severity=0.0
    )


def _node(net: Sequential, diagnoser) -> InSituNode:
    spec = alexnet_spec()
    return InSituNode(
        net,
        diagnoser,
        inference_spec=spec,
        diagnosis_spec=diagnosis_spec(spec),
        gpu=TX1,
    )


def _diagnoser(kind: str, net: Sequential, threshold: float, batch_size: int):
    if kind == "oracle":
        return OracleDiagnoser(net, batch_size=batch_size)
    return InferenceConfidenceDiagnoser(net, threshold, batch_size=batch_size)


def _two_pass(net: Sequential, diagnoser, data: Dataset):
    """The pre-fusion stage: accuracy pass, then the diagnoser's own pass."""
    correct = 0
    for x, y in data.batches(128):
        correct += int((net.predict(x).argmax(axis=1) == y).sum())
    accuracy = correct / len(data)
    flags = np.zeros(len(data), dtype=bool)
    scores = np.zeros(len(data))
    step = diagnoser.batch_size
    for start in range(0, len(data), step):
        stop = start + step
        logits = diagnoser.network.predict(data.images[start:stop])
        flags[start:stop] = logits.argmax(axis=1) != data.labels[start:stop]
        scores[start:stop] = softmax(logits, axis=1).max(axis=1)
    if isinstance(diagnoser, InferenceConfidenceDiagnoser):
        flags = scores < diagnoser.threshold
    return accuracy, flags


class TestFusedMatchesTwoPass:
    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(1, POOL),
        offset=st.integers(0, POOL - 1),
        kind=st.sampled_from(["oracle", "confidence"]),
        # same object, same-weight clone, different network; and a batch
        # size the node does not use: only the first at 128 may fuse
        reads=st.sampled_from(["same", "clone", "other"]),
        batch_size=st.sampled_from([128, 50]),
        threshold=st.floats(0.5, 1.0),
    )
    def test_stage_equivalent(
        self, count, offset, kind, reads, batch_size, threshold
    ):
        start = min(offset, POOL - count)
        stage = _stage(start, count)
        net = _net(0)
        diag_net = {"same": net, "clone": _net(0), "other": _net(1)}[reads]
        diagnoser = _diagnoser(kind, diag_net, threshold, batch_size)
        report = _node(net, diagnoser).process_stage(stage)

        accuracy, flags = _two_pass(net, diagnoser, stage.new_data)
        assert report.accuracy_before_update == accuracy
        assert report.flagged_images == int(flags.sum())
        upload = stage.new_data.subset(np.flatnonzero(flags))
        assert np.array_equal(report.upload_data.images, upload.images)
        assert np.array_equal(report.upload_data.labels, upload.labels)


@pytest.fixture
def predict_calls(monkeypatch):
    calls = []
    original = Sequential.predict

    def counting(self, x):
        calls.append(len(x))
        return original(self, x)

    monkeypatch.setattr(Sequential, "predict", counting)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("kind", ["oracle", "confidence"])
    def test_fused_stage_runs_network_once(self, predict_calls, count, kind):
        net = _net(0)
        node = _node(net, _diagnoser(kind, net, 0.8, 128))
        node.process_stage(_stage(0, count))
        assert len(predict_calls) == math.ceil(count / 128)
        assert sum(predict_calls) == count

    def test_other_network_falls_back_to_second_pass(self, predict_calls):
        node = _node(_net(0), OracleDiagnoser(_net(1)))
        node.process_stage(_stage(0, 200))
        assert len(predict_calls) == 2 * math.ceil(200 / 128)

    def test_no_diagnoser_runs_network_once(self, predict_calls):
        node = _node(_net(0), None)
        report = node.process_stage(_stage(0, 130))
        assert len(predict_calls) == 2
        assert report.flagged_images == 130


class TestNoStaleness:
    def test_deploy_between_stages_scores_new_model(self):
        net = _net(0)
        node = _node(net, OracleDiagnoser(net))
        stage = _stage(0, 150)
        first = node.process_stage(stage)
        replacement = _net(1)
        node.deploy(replacement.state_dict())
        second = node.process_stage(stage)

        accuracy, flags = _two_pass(
            replacement, OracleDiagnoser(replacement), stage.new_data
        )
        assert second.accuracy_before_update == accuracy
        assert second.flagged_images == int(flags.sum())
        assert np.array_equal(
            second.upload_data.labels,
            stage.new_data.labels[np.flatnonzero(flags)],
        )
        # The two models disagree here, so a reused result would show.
        assert (
            first.accuracy_before_update,
            first.flagged_images,
        ) != (second.accuracy_before_update, second.flagged_images)

    @pytest.mark.parametrize("kind", ["none", "oracle", "confidence"])
    def test_empty_stage_raises(self, kind):
        net = _net(0)
        diagnoser = None if kind == "none" else _diagnoser(kind, net, 0.8, 128)
        node = _node(net, diagnoser)
        with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
            node.process_stage(_stage(0, 0))
