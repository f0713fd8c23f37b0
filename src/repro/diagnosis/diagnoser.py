"""Autonomous IoT data diagnosis (the paper's "diagnosis task").

The diagnosis task decides, on the node, which newly acquired samples are
*valuable* — i.e. likely unrecognized by the current inference model — and
therefore worth uploading to the Cloud for incremental training.  The paper
deploys the unsupervised context network for this job; this module provides
that diagnoser plus the baselines the ablation benches compare against:

* :class:`JigsawDiagnoser` — the paper's design: a sample whose jigsaw
  puzzles the unsupervised network cannot solve confidently is flagged.
* :class:`InferenceConfidenceDiagnoser` — softmax-confidence thresholding on
  the inference network itself.
* :class:`OracleDiagnoser` — ground-truth misclassification (the "incorrect
  predictions" criterion of Fig. 7; an upper bound, not deployable).
* :class:`RandomDiagnoser` — uniform random selection at a fixed budget.

All diagnosers share one contract: ``flags(dataset)`` returns a boolean mask
with True for unrecognized/valuable samples.  The two that read the
inference network itself also offer ``flags_from_logits(logits, labels)``,
so a node that already ran that network on the data can reuse its logits
instead of running it again.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import PREDICT_BATCH, Sequential, softmax
from repro.obs import metrics as obs_metrics
from repro.selfsup.context_net import ContextNetwork
from repro.selfsup.jigsaw import JigsawSampler

__all__ = [
    "Diagnoser",
    "JigsawDiagnoser",
    "InferenceConfidenceDiagnoser",
    "OracleDiagnoser",
    "RandomDiagnoser",
]


class Diagnoser:
    """Interface: mark which samples are unrecognized (upload-worthy)."""

    def flags(self, data: Dataset) -> np.ndarray:
        raise NotImplementedError

    def diagnose(self, data: Dataset) -> np.ndarray:
        """``flags`` plus flag-rate accounting into the ambient metrics.

        The mask is identical to :meth:`flags`; the only addition is the
        scanned/flagged counters, recorded per diagnoser class so the
        upload-selectivity of each design is visible in one dump.
        """
        mask = self.flags(data)
        registry = obs_metrics.active()
        if registry is not None:
            kind = type(self).__name__
            registry.counter("diagnosis.scanned", diagnoser=kind).inc(
                len(data)
            )
            registry.counter("diagnosis.flagged", diagnoser=kind).inc(
                int(np.count_nonzero(mask))
            )
        return mask

    def upload_fraction(self, data: Dataset) -> float:
        """Fraction of the dataset that would be uploaded."""
        if len(data) == 0:
            raise ValueError("cannot diagnose an empty dataset")
        return float(self.flags(data).mean())


class JigsawDiagnoser(Diagnoser):
    """Diagnosis through the unsupervised context network.

    Each image is turned into ``trials`` jigsaw puzzles with known
    permutations; the sample counts as *recognized* when the network solves
    at least ``min_correct`` of them.  Failing the spatial-context task
    indicates the trunk's features do not describe the image well — the same
    features the inference network relies on — so the sample is valuable.

    ``score`` exposes the underlying mean-confidence signal for threshold
    calibration (see :mod:`repro.diagnosis.policy`).
    """

    def __init__(
        self,
        network: ContextNetwork,
        sampler: JigsawSampler,
        *,
        trials: int = 2,
        min_correct: int | None = None,
        rng: np.random.Generator | None = None,
        batch_size: int = 64,
    ) -> None:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.network = network
        self.sampler = sampler
        self.trials = trials
        self.min_correct = min_correct if min_correct is not None else trials
        if not 1 <= self.min_correct <= trials:
            raise ValueError("min_correct must be in [1, trials]")
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.batch_size = batch_size

    def _solve_counts(self, images: np.ndarray) -> np.ndarray:
        """Puzzles solved per image, out of ``self.trials``."""
        counts = np.zeros(len(images), dtype=np.int64)
        for _ in range(self.trials):
            for start in range(0, len(images), self.batch_size):
                stop = start + self.batch_size
                tiles, labels = self.sampler.batch(images[start:stop])
                logits = self.network.predict(tiles)
                counts[start:stop] += logits.argmax(axis=1) == labels
        return counts

    def flags(self, data: Dataset) -> np.ndarray:
        counts = self._solve_counts(data.images)
        return counts < self.min_correct

    def score(self, data: Dataset) -> np.ndarray:
        """Mean correct-permutation probability per image (high = recognized)."""
        scores = np.zeros(len(data))
        for _ in range(self.trials):
            for start in range(0, len(data), self.batch_size):
                stop = start + self.batch_size
                tiles, labels = self.sampler.batch(data.images[start:stop])
                probs = softmax(self.network.predict(tiles), axis=1)
                scores[start:stop] += probs[np.arange(len(labels)), labels]
        return scores / self.trials


class InferenceConfidenceDiagnoser(Diagnoser):
    """Flag samples whose inference softmax confidence is below a threshold."""

    def __init__(
        self,
        network: Sequential,
        threshold: float = 0.6,
        *,
        batch_size: int = PREDICT_BATCH,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.network = network
        self.threshold = threshold
        self.batch_size = batch_size

    @staticmethod
    def _confidence(logits: np.ndarray) -> np.ndarray:
        confidence = softmax(logits, axis=1).max(axis=1)
        return confidence.astype(np.float64)  # repro-lint: ignore[RPR004] a float32 compare would round the threshold itself and move the flag boundary

    def score(self, data: Dataset) -> np.ndarray:
        return self._confidence(
            self.network.predict_batched(data.images, self.batch_size)
        )

    def flags_from_logits(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """The :meth:`flags` mask from ``network``'s logits for the data."""
        return self._confidence(logits) < self.threshold

    def flags(self, data: Dataset) -> np.ndarray:
        return self.flags_from_logits(
            self.network.predict_batched(data.images, self.batch_size),
            data.labels,
        )


class OracleDiagnoser(Diagnoser):
    """Ground-truth misclassification — the ideal "unrecognized" criterion.

    Requires labels, so it is an experimental upper bound (it is exactly the
    selection rule Fig. 7 uses when it builds Net-Err from the images the
    model got wrong).
    """

    def __init__(
        self, network: Sequential, *, batch_size: int = PREDICT_BATCH
    ) -> None:
        self.network = network
        self.batch_size = batch_size

    def flags_from_logits(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """The :meth:`flags` mask from ``network``'s logits for the data."""
        return logits.argmax(axis=1) != labels

    def flags(self, data: Dataset) -> np.ndarray:
        return self.flags_from_logits(
            self.network.predict_batched(data.images, self.batch_size),
            data.labels,
        )


class RandomDiagnoser(Diagnoser):
    """Upload a uniform random fraction — the naive budget baseline."""

    def __init__(self, fraction: float, *, rng: np.random.Generator) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.rng = rng

    def flags(self, data: Dataset) -> np.ndarray:
        return self.rng.random(len(data)) < self.fraction
