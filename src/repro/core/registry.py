"""Model versioning and guarded updates.

An autonomous system that continually retrains itself needs a safety net:
an incremental update trained on a skewed upload batch can regress the
deployed model, and nobody is watching.  This module provides

* :class:`ModelRegistry` — versioned storage of model state dicts with an
  *active* pointer, supporting publish and rollback; the node always
  deploys the active version.
* :class:`UpdateGuard` — an acceptance test for updates: the candidate
  model must not lose more than ``max_regression`` accuracy on a held-out
  validation set relative to the active model, and must have finite
  weights; otherwise the update is rejected and the weights roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import Dataset
from repro.nn import Sequential
from repro.transfer.finetune import evaluate

__all__ = ["ModelVersion", "ModelRegistry", "GuardDecision", "UpdateGuard"]


@dataclass(frozen=True)
class ModelVersion:
    """One published model version.

    ``track`` separates model lineages sharing one version counter: the
    fleet-wide model lives on ``"main"``, while per-node-group
    specializations (scenario head processes) publish on side tracks like
    ``"head-0"`` without ever becoming the fleet-wide active model.
    """

    version: int
    state: dict[str, np.ndarray]
    metadata: dict
    track: str = "main"


class ModelRegistry:
    """Versioned model store with an active pointer."""

    def __init__(self) -> None:
        self._versions: list[ModelVersion] = []
        self._active_index: int | None = None

    def __len__(self) -> int:
        return len(self._versions)

    def publish(
        self,
        state: dict[str, np.ndarray],
        metadata: dict | None = None,
        *,
        track: str = "main",
        activate: bool | None = None,
    ) -> ModelVersion:
        """Store a new version; by default only ``main`` becomes active.

        ``activate=None`` keeps the historical contract for the main
        track (publish-and-activate) while side-track versions are
        recorded without moving the active pointer.
        """
        entry = ModelVersion(
            version=len(self._versions) + 1,
            state={k: v.copy() for k, v in state.items()},
            metadata=dict(metadata or {}),
            track=track,
        )
        self._versions.append(entry)
        if activate is None:
            activate = track == "main"
        if activate:
            self._active_index = len(self._versions) - 1
        return entry

    @property
    def active(self) -> ModelVersion:
        if self._active_index is None:
            raise LookupError("registry is empty")
        return self._versions[self._active_index]

    def get(self, version: int) -> ModelVersion:
        for entry in self._versions:
            if entry.version == version:
                return entry
        raise KeyError(f"no version {version}")

    def rollback(self) -> ModelVersion:
        """Point 'active' at the previous version *of the same track*.

        Side-track versions interleaved with main publishes are skipped:
        rolling back the fleet-wide model must never activate a
        node-group head.  History is kept either way.
        """
        if self._active_index is None or self._active_index == 0:
            raise LookupError("nothing to roll back to")
        track = self._versions[self._active_index].track
        idx = self._active_index - 1
        while idx >= 0 and self._versions[idx].track != track:
            idx -= 1
        if idx < 0:
            raise LookupError("nothing to roll back to")
        self._active_index = idx
        return self.active

    def activate(self, version: int) -> ModelVersion:
        for i, entry in enumerate(self._versions):
            if entry.version == version:
                self._active_index = i
                return entry
        raise KeyError(f"no version {version}")

    def history(self) -> list[int]:
        return [entry.version for entry in self._versions]

    def versions(self, track: str | None = None) -> list[ModelVersion]:
        """All versions, optionally restricted to one track."""
        if track is None:
            return list(self._versions)
        return [entry for entry in self._versions if entry.track == track]

    def latest(self, track: str) -> ModelVersion | None:
        """Most recent version on ``track``, or None if none published."""
        entries = self.versions(track)
        return entries[-1] if entries else None

    def tracks(self) -> list[str]:
        """Sorted distinct track names with at least one version."""
        return sorted({entry.track for entry in self._versions})


@dataclass(frozen=True)
class GuardDecision:
    """Outcome of an update acceptance test."""

    accepted: bool
    accuracy_before: float
    accuracy_after: float

    @property
    def delta(self) -> float:
        return self.accuracy_after - self.accuracy_before


@dataclass
class UpdateGuard:
    """Accept an update only if it does not regress on validation data.

    ``max_regression`` is the tolerated accuracy drop (small positive
    values allow noise-level dips; 0 demands monotone improvement).
    """

    validation_data: Dataset
    max_regression: float = 0.02
    decisions: list[GuardDecision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.validation_data) == 0:
            raise ValueError("guard needs a non-empty validation set")
        if self.max_regression < 0:
            raise ValueError("max_regression must be >= 0")

    def check(
        self,
        net: Sequential,
        previous_state: dict[str, np.ndarray],
    ) -> GuardDecision:
        """Evaluate the updated ``net`` against its previous weights.

        A candidate with any non-finite parameter is rejected whatever its
        accuracy: NaN logits ``argmax`` to class 0, which can score at
        chance and pass a weak incumbent.  On rejection, ``net`` is
        restored to ``previous_state`` in place.
        """
        after = evaluate(net, self.validation_data)
        finite = all(np.isfinite(p.data).all() for p in net.parameters)
        current_state = net.state_dict()
        net.load_state_dict(previous_state)
        before = evaluate(net, self.validation_data)
        accepted = finite and after >= before - self.max_regression
        if accepted:
            net.load_state_dict(current_state)
        decision = GuardDecision(
            accepted=accepted, accuracy_before=before, accuracy_after=after
        )
        self.decisions.append(decision)
        return decision

    @property
    def rejection_count(self) -> int:
        return sum(1 for d in self.decisions if not d.accepted)
