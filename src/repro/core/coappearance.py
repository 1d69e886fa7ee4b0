"""Co-appearance mining across consecutive rounds (paper Section IV-C).

Two vertices *co-appear* in round ``r`` when they share a community in both
round ``r-1`` and round ``r`` (Definition 4).  The per-vertex co-appearance
number ``S_r(v)`` counts co-appearing partners (Definition 5), and the ratio
of co-appearance number ``RC_{v,r}`` averages ``S_i(v)`` over all rounds so
far, normalised by ``n - 1`` (Definition 6).

:class:`CoAppearanceTracker` is the stateful incarnation used by the
detector: feed it one community labelling per round and it returns
``(S_r, RC_r)`` vectors.  Besides the paper's running average it supports an
exponentially decayed and a sliding-window RC (ablation hooks; DESIGN.md §5).
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np


def coappearance_counts(previous_labels: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vector of ``S_r(v)``: partners sharing v's community in both rounds.

    A pair (v, u) co-appears iff ``previous_labels[v] == previous_labels[u]``
    and ``labels[v] == labels[u]``.  Equivalently, group vertices by the
    *pair* (previous community, current community); every vertex co-appears
    with the other members of its pair-group.  That grouping makes the whole
    computation O(n) instead of O(n^2).
    """
    previous_labels = np.asarray(previous_labels)
    labels = np.asarray(labels)
    if previous_labels.shape != labels.shape or labels.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")

    # Encode the (previous, current) pair as a single key.
    n_current = int(labels.max()) + 1 if labels.size else 0
    keys = previous_labels.astype(np.int64) * max(n_current, 1) + labels.astype(np.int64)
    # bincount over the inverse is cheaper than np.unique's return_counts.
    _, inverse = np.unique(keys, return_inverse=True)
    return np.bincount(inverse)[inverse] - 1  # exclude the vertex itself


class CoAppearanceTracker:
    """Accumulates co-appearance statistics round by round.

    Parameters
    ----------
    n_sensors:
        Number of vertices n; RC is normalised by ``n - 1``.
    mode:
        ``"running"`` (paper, Definition 6), ``"decay"`` or ``"window"``.
    decay:
        Decay factor for ``mode="decay"``; each past round's contribution is
        multiplied by ``decay`` per elapsed round.
    window:
        History length for ``mode="window"``.
    """

    def __init__(
        self,
        n_sensors: int,
        mode: str = "running",
        decay: float = 0.95,
        window: int = 50,
    ) -> None:
        if n_sensors < 2:
            raise ValueError("co-appearance needs at least 2 sensors")
        if mode not in ("running", "decay", "window"):
            raise ValueError(f"unknown RC mode: {mode!r}")
        self._n = n_sensors
        self._mode = mode
        self._decay = decay
        self._window = window
        self._previous_labels: np.ndarray | None = None
        self._rounds = 0  # number of S_i vectors accumulated
        self._sum = np.zeros(n_sensors)
        self._decay_weight = 0.0
        self._history: deque[np.ndarray] = deque(maxlen=window)
        self._last_rc: np.ndarray | None = None

    @property
    def n_sensors(self) -> int:
        """Number of vertices the tracker was built for."""
        return self._n

    @property
    def rounds_seen(self) -> int:
        """Number of rounds for which ``S_r`` was computable (>= 1 prior)."""
        return self._rounds

    @property
    def last_rc(self) -> np.ndarray | None:
        """RC vector of the most recent round (None before round 2).

        Useful for calibrating ``theta``: the normal RC level scales with
        the typical community size over ``n - 1``.
        """
        return None if self._last_rc is None else self._last_rc.copy()

    def update(
        self, labels: np.ndarray, valid: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Feed one round's community labels.

        Returns ``(S_r, RC_r)`` for this round, or ``None`` for the very
        first round (no previous communities to compare against).

        ``valid`` (optional boolean mask over sensors) marks sensors whose
        community assignment is trustworthy this round.  An invalid sensor —
        masked out for missing data — is treated as having moved *with* its
        previous community: its label is rewritten to the current label most
        of its valid previous-round community mates adopted (Louvain label
        ids are round-local, so holding the raw old id would silently stop
        it co-appearing with anyone).  Its own ``S_r`` is imputed at its
        current history mean, leaving its RC unchanged: a data gap must not
        fake an outlier transition — neither for the gapped sensor nor for
        its community mates.
        """
        labels = np.asarray(labels)
        if labels.shape != (self._n,):
            raise ValueError(
                f"expected {self._n} community labels, got shape {labels.shape}"
            )
        if valid is not None:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != (self._n,):
                raise ValueError(
                    f"expected {self._n} validity flags, got shape {valid.shape}"
                )
            if valid.all():
                valid = None
        if self._previous_labels is None:
            self._previous_labels = labels.copy()
            return None

        if valid is not None:
            invalid = ~valid
            # Ghost each invalid sensor along with its previous community:
            # give it the current label the majority of its valid previous
            # community mates ended up with.  A masked sensor is an isolated
            # TSG vertex, so its own Louvain label is a fresh singleton that
            # would never match its mates'.
            labels = labels.copy()
            for vertex in np.flatnonzero(invalid):
                mates = valid & (self._previous_labels == self._previous_labels[vertex])
                if mates.any():
                    mate_labels, counts = np.unique(labels[mates], return_counts=True)
                    labels[vertex] = mate_labels[np.argmax(counts)]
        s_r = coappearance_counts(self._previous_labels, labels).astype(np.float64)
        if valid is not None:
            # RC = history-mean(S) / (n - 1) in every mode, so imputing S_r
            # at the current mean pins the invalid sensors' RC in place.
            if self._last_rc is not None:
                s_r[invalid] = self._last_rc[invalid] * (self._n - 1)
            else:
                s_r[invalid] = 0.0
        self._previous_labels = labels.copy()
        self._rounds += 1

        if self._mode == "running":
            self._sum += s_r
            rc = self._sum / (self._rounds * (self._n - 1))
        elif self._mode == "decay":
            self._sum = self._decay * self._sum + s_r
            self._decay_weight = self._decay * self._decay_weight + 1.0
            rc = self._sum / (self._decay_weight * (self._n - 1))
        else:  # window
            self._history.append(s_r)
            # History rows are NaN-free by construction: masked sensors' S_r
            # is imputed above, never stored as NaN.
            rc = np.mean(self._history, axis=0) / (self._n - 1)  # repro: noqa[R8] imputed, NaN-free history
        self._last_rc = rc
        return s_r, rc

    def reset(self) -> None:
        """Forget all state (labels, sums, history)."""
        self._previous_labels = None
        self._rounds = 0
        self._sum = np.zeros(self._n)
        self._decay_weight = 0.0
        self._history.clear()
        self._last_rc = None

    def to_state(self) -> dict[str, Any]:
        """Exact internal state, for checkpointing."""
        return {
            "n_sensors": self._n,
            "mode": self._mode,
            "decay": self._decay,
            "window": self._window,
            "previous_labels": (
                None if self._previous_labels is None else self._previous_labels.copy()
            ),
            "rounds": self._rounds,
            "sum": self._sum.copy(),
            "decay_weight": self._decay_weight,
            "history": [s.copy() for s in self._history],
            "last_rc": None if self._last_rc is None else self._last_rc.copy(),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "CoAppearanceTracker":
        """Rebuild from :meth:`to_state` output, bit-identically."""
        tracker = cls(
            int(state["n_sensors"]),
            mode=str(state["mode"]),
            decay=float(state["decay"]),
            window=int(state["window"]),
        )
        if state["previous_labels"] is not None:
            tracker._previous_labels = np.asarray(state["previous_labels"]).copy()
        tracker._rounds = int(state["rounds"])
        tracker._sum = np.asarray(state["sum"], dtype=np.float64).copy()
        if tracker._sum.shape != (tracker._n,):
            raise ValueError("invalid CoAppearanceTracker state: bad sum shape")
        tracker._decay_weight = float(state["decay_weight"])
        for s_r in state["history"]:
            tracker._history.append(np.asarray(s_r, dtype=np.float64).copy())
        if state["last_rc"] is not None:
            tracker._last_rc = np.asarray(state["last_rc"], dtype=np.float64).copy()
        return tracker
