"""Evaluation metrics: PLCC, SRCC, RL2E, and pooled variants.

Degenerate inputs (too few points, zero variance) yield None rather than
a coerced value, so broken test splits stay visible in reports. Pooled
metrics are computed once over the concatenation of all sessions'
samples, never by averaging per-session coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional (average-tie) ranks, 1-based."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share the value; average of 1-based ranks
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def plcc(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Pearson correlation, or None when undefined."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        return None
    a = pred - pred.mean()
    b = truth - truth.mean()
    denom_sq = float(a @ a) * float(b @ b)
    if denom_sq <= 0.0:
        return None
    return float(a @ b) / float(np.sqrt(denom_sq))


def srcc(pred: np.ndarray, truth: np.ndarray) -> float | None:
    """Spearman rank correlation: Pearson over fractional ranks."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        return None
    return plcc(average_ranks(pred), average_ranks(truth))


def rl2e(pred: np.ndarray, truth: np.ndarray, s_max: float, s_min: float) -> float:
    """Mean squared error normalized by the score range."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 1:
        raise ValueError("rl2e needs at least one sample")
    if s_max <= s_min:
        raise ValueError(f"score range is empty: s_max {s_max} <= s_min {s_min}")
    rel = np.abs(truth - pred) / (s_max - s_min)
    return float(np.mean(rel * rel))


def pooled_metrics(
    per_session: list[tuple[np.ndarray, np.ndarray]], s_max: float, s_min: float
) -> tuple[float | None, float]:
    """(srcc, rl2e) over the concatenation of all sessions' samples."""
    if not per_session:
        raise ValueError("pooled metrics need at least one session")
    pred = np.concatenate([np.asarray(p, dtype=np.float64) for p, _ in per_session])
    truth = np.concatenate([np.asarray(t, dtype=np.float64) for _, t in per_session])
    if pred.size < 2:
        raise ValueError(f"pooled metrics need >= 2 samples total, got {pred.size}")
    return srcc(pred, truth), rl2e(pred, truth, s_max, s_min)


def metric_entry(
    pred: np.ndarray, truth: np.ndarray, s_max: float, s_min: float
) -> dict:
    """Standard {plcc, srcc, rl2e, n} cell used throughout reports."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return {
        "plcc": plcc(pred, truth),
        "srcc": srcc(pred, truth),
        "rl2e": rl2e(pred, truth, s_max, s_min),
        "n": int(pred.size),
    }


@dataclass
class MetricReport:
    """Per-session / per-variant metric tables plus pooled overall values.

    Undefined metrics stay None (JSON null). The report carries enough
    run metadata (seed, config hash, counters) to be reproducible, and
    deliberately no wall-clock fields so repeated seeded runs serialize
    byte-identically.
    """

    mode: str = ""
    seed: int = 0
    config_hash: str = ""
    config: dict = field(default_factory=dict)
    sessions: dict[str, dict] = field(default_factory=dict)
    variants: dict[str, dict] = field(default_factory=dict)
    pooled: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    flatness: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        """The report fields present in data; absent ones keep their defaults."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
