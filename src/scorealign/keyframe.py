"""Key-frame selection: high-relevance, low-redundancy frame subsets.

Relevance of a frame is its Euclidean distance from the temporal mean
feature (novelty-from-mean). Selection is greedy with restarts: from each
candidate first frame, later picks maximize salience minus a weighted
maximum cosine similarity to the frames already chosen, and the restart
whose subset scores best under the combined objective (salience sum minus
weighted pairwise-cosine sum) wins. Salience is normalized to max 1
before combining so the diversity weight is scale-free. Ties always
break toward lower frame indices, making selection fully deterministic.
A single fixed-start greedy pass can land well below 90% of the
exhaustive optimum on adversarial inputs; the restarts close that gap
while staying an approximation, not an exact search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KeyFrameSelection:
    indices: tuple[int, ...]  # ascending, 0-based
    salience: tuple[float, ...]  # raw salience of the selected frames
    k: int
    diversity_weight: float


def salience_scores(features: np.ndarray) -> np.ndarray:
    """Distance of each frame's feature vector from the temporal mean."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"features must be a nonempty (T, D) matrix, got {features.shape}")
    centered = features - features.mean(axis=0)
    return np.sqrt(np.sum(centered * centered, axis=1))


def _unit_rows(features: np.ndarray) -> np.ndarray:
    # zero-norm rows stay zero, so their cosine with anything is 0
    norms = np.sqrt(np.sum(features * features, axis=1))
    safe = np.where(norms > 0.0, norms, 1.0)
    return features / safe[:, None]


def _normalized_salience(salience: np.ndarray) -> np.ndarray:
    top = salience.max()
    return salience / top if top > 0.0 else np.zeros_like(salience)


def _greedy_from(
    start: int, norm_sal: np.ndarray, cos: np.ndarray, k: int, diversity_weight: float
) -> list[int]:
    t = norm_sal.size
    chosen = [start]
    while len(chosen) < k:
        best_idx = -1
        best_score = -np.inf
        for i in range(t):
            if i in chosen:
                continue
            score = norm_sal[i] - diversity_weight * max(cos[i, j] for j in chosen)
            if score > best_score:
                best_score = score
                best_idx = i
        chosen.append(best_idx)
    return chosen


def _subset_objective(
    subset: list[int], norm_sal: np.ndarray, cos: np.ndarray, diversity_weight: float
) -> float:
    value = float(sum(norm_sal[i] for i in subset))
    for a in range(len(subset)):
        for b in range(a + 1, len(subset)):
            value -= diversity_weight * cos[subset[a], subset[b]]
    return value


def select_key_frames(
    features: np.ndarray, k: int, diversity_weight: float
) -> KeyFrameSelection:
    features = np.asarray(features, dtype=np.float64)
    salience = salience_scores(features)
    t = features.shape[0]
    if not 1 <= k <= t:
        raise ValueError(f"need 1 <= k <= T, got k={k} with T={t}")
    norm_sal = _normalized_salience(salience)
    unit = _unit_rows(features)
    cos = unit @ unit.T

    best_subset: list[int] | None = None
    best_value = -np.inf
    for start in range(t):
        subset = _greedy_from(start, norm_sal, cos, k, diversity_weight)
        value = _subset_objective(subset, norm_sal, cos, diversity_weight)
        if value > best_value:
            best_value = value
            best_subset = subset
    assert best_subset is not None
    indices = tuple(sorted(best_subset))
    return KeyFrameSelection(
        indices=indices,
        salience=tuple(float(salience[i]) for i in indices),
        k=k,
        diversity_weight=diversity_weight,
    )


def phi_select(features: np.ndarray, k: int, diversity_weight: float) -> np.ndarray:
    """Compress (T, D) to the (K, D) rows of the selected key frames,
    preserving temporal order."""
    features = np.asarray(features, dtype=np.float64)
    selection = select_key_frames(features, k, diversity_weight)
    return features[list(selection.indices)].copy()
