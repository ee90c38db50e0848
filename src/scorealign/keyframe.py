"""Key-frame selection: high-relevance, low-redundancy frame subsets.

Relevance of a frame is its Euclidean distance from the temporal mean
feature (novelty-from-mean). Selection is greedy with restarts: from each
candidate first frame, later picks maximize salience minus a weighted
maximum cosine similarity to the frames already chosen, and the restart
whose subset scores best under the combined objective (salience sum minus
weighted pairwise-cosine sum) wins. Salience is normalized to max 1
before combining so the diversity weight is scale-free. Ties always
break toward lower frame indices, making selection fully deterministic.
All T restarts run as one array pass: each greedy step picks the next
frame of every restart at once, and each restart's objective is summed in
pick order, so its value, and with it the winning restart, matches a
one-restart-at-a-time loop bit for bit. A single fixed-start greedy pass
can land well below 90% of the exhaustive optimum on adversarial inputs;
the restarts close that gap while staying an approximation, not an exact
search.
"""

from __future__ import annotations

import numpy as np


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


def select_key_frames(
    features: np.ndarray, k: int, diversity_weight: float
) -> tuple[int, ...]:
    """Ascending 0-based indices of the k key frames of a (T, D) matrix."""
    features = np.asarray(features, dtype=np.float64)
    salience = salience_scores(features)
    t = features.shape[0]
    if not 1 <= k <= t:
        raise ValueError(f"need 1 <= k <= T, got k={k} with T={t}")
    norm_sal = _normalized_salience(salience)
    unit = _unit_rows(features)
    cos = unit @ unit.T

    # Row s of every (T, .) array below is the greedy pass started at frame s.
    starts = np.arange(t)
    picks = np.empty((t, k), dtype=np.intp)
    picks[:, 0] = starts
    # max_cos[s, i]: max of cos[i, j] over the frames j chosen from start s
    max_cos = cos.T.copy()
    taken = np.eye(t, dtype=bool)
    for step in range(1, k):
        score = norm_sal - diversity_weight * max_cos
        score[taken] = -np.inf
        pick = np.argmax(score, axis=1)  # first maximum: ties go to the lower index
        picks[:, step] = pick
        taken[starts, pick] = True
        np.maximum(max_cos, cos.T[pick], out=max_cos)

    # Objective of each restart, summed in pick order: saliences, then the
    # pairwise penalties in (a, b) loop order.
    value = np.zeros(t)
    for a in range(k):
        value += norm_sal[picks[:, a]]
    for a in range(k):
        for b in range(a + 1, k):
            value -= diversity_weight * cos[picks[:, a], picks[:, b]]
    return tuple(sorted(int(i) for i in picks[np.argmax(value)]))


def phi_select(features: np.ndarray, k: int, diversity_weight: float) -> np.ndarray:
    """Compress (T, D) to the (K, D) rows of the selected key frames,
    preserving temporal order."""
    features = np.asarray(features, dtype=np.float64)
    return features[list(select_key_frames(features, k, diversity_weight))].copy()
