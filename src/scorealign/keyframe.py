"""Key-frame selection: high-relevance, low-redundancy frame subsets.

Relevance of a frame is its Euclidean distance from the temporal mean
feature (novelty-from-mean). Selection is greedy with restarts: from each
candidate first frame, later picks maximize salience minus a weighted
maximum cosine similarity to the frames already chosen, and the restart
whose subset scores best under the combined objective (salience sum minus
weighted pairwise-cosine sum) wins. Salience is normalized to max 1
before combining so the diversity weight is scale-free. Ties always
break toward lower frame indices, making selection fully deterministic.

Selection takes only an (N, T, D) stack of samples, and all N samples'
T restarts run as one array pass: one stacked product gives the
(N, T, T) cosines, each greedy step picks the next frame of every restart
of every sample at once, and each restart's objective is summed in pick
order. Every float operation is the one a loop over one sample and one
restart at a time makes, so the winning restart matches that loop bit for
bit. A single fixed-start greedy pass can land well below 90% of the
exhaustive optimum on adversarial inputs; the restarts close that gap
while staying an approximation, not an exact search.
"""

from __future__ import annotations

import numpy as np


def _as_stack(features: np.ndarray) -> np.ndarray:
    """features as a float64 (N, T, D) stack."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[1] < 1:
        raise ValueError(f"features must be an (N, T, D) stack with T >= 1, got {features.shape}")
    return features


def salience_scores(features: np.ndarray) -> np.ndarray:
    """Distance of each frame's feature vector from its sample's temporal
    mean: (N, T) for an (N, T, D) stack."""
    stack = _as_stack(features)
    centered = stack - stack.mean(axis=1, keepdims=True)
    return np.sqrt(np.sum(centered * centered, axis=2))


def _unit_rows(features: np.ndarray) -> np.ndarray:
    # zero-norm rows stay zero, so their cosine with anything is 0
    norms = np.sqrt(np.sum(features * features, axis=-1))
    safe = np.where(norms > 0.0, norms, 1.0)
    return features / safe[..., None]


def _normalized_salience(salience: np.ndarray) -> np.ndarray:
    # each sample's saliences over its own maximum; all-zero rows stay zero
    top = salience.max(axis=-1, keepdims=True)
    return np.where(top > 0.0, salience / np.where(top > 0.0, top, 1.0), 0.0)


def select_key_frames(features: np.ndarray, k: int, diversity_weight: float) -> np.ndarray:
    """The k key frames of each sample of an (N, T, D) stack: an (N, k)
    array of ascending 0-based indices."""
    stack = _as_stack(features)
    salience = salience_scores(stack)
    n, t = salience.shape
    if not 1 <= k <= t:
        raise ValueError(f"need 1 <= k <= T, got k={k} with T={t}")
    norm_sal = _normalized_salience(salience)
    unit = _unit_rows(stack)
    cos = unit @ unit.transpose(0, 2, 1)
    # row i * T + j of cos_rows is column j of sample i's cosines
    cos_rows = np.ascontiguousarray(cos.transpose(0, 2, 1)).reshape(n * t, t)
    rows = np.arange(n)[:, None]

    # Row (i, s) of every (N, T, .) array below is sample i's greedy pass
    # started at frame s.
    frames = np.arange(t)
    picks = np.empty((n, t, k), dtype=np.intp)
    picks[:, :, 0] = frames
    # max_cos[i, s, j]: max of cos[i, j, c] over the frames c chosen from start s
    max_cos = cos_rows.reshape(n, t, t).copy()
    taken = np.zeros((n, t, t), dtype=bool)
    taken[:, frames, frames] = True
    for step in range(1, k):
        score = norm_sal[:, None, :] - diversity_weight * max_cos
        np.copyto(score, -np.inf, where=taken)
        pick = np.argmax(score, axis=2)  # first maximum: ties go to the lower index
        picks[:, :, step] = pick
        taken[rows, frames, pick] = True
        np.maximum(max_cos, cos_rows[rows * t + pick], out=max_cos)

    # Objective of each restart, summed in pick order: saliences, then the
    # pairwise penalties in (a, b) loop order.
    value = np.zeros((n, t))
    for a in range(k):
        value += norm_sal[rows, picks[:, :, a]]
    for a in range(k):
        for b in range(a + 1, k):
            value -= diversity_weight * cos[rows, picks[:, :, a], picks[:, :, b]]
    return np.sort(picks[np.arange(n), np.argmax(value, axis=1)], axis=1)


def phi_select(features: np.ndarray, k: int, diversity_weight: float) -> np.ndarray:
    """Compress each sample of an (N, T, D) stack to the rows of its key
    frames, in temporal order, as an (N, K, D) stack."""
    stack = _as_stack(features)
    chosen = select_key_frames(stack, k, diversity_weight)
    return np.take_along_axis(stack, chosen[:, :, None], axis=1)
