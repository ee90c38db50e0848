from __future__ import annotations

import itertools

import numpy as np
import pytest

from scorealign.keyframe import (
    _normalized_salience,
    _unit_rows,
    phi_select,
    salience_scores,
    select_key_frames,
)

THREE_FRAMES = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


# independent objective used by the exhaustive oracle
def _oracle_objective(features: np.ndarray, subset: tuple[int, ...], mu: float) -> float:
    mean = features.mean(axis=0)
    sal = np.array([np.linalg.norm(f - mean) for f in features])
    top = sal.max()
    nsal = sal / top if top > 0 else sal * 0.0
    total = sum(nsal[i] for i in subset)
    for a in range(len(subset)):
        for b in range(a + 1, len(subset)):
            fa, fb = features[subset[a]], features[subset[b]]
            na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
            cos = float(fa @ fb / (na * nb)) if na > 0 and nb > 0 else 0.0
            total -= mu * cos
    return total


def _oracle_best(features: np.ndarray, k: int, mu: float) -> float:
    return max(
        _oracle_objective(features, subset, mu)
        for subset in itertools.combinations(range(features.shape[0]), k)
    )


# reference selector: one greedy pass per restart, one candidate at a time
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


def _loop_select(features: np.ndarray, k: int, diversity_weight: float) -> tuple[int, ...]:
    norm_sal = _normalized_salience(salience_scores(features))
    unit = _unit_rows(features)
    cos = unit @ unit.T
    best_subset: list[int] = []
    best_value = -np.inf
    for start in range(features.shape[0]):
        subset = _greedy_from(start, norm_sal, cos, k, diversity_weight)
        value = _subset_objective(subset, norm_sal, cos, diversity_weight)
        if value > best_value:
            best_value = value
            best_subset = subset
    return tuple(sorted(best_subset))


def _equivalence_input(rng: np.random.Generator, case: int) -> np.ndarray:
    t = int(rng.integers(1, 13))
    d = int(rng.integers(1, 6))
    kind = case % 4
    if kind == 0:
        return rng.normal(size=(t, d))
    if kind == 1:
        # integer-valued features: many exact ties in salience and cosine
        return rng.integers(-2, 3, size=(t, d)).astype(np.float64)
    if kind == 2:
        # every row repeats one of three rows
        pool = rng.normal(size=(3, d))
        return pool[rng.integers(0, 3, size=t)]
    feats = rng.normal(size=(t, d))
    feats[rng.random(t) < 0.4] = 0.0
    return feats


def test_selection_matches_one_restart_at_a_time_loop() -> None:
    rng = np.random.default_rng(2024)
    weights = (0.0, 0.5, 2.0)
    for case in range(2400):
        feats = _equivalence_input(rng, case)
        t = feats.shape[0]
        k = (1, t, int(rng.integers(1, t + 1)))[(case // 4) % 3]
        weight = weights[(case // 12) % 3]
        assert select_key_frames(feats, k, weight) == _loop_select(feats, k, weight), case


def test_salience_zero_for_identical_frames() -> None:
    assert np.array_equal(salience_scores(np.ones((4, 3))), np.zeros(4))


def test_salience_documented_three_frame_values() -> None:
    scores = salience_scores(THREE_FRAMES)
    root2 = np.sqrt(2.0)
    assert scores == pytest.approx([root2 / 3, 2 * root2 / 3, root2 / 3], abs=1e-12)


def test_salience_scales_linearly_with_features() -> None:
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 4))
    assert np.allclose(salience_scores(3.0 * feats), 3.0 * salience_scores(feats))


def test_select_all_frames_when_k_equals_t() -> None:
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(5, 3))
    assert select_key_frames(feats, 5, 0.5) == (0, 1, 2, 3, 4)


def test_select_documented_example() -> None:
    indices = select_key_frames(THREE_FRAMES, 2, 0.5)
    assert indices == (0, 1)
    assert salience_scores(THREE_FRAMES)[list(indices)] == pytest.approx(
        (np.sqrt(2.0) / 3, 2 * np.sqrt(2.0) / 3), abs=1e-12
    )


def test_select_documented_example_matches_exhaustive_optimum() -> None:
    indices = select_key_frames(THREE_FRAMES, 2, 0.5)
    greedy_value = _oracle_objective(THREE_FRAMES, indices, 0.5)
    assert greedy_value == pytest.approx(_oracle_best(THREE_FRAMES, 2, 0.5), abs=1e-12)


def test_identical_frames_tie_break_to_lowest_indices() -> None:
    assert select_key_frames(np.ones((5, 2)), 2, 0.5) == (0, 1)


def test_k_larger_than_t_rejected() -> None:
    with pytest.raises(ValueError):
        select_key_frames(np.ones((3, 2)), 4, 0.5)


def test_zero_norm_frames_use_zero_cosine() -> None:
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    indices = select_key_frames(feats, 3, 0.5)
    assert len(indices) == 3
    assert len(set(indices)) == 3


def test_selection_deterministic_and_sorted() -> None:
    rng = np.random.default_rng(2)
    for _ in range(20):
        feats = rng.normal(size=(7, 5))
        a = select_key_frames(feats, 3, 0.5)
        b = select_key_frames(feats, 3, 0.5)
        assert a == b
        assert list(a) == sorted(set(a))
        assert all(0 <= i < 7 for i in a)


def test_greedy_within_ninety_percent_of_exhaustive() -> None:
    rng = np.random.default_rng(123)
    for _ in range(100):
        t = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, t + 1)))
        feats = rng.normal(size=(t, 4))
        indices = select_key_frames(feats, k, 0.5)
        greedy_value = _oracle_objective(feats, indices, 0.5)
        best = _oracle_best(feats, k, 0.5)
        if best > 0:
            assert greedy_value >= 0.9 * best
        else:
            # k == t leaves no choice: greedy must equal the exhaustive value
            assert greedy_value == pytest.approx(best, abs=1e-12)


def test_scaling_features_keeps_selection() -> None:
    rng = np.random.default_rng(4)
    for _ in range(10):
        feats = rng.normal(size=(8, 3))
        base = select_key_frames(feats, 3, 0.5)
        assert select_key_frames(2.5 * feats, 3, 0.5) == base
        assert select_key_frames(0.1 * feats, 3, 0.5) == base


def test_phi_select_gathers_rows_in_order() -> None:
    compressed = phi_select(THREE_FRAMES, 2, 0.5)
    assert np.array_equal(compressed, THREE_FRAMES[[0, 1]])


def test_phi_select_k_equals_t_is_identity() -> None:
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(4, 6))
    assert np.array_equal(phi_select(feats, 4, 0.5), feats)


def test_phi_select_output_shape() -> None:
    rng = np.random.default_rng(6)
    for k in (1, 2, 5):
        assert phi_select(rng.normal(size=(9, 7)), k, 0.5).shape == (k, 7)


def test_selection_is_an_ascending_int_tuple() -> None:
    rng = np.random.default_rng(7)
    indices = select_key_frames(rng.normal(size=(9, 4)), 4, 0.7)
    assert isinstance(indices, tuple)
    assert all(type(i) is int for i in indices)
    assert list(indices) == sorted(set(indices))
