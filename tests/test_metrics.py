from __future__ import annotations

import math

import numpy as np
import pytest

from scorealign.metrics import (
    MetricReport,
    average_ranks,
    metric_entry,
    plcc,
    pooled_metrics,
    rl2e,
    srcc,
)


# --- independent brute-force references ---------------------------------


def naive_ranks(values) -> list[float]:
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        # occupies 1-based positions less+1 .. less+equal
        out.append(less + (equal + 1) / 2.0)
    return out


def naive_pearson(xs, ys):
    n = len(xs)
    if n < 2:
        return None
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx <= 0.0 or vy <= 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def naive_spearman(xs, ys):
    return naive_pearson(naive_ranks(xs), naive_ranks(ys))


# --- PLCC ----------------------------------------------------------------


def test_plcc_positive_affine_is_one() -> None:
    truth = np.array([1.0, 2.5, 3.0, 4.5])
    assert plcc(2.0 * truth + 1.0, truth) == pytest.approx(1.0, abs=1e-12)


def test_plcc_negation_is_minus_one() -> None:
    truth = np.array([1.0, 2.0, 5.0])
    assert plcc(-truth, truth) == pytest.approx(-1.0, abs=1e-12)


def test_plcc_exact_rational_example() -> None:
    assert plcc(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(
        0.8, abs=1e-12
    )


def test_plcc_degenerate_returns_none_not_zero() -> None:
    assert plcc(np.array([2.0, 2.0]), np.array([1.0, 3.0])) is None
    assert plcc(np.array([1.0]), np.array([1.0])) is None


# --- SRCC ----------------------------------------------------------------


def test_srcc_monotone_invariance() -> None:
    rng = np.random.default_rng(0)
    pred = rng.normal(size=20)
    truth = rng.normal(size=20)
    base = srcc(pred, truth)
    assert abs(srcc(np.exp(pred), truth) - base) < 1e-12
    assert abs(srcc(pred**3, truth) - base) < 1e-12
    assert abs(srcc(4.0 * pred + 2.0, truth) - base) < 1e-12


def test_srcc_rank_example() -> None:
    # rank vectors (1,3,2,4) vs (1,2,3,4): 1 - 6*2/60
    assert srcc(np.array([10.0, 30.0, 20.0, 40.0]), np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(
        0.8, abs=1e-12
    )


def test_srcc_tied_example_uses_fractional_ranks() -> None:
    value = srcc(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert value == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_srcc_equals_plcc_of_ranks_for_tie_free_inputs() -> None:
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = rng.permutation(12).astype(float)
        truth = rng.normal(size=12)
        assert srcc(pred, truth) == pytest.approx(
            plcc(average_ranks(pred), average_ranks(truth)), abs=1e-14
        )


def test_srcc_all_equal_side_is_undefined() -> None:
    assert srcc(np.array([3.0, 3.0, 3.0]), np.array([1.0, 2.0, 3.0])) is None


def test_average_ranks_with_ties() -> None:
    assert np.array_equal(average_ranks(np.array([1.0, 1.0, 2.0])), np.array([1.5, 1.5, 3.0]))
    assert np.array_equal(average_ranks(np.array([5.0, 5.0, 5.0])), np.array([2.0, 2.0, 2.0]))


# --- RL2E ----------------------------------------------------------------


def _average_ranks_loop(values: np.ndarray) -> np.ndarray:
    """Tie groups found one position at a time, each compared with the
    group's first value."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_loop_bit_for_bit() -> None:
    rng = np.random.default_rng(21)
    pool = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])
    cases = [np.array([]), np.array([np.nan]), np.full(5, np.nan), np.full(7, 3.0), np.array([0.0, -0.0])]
    for _ in range(400):
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            cases.append(rng.choice(pool[: int(rng.integers(1, pool.size + 1))], size=n))
        else:
            cases.append(rng.integers(0, int(rng.integers(1, 6)), size=n).astype(np.float64))
    for values in cases:
        got, want = average_ranks(values), _average_ranks_loop(values)
        assert got.tobytes() == want.tobytes(), values


def test_rl2e_exact_cases() -> None:
    truth = np.array([1.0, 5.0])
    assert rl2e(truth, truth, 5.0, 1.0) == 0.0
    assert rl2e(np.array([5.0]), np.array([1.0]), 5.0, 1.0) == pytest.approx(1.0)
    assert rl2e(np.array([2.0, 4.0]), np.array([1.0, 5.0]), 5.0, 1.0) == pytest.approx(0.0625)


def test_rl2e_doubling_range_quarters_value() -> None:
    pred = np.array([2.0, 3.5, 4.0])
    truth = np.array([1.0, 3.0, 5.0])
    base = rl2e(pred, truth, 5.0, 1.0)
    wide = rl2e(pred, truth, 9.0, 1.0)
    assert wide == pytest.approx(base / 4.0, rel=1e-12)


def test_rl2e_empty_range_rejected() -> None:
    with pytest.raises(ValueError):
        rl2e(np.array([1.0]), np.array([1.0]), 1.0, 5.0)


# --- brute-force agreement ------------------------------------------------


def test_metrics_agree_with_bruteforce_references() -> None:
    rng = np.random.default_rng(2024)
    for i in range(1000):
        n = int(rng.integers(2, 65))
        pred = rng.normal(size=n)
        truth = rng.normal(size=n)
        if i % 3 == 0:
            pred = np.round(pred * 2.0) / 2.0  # force ties
        if i % 5 == 0:
            truth = np.round(truth)
        ref_p = naive_pearson(pred.tolist(), truth.tolist())
        ref_s = naive_spearman(pred.tolist(), truth.tolist())
        got_p = plcc(pred, truth)
        got_s = srcc(pred, truth)
        for got, ref in ((got_p, ref_p), (got_s, ref_s)):
            if ref is None:
                assert got is None
            else:
                assert abs(got - ref) < 1e-10
        ref_r = math.fsum((abs(t - p) / 4.0) ** 2 for p, t in zip(pred, truth)) / n
        assert abs(rl2e(pred, truth, 5.0, 1.0) - ref_r) < 1e-10


# --- pooled metrics -------------------------------------------------------


def test_pooled_single_session_equals_session_metrics() -> None:
    pred = np.array([1.0, 3.0, 2.0, 4.0])
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    s, r = pooled_metrics([(pred, truth)], 5.0, 1.0)
    assert s == pytest.approx(srcc(pred, truth), abs=1e-14)
    assert r == pytest.approx(rl2e(pred, truth, 5.0, 1.0), abs=1e-14)


def test_pooled_concatenation_preserves_consistent_order() -> None:
    a = (np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    b = (np.array([3.0, 4.0]), np.array([3.0, 4.0]))
    s, _ = pooled_metrics([a, b], 5.0, 1.0)
    assert s == pytest.approx(1.0, abs=1e-12)


def test_pooled_differs_from_averaging_per_session() -> None:
    a = (np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    b = (np.array([4.0, 3.0]), np.array([3.0, 4.0]))
    pooled_s, _ = pooled_metrics([a, b], 5.0, 1.0)
    per_session = [srcc(*a), srcc(*b)]
    assert pooled_s == pytest.approx(0.8, abs=1e-12)
    assert np.mean(per_session) == pytest.approx(0.0, abs=1e-12)


def test_pooled_empty_rejected() -> None:
    with pytest.raises(ValueError):
        pooled_metrics([], 5.0, 1.0)


def test_pooled_srcc_is_none_below_two_samples() -> None:
    s, r = pooled_metrics([(np.array([2.0]), np.array([3.0]))], 5.0, 1.0)
    assert s is None
    assert r == pytest.approx(0.0625, abs=1e-15)


# --- report plumbing ------------------------------------------------------


def test_metric_entry_fields() -> None:
    entry = metric_entry(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 5.0, 1.0)
    assert entry == {"plcc": pytest.approx(1.0), "srcc": pytest.approx(1.0), "rl2e": 0.0, "n": 2}


def test_metric_entry_keeps_undefined_as_none() -> None:
    entry = metric_entry(np.array([2.0, 2.0]), np.array([1.0, 3.0]), 5.0, 1.0)
    assert entry["plcc"] is None
    assert entry["srcc"] is None
    assert entry["rl2e"] is not None


def test_metric_report_dict_roundtrip() -> None:
    report = MetricReport(
        mode="joint",
        seed=3,
        config_hash="abc",
        config={"epochs": 15},
        sessions={"s1": {"plcc": 0.5, "srcc": None, "rl2e": 0.1, "n": 4}},
        pooled={"srcc_ove": 0.7, "rl2e_ove": 0.02, "n": 4},
        counters={"steps": 10},
    )
    assert MetricReport.from_dict(report.to_dict()) == report
