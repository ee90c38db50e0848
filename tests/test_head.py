from __future__ import annotations

import numpy as np
import pytest

from scorealign.head import (
    batch_sample,
    batch_sample_backward,
    init_head,
    pool,
    pool_backward,
    predict_eval,
)
from scorealign.numkit import SeededRng, ShapeMismatchError, mlp_forward, zeros_mlp
from scorealign.runner import RunConfig

from gradcheck import max_rel_error


def _head_out(params, features: np.ndarray) -> np.ndarray:
    """The (1, 2) head output (mu, log_var) of one (T, D) sample, computed
    alone."""
    out, _ = mlp_forward(params, pool(features[None])[None])
    return out[0]


def test_pool_single_frame_is_identity() -> None:
    frame = np.array([[1.0, -2.0, 3.0]])
    assert np.array_equal(pool(frame[None])[0], frame[0])


def test_pool_opposite_frames_cancel() -> None:
    v = np.array([1.0, -4.0, 2.5])
    assert np.array_equal(pool(np.stack([v, -v])[None])[0], np.zeros(3))


def test_pool_arithmetic_mean() -> None:
    assert np.array_equal(pool(np.array([[[1.0, 3.0], [3.0, 5.0]]]))[0], np.array([2.0, 4.0]))


def test_pool_has_the_bytes_of_the_frame_mean() -> None:
    for seed in range(200):
        rng = np.random.default_rng(seed)
        t, d = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        shape = (1, t, d) if seed % 2 else (int(rng.integers(1, 6)), t, d)
        features = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        want = features.mean(axis=-2)
        got = pool(features)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"seed {seed}"


def test_pool_rejects_empty() -> None:
    with pytest.raises(ShapeMismatchError):
        pool(np.zeros((1, 0, 4)))


def test_pool_backward_is_the_adjoint_of_pool() -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5, 4))
    g = rng.normal(size=(3, 4))
    grad = pool_backward(g, 5)
    assert grad.shape == x.shape
    assert float(np.sum(pool(x) * g)) == pytest.approx(float(np.sum(x * grad)), rel=1e-12)


def test_zero_head_predicts_standard_gaussian() -> None:
    params = zeros_mlp([4, 8, 2])
    out = _head_out(params, np.ones((3, 4)))
    _, sigma = batch_sample(out, np.zeros(1))
    assert predict_eval(params, np.ones((1, 3, 4)))[0] == 0.0
    assert out[0, 1] == 0.0
    assert sigma[0] == 1.0


def test_sigma_matches_direct_recomputation() -> None:
    rng = SeededRng(1)
    params = init_head(6, (64, 32), rng)
    features = rng.normal(24).reshape(4, 6)
    out = _head_out(params, features)
    _, sigma = batch_sample(out, np.zeros(1))
    assert sigma[0] == pytest.approx(float(np.exp(out[0, 1] / 2.0)), rel=1e-15)


def test_reparam_sample_exact_cases() -> None:
    out = np.tile([2.0, 2.0 * np.log(0.5)], (2, 1))
    scores, _ = batch_sample(out, np.array([0.0, 1.0]))
    assert scores[0] == 2.0
    assert scores[1] == pytest.approx(2.5, abs=1e-12)


def test_reparam_derivatives_match_finite_differences() -> None:
    eps = np.array([0.7])
    mu, log_var = 1.3, -0.8

    def sample(m, lv):
        return batch_sample(np.array([[m, lv]]), eps)[0][0]

    step = 1e-6
    d_mu = (sample(mu + step, log_var) - sample(mu - step, log_var)) / (2 * step)
    d_lv = (sample(mu, log_var + step) - sample(mu, log_var - step)) / (2 * step)
    sigma = np.exp(log_var / 2.0)
    grad = batch_sample_backward(np.array([1.0]), eps, np.array([sigma]))
    assert max_rel_error(np.array([1.0]), np.array([d_mu])) < 1e-6
    assert max_rel_error(eps * sigma / 2.0, np.array([d_lv])) < 1e-6
    assert max_rel_error(grad[0], np.array([d_mu, d_lv])) < 1e-6


def test_sampling_statistics_within_one_percent() -> None:
    mu, sigma = 2.0, 0.5
    eps = SeededRng(77).normal(100_000)
    samples, _ = batch_sample(np.tile([mu, 2.0 * np.log(sigma)], (eps.size, 1)), eps)
    assert abs(samples.mean() - mu) < 0.01 * mu
    assert abs(samples.std() - sigma) < 0.01 * sigma


def test_predict_distribution_deterministic() -> None:
    rng = SeededRng(0)
    params = init_head(5, (64, 32), rng)
    features = rng.normal(15).reshape(3, 5)
    a = _head_out(params, features)
    b = _head_out(params, features)
    assert np.array_equal(a, b)
    eps = np.array([0.4])
    for x, y in zip(batch_sample(a, eps), batch_sample(b, eps)):
        assert np.array_equal(x, y)


def test_predict_eval_is_mu_and_repeatable() -> None:
    rng = SeededRng(2)
    params = init_head(4, (64, 32), rng)
    features = rng.normal(8).reshape(2, 4)
    value = predict_eval(params, features[None])[0]
    out = _head_out(params, features)
    assert value == out[0, 0]
    assert value == predict_eval(params, features[None])[0]
    assert value == batch_sample(out, np.zeros(1))[0][0]


def test_batch_sample_matches_per_sample_path() -> None:
    rng = SeededRng(3)
    params = init_head(5, (64, 32), rng)
    feats = [rng.normal(10).reshape(2, 5) for _ in range(4)]
    out, _ = mlp_forward(params, pool(np.stack(feats))[None])
    eps = rng.normal(4)
    scores, sigma = batch_sample(out[0], eps)
    for i, f in enumerate(feats):
        one_score, one_sigma = batch_sample(_head_out(params, f), eps[i : i + 1])
        assert scores[i] == pytest.approx(one_score[0], rel=1e-14)
        assert sigma[i] == pytest.approx(one_sigma[0], rel=1e-14)


def test_batch_sample_backward_formula() -> None:
    out = np.array([[1.0, 0.4], [2.0, -0.6]])
    eps = np.array([0.3, -1.1])
    scores, sigma = batch_sample(out, eps)
    grad = batch_sample_backward(np.array([1.0, 2.0]), eps, sigma)
    assert np.allclose(grad[:, 0], [1.0, 2.0])
    assert np.allclose(grad[:, 1], [1.0 * 0.3 * sigma[0] / 2, 2.0 * (-1.1) * sigma[1] / 2])


def test_head_config_validation() -> None:
    with pytest.raises(ValueError):
        RunConfig(score_range=(5.0, 1.0))
