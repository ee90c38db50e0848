from __future__ import annotations

import numpy as np
import pytest

from scorealign.losses import (
    DegenerateBatchError,
    combined_loss,
    correlation_loss,
    mse_loss,
    reg_loss,
)
from scorealign.runner import RunConfig

from gradcheck import central_diff, max_rel_error


def test_correlation_perfect_and_anti() -> None:
    value, _ = correlation_loss(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert value == pytest.approx(0.0, abs=1e-12)
    value, _ = correlation_loss(np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_correlation_exact_rational_example() -> None:
    # covariance 4, both sums of squared deviations 5: PLCC = 4/5
    value, _ = correlation_loss(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert value == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("b", [-3.0, 0.0, 7.0])
def test_correlation_affine_invariance(a: float, b: float) -> None:
    rng = np.random.default_rng(5)
    pred = rng.normal(size=12)
    truth = rng.normal(size=12)
    base, _ = correlation_loss(pred, truth)
    moved, _ = correlation_loss(a * pred + b, truth)
    assert abs(base - moved) < 1e-10


def test_correlation_degenerate_batches_raise() -> None:
    with pytest.raises(DegenerateBatchError):
        correlation_loss(np.array([1.0]), np.array([1.0]))
    with pytest.raises(DegenerateBatchError):
        correlation_loss(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
    with pytest.raises(DegenerateBatchError):
        correlation_loss(np.array([1.0, 3.0]), np.array([2.0, 2.0]))


def test_correlation_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(11)
    for _ in range(5):
        pred = rng.normal(size=9)
        truth = rng.normal(size=9)
        _, grad = correlation_loss(pred, truth)
        numeric = central_diff(lambda p: correlation_loss(p, truth)[0], pred)
        assert max_rel_error(grad, numeric) < 1e-5


def test_correlation_bounds_on_random_inputs() -> None:
    rng = np.random.default_rng(3)
    for _ in range(50):
        value, _ = correlation_loss(rng.normal(size=6), rng.normal(size=6))
        assert 0.0 <= value <= 2.0


def test_mse_examples() -> None:
    value, _ = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert value == 0.0
    value, grad = mse_loss(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
    assert value == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(grad, np.array([0.5, -0.5]))


def test_mse_quadratic_homogeneity() -> None:
    pred = np.array([1.0, 4.0, -2.0])
    truth = np.array([0.5, 3.0, 1.0])
    base, _ = mse_loss(pred, truth)
    scaled, _ = mse_loss(truth + 3.0 * (pred - truth), truth)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_mse_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(1)
    pred = rng.normal(size=7)
    truth = rng.normal(size=7)
    _, grad = mse_loss(pred, truth)
    numeric = central_diff(lambda p: mse_loss(p, truth)[0], pred)
    assert max_rel_error(grad, numeric) < 1e-5


def test_combined_lambda_zero_is_exactly_correlation() -> None:
    rng = np.random.default_rng(2)
    pred = rng.normal(size=8)
    truth = rng.normal(size=8)
    cv, cg = correlation_loss(pred, truth)
    value, grad = combined_loss(pred, truth, 0.0)
    assert value == cv
    assert np.array_equal(grad, cg)


def test_combined_zero_at_exact_match_for_any_lambda() -> None:
    pred = np.array([1.0, 2.0, 4.0])
    for lam in (0.0, 0.05, 3.0):
        value, _ = combined_loss(pred, pred.copy(), lam)
        assert value == pytest.approx(0.0, abs=1e-12)


def test_combined_is_weighted_sum() -> None:
    rng = np.random.default_rng(7)
    pred = rng.normal(size=6)
    truth = rng.normal(size=6)
    cv, cg = correlation_loss(pred, truth)
    mv, mg = mse_loss(pred, truth)
    value, grad = combined_loss(pred, truth, 0.05)
    assert value == pytest.approx(cv + 0.05 * mv, rel=1e-15)
    assert np.allclose(grad, cg + 0.05 * mg, rtol=1e-15)


def test_combined_propagates_degenerate_error() -> None:
    with pytest.raises(DegenerateBatchError):
        combined_loss(np.array([2.0, 2.0]), np.array([1.0, 3.0]), 0.05)


def test_combined_monotone_in_lambda() -> None:
    rng = np.random.default_rng(9)
    pred = rng.normal(size=10)
    truth = rng.normal(size=10)
    values = [combined_loss(pred, truth, lam)[0] for lam in (0.0, 0.01, 0.05, 0.5, 2.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_reg_loss_zero_at_exact_reconstruction() -> None:
    x = np.arange(12.0).reshape(1, 3, 4)
    value, grad = reg_loss(x, x.copy())
    assert value[0] == 0.0
    assert np.all(grad == 0)


def test_reg_loss_euclidean_norm_example() -> None:
    original = np.zeros((2, 2, 3))
    reconstructed = np.zeros((2, 2, 3))
    reconstructed[0, 0, 1] = 3.0
    reconstructed[0, 1, 2] = 4.0
    reconstructed[1, 1, 0] = -2.0
    value, _ = reg_loss(original, reconstructed)
    assert value[0] == pytest.approx(5.0, abs=1e-12)
    assert value[1] == pytest.approx(2.0, abs=1e-12)


def test_reg_loss_gradient_has_unit_norm() -> None:
    rng = np.random.default_rng(4)
    original = rng.normal(size=(3, 5, 6))
    reconstructed = rng.normal(size=(3, 5, 6))
    _, grad = reg_loss(original, reconstructed)
    for g in grad:
        assert np.sqrt(np.sum(g * g)) == pytest.approx(1.0, rel=1e-12)


def test_reg_loss_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(8)
    original = rng.normal(size=(1, 4, 3))
    reconstructed = rng.normal(size=(1, 4, 3))
    _, grad = reg_loss(original, reconstructed)
    numeric = central_diff(lambda r: reg_loss(original, r)[0][0], reconstructed)
    assert max_rel_error(grad, numeric) < 1e-5


def test_reg_loss_shape_mismatch_rejected() -> None:
    with pytest.raises(ValueError, match="shape mismatch"):
        reg_loss(np.zeros((1, 2, 3)), np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="shape mismatch"):
        reg_loss(np.zeros((2, 3)), np.zeros((2, 3)))


def test_loss_weights_validation() -> None:
    RunConfig(mse_weight=0.0, replay_weight=0.0, reg_weight=0.0)
    with pytest.raises(ValueError):
        RunConfig(mse_weight=-0.1)
