from __future__ import annotations

import numpy as np
import pytest

from scorealign.numkit import (
    AdamState,
    MlpParams,
    NonFiniteGradientError,
    SeededRng,
    ShapeMismatchError,
    adam_step,
    derive_seed,
    flatten,
    init_mlp,
    mlp_backward,
    mlp_forward,
    unflatten,
    zeros_mlp,
)

from gradcheck import central_diff, max_rel_error


def test_forward_zero_params_gives_zero_output() -> None:
    params = zeros_mlp([3, 4, 2])
    out, _ = mlp_forward(params, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_forward_identity_layer_passes_input_through() -> None:
    params = MlpParams(flatten([np.eye(3), np.zeros(3)]), (3, 3))
    x = np.array([[1.0, -2.0, 0.5], [4.0, 0.0, -1.0]])
    out, _ = mlp_forward(params, x)
    assert np.array_equal(out, x)


def test_forward_hand_example_rectifier_kills_cancelled_units() -> None:
    # weights all one, one hidden rectifier layer of width 2: input [1, -1]
    # cancels to zero pre-activation, so the output is zero
    params = MlpParams(
        flatten([np.ones((2, 2)), np.ones((2, 1)), np.zeros(2), np.zeros(1)]), (2, 2, 1)
    )
    out, tape = mlp_forward(params, np.array([[1.0, -1.0]]))
    assert np.array_equal(tape.pre[0], np.zeros((1, 1, 2)))  # a stack of one
    assert out[0, 0] == 0.0


def test_forward_dimension_mismatch_reports_both_shapes() -> None:
    params = zeros_mlp([3, 2])
    with pytest.raises(ShapeMismatchError, match="4 columns.*expects.*3"):
        mlp_forward(params, np.zeros((1, 4)))


def test_backward_zero_output_grad_gives_zero_grads() -> None:
    rng = SeededRng(0)
    params = init_mlp([3, 5, 2], rng)
    x = rng.normal(6).reshape(2, 3)
    out, tape = mlp_forward(params, x)
    grads = MlpParams(np.empty_like(params.flat), params.sizes)
    x_grad = mlp_backward(params, tape, np.zeros_like(out), grads.flat)
    assert all(np.all(w == 0) for w in grads.weights)
    assert all(np.all(b == 0) for b in grads.biases)
    assert np.all(x_grad == 0)


def test_backward_identity_network_quadratic_loss() -> None:
    # loss = 0.5 * ||out||^2 through an identity layer: input grad == input
    params = MlpParams(flatten([np.eye(4), np.zeros(4)]), (4, 4))
    x = np.array([[1.0, -2.0, 3.0, 0.25]])
    out, tape = mlp_forward(params, x)
    x_grad = mlp_backward(params, tape, out, np.empty_like(params.flat))
    assert np.allclose(x_grad, x, atol=0, rtol=0)


def test_flatten_then_unflatten_returns_views_in_order() -> None:
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([7.0, 8.0])
    flat = flatten([a, b])
    assert np.array_equal(flat, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
    va, vb = unflatten(flat, [(2, 3), (2,)])
    assert np.array_equal(va, a) and np.array_equal(vb, b)
    va[1, 2] = -1.0
    assert flat[5] == -1.0
    with pytest.raises(ShapeMismatchError):
        unflatten(flat, [(2, 3)])


def test_mlp_layout_is_all_weights_then_all_biases() -> None:
    params = init_mlp([3, 4, 2], SeededRng(0))
    params.biases[0][:] = 1.0
    expect = flatten([*params.weights, *params.biases])
    assert np.array_equal(params.flat, expect)
    assert np.shares_memory(params.weights[1], params.flat)
    params.flat[:] = 0.0
    assert all(np.all(w == 0) for w in params.weights)
    assert all(np.all(b == 0) for b in params.biases)


def test_backward_matches_central_differences_on_random_net() -> None:
    rng = SeededRng(42)
    params = init_mlp([4, 6, 5, 3], rng)
    x = rng.normal(8).reshape(2, 4)
    direction = rng.normal(6).reshape(2, 3)  # fixed linear functional of the output

    def loss(flat: np.ndarray) -> float:
        out, _ = mlp_forward(MlpParams(flat, params.sizes), x)
        return float(np.sum(out * direction))

    out, tape = mlp_forward(params, x)
    grads = MlpParams(np.empty_like(params.flat), params.sizes)
    x_grad = mlp_backward(params, tape, direction, grads.flat)
    assert np.array_equal(grads.flat, flatten([*grads.weights, *grads.biases]))
    numeric = central_diff(loss, params.flat)
    assert max_rel_error(grads.flat, numeric) < 1e-4

    numeric_x = central_diff(
        lambda xv: float(np.sum(mlp_forward(params, xv)[0] * direction)), x
    )
    assert max_rel_error(x_grad, numeric_x) < 1e-4


def test_backward_rejects_mismatched_tape() -> None:
    rng = SeededRng(1)
    params = init_mlp([3, 4, 2], rng)
    other = init_mlp([3, 2], rng)
    _, tape = mlp_forward(params, np.zeros((1, 3)))
    with pytest.raises(ShapeMismatchError):
        mlp_backward(other, tape, np.zeros((1, 2)), np.empty_like(other.flat))
    with pytest.raises(ShapeMismatchError):
        mlp_backward(params, tape, np.zeros((3, 2)), np.empty_like(params.flat))


def test_adam_zero_grad_without_decay_leaves_params() -> None:
    state = AdamState(lr=1e-3, weight_decay=0.0)
    params = {"p": np.array([1.5, -2.0])}
    adam_step(state, params, {"p": np.zeros(2)})
    assert np.array_equal(params["p"], np.array([1.5, -2.0]))


def test_adam_first_step_is_signed_learning_rate() -> None:
    state = AdamState(lr=1e-3, weight_decay=0.0)
    params = {"p": np.array([1.0, 1.0])}
    adam_step(state, params, {"p": np.array([0.3, -0.7])})
    assert params["p"][0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert params["p"][1] == pytest.approx(1.0 + 1e-3, abs=1e-9)
    assert state.t["p"] == 1


def test_adam_decoupled_weight_decay_scales_before_delta() -> None:
    state = AdamState(lr=1e-4, weight_decay=5e-4)
    params = {"p": np.array([2.0])}
    adam_step(state, params, {"p": np.zeros(1)})
    assert params["p"][0] == pytest.approx(2.0 * (1.0 - 5e-8), rel=1e-15)


def test_adam_aborts_on_nonfinite_gradient_naming_block() -> None:
    state = AdamState()
    params = {"head.w0": np.zeros(2), "head.b0": np.zeros(1)}
    grads = {"head.w0": np.zeros(2), "head.b0": np.array([np.nan])}
    with pytest.raises(NonFiniteGradientError, match="head.b0"):
        adam_step(state, params, grads)


def test_adam_second_step_matches_manual_update() -> None:
    state = AdamState(lr=1e-2, weight_decay=0.0)
    params = {"p": np.array([0.5])}
    g1, g2 = 0.2, -0.1
    adam_step(state, params, {"p": np.array([g1])})
    adam_step(state, params, {"p": np.array([g2])})
    m = 0.9 * (0.1 * g1) + 0.1 * g2
    v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
    expect_step2 = 1e-2 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
    first = 0.5 - 1e-2 * (g1 / (abs(g1) + 1e-8))
    assert params["p"][0] == pytest.approx(first - expect_step2, rel=1e-12)


def test_gaussian_sample_empty() -> None:
    assert SeededRng(0).normal(0).shape == (0,)


def test_gaussian_sample_deterministic_across_fresh_states() -> None:
    a = SeededRng(123).normal(17)
    b = SeededRng(123).normal(17)
    assert np.array_equal(a, b)


def test_gaussian_sample_moments() -> None:
    draws = SeededRng(2024).normal(100_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_gaussian_sample_negative_count_rejected() -> None:
    with pytest.raises(ValueError):
        SeededRng(0).normal(-1)


def test_rng_state_roundtrip_resumes_stream() -> None:
    rng = SeededRng(9)
    rng.normal(7)
    state = rng.get_state()
    rest = rng.normal(11)
    fresh = SeededRng(0)
    fresh.set_state(state)
    assert np.array_equal(fresh.normal(11), rest)


def test_derive_seed_stable_and_label_sensitive() -> None:
    assert derive_seed(7, "noise") == derive_seed(7, "noise")
    assert derive_seed(7, "noise") != derive_seed(7, "shuffle")
    assert derive_seed(7, "noise") != derive_seed(8, "noise")


def test_init_mlp_bounds_and_determinism() -> None:
    params = init_mlp([10, 20, 5], SeededRng(3))
    again = init_mlp([10, 20, 5], SeededRng(3))
    for w, w2, fan_in, fan_out in zip(
        params.weights, again.weights, [10, 20], [20, 5]
    ):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= bound)
        assert np.array_equal(w, w2)
    assert all(np.all(b == 0) for b in params.biases)
    assert params.flat.size == 10 * 20 + 20 + 20 * 5 + 5
