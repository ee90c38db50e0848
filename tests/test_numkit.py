from __future__ import annotations

import numpy as np
import pytest

from scorealign.numkit import (
    AdamState,
    MlpParams,
    MlpTape,
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
    out, _ = mlp_forward(params, np.arange(6.0).reshape(1, 2, 3))
    assert np.array_equal(out, np.zeros((1, 2, 2)))


def test_forward_identity_layer_passes_input_through() -> None:
    params = MlpParams(flatten([np.eye(3), np.zeros(3)]), (3, 3))
    x = np.array([[[1.0, -2.0, 0.5], [4.0, 0.0, -1.0]]])
    out, _ = mlp_forward(params, x)
    assert np.array_equal(out, x)


def test_forward_hand_example_rectifier_kills_cancelled_units() -> None:
    # weights all one, one hidden rectifier layer of width 2: input [1, -1]
    # cancels to zero pre-activation, so the output is zero
    params = MlpParams(
        flatten([np.ones((2, 2)), np.ones((2, 1)), np.zeros(2), np.zeros(1)]), (2, 2, 1)
    )
    out, tape = mlp_forward(params, np.array([[[1.0, -1.0]]]))
    assert np.array_equal(tape.pre[0], np.zeros((1, 1, 2)))
    assert out[0, 0, 0] == 0.0


def test_forward_dimension_mismatch_reports_both_shapes() -> None:
    params = zeros_mlp([3, 2])
    with pytest.raises(ShapeMismatchError, match="4 columns.*expects.*3"):
        mlp_forward(params, np.zeros((1, 1, 4)))


def test_backward_zero_output_grad_gives_zero_grads() -> None:
    rng = SeededRng(0)
    params = init_mlp([3, 5, 2], rng)
    x = rng.normal(6).reshape(1, 2, 3)
    out, tape = mlp_forward(params, x)
    grads = MlpParams(np.empty_like(params.flat), params.sizes)
    x_grad = mlp_backward(params, tape, np.zeros_like(out), grads.flat)
    assert all(np.all(w == 0) for w in grads.weights)
    assert all(np.all(b == 0) for b in grads.biases)
    assert np.all(x_grad == 0)


def test_backward_identity_network_quadratic_loss() -> None:
    # loss = 0.5 * ||out||^2 through an identity layer: input grad == input
    params = MlpParams(flatten([np.eye(4), np.zeros(4)]), (4, 4))
    x = np.array([[[1.0, -2.0, 3.0, 0.25]]])
    out, tape = mlp_forward(params, x)
    x_grad = mlp_backward(params, tape, out, np.empty(params.flat.size))
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
    x = rng.normal(8).reshape(1, 2, 4)
    direction = rng.normal(6).reshape(1, 2, 3)  # fixed linear functional of the output

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
    _, tape = mlp_forward(params, np.zeros((1, 1, 3)))
    with pytest.raises(ShapeMismatchError):
        mlp_backward(other, tape, np.zeros((1, 1, 2)), np.empty(other.flat.size))
    with pytest.raises(ShapeMismatchError):
        mlp_backward(params, tape, np.zeros((1, 3, 2)), np.empty(params.flat.size))


def test_backward_of_a_stack_is_the_backward_of_its_rows() -> None:
    """mlp_backward of a (B, n, D) stack gives the bytes of the same rows
    run as one (1, B*n, D) stack: the summed parameter gradient and the
    input gradient. Both passes take one forward pass's tape, the second
    reshaped to rows: a (B, n, D) forward runs B products of n rows, which
    need not round as one product of B*n rows."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        b, n, d = (int(v) for v in rng.integers(1, [6, 21, 41]))
        sizes = [d, *rng.integers(1, 70, size=int(rng.integers(0, 3))).tolist(), 2]
        params = init_mlp(sizes, SeededRng(seed))
        params.flat[:] += rng.normal(size=params.flat.size) * 0.2
        grad_out = rng.normal(size=(b, n, 2))
        _, tape = mlp_forward(params, rng.normal(size=(b, n, d)))

        def as_rows(a: np.ndarray) -> np.ndarray:
            return a.reshape(1, b * n, a.shape[-1])

        rows_tape = MlpTape(as_rows(tape.x), list(map(as_rows, tape.pre)), list(map(as_rows, tape.post)))
        grads, rows_grads = np.full((2, params.flat.size), np.nan)
        x_grad = mlp_backward(params, tape, grad_out, grads)
        rows_x_grad = mlp_backward(params, rows_tape, as_rows(grad_out), rows_grads)
        assert grads.tobytes() == rows_grads.tobytes(), f"seed {seed}"
        assert as_rows(x_grad).tobytes() == rows_x_grad.tobytes(), f"seed {seed}"


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
    state = AdamState(lr=1e-4, weight_decay=0.0)
    params = {"head.w0": np.zeros(2), "head.b0": np.zeros(1)}
    grads = {"head.w0": np.zeros(2), "head.b0": np.array([np.nan])}
    with pytest.raises(NonFiniteGradientError, match="head.b0"):
        adam_step(state, params, grads)


def _adam_reference(state: dict, params: dict, grads: dict, lr: float, wd: float) -> None:
    """The out-of-place Adam update adam_step ran before it updated in
    place, literally: the formula whose bits the in-place one must keep."""
    for name, g in grads.items():
        p = params[name]
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(p)
            state["v"][name] = np.zeros_like(p)
            state["t"][name] = 0
        state["t"][name] += 1
        t = state["t"][name]
        m = state["m"][name] = 0.9 * state["m"][name] + (1.0 - 0.9) * g
        v = state["v"][name] = 0.999 * state["v"][name] + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        step = lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        if wd != 0.0:
            p *= 1.0 - lr * wd
        p -= step


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_in_place_adam_keeps_the_out_of_place_bits(weight_decay) -> None:
    # two blocks at different step counts: the second joins at step 40 and
    # skips every third step after, as the adapter does without replay
    rng = np.random.default_rng(17)
    lr = 7.5e-3
    params = {"head": rng.normal(size=4258), "adapter": rng.normal(size=2160)}
    want = {name: p.copy() for name, p in params.items()}
    state = AdamState(lr=lr, weight_decay=weight_decay)
    reference = {"m": {}, "v": {}, "t": {}}
    for step in range(200):
        grads = {"head": rng.normal(size=4258) * 10.0 ** rng.integers(-6, 2)}
        if step >= 40 and step % 3:
            grads["adapter"] = rng.normal(size=2160) * 10.0 ** rng.integers(-6, 2)
        adam_step(state, params, grads)
        _adam_reference(reference, want, grads, lr, weight_decay)
        for name in grads:
            assert params[name].tobytes() == want[name].tobytes(), (step, name)
            assert state.m[name].tobytes() == reference["m"][name].tobytes(), (step, name)
            assert state.v[name].tobytes() == reference["v"][name].tobytes(), (step, name)
    assert state.t == reference["t"] and state.t["head"] > state.t["adapter"] > 0


def test_adam_refuses_a_step_before_moving_any_block() -> None:
    rng = np.random.default_rng(5)
    state = AdamState(lr=1e-2, weight_decay=5e-4)
    params = {"head": rng.normal(size=6), "adapter": rng.normal(size=4)}
    for _ in range(3):
        adam_step(state, params, {"head": rng.normal(size=6), "adapter": rng.normal(size=4)})
    before = [
        {name: x.copy() for name, x in block.items()} for block in (params, state.m, state.v)
    ]
    t_before = dict(state.t)
    bad = rng.normal(size=4)
    bad[2] = np.inf
    with pytest.raises(NonFiniteGradientError, match="adapter"):
        adam_step(state, params, {"head": rng.normal(size=6), "adapter": bad})
    for block, saved in zip((params, state.m, state.v), before):
        assert all(np.array_equal(block[name], saved[name]) for name in saved)
    assert state.t == t_before


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


def _normal_reference(gen: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller as SeededRng.normal has always drawn it, literally."""
    if n == 0:
        return np.zeros(0)
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def test_normal_block_is_the_successive_normal_draws() -> None:
    # a training call draws its steps' noise as one block: each call's
    # values, and the stream state after, must be those of normal(n) per
    # call, and those of the formula behind it
    rng = np.random.default_rng(8)
    for seed in range(40):
        sizes = rng.integers(0, 8, size=int(rng.integers(0, 60))).tolist()
        if seed % 10 == 0:
            sizes.insert(int(rng.integers(0, len(sizes) + 1)), int(rng.integers(4000, 4100)))
        block, one_at_a_time = SeededRng(seed), SeededRng(seed)
        reference = np.random.Generator(np.random.PCG64(seed))
        drawn = block.normal_block(sizes)
        assert drawn.shape == (sum(sizes),)
        at = 0
        for n in sizes:
            want = one_at_a_time.normal(n)
            assert want.tobytes() == _normal_reference(reference, n).tobytes(), (seed, n)
            assert drawn[at : at + n].tobytes() == want.tobytes(), (seed, n, at)
            at += n
        assert block.get_state() == one_at_a_time.get_state() == reference.bit_generator.state, seed
    with pytest.raises(ValueError):
        SeededRng(0).normal_block([3, -1])


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
