from __future__ import annotations

import numpy as np
import pytest

from scorealign.adapter import (
    AdapterParams,
    adapter_backward,
    init_adapter,
    interpolation_logits,
    reconstruct_with_tape,
    reg_loss_and_grads,
)
from scorealign.keyframe import phi_select
from scorealign.numkit import (
    AdamState,
    MlpParams,
    SeededRng,
    ShapeMismatchError,
    adam_step,
    init_mlp,
    zeros_mlp,
)

from gradcheck import central_diff, max_rel_error


def _zero_refiner(dim: int, hidden: int = 8) -> MlpParams:
    return zeros_mlp([dim, hidden, dim])


def test_interpolation_logits_shape_and_peak() -> None:
    logits = interpolation_logits(6, 3, sharpness=2.0)
    assert logits.shape == (6, 3)
    # row 0 peaks on slot 0, last row on the last slot
    assert logits[0].argmax() == 0
    assert logits[5].argmax() == 2


def test_sharp_diagonal_identity_configuration_is_exact() -> None:
    # saturated logits make softmax rows exact one-hots for K = T
    t, d = 5, 4
    rng = np.random.default_rng(0)
    x = rng.normal(size=(t, d))
    params = AdapterParams.from_parts(interpolation_logits(t, t, sharpness=1000.0), _zero_refiner(d))
    assert np.array_equal(reconstruct_with_tape(params, x[None])[0][0], x)


def test_default_init_is_near_identity_for_k_equals_t() -> None:
    t, d = 8, 5
    rng = SeededRng(1)
    params = init_adapter(t, t, d, hidden=8, rng=rng)
    x = SeededRng(2).normal(t * d).reshape(t, d)
    recon = reconstruct_with_tape(params, x[None])[0][0]
    assert np.linalg.norm(recon - x) / np.linalg.norm(x) < 1e-3


def test_single_key_frame_broadcasts_to_all_rows() -> None:
    t, d = 6, 3
    params = AdapterParams.from_parts(interpolation_logits(t, 1), _zero_refiner(d))
    row = np.array([[1.0, -2.0, 0.5]])
    recon = reconstruct_with_tape(params, row[None])[0][0]
    assert recon.shape == (t, d)
    assert np.allclose(recon, np.tile(row, (t, 1)))


def test_reconstruct_shape_and_finiteness_with_random_params() -> None:
    rng = SeededRng(3)
    params = init_adapter(16, 3, 8, hidden=8, rng=rng)
    params.mixing_logits[:] = rng.normal(16 * 3).reshape(16, 3)
    compressed = rng.normal(3 * 8).reshape(3, 8)
    out = reconstruct_with_tape(params, compressed[None])[0][0]
    assert out.shape == (16, 8)
    assert np.all(np.isfinite(out))


def test_reconstruct_rejects_wrong_shapes() -> None:
    params = init_adapter(8, 3, 4, hidden=8, rng=SeededRng(0))
    with pytest.raises(ShapeMismatchError):
        reconstruct_with_tape(params, np.zeros((1, 2, 4)))[0]
    with pytest.raises(ShapeMismatchError):
        reconstruct_with_tape(params, np.zeros((1, 3, 5)))[0]
    with pytest.raises(ShapeMismatchError):
        reconstruct_with_tape(params, np.zeros((3, 4)))[0]


def test_base_rows_are_convex_combinations() -> None:
    rng = SeededRng(4)
    t, k, d = 10, 3, 6
    params = AdapterParams.from_parts(
        rng.normal(t * k).reshape(t, k), _zero_refiner(d)
    )
    compressed = rng.normal(k * d).reshape(k, d)
    recon = reconstruct_with_tape(params, compressed[None])[0][0]  # zero refiner: recon == base
    low = compressed.min(axis=0) - 1e-12
    high = compressed.max(axis=0) + 1e-12
    assert np.all(recon >= low) and np.all(recon <= high)


def test_gradients_through_mixing_and_refiner_match_finite_differences() -> None:
    rng = SeededRng(5)
    t, k, d = 6, 3, 4
    params = AdapterParams.from_parts(
        rng.normal(t * k).reshape(t, k), init_mlp([d, 5, d], rng)
    )
    compressed = rng.normal(k * d).reshape(k, d)
    direction = rng.normal(t * d).reshape(t, d)

    out, tape = reconstruct_with_tape(params, compressed[None])
    (row,) = adapter_backward(params, tape, direction[None])
    grads = AdapterParams(row, t, k, params.mlp_sizes)

    def loss_of_logits(logits: np.ndarray) -> float:
        probe = AdapterParams.from_parts(logits, params.mlp)
        return float(np.sum(reconstruct_with_tape(probe, compressed[None])[0][0] * direction))

    numeric = central_diff(loss_of_logits, params.mixing_logits)
    assert max_rel_error(grads.mixing_logits, numeric) < 1e-4

    def loss_of_w0(w0: np.ndarray) -> float:
        probe_mlp = MlpParams(params.mlp.flat.copy(), params.mlp.sizes)
        probe_mlp.weights[0][...] = w0
        probe = AdapterParams.from_parts(params.mixing_logits, probe_mlp)
        return float(np.sum(reconstruct_with_tape(probe, compressed[None])[0][0] * direction))

    numeric_w0 = central_diff(loss_of_w0, params.mlp.weights[0])
    assert max_rel_error(grads.mlp.weights[0], numeric_w0) < 1e-4


def test_reg_loss_gradient_through_selection_matches_finite_differences() -> None:
    rng = SeededRng(6)
    t, k, d = 8, 3, 4
    features = rng.normal(t * d).reshape(t, d)
    params = AdapterParams.from_parts(rng.normal(t * k).reshape(t, k), init_mlp([d, 5, d], rng))

    value, flat_grads = reg_loss_and_grads(params, features[None], phi_select(features, k, 0.5)[None])
    grads = AdapterParams(flat_grads, t, k, params.mlp_sizes)
    assert value > 0

    def loss_of_logits(logits: np.ndarray) -> float:
        probe = AdapterParams.from_parts(logits, params.mlp)
        compressed = phi_select(features, k, 0.5)
        recon = reconstruct_with_tape(probe, compressed[None])[0][0]
        return float(np.sqrt(np.sum((recon - features) ** 2)))

    numeric = central_diff(loss_of_logits, params.mixing_logits)
    assert max_rel_error(grads.mixing_logits, numeric) < 1e-4


def test_constant_video_with_identity_adapter_is_a_fixed_point() -> None:
    t, k, d = 8, 3, 4
    params = init_adapter(t, k, d, hidden=6, rng=SeededRng(7))
    before = params.flat.copy()
    features = np.full((t, d), 2.5)
    optimizer = AdamState(lr=0.01, weight_decay=0.0)
    value, grads = reg_loss_and_grads(params, features[None], phi_select(features, k, 0.5)[None])
    adam_step(optimizer, {"adapter": params.flat}, {"adapter": grads})
    assert value == 0.0
    assert np.array_equal(params.flat, before)


def test_adapter_learns_sinusoidal_video() -> None:
    # fixed smooth synthetic video: per-frame sinusoids over mixed phases
    t, k, d = 16, 3, 8
    tt = np.arange(t)[:, None]
    dd = np.arange(d)[None, :]
    features = 1.5 + np.sin(2 * np.pi * tt / t + 2 * np.pi * dd / d)
    params = init_adapter(t, k, d, hidden=32, rng=SeededRng(8))
    optimizer = AdamState(lr=0.01, weight_decay=0.0)
    for _ in range(500):
        _, grads = reg_loss_and_grads(params, features[None], phi_select(features, k, 0.5)[None])
        adam_step(optimizer, {"adapter": params.flat}, {"adapter": grads})
    compressed = phi_select(features, k, 0.5)
    recon = reconstruct_with_tape(params, compressed[None])[0][0]
    rel_error = np.linalg.norm(recon - features) / np.linalg.norm(features)
    assert rel_error < 0.2


def test_reg_loss_empty_batch_rejected() -> None:
    params = init_adapter(8, 3, 4, hidden=6, rng=SeededRng(10))
    with pytest.raises(ValueError):
        reg_loss_and_grads(params, [], [])
