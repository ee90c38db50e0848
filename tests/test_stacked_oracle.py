"""Stacked adapter, head, evaluation and flat-minima probe against the
per-sample and per-draw loops they replaced.

The reference functions below are the per-sample and per-draw code that
the stacked path replaced, kept as oracles the way test_keyframe.py keeps
the one-restart-at-a-time selector. Every comparison is on bytes, not
within a tolerance: one np.matmul over a (B, n, D) stack runs the same
per-slice product as B separate (n, D) calls, and the per-sample gradient
rows and per-draw loss increases are summed in the old order, so no float
operation is reordered. That the
stacked product is computed slice by slice is a numpy implementation
detail, so this module is also run with more than one BLAS thread.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from scorealign import runner
from scorealign.adapter import (
    AdapterParams,
    _softmax_rows,
    adapter_backward,
    reconstruct_with_tape,
    reg_loss_and_grads,
)
from scorealign.data import ScoredSample, SessionData
from scorealign.head import batch_sample, batch_sample_backward, pool, predict_eval
from scorealign.losses import (
    NORM_FLOOR,
    VARIANCE_FLOOR,
    DegenerateBatchError,
    combined_loss,
    combined_loss_values,
)
from scorealign.memory import Exemplar, MemoryBank, sample_replay_batch
from scorealign.metrics import metric_entry
from scorealign.numkit import MlpParams, SeededRng, init_mlp, mlp_backward, mlp_forward

CASES = 300


# --- the per-sample reference path ----------------------------------------


def _mlp_forward_2d(params: MlpParams, x: np.ndarray):
    last = params.n_layers - 1
    a = x
    pre, post = [], []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        pre.append(z)
        post.append(a)
    return a, (x, pre, post)


def _mlp_backward_2d(params: MlpParams, tape, grad_out: np.ndarray):
    x, pre, post = tape
    last = params.n_layers - 1
    grads = MlpParams(np.empty_like(params.flat), params.sizes)
    g = grad_out
    for i in range(last, -1, -1):
        d_pre = g if i == last else g * (pre[i] > 0)
        a_prev = x if i == 0 else post[i - 1]
        np.matmul(a_prev.T, d_pre, out=grads.weights[i])
        np.sum(d_pre, axis=0, out=grads.biases[i])
        g = d_pre @ params.weights[i].T
    return grads.flat, g


def _reconstruct_one(params: AdapterParams, compressed: np.ndarray):
    mix = _softmax_rows(params.mixing_logits)
    base = mix @ compressed
    refined, mlp_tape = _mlp_forward_2d(params.mlp, base)
    return base + refined, (compressed, mix, mlp_tape)


def _adapter_backward_one(params: AdapterParams, tape, grad_out: np.ndarray) -> np.ndarray:
    compressed, mix, mlp_tape = tape
    mlp_grads, grad_into_mlp_input = _mlp_backward_2d(params.mlp, mlp_tape, grad_out)
    grad_base = grad_out + grad_into_mlp_input
    grad_mix = grad_base @ compressed.T
    inner = np.sum(grad_mix * mix, axis=1, keepdims=True)
    grad_logits = mix * (grad_mix - inner)
    return np.concatenate([grad_logits.ravel(), mlp_grads])


def _reg_loss_one(original: np.ndarray, reconstructed: np.ndarray):
    diff = reconstructed - original
    norm = float(np.sqrt(np.sum(diff * diff)))
    if norm < NORM_FLOOR:
        return 0.0, np.zeros_like(diff)
    return norm, diff / norm


def _reg_loop(params: AdapterParams, features_batch, compressed_batch):
    total = 0.0
    grads = np.zeros_like(params.flat)
    for features, compressed in zip(features_batch, compressed_batch):
        recon, tape = _reconstruct_one(params, compressed)
        value, grad_recon = _reg_loss_one(features, recon)
        total += value
        grads += _adapter_backward_one(params, tape, grad_recon)
    return total, grads


def _replay_loop(model, batch, eps, config):
    """The replay term one exemplar at a time: (head, adapter) gradients,
    or None for a degenerate batch."""
    recon_tapes, pooled_rows = [], []
    for exemplar in batch:
        recon, tape = _reconstruct_one(model.adapter, exemplar.features)
        recon_tapes.append(tape)
        pooled_rows.append(recon.mean(axis=0))
    out, tape = _mlp_forward_2d(model.head, np.stack(pooled_rows))
    s_hat, sigma = batch_sample(out, eps)
    truth = np.array([e.score for e in batch], dtype=np.float64)
    try:
        _, grad_s = combined_loss(s_hat, truth, config.mse_weight)
    except DegenerateBatchError:
        return None
    grad_out = batch_sample_backward(config.replay_weight * grad_s, eps, sigma)
    head_grads, x_grad = _mlp_backward_2d(model.head, tape, grad_out)
    t_frames = model.adapter.t_frames
    adapter_grads = None
    for i, tape_i in enumerate(recon_tapes):
        grad_recon = np.tile(x_grad[i] / t_frames, (t_frames, 1))
        row = _adapter_backward_one(model.adapter, tape_i, grad_recon)
        if adapter_grads is None:
            adapter_grads = row
        else:
            adapter_grads += row
    return head_grads, adapter_grads


def _probe_loop(model, sessions, lam, radii, rng, draws) -> dict:
    """The flat-minima probe one perturbed head at a time."""

    def probe_loss(head: MlpParams, pooled: np.ndarray, scores: np.ndarray) -> float:
        out, _ = mlp_forward(head, pooled)
        value, _ = combined_loss(out[:, 0], scores, lam)
        return value

    labels = [f"{r:g}" for r in radii]
    flat = model.head.flat
    directions = []
    for _ in range(draws):
        d = rng.normal(flat.size)
        directions.append(d / np.sqrt(d @ d))
    perturbed = MlpParams(flat.copy(), model.head.sizes)
    per_session = {}
    for session in sessions:
        pooled = np.stack([pool(s.features) for s in session.train])
        scores = np.array([s.score for s in session.train])
        baseline = probe_loss(model.head, pooled, scores)
        deltas = {}
        for label, radius in zip(labels, radii):
            total = 0.0
            for d in directions:
                np.add(flat, radius * d, out=perturbed.flat)
                total += probe_loss(perturbed, pooled, scores) - baseline
            deltas[label] = total / draws
        per_session[session.name] = {"baseline_loss": baseline, "mean_delta": deltas}
    return {"radii": labels, "draws": draws, "sessions": per_session}


def _predict_eval_one(params: MlpParams, features: np.ndarray) -> float:
    out, _ = _mlp_forward_2d(params, features.mean(axis=0)[None, :])
    return float(out[0, 0])


# --- seeded inputs ----------------------------------------------------------


def _shapes(rng: np.random.Generator) -> tuple[int, int, int, int]:
    t = int(rng.integers(2, 17))
    k = int(rng.integers(1, t + 1))
    d = int(rng.integers(2, 13))
    hidden = int(rng.integers(2, 17))
    return t, k, d, hidden


def _random_adapter(rng: np.random.Generator, t: int, k: int, d: int, hidden: int) -> AdapterParams:
    mlp = init_mlp([d, hidden, d], SeededRng(int(rng.integers(2**31))))
    params = AdapterParams.from_parts(rng.normal(size=(t, k)) * 2.0, mlp)
    params.mlp.flat[:] += rng.normal(size=params.mlp.flat.size) * 0.3
    return params


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the comparisons ---------------------------------------------------------


def test_stacked_reg_loss_and_grads_matches_per_sample_loop() -> None:
    zero_norm_cases = 0
    for seed in range(CASES):
        rng = np.random.default_rng(seed)
        b = 1 + seed % 3
        t, k, d, hidden = _shapes(rng)
        params = _random_adapter(rng, t, k, d, hidden)
        compressed = rng.normal(size=(b, k, d))
        features = rng.normal(size=(b, t, d)) * rng.choice([0.1, 1.0, 10.0])
        if seed % 10 == 0:
            # an exact reconstruction: the zero-norm subgradient
            features[0] = _reconstruct_one(params, compressed[0])[0]
            zero_norm_cases += 1
        value, grads = reg_loss_and_grads(params, features, compressed)
        want_value, want_grads = _reg_loop(params, features, compressed)
        assert _same_bytes(value, want_value), f"value differs, seed {seed}"
        assert _same_bytes(grads, want_grads), f"gradient differs, seed {seed}"
    assert zero_norm_cases == CASES // 10


def test_adapter_backward_rows_match_per_sample_backward() -> None:
    for seed in range(CASES):
        rng = np.random.default_rng(10_000 + seed)
        b = 1 + seed % 3
        t, k, d, hidden = _shapes(rng)
        params = _random_adapter(rng, t, k, d, hidden)
        compressed = rng.normal(size=(b, k, d))
        grad_out = rng.normal(size=(b, t, d))
        recon, tape = reconstruct_with_tape(params, compressed)
        rows = adapter_backward(params, tape, grad_out)
        assert rows.shape == (b, params.flat.size)
        for i in range(b):
            want_recon, tape_i = _reconstruct_one(params, compressed[i])
            assert _same_bytes(recon[i], want_recon), f"reconstruction differs, seed {seed}"
            want_row = _adapter_backward_one(params, tape_i, grad_out[i])
            assert _same_bytes(rows[i], want_row), f"gradient row differs, seed {seed}"


def _replay_model(rng: np.random.Generator, seed: int, b: int):
    t, k, d, hidden = _shapes(rng)
    config = runner.RunConfig(
        frames=t,
        keyframes=k,
        hidden_sizes=(int(rng.integers(2, 17)), int(rng.integers(2, 9))),
        adapter_hidden=hidden,
        replay_batch_size=b,
        replay_weight=float(rng.choice([1.0, 0.5, 2.0])),
        mse_weight=float(rng.choice([0.0, 0.05, 1.0])),
        reparam=seed % 2 == 0,
        seed=seed,
    )
    model = runner.init_model(d, config)
    model.head.flat[:] += rng.normal(size=model.head.flat.size) * 0.2
    model.adapter.flat[:] = _random_adapter(rng, t, k, d, hidden).flat
    bank = MemoryBank()
    for tag in ("s1", "s2"):
        bank.sessions[tag] = [
            Exemplar(f"{tag}_{i}", rng.normal(size=(k, d)), float(rng.uniform(1.0, 5.0)))
            for i in range(int(rng.integers(1, 4)))
        ]
    return model, bank, config


def test_stacked_replay_term_matches_per_exemplar_loop() -> None:
    replayed = 0
    for seed in range(CASES):
        rng = np.random.default_rng(20_000 + seed)
        b = 1 + seed % 3
        model, bank, config = _replay_model(rng, seed, b)
        streams = runner._Streams(seed)
        oracle_streams = runner._Streams(seed)
        head_grad = np.full_like(model.head.flat, np.nan)
        adapter_grad = np.full_like(model.adapter.flat, np.nan)
        used = runner._replay_term(
            model, bank, config, streams, runner._Counters(), head_grad, adapter_grad
        )

        batch = sample_replay_batch(bank, config.replay_batch_size, oracle_streams.replay)
        want = None
        if len(batch) >= 2:
            eps = oracle_streams.noise.normal(len(batch)) if config.reparam else np.zeros(len(batch))
            want = _replay_loop(model, batch, eps, config)
        assert streams.get_state() == oracle_streams.get_state()
        if want is None:
            assert not used
            assert np.isnan(head_grad).all() and np.isnan(adapter_grad).all()
            continue
        assert used
        replayed += 1
        assert _same_bytes(head_grad, want[0]), f"head gradient differs, seed {seed}"
        assert _same_bytes(adapter_grad, want[1]), f"adapter gradient differs, seed {seed}"
    assert replayed >= CASES // 2


def test_stacked_evaluate_matches_per_sample_predict_eval() -> None:
    for seed in range(CASES):
        rng = np.random.default_rng(30_000 + seed)
        n = 1 + seed % 3 if seed % 50 else int(rng.integers(4, 65))
        t, _, d, _ = _shapes(rng)
        config = runner.RunConfig(
            frames=t, keyframes=1, hidden_sizes=(int(rng.integers(2, 33)), int(rng.integers(2, 17)))
        )
        model = runner.init_model(d, config)
        model.head.flat[:] += rng.normal(size=model.head.flat.size) * 0.3
        samples = [
            ScoredSample(f"x{i}", rng.normal(size=(t, d)), float(1 + i % 4), f"s{i % 2}")
            for i in range(n)
        ]
        want = np.array([_predict_eval_one(model.head, s.features) for s in samples])
        preds = predict_eval(model.head, np.stack([s.features for s in samples]))
        assert _same_bytes(preds, want), f"predictions differ, seed {seed}"
        if n < 2:
            continue  # pooled metrics need two samples

        result = runner.evaluate(model, samples, config.score_range)
        lo, hi = config.score_range
        truths = np.array([s.score for s in samples])
        for tag, entry in result.sessions.items():
            idx = [i for i, s in enumerate(samples) if s.session == tag]
            expected = metric_entry(want[idx], truths[idx], hi, lo)
            assert json.dumps(entry) == json.dumps(expected), f"session {tag} differs, seed {seed}"


def test_head_as_stack_of_one_matches_two_dimensional_path() -> None:
    for seed in range(CASES):
        rng = np.random.default_rng(40_000 + seed)
        rows = 1 + seed % 3
        d = int(rng.integers(2, 33))
        sizes = [d, *rng.integers(2, 33, size=int(rng.integers(1, 3))).tolist(), 2]
        head = init_mlp(sizes, SeededRng(seed))
        head.flat[:] += rng.normal(size=head.flat.size) * 0.2
        x = rng.normal(size=(rows, d))
        grad_out = rng.normal(size=(rows, 2))

        want_out, want_tape = _mlp_forward_2d(head, x)
        want_grads, want_x_grad = _mlp_backward_2d(head, want_tape, grad_out)

        out, tape = mlp_forward(head, x)
        grads = np.full_like(head.flat, np.nan)
        x_grad = mlp_backward(head, tape, grad_out, grads)
        assert _same_bytes(out, want_out), f"forward differs, seed {seed}"
        assert _same_bytes(grads, want_grads), f"weight gradient differs, seed {seed}"
        assert _same_bytes(x_grad, want_x_grad), f"input gradient differs, seed {seed}"

        stacked_out, stacked_tape = mlp_forward(head, x[None])
        stacked_grads = np.full((1, head.flat.size), np.nan)
        stacked_x_grad = mlp_backward(head, stacked_tape, grad_out[None], stacked_grads)
        assert _same_bytes(stacked_out[0], want_out)
        assert _same_bytes(stacked_grads[0], want_grads)
        assert _same_bytes(stacked_x_grad[0], want_x_grad)


def test_gradient_buffer_shape_is_checked() -> None:
    head = init_mlp([3, 4, 2], SeededRng(0))
    _, tape = mlp_forward(head, np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="gradient buffer"):
        mlp_backward(head, tape, np.zeros((2, 2, 2)), np.zeros((3, head.flat.size)))


def test_stacked_forward_slices_match_one_head_forward() -> None:
    for seed in range(CASES):
        rng = np.random.default_rng(50_000 + seed)
        d = int(rng.integers(2, 33))
        hidden = [(64, 32), (4,)][seed % 2] if seed % 3 else tuple(rng.integers(1, 17, size=2))
        n = [1, 2, 3, 10, 50][seed % 5]
        stack = int(rng.integers(1, 12))
        sizes = [d, *hidden, 2]
        base = init_mlp(sizes, SeededRng(seed))
        rows = base.flat + rng.normal(size=(stack, base.flat.size)) * 0.3
        x = rng.normal(size=(n, d))
        out, _ = mlp_forward(MlpParams(rows, sizes), x)
        assert out.shape == (stack, n, 2)
        for s, row in enumerate(rows):
            want, _ = mlp_forward(MlpParams(row.copy(), sizes), x)
            assert _same_bytes(out[s], want), f"head {s} differs, seed {seed}"


def test_stacked_loss_values_match_combined_loss_per_row() -> None:
    rows_checked = 0
    for seed in range(CASES):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.integers(2, 301)) if seed % 4 else int(rng.integers(2, 12))
        stack = int(rng.integers(1, 12))
        lam = float(rng.choice([0.0, 0.05, 1.0]))
        truth = rng.uniform(1.0, 5.0, size=n)
        # strided rows, as a head stack's (S, n, 2) output gives them
        pred = (rng.normal(size=(stack, n, 2)) * rng.choice([0.01, 1.0, 100.0]))[:, :, 0]
        values = combined_loss_values(pred, truth, lam)
        assert values.shape == (stack,)
        for s in range(stack):
            want, _ = combined_loss(pred[s], truth, lam)
            assert _same_bytes(values[s], want), f"row {s} differs, seed {seed}"
            rows_checked += 1
    assert rows_checked > CASES


def test_stacked_loss_values_raise_on_any_degenerate_row() -> None:
    rng = np.random.default_rng(7)
    truth = rng.uniform(1.0, 5.0, size=6)
    pred = rng.normal(size=(4, 6))
    for row in range(4):
        bad = pred.copy()
        bad[row] = 2.5 + rng.normal(size=6) * np.sqrt(VARIANCE_FLOOR) * 1e-3
        with pytest.raises(DegenerateBatchError):
            combined_loss(bad[row], truth, 0.05)
        with pytest.raises(DegenerateBatchError):
            combined_loss_values(bad, truth, 0.05)
    with pytest.raises(DegenerateBatchError):
        combined_loss_values(pred, np.full(6, 3.0), 0.05)
    with pytest.raises(DegenerateBatchError):
        combined_loss_values(pred[:, :1], truth[:1], 0.05)


@pytest.mark.parametrize("hidden", [(64, 32), (4,)])
@pytest.mark.parametrize("draws", [1, 10])
@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_stacked_probe_table_matches_per_draw_loop(n, draws, hidden) -> None:
    degenerate = 0
    for seed in range(3):
        rng = np.random.default_rng(70_000 + 100 * n + 10 * draws + seed)
        t, _, d, _ = _shapes(rng)
        config = runner.RunConfig(frames=t, keyframes=1, hidden_sizes=hidden, seed=seed)
        model = runner.init_model(d, config)
        model.head.flat[:] += rng.normal(size=model.head.flat.size) * 0.3
        sessions = [
            SessionData(
                name,
                [
                    ScoredSample(f"{name}_{i}", rng.normal(size=(t, d)), float(rng.uniform(1, 5)), name)
                    for i in range(n)
                ],
                [],
            )
            for name in ("s1", "s2")
        ]
        radii = [0.0, 0.01, 0.5, 5.0]
        lam = float(rng.choice([0.0, 0.05, 1.0]))
        before = model.head.flat.copy()
        try:
            want = _probe_loop(model, sessions, lam, radii, SeededRng(seed), draws)
        except DegenerateBatchError:
            # a perturbed head with every rectifier off scores a constant
            with pytest.raises(runner.TrainingError, match="perturbed by radius"):
                runner.flat_minima_probe(model, sessions, lam, radii, SeededRng(seed), draws)
            degenerate += 1
            continue
        table = runner.flat_minima_probe(model, sessions, lam, radii, SeededRng(seed), draws)
        assert json.dumps(table, sort_keys=True) == json.dumps(want, sort_keys=True), seed
        assert _same_bytes(model.head.flat, before)
    assert degenerate < 3
