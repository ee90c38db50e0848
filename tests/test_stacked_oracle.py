"""Stacked adapter, head, evaluation, flat-minima probe, key-frame
selection and session-table decode against the per-sample, per-draw,
per-matrix and per-exemplar loops they replaced.

The reference functions below are the code that the stacked path
replaced, kept as oracles the way test_keyframe.py keeps the
one-restart-at-a-time selector. Every comparison is on bytes, not within
a tolerance: one np.matmul over a (B, n, D) stack runs the same per-slice
product as B separate (n, D) calls, and the per-sample gradient rows and
per-draw loss increases are summed in the old order, so no float
operation is reordered. That the stacked product is computed slice by
slice is a numpy implementation detail, so this module is also run with
more than one BLAS thread.
"""

from __future__ import annotations

import json
from dataclasses import replace

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
from scorealign.data import CodecError, Reader, ScoredSample, SessionData
from scorealign.head import batch_sample, batch_sample_backward, pool, predict_eval
from scorealign.keyframe import phi_select, salience_scores, select_key_frames
from scorealign.losses import (
    NORM_FLOOR,
    VARIANCE_FLOOR,
    DegenerateBatchError,
    combined_loss,
    combined_loss_values,
)
from scorealign.memory import Exemplar, MemoryBank, encode_sessions, read_sessions, sample_replay_batch
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


def _select_one(features: np.ndarray, k: int, diversity_weight: float) -> tuple[int, ...]:
    """The per-matrix selector: all T restarts of one (T, D) matrix."""
    centered = features - features.mean(axis=0)
    salience = np.sqrt(np.sum(centered * centered, axis=1))
    top = salience.max()
    norm_sal = salience / top if top > 0.0 else np.zeros_like(salience)
    norms = np.sqrt(np.sum(features * features, axis=1))
    unit = features / np.where(norms > 0.0, norms, 1.0)[:, None]
    cos = unit @ unit.T
    t = features.shape[0]
    starts = np.arange(t)
    picks = np.empty((t, k), dtype=np.intp)
    picks[:, 0] = starts
    max_cos = cos.T.copy()
    taken = np.eye(t, dtype=bool)
    for step in range(1, k):
        score = norm_sal - diversity_weight * max_cos
        score[taken] = -np.inf
        pick = np.argmax(score, axis=1)
        picks[:, step] = pick
        taken[starts, pick] = True
        np.maximum(max_cos, cos.T[pick], out=max_cos)
    value = np.zeros(t)
    for a in range(k):
        value += norm_sal[picks[:, a]]
    for a in range(k):
        for b in range(a + 1, k):
            value -= diversity_weight * cos[picks[:, a], picks[:, b]]
    return tuple(sorted(int(i) for i in picks[np.argmax(value)]))


def _read_sessions_one(reader: Reader, dtype: str) -> MemoryBank:
    """The per-exemplar session-table decode: one id, one frombuffer, one
    cast and one finiteness check per exemplar, with the session checks
    the block decode makes."""
    width = np.dtype(dtype).itemsize
    bank = MemoryBank()
    for _ in range(reader.unpack("I", "session count")[0]):
        tag_at = reader.pos
        tag = reader.string("session tag")
        if tag in bank.sessions:
            raise reader.error(f"duplicate session '{tag}' in session table", tag_at)
        shape_at = reader.pos
        count, k, d = reader.unpack("III", "exemplar count and shape")
        if count == 0:
            raise reader.error(f"session '{tag}' has no exemplars", shape_at)
        if k == 0 or d == 0:
            raise reader.error(f"session '{tag}' has empty exemplar shape ({k}, {d})", shape_at)
        exemplars = []
        for _ in range(count):
            sample_id = reader.string("sample id")
            start = reader.pos
            raw = reader.take(width * (1 + k * d), f"exemplar '{sample_id}'")
            with np.errstate(invalid="ignore"):
                values = np.frombuffer(raw, dtype=dtype).astype(np.float64)
            if not np.isfinite(values).all():
                bad = int(np.flatnonzero(~np.isfinite(values))[0])
                raise reader.error(
                    f"non-finite value in exemplar '{sample_id}' at flat index {bad}",
                    start + width * bad,
                )
            exemplars.append(Exemplar(sample_id, values[1:].reshape(k, d), float(values[0])))
        bank.sessions[tag] = exemplars
    return bank


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


def _selection_stack(rng: np.random.Generator, case: int) -> np.ndarray:
    n = int(rng.integers(1, 9))
    t = 1 if case % 7 == 0 else int(rng.integers(1, 13))
    d = int(rng.integers(1, 6))
    kind = case % 4
    if kind == 0:
        return rng.normal(size=(n, t, d))
    if kind == 1:
        # integer-valued features: many exact ties in salience and cosine
        return rng.integers(-2, 3, size=(n, t, d)).astype(np.float64)
    if kind == 2:
        # every row repeats one of three rows of its sample
        pool_rows = rng.normal(size=(n, 3, d))
        return np.take_along_axis(pool_rows, rng.integers(0, 3, size=(n, t, 1)), axis=1)
    feats = rng.normal(size=(n, t, d))
    feats[rng.random((n, t)) < 0.4] = 0.0
    if n > 1:
        feats[0] = 0.0  # a sample of only zero rows
    return feats


def test_stacked_selection_matches_per_matrix_selector() -> None:
    rng = np.random.default_rng(11)
    weights = (0.0, 0.5, 2.0)
    for case in range(300):
        stack = _selection_stack(rng, case)
        t = stack.shape[1]
        k = (1, t, int(rng.integers(1, t + 1)))[(case // 4) % 3]
        weight = weights[(case // 12) % 3]
        chosen = select_key_frames(stack, k, weight)
        compressed = phi_select(stack, k, weight)
        assert chosen.shape == (len(stack), k), case
        assert _same_bytes(salience_scores(stack), [salience_scores(m) for m in stack]), case
        for matrix, indices, rows in zip(stack, chosen, compressed):
            want = _select_one(matrix, k, weight)
            assert tuple(indices.tolist()) == want, case
            # a (T, D) matrix is a stack of one
            assert select_key_frames(matrix, k, weight) == want, case
            assert _same_bytes(rows, matrix[list(want)]), case
            assert _same_bytes(phi_select(matrix, k, weight), rows), case


def _random_bank(rng: np.random.Generator) -> MemoryBank:
    bank = MemoryBank()
    for s in range(int(rng.integers(1, 4))):
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        bank.sessions[f"sess\u00e9{s}"] = [
            Exemplar(f"id{s}_{j}" + "x" * int(rng.integers(0, 4)), rng.normal(size=(k, d)), float(rng.normal()))
            for j in range(int(rng.integers(1, 6)))
        ]
    # encode_sessions writes what it is given: a third of the tables hold
    # non-finite scores or feature values for the decoders to find
    if rng.random() < 1 / 3:
        for _ in range(int(rng.integers(1, 3))):
            exemplars = list(bank.sessions.values())[int(rng.integers(0, len(bank.sessions)))]
            j = int(rng.integers(0, len(exemplars)))
            value = rng.choice([np.nan, np.inf, -np.inf])
            if rng.random() < 0.3:
                exemplars[j] = replace(exemplars[j], score=value)
            else:
                exemplars[j].features.flat[int(rng.integers(0, exemplars[j].features.size))] = value
    return bank


def _decoded(decode, raw: bytes, dtype: str):
    """(bank, None) or (None, (error type, message, offset))."""
    reader = Reader(raw, CodecError)
    try:
        bank = decode(reader, dtype)
        reader.end("session table")
        return bank, None
    except CodecError as exc:
        return None, (type(exc), str(exc), exc.offset)


def _mutant(rng: np.random.Generator, raw: bytes, dtype: str) -> bytes:
    """raw with one to three faults: non-finite values, byte flips, a cut."""
    out = bytearray(raw)
    width = np.dtype(dtype).itemsize
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        if kind == 0 and len(out) >= width:
            at = int(rng.integers(0, len(out) - width + 1))
            out[at : at + width] = np.array(rng.choice([np.nan, np.inf, -np.inf]), dtype=dtype).tobytes()
        elif kind == 1:
            out[int(rng.integers(0, len(out)))] ^= 1 << int(rng.integers(0, 8))
        else:
            del out[int(rng.integers(0, len(out))) :]
            break
    return bytes(out)


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_block_decode_matches_per_exemplar_decode(dtype) -> None:
    rng = np.random.default_rng(12 if dtype == "<f4" else 13)
    faults = 0
    for case in range(400):
        raw = encode_sessions(_random_bank(rng), dtype)
        if case % 2:
            raw = _mutant(rng, raw, dtype)
        got, got_fault = _decoded(read_sessions, raw, dtype)
        want, want_fault = _decoded(_read_sessions_one, raw, dtype)
        # the first fault in the file: the same type, message and byte offset
        assert got_fault == want_fault, case
        if want is None:
            faults += 1
            continue
        assert list(got.sessions) == list(want.sessions), case
        for tag, exemplars in want.sessions.items():
            back = got.sessions[tag]
            assert [e.sample_id for e in back] == [e.sample_id for e in exemplars], case
            for a, b in zip(back, exemplars):
                assert a.features.dtype == np.float64
                assert _same_bytes(a.features, b.features), case
                assert type(a.score) is float
                assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes(), case
    assert faults > 100
