"""Stacked adapter, head, evaluation, flat-minima probe, key-frame
selection, columnar replay draw, session-table decode, feature-file
decode and fused training step against the per-sample, per-draw,
per-matrix, per-exemplar, per-file and per-call code they replaced.

The reference functions below are the code that the stacked path
replaced, kept as oracles the way test_keyframe.py keeps the
one-restart-at-a-time selector. Every comparison is on bytes, not within
a tolerance: one np.matmul over a (B, n, D) stack runs the same per-slice
product as B separate (n, D) calls, and per-draw loss increases are summed
in the old order, so no float operation is reordered. A backward pass
runs on a stack's rows as one matrix, and its reference does the same: the
adapter's summed gradient is restated with the refiner run as one
(B*T, D) matrix through the 2-D backward pass, and the per-sample mixing
products added in sample order before one softmax backward. That the
stacked product is computed slice by slice is a numpy implementation
detail, so this module is also run with more than one BLAS thread.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
import struct

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
from scorealign.data import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    CodecError,
    Reader,
    ScoredSample,
    SessionData,
    _read_features,
)
from scorealign.head import batch_sample, batch_sample_backward, pool, pool_backward, predict_eval
from scorealign.keyframe import phi_select, salience_scores, select_key_frames
from scorealign.losses import (
    NORM_FLOOR,
    VARIANCE_FLOOR,
    DegenerateBatchError,
    combined_loss,
    combined_loss_values,
)
from scorealign.memory import (
    Exemplar,
    MemoryBank,
    Session,
    encode_sessions,
    read_sessions,
    sample_replay_batch,
    write_session,
)
from scorealign.metrics import metric_entry
from scorealign.numkit import (
    MlpParams,
    SeededRng,
    ShapeMismatchError,
    adam_step,
    init_mlp,
    mlp_backward,
    mlp_forward,
)

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


def _adapter_backward_sum(params: AdapterParams, tapes, grad_outs) -> np.ndarray:
    """The gradient of per-sample reconstructions, summed: the refiner's
    part from one backward pass over every sample's frames as one
    (B*T, D) matrix, the mixing part from the samples' (T, K) products
    added in sample order, then one softmax backward."""
    mlp_tapes = [tape[2] for tape in tapes]
    mlp_tape = (
        np.concatenate([x for x, _, _ in mlp_tapes]),
        [np.concatenate(layer) for layer in zip(*(pre for _, pre, _ in mlp_tapes))],
        [np.concatenate(layer) for layer in zip(*(post for _, _, post in mlp_tapes))],
    )
    mlp_grads, grad_into_mlp_input = _mlp_backward_2d(params.mlp, mlp_tape, np.concatenate(grad_outs))
    grad_mix = None
    for (compressed, _, _), grad_out, grad_in in zip(
        tapes, grad_outs, np.split(grad_into_mlp_input, len(tapes))
    ):
        product = (grad_out + grad_in) @ compressed.T
        grad_mix = product if grad_mix is None else grad_mix + product
    mix = tapes[0][1]
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
    tapes, grad_recons = [], []
    for features, compressed in zip(features_batch, compressed_batch):
        recon, tape = _reconstruct_one(params, compressed)
        value, grad_recon = _reg_loss_one(features, recon)
        total += value
        tapes.append(tape)
        grad_recons.append(grad_recon)
    return total, _adapter_backward_sum(params, tapes, grad_recons)


def _replay_loop(model, current, truth, eps, batch, replay_eps, config):
    """One step's loss with the replay rows one exemplar at a time: the
    current rows' pooled features, truths and noise, then each exemplar's
    pooled reconstruction, truth and noise, scored as one head batch and
    one correlation batch. Returns the (head, adapter) gradients, the
    adapter's None without replay rows, or None for a degenerate batch."""
    rows, recon_tapes = [current], []
    for exemplar in batch:
        recon, recon_tape = _reconstruct_one(model.adapter, exemplar.features)
        recon_tapes.append(recon_tape)
        rows.append(recon.mean(axis=0)[None])
    out, tape = _mlp_forward_2d(model.head, np.concatenate(rows))
    eps = np.concatenate([eps, replay_eps])
    s_hat, sigma = batch_sample(out, eps)
    truth = np.concatenate([truth, [e.score for e in batch]])
    try:
        _, grad_s = combined_loss(s_hat, truth, config.mse_weight)
    except DegenerateBatchError:
        return None
    m = len(current)
    grad_s[m:] *= config.replay_weight
    head_grads, x_grad = _mlp_backward_2d(model.head, tape, batch_sample_backward(grad_s, eps, sigma))
    if not batch:
        return head_grads, None
    t_frames = model.adapter.t_frames
    grad_recons = [np.tile(x_grad[m + i] / t_frames, (t_frames, 1)) for i in range(len(batch))]
    return head_grads, _adapter_backward_sum(model.adapter, recon_tapes, grad_recons)


def _replay_draw_one(bank: MemoryBank, b2: int, rng: SeededRng) -> list[Exemplar]:
    """The per-exemplar replay draw: the stored sessions' exemplars joined
    as one list, a permutation of it, and up to b2 of it taken; an empty
    bank draws nothing."""
    pool = [e for session in bank.sessions.values() for e in session]
    if not pool:
        return []
    take = min(b2, len(pool))
    idx = rng.permutation(len(pool))[:take]
    return [pool[i] for i in idx]


def _probe_loop(model, sessions, lam, radii, rng, draws) -> dict:
    """The flat-minima probe one perturbed head at a time."""

    def probe_loss(head: MlpParams, pooled: np.ndarray, scores: np.ndarray) -> float:
        out, _ = _mlp_forward_2d(head, pooled)
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
        pooled = np.stack([s.features.mean(axis=0) for s in session.train])
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
    """The per-exemplar session-table decode: one length read, one id
    decode, one frombuffer, one cast and one finiteness check per
    exemplar, with the session checks the block decode makes."""
    width = np.dtype(dtype).itemsize
    bank = MemoryBank()
    for _ in range(reader.unpack("I", "session count")[0]):
        tag_at = reader.pos
        (n,) = reader.unpack("I", "session tag length")
        raw = reader.take(n, "session tag")
        try:
            tag = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise reader.error("session tag is not valid UTF-8", reader.pos - n) from None
        if tag in bank.sessions:
            raise reader.error(f"duplicate session '{tag}' in session table", tag_at)
        shape_at = reader.pos
        count, k, d = reader.unpack("III", "exemplar count and shape")
        if count == 0:
            raise reader.error(f"session '{tag}' has no exemplars", shape_at)
        if k == 0 or d == 0:
            raise reader.error(f"session '{tag}' has empty exemplar shape ({k}, {d})", shape_at)
        lengths = [reader.unpack("I", "sample id length")[0] for _ in range(count)]
        ids = []
        for n in lengths:
            raw = reader.take(n, "sample id")
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise reader.error("sample id is not valid UTF-8", reader.pos - n) from None
        exemplars = []
        for sample_id in ids:
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


def test_adapter_backward_matches_summed_per_sample_reference() -> None:
    for seed in range(CASES):
        rng = np.random.default_rng(10_000 + seed)
        b = 1 + seed % 3
        t, k, d, hidden = _shapes(rng)
        params = _random_adapter(rng, t, k, d, hidden)
        compressed = rng.normal(size=(b, k, d))
        grad_out = rng.normal(size=(b, t, d))
        recon, tape = reconstruct_with_tape(params, compressed)
        tapes = []
        for i in range(b):
            want_recon, tape_i = _reconstruct_one(params, compressed[i])
            assert _same_bytes(recon[i], want_recon), f"reconstruction differs, seed {seed}"
            tapes.append(tape_i)
        want = _adapter_backward_sum(params, tapes, list(grad_out))
        assert _same_bytes(adapter_backward(params, tape, grad_out), want), f"gradient differs, seed {seed}"


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
    # a third of the banks hold one exemplar, which replays as one row
    counts = [1] if seed % 3 == 0 else rng.integers(1, 4, size=2).tolist()
    bank = MemoryBank()
    for s, count in enumerate(counts):
        tag = f"s{s + 1}"
        bank.sessions[tag] = Session(
            [f"{tag}_{i}" for i in range(count)],
            rng.uniform(1.0, 5.0, size=count),
            rng.normal(size=(count, k, d)),
        )
    return model, bank, config


def test_stacked_replay_term_matches_per_exemplar_loop(monkeypatch) -> None:
    """One training step on one current batch of b rows, with the
    regularizer off: its head gradient is one backward pass over the
    current and replay rows, scored as one head batch and one loss, and
    its adapter gradient is the replay rows' alone."""
    steps = []
    monkeypatch.setattr(
        runner, "adam_step", lambda state, params, grads: steps.append(
            {name: g.copy() for name, g in grads.items()}
        )
    )
    replayed = singles = degenerate = 0
    for seed in range(CASES):
        rng = np.random.default_rng(20_000 + seed)
        b = 2 + seed % 2
        model, bank, config = _replay_model(rng, seed, b)
        config = dataclasses.replace(config, batch_size=b, reg_weight=0.0, epochs=1)
        t, d = config.frames, model.head.sizes[0]
        samples = [
            ScoredSample(f"c{i}", rng.normal(size=(t, d)), float(rng.uniform(1.0, 5.0)), "c")
            for i in range(b)
        ]
        streams = runner._Streams(seed)
        oracle_streams = runner._Streams(seed)
        steps.clear()
        runner._train_on_samples(
            model, samples, config, streams, bank, runner._Counters(), []
        )

        noise = oracle_streams.noise.normal if config.reparam else np.zeros
        order = oracle_streams.shuffle.permutation(b)
        pooled = np.stack([samples[i].features.mean(axis=0) for i in order])
        truth = np.array([samples[i].score for i in order])
        eps = noise(b)
        batch = _replay_draw_one(bank, config.replay_batch_size, oracle_streams.replay)
        want = _replay_loop(model, pooled, truth, eps, batch, noise(len(batch)), config)
        # a degenerate batch's replay draw stays drawn
        assert streams.get_state() == oracle_streams.get_state()
        if want is None:
            assert not steps
            degenerate += 1
            continue
        assert len(steps) == 1, f"seed {seed}"
        replayed += 1
        singles += len(batch) == 1
        assert _same_bytes(steps[0]["head"], want[0]), f"head gradient differs, seed {seed}"
        assert _same_bytes(steps[0]["adapter"], want[1]), f"adapter gradient differs, seed {seed}"
    # a lone replay row joins the joint batch as any other
    assert replayed == CASES - degenerate and singles >= CASES // 3 - degenerate


# --- the fused training step against the per-call step it replaced ----------


def _train_per_call(model, samples, config, streams, bank, counters, trace) -> None:
    """The training loop with each step's noise and replay rows drawn one
    call at a time, and its current and replay rows scored as one 2-D head
    batch."""
    features = np.stack([s.features for s in samples])
    pooled = pool(features)
    scores = np.array([s.score for s in samples], dtype=np.float64)
    n = len(samples)
    replay_on = bank is not None and config.replay_weight > 0.0 and config.exemplars_per_session > 0
    replay = bank.replay_pool() if replay_on and bank.sessions else None
    reg_on = bank is not None and config.reg_weight > 0.0
    if reg_on:
        compressed = phi_select(features, config.keyframes, config.diversity_weight)
    noise = streams.noise.normal if config.reparam else np.zeros
    n2 = 0 if replay is None else min(config.replay_batch_size, len(replay))
    for _ in range(config.epochs):
        order = streams.shuffle.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            m = idx.size
            # a lone current row trains with its replay rows
            if m + n2 < 2:
                counters.dropped_singletons += 1
                continue
            x, truth, eps = pooled[idx], scores[idx], noise(m)
            if replay is not None:
                drawn = sample_replay_batch(replay, config.replay_batch_size, streams.replay)
                recon, recon_tape = reconstruct_with_tape(model.adapter, replay.features[drawn])
                x = np.concatenate([x, pool(recon)])
                truth = np.concatenate([truth, replay.scores[drawn]])
                eps = np.concatenate([eps, noise(n2)])
            out, tape = _mlp_forward_2d(model.head, x)
            s_hat, sigma = batch_sample(out, eps)
            try:
                value, grad_s = combined_loss(s_hat, truth, config.mse_weight)
            except DegenerateBatchError:
                counters.degenerate_batches += 1
                continue
            trace.append(value)
            grad_s[m:] *= config.replay_weight
            head_grad, x_grad = _mlp_backward_2d(model.head, tape, batch_sample_backward(grad_s, eps, sigma))
            grads = {"head": head_grad}
            if replay is not None:
                grads["adapter"] = adapter_backward(
                    model.adapter, recon_tape, pool_backward(x_grad[m:], model.adapter.t_frames)
                )
            if reg_on:
                _, reg_grad = reg_loss_and_grads(model.adapter, features[idx], compressed[idx])
                reg_grad *= config.reg_weight
                if "adapter" in grads:
                    grads["adapter"] += reg_grad
                else:
                    grads["adapter"] = reg_grad
            adam_step(model.adam, runner.model_param_dict(model), grads)
            counters.steps += 1


def _stream_sessions(rng: np.random.Generator, t: int, d: int, b1: int) -> list[list[ScoredSample]]:
    """Three sessions whose sizes leave 2-row and 1-row batches at epoch
    ends."""
    sessions = []
    for s in range(3):
        n = int(rng.integers(2, 4)) * b1 + int(rng.integers(0, b1))
        scores = rng.uniform(1.0, 5.0, size=n)
        sessions.append([
            ScoredSample(f"s{s}_{i}", rng.normal(size=(t, d)) + s, float(scores[i]), f"s{s}")
            for i in range(n)
        ])
    return sessions


def _fused_vs_per_call(config: runner.RunConfig, d: int, sessions) -> runner._Counters:
    """Train both loops session by session from one bank. The counters, all
    three stream states, the loss trace, the parameters and Adam's moments
    must match exactly after every session. Returns the fused counters."""
    fused, reference = runner.init_model(d, config), runner.init_model(d, config)
    fused_streams, reference_streams = runner._Streams(config.seed), runner._Streams(config.seed)
    fused_counters, reference_counters = runner._Counters(), runner._Counters()
    fused_trace, reference_trace = [], []
    bank = MemoryBank()
    for samples in sessions:
        runner._train_on_samples(
            fused, samples, config, fused_streams, bank, fused_counters, fused_trace
        )
        _train_per_call(
            reference, samples, config, reference_streams, bank, reference_counters, reference_trace
        )
        where = f"seed {config.seed}, session {samples[0].session}"
        assert fused_counters == reference_counters, where
        for name, state in reference_streams.get_state().items():
            assert fused_streams.get_state()[name] == state, f"{name} stream, {where}"
        assert _same_bytes(fused_trace, reference_trace), where
        for part in ("head", "adapter"):
            assert _same_bytes(getattr(fused, part).flat, getattr(reference, part).flat), f"{part}, {where}"
        assert fused.adam.t == reference.adam.t, where
        for name in reference.adam.m:
            for moment in ("m", "v"):
                assert _same_bytes(
                    getattr(fused.adam, moment)[name], getattr(reference.adam, moment)[name]
                ), f"adam {moment} {name}, {where}"
        write_session(
            bank, samples, config.exemplars_per_session, config.keyframes, config.diversity_weight
        )
    return fused_counters


# (b1, b2): the benchmark's, with fewer replay rows than current rows;
# equal sizes; and more replay rows than current rows
BATCH_SIZES = [(3, 2), (2, 2), (3, 3), (2, 3), (2, 5), (3, 4)]


def _fused_config(rng: np.random.Generator, seed: int, t: int, d: int) -> runner.RunConfig:
    b1, b2 = BATCH_SIZES[seed % len(BATCH_SIZES)]
    return runner.RunConfig(
        epochs=2,
        batch_size=b1,
        replay_batch_size=b2,
        frames=t,
        keyframes=int(rng.integers(1, 4)),
        hidden_sizes=(8, 4),
        adapter_hidden=4,
        learning_rate=0.01,
        mse_weight=float(rng.choice([0.0, 0.05])),
        replay_weight=[1.0, 0.5][seed // 2 % 2],
        reg_weight=float(rng.choice([0.0, 1.0])),
        # a one-exemplar first session leaves the second a pool of one
        exemplars_per_session=1 if seed % 5 == 0 else int(rng.integers(2, 6)),
        reparam=seed % 2 == 0,
        seed=seed,
    )


def test_fused_step_matches_per_call_step() -> None:
    unequal = two_row_ends = lone_replayed = 0
    for seed in range(36):
        rng = np.random.default_rng(90_000 + seed)
        t, d = int(rng.integers(4, 9)), int(rng.integers(3, 9))
        config = _fused_config(rng, seed, t, d)
        unequal += config.replay_batch_size != config.batch_size
        sessions = _stream_sessions(rng, t, d, config.batch_size)
        two_row_ends += sum(len(s) % config.batch_size == 2 for s in sessions)
        # a lone row after the first session trains with its replay rows
        lone_replayed += sum(len(s) % config.batch_size == 1 for s in sessions[1:])
        counters = _fused_vs_per_call(config, d, sessions)
        assert counters.steps > 0
    assert unequal >= 24 and two_row_ends >= 10 and lone_replayed >= 20


def _batches(sessions, b1: int, epochs: int) -> int:
    """The steps the sessions give over the epochs when every session after
    the first replays: the first session's batches of two rows or more,
    then every batch, a lone row joining its replay rows."""
    first, *rest = sessions
    return epochs * (len(first) // b1 + (len(first) % b1 >= 2) + sum(-(-len(s) // b1) for s in rest))


def test_a_batch_is_degenerate_only_when_its_joint_batch_is() -> None:
    """A session of one score value after a session of many: its every
    current batch is tied, and the replay rows break the tie, so every
    batch trains. After a session of the same one score value every joint
    batch has one score value: it is skipped and counted, and its replay
    draw stays drawn, as the reference, which draws before it scores,
    leaves it."""
    for seed in range(24):
        rng = np.random.default_rng(95_000 + seed)
        t, d = int(rng.integers(4, 9)), int(rng.integers(3, 9))
        config = dataclasses.replace(_fused_config(rng, seed, t, d), exemplars_per_session=4)
        sessions = _stream_sessions(rng, t, d, config.batch_size)[:2]
        tied = [[dataclasses.replace(s, score=3.0) for s in session] for session in sessions]
        batches = _batches(sessions, config.batch_size, config.epochs)

        counters = _fused_vs_per_call(config, d, [sessions[0], tied[1]])
        assert (counters.steps, counters.degenerate_batches) == (batches, 0), f"seed {seed}"

        counters = _fused_vs_per_call(config, d, tied)
        assert (counters.steps, counters.degenerate_batches) == (0, batches), f"seed {seed}"


def _random_replay_bank(rng: np.random.Generator) -> MemoryBank:
    """One to four sessions of one (K, D), each of one exemplar about
    half the time and of up to six otherwise."""
    k, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    bank = MemoryBank()
    for s in range(int(rng.integers(1, 5))):
        count = 1 if rng.random() < 0.5 else int(rng.integers(2, 7))
        bank.sessions[f"s{s}"] = Session(
            [_random_id(rng, s, j) for j in range(count)],
            rng.normal(size=count) * 10.0 ** rng.integers(-3, 4, size=count),
            rng.normal(size=(count, k, d)),
        )
    return bank


def test_columnar_replay_draw_matches_per_exemplar_draw() -> None:
    singles = several = 0
    for seed in range(CASES):
        rng = np.random.default_rng(25_000 + seed)
        bank = _random_replay_bank(rng)
        b2 = int(rng.integers(2, 6))
        columnar, reference = SeededRng(seed), SeededRng(seed)
        pool = bank.replay_pool()
        singles += len(pool) == 1
        several += len(bank.sessions) > 1
        for draw in range(3):
            drawn = sample_replay_batch(pool, b2, columnar)
            want = _replay_draw_one(bank, b2, reference)
            where = f"seed {seed}, draw {draw}"
            scores, features = pool.scores[drawn], pool.features[drawn]
            assert [pool.ids[i] for i in drawn] == [e.sample_id for e in want], where
            assert scores.dtype == np.float64
            assert scores.tobytes() == np.array([e.score for e in want]).tobytes(), where
            assert features.dtype == np.float64
            assert features.shape == (len(want), *pool.features.shape[1:]), where
            assert features.tobytes() == np.stack([e.features for e in want]).tobytes(), where
            assert columnar.get_state() == reference.get_state(), where
    assert singles > 10 and several > CASES // 2


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

        result = runner.evaluate(model, samples, config.score_range)
        lo, hi = config.score_range
        truths = np.array([s.score for s in samples])
        for tag, entry in result["sessions"].items():
            idx = [i for i, s in enumerate(samples) if s.session == tag]
            expected = metric_entry(want[idx], truths[idx], hi, lo)
            assert json.dumps(entry) == json.dumps(expected), f"session {tag} differs, seed {seed}"


def test_head_stack_of_one_matches_per_matrix_path() -> None:
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

        stacked_out, stacked_tape = mlp_forward(head, x[None])
        stacked_grads = np.full(head.flat.size, np.nan)
        stacked_x_grad = mlp_backward(head, stacked_tape, grad_out[None], stacked_grads)
        assert _same_bytes(stacked_out[0], want_out), f"forward differs, seed {seed}"
        assert _same_bytes(stacked_grads, want_grads), f"weight gradient differs, seed {seed}"
        assert _same_bytes(stacked_x_grad[0], want_x_grad), f"input gradient differs, seed {seed}"


def test_gradient_buffer_shape_is_checked() -> None:
    head = init_mlp([3, 4, 2], SeededRng(0))
    _, tape = mlp_forward(head, np.zeros((2, 2, 3)))
    for rows in (1, 2, 3):
        with pytest.raises(ValueError, match="gradient buffer"):
            mlp_backward(head, tape, np.zeros((2, 2, 2)), np.zeros((rows, head.flat.size)))
    # a stack of MLPs, as the probe scores them, only runs forward
    stacked = MlpParams(np.stack([head.flat, head.flat]), head.sizes)
    _, tape = mlp_forward(stacked, np.zeros((1, 2, 3)))
    with pytest.raises(ShapeMismatchError, match="gradient buffer"):
        mlp_backward(stacked, tape, np.zeros((2, 2, 2)), np.zeros(stacked.flat.size))


_HEAD = init_mlp([4, 3, 2], SeededRng(0))
_MATRIX = np.random.default_rng(0).normal(size=(5, 4))  # one (T, D) sample or (n, D) batch


def _backward_of_one_matrix() -> None:
    _, tape = mlp_forward(_HEAD, _MATRIX[None])
    mlp_backward(_HEAD, tape, np.zeros((5, 2)), np.empty(_HEAD.flat.size))


_SINGLE_MATRIX_CALLS = {
    "mlp_forward": (ShapeMismatchError, lambda: mlp_forward(_HEAD, _MATRIX)),
    "mlp_backward": (ShapeMismatchError, _backward_of_one_matrix),
    "pool": (ShapeMismatchError, lambda: pool(_MATRIX)),
    "salience_scores": (ValueError, lambda: salience_scores(_MATRIX)),
    "select_key_frames": (ValueError, lambda: select_key_frames(_MATRIX, 2, 0.5)),
    "phi_select": (ValueError, lambda: phi_select(_MATRIX, 2, 0.5)),
}


@pytest.mark.parametrize("kernel", sorted(_SINGLE_MATRIX_CALLS))
def test_stack_only_kernels_reject_a_single_matrix(kernel) -> None:
    error, call = _SINGLE_MATRIX_CALLS[kernel]
    with pytest.raises(error):
        call()


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
        x = rng.normal(size=(1, n, d))
        out, _ = mlp_forward(MlpParams(rows, sizes), x)
        assert out.shape == (stack, n, 2)
        for s, row in enumerate(rows):
            want, _ = _mlp_forward_2d(MlpParams(row.copy(), sizes), x[0])
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
        with pytest.raises(DegenerateBatchError) as alone:
            combined_loss(bad[row], truth, 0.05)
        assert alone.value.row == 0
        with pytest.raises(DegenerateBatchError) as stacked:
            combined_loss_values(bad, truth, 0.05)
        assert stacked.value.row == row
        # the message names the bad row's own pred variance
        assert str(stacked.value) == str(alone.value)
    with pytest.raises(DegenerateBatchError) as constant:
        combined_loss_values(pred, np.full(6, 3.0), 0.05)
    assert constant.value.row == 0
    with pytest.raises(DegenerateBatchError) as short:
        combined_loss_values(pred[:, :1], truth[:1], 0.05)
    assert short.value.row == 0


@pytest.mark.filterwarnings("error")
def test_stacked_loss_values_raise_on_the_first_non_finite_or_degenerate_row() -> None:
    rng = np.random.default_rng(9)
    truth = rng.uniform(1.0, 5.0, size=6)
    big = 1e200 * rng.normal(size=6)  # finite predictions whose squares overflow
    nan = np.where(np.arange(6) == 3, np.nan, rng.normal(size=6))
    flat = np.full(6, 2.5)
    for rows, first, message in (
        ({1: big, 3: flat}, 1, "non-finite loss (pred inf"),
        ({1: flat, 3: nan}, 1, "variance below"),
        ({2: nan}, 2, "non-finite loss (pred nan"),
    ):
        pred = rng.normal(size=(5, 6))
        for row, values in rows.items():
            pred[row] = values
        with pytest.raises(DegenerateBatchError) as err:
            combined_loss_values(pred, truth, 0.05)
        assert err.value.row == first
        assert str(err.value).startswith(message)


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
        assert _same_bytes(salience_scores(stack), [salience_scores(m[None])[0] for m in stack]), case
        for matrix, indices, rows in zip(stack, chosen, compressed):
            want = _select_one(matrix, k, weight)
            assert tuple(indices.tolist()) == want, case
            # each sample selects alone, as a stack of one, what it selects in the stack
            assert tuple(select_key_frames(matrix[None], k, weight)[0].tolist()) == want, case
            assert _same_bytes(rows, matrix[list(want)]), case
            assert _same_bytes(phi_select(matrix[None], k, weight)[0], rows), case


def _random_id(rng: np.random.Generator, s: int, j: int) -> str:
    """An ASCII id of varying length, an empty one or a multi-byte one."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return ""
    if kind == 1:
        return f"\u00e9\u4e2d{s}_{j}\U0001f3b5"
    return f"id{s}_{j}" + "x" * int(rng.integers(0, 4))


def _random_bank(rng: np.random.Generator) -> MemoryBank:
    bank = MemoryBank()
    for s in range(int(rng.integers(1, 4))):
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        rows = [
            (_random_id(rng, s, j), rng.normal(size=(k, d)), float(rng.normal()))
            for j in range(int(rng.integers(1, 6)))
        ]
        ids, features, scores = zip(*rows)
        bank.sessions[f"sess\u00e9{s}"] = Session(list(ids), np.array(scores), np.stack(features))
    # encode_sessions writes what it is given: a third of the tables hold
    # non-finite scores or feature values for the decoders to find
    if rng.random() < 1 / 3:
        for _ in range(int(rng.integers(1, 3))):
            session = list(bank.sessions.values())[int(rng.integers(0, len(bank.sessions)))]
            j = int(rng.integers(0, len(session)))
            value = rng.choice([np.nan, np.inf, -np.inf])
            if rng.random() < 0.3:
                session.scores[j] = value
            else:
                session.features[j].flat[int(rng.integers(0, session.features[j].size))] = value
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
    faults, n_faults = set(), 0
    for case in range(400):
        raw = encode_sessions(_random_bank(rng), dtype)
        if case % 2:
            raw = _mutant(rng, raw, dtype)
        got, got_fault = _decoded(read_sessions, raw, dtype)
        want, want_fault = _decoded(_read_sessions_one, raw, dtype)
        # the first fault in the file: the same type, message and byte offset
        assert got_fault == want_fault, case
        if want is None:
            n_faults += 1
            faults.add(want_fault[1].split(" '")[0].split(":")[0].split(" (")[0])
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
    assert n_faults > 100
    # every fault of the id lengths, the ids and the rows was met
    assert faults >= {
        "truncated sample id length",
        "truncated sample id",
        "sample id is not valid UTF-8",
        "truncated exemplar",
        "non-finite value in exemplar",
    }, faults


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_session_tag_and_id_faults_match_per_exemplar_decode(dtype) -> None:
    """Every cut of the first session's header and id column, and every tag
    and id byte set to 0xFF, faults as the per-exemplar decode does."""
    bank = MemoryBank()
    for tag, ids in (("s\u00e9", ["a1", "b\u00e92"]), ("t2", ["c3", "d4"])):
        bank.sessions[tag] = Session(ids, np.array([1.0, 2.0]), np.full((2, 1, 3), 0.5))
    raw = encode_sessions(bank, dtype)
    width = np.dtype(dtype).itemsize
    # per session: its tag length, tag, count K D, id lengths, ids, run
    text, at, first_end = [], 4, None
    for tag, session in bank.sessions.items():
        n = len(tag.encode())
        text += range(at + 4, at + 4 + n)
        at += 4 + n + 12 + 4 * len(session)
        n = sum(len(i.encode()) for i in session.ids)
        text += range(at, at + n)
        at += n
        first_end = first_end or at
        at += width * session.features.size + width * len(session)
    assert at == len(raw)
    mutants = [raw[:cut] for cut in range(first_end)]
    mutants += [raw[:i] + b"\xff" + raw[i + 1 :] for i in text]
    faults = set()
    for case, mutant in enumerate(mutants):
        got, got_fault = _decoded(read_sessions, mutant, dtype)
        want, want_fault = _decoded(_read_sessions_one, mutant, dtype)
        assert want is None and got_fault == want_fault, case
        faults.add(want_fault[1].split(":")[0].split(" (")[0])
    assert faults == {
        "truncated session count",
        "truncated session tag length",
        "truncated session tag",
        "session tag is not valid UTF-8",
        "truncated exemplar count and shape",
        "truncated sample id length",
        "truncated sample id",
        "sample id is not valid UTF-8",
    }, faults


# --- feature files ----------------------------------------------------------


def _read_feature_one(raw: bytes) -> np.ndarray:
    """The per-file feature decode: a Reader walk of one file's header and
    end, with one frombuffer, one cast and one finiteness check."""
    reader = Reader(raw)
    reader.preamble(FEATURE_MAGIC, FEATURE_VERSION)
    t, d = reader.unpack("II", "shape")
    if t < 1 or d < 1:
        raise CodecError(f"empty shape ({t}, {d}) in header", 12)
    start = reader.pos
    raw_values = reader.take(4 * t * d, "features")
    with np.errstate(invalid="ignore"):
        values = np.frombuffer(raw_values, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise CodecError(f"non-finite value in features at flat index {bad}", start + 4 * bad)
    reader.end("features")
    return values.reshape(t, d)


def _random_feature_files(rng: np.random.Generator) -> list[bytes]:
    """One to eight files of mixed T, some with D = 1."""
    raws = []
    for _ in range(int(rng.integers(1, 9))):
        t, d = int(rng.integers(1, 7)), int(rng.choice([1, int(rng.integers(1, 6))]))
        header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, d)
        raws.append(header + rng.normal(size=(t, d)).astype("<f4").tobytes())
    return raws


def _feature_mutant(rng: np.random.Generator, raws: list[bytes]) -> list[bytes]:
    """raws with one to three faults in any of the files."""
    out = [bytearray(raw) for raw in raws]
    for _ in range(int(rng.integers(1, 4))):
        raw = out[int(rng.integers(0, len(out)))]
        kind = int(rng.integers(0, 6))
        if kind == 0:
            del raw[int(rng.integers(0, len(raw))) :]
        elif kind == 1:
            raw += bytes(int(rng.integers(1, 8)))
        elif kind == 2 and len(raw) >= 24:
            at = 20 + 4 * int(rng.integers(0, (len(raw) - 20) // 4))
            raw[at : at + 4] = np.array(rng.choice([np.nan, np.inf, -np.inf]), dtype="<f4").tobytes()
        elif kind == 3 and len(raw) >= 8:
            raw[int(rng.integers(0, 8))] ^= 1 << int(rng.integers(0, 8))
        elif kind == 4 and len(raw) >= 12:
            raw[8:12] = struct.pack("<I", int(rng.choice([0, 2, 9])))
        elif kind == 5 and len(raw) >= 20:
            at = 12 + 4 * int(rng.integers(0, 2))
            raw[at : at + 4] = bytes(4)
    return [bytes(raw) for raw in out]


def _same_feature_decode(raws: list[bytes], case) -> tuple | None:
    """Assert that _read_features gives the per-file decode of each file,
    or its first fault in file order with the same type, message and
    offset; return that fault, or None."""
    names = [f"features/f{i}.feat" for i in range(len(raws))]
    want, want_fault = [], None
    for name, raw in zip(names, raws):
        try:
            want.append(_read_feature_one(raw))
        except CodecError as exc:
            # the per-file decode does not know the file's name
            want_fault = (type(exc), f"feature file '{name}': {exc}", exc.offset)
            break
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got, got_fault = _read_features(list(zip(names, raws))), None
        except CodecError as exc:
            got, got_fault = None, (type(exc), str(exc), exc.offset)
    assert got_fault == want_fault, case
    if want_fault is None:
        assert len(got) == len(want), case
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.flags.c_contiguous, case
            assert _same_bytes(a, b), case
    return want_fault


def test_batched_feature_decode_matches_per_file_decode() -> None:
    rng = np.random.default_rng(14)
    faults = set()
    for case in range(400):
        raws = _random_feature_files(rng)
        if case % 2:
            raws = _feature_mutant(rng, raws)
        fault = _same_feature_decode(raws, case)
        if fault is not None:
            faults.add(fault[1].split(": ", 1)[1].split(" ")[0])
    # every kind of fault was met: truncated, trailing, non-finite, bad
    # magic, unsupported version, empty shape
    assert faults >= {"truncated", "non-finite", "bad", "unsupported", "empty"}, faults
    assert any(fault.isdigit() for fault in faults), faults


def _header_mutants(raw: bytes, t: int, d: int) -> list[bytes]:
    """Files that fail the one-unpack header check, or the finiteness pass,
    that a valid (t, d) file raw passes, each in its own way."""
    header = lambda version, t, d: FEATURE_MAGIC + struct.pack("<III", version, t, d)
    payload = raw[20:]
    signaling = bytearray(raw)
    struct.pack_into("<I", signaling, 20 + 4 * (t * d - 1), 0x7FA00000)
    return [
        *(raw[:n] for n in range(20)),  # shorter than a header
        raw[:20],  # a header and no payload
        raw[:-1],  # T * D claims more bytes than the file holds
        header(1, t + 1, d) + payload,
        header(1, t, d + 1) + payload,
        raw + bytes(3),  # T * D claims fewer bytes than the file holds
        raw + bytes(4),
        raw + payload,
        *([header(1, t - 1, d) + payload] if t > 1 else []),
        header(1, 0, d) + payload,  # T or D zero, with and without a payload
        header(1, t, 0) + payload,
        header(1, 0, d),
        header(1, t, 0),
        header(1, 0, 0),
        header(0, t, d) + payload,  # the right magic with a wrong version
        header(2, t, d) + payload,
        b"ASALFEAX" + raw[8:],
        bytes(signaling),
    ]


def test_feature_header_check_matches_per_file_decode() -> None:
    """Every way a file can fail the header check, alone, behind valid
    files, behind a file with a signaling NaN, and ahead of one."""
    rng = np.random.default_rng(15)
    faults = set()
    for case in range(12):
        valid = _random_feature_files(rng)
        t, d = struct.unpack_from("<II", valid[0], 12)
        others = valid[1:] + _random_feature_files(rng)[:1]
        signaling = bytearray(others[0])
        struct.pack_into("<I", signaling, 20, 0x7FA00000)
        for i, mutant in enumerate(_header_mutants(valid[0], t, d)):
            for raws in (
                [mutant],
                [*others, mutant],
                [bytes(signaling), mutant],
                [mutant, bytes(signaling)],
            ):
                fault = _same_feature_decode(raws, (case, i))
                assert fault is not None, (case, i)
                faults.add(fault[1].split(": ", 1)[1].split(" ")[0])
    # truncated, trailing, non-finite, bad magic, unsupported version,
    # empty shape
    assert faults >= {"truncated", "non-finite", "bad", "unsupported", "empty"}, faults
    assert any(fault.isdigit() for fault in faults), faults
