"""Acceptance criteria, one test per criterion.

Each test prints one `criterion N PASS` line when it completes (pytest -v -s
shows them; a failure raises instead). The drift benchmark and the paired
runs are module-scoped fixtures so the suite stays fast.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from scorealign.adapter import AdapterParams, adapter_backward, reconstruct_with_tape
from scorealign.data import (
    drift_benchmark_spec,
    generate_synthetic,
    load_manifest,
    read_feature_file,
    report_text,
    write_feature_file,
)
from scorealign.head import batch_sample, batch_sample_backward
from scorealign.keyframe import salience_scores, select_key_frames
from scorealign.losses import combined_loss, correlation_loss, mse_loss, reg_loss
from scorealign.memory import bank_file_size, load_bank, save_bank, select_exemplars
from scorealign.metrics import plcc, pooled_metrics, rl2e, srcc
from scorealign.numkit import (
    MlpParams,
    SeededRng,
    derive_seed,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from scorealign.runner import (
    benchmark_config,
    config_hash,
    flat_minima_probe,
    load_checkpoint,
    probe_pairing_config,
    save_checkpoint,
    train_continual,
    train_joint,
    _Streams,
)

from gradcheck import central_diff, max_rel_error
from test_metrics import naive_pearson, naive_spearman
from test_runner import _literal_sequential_finetune, _dataset, _config


# --- shared benchmark fixtures ------------------------------------------


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    manifest = generate_synthetic(drift_benchmark_spec(), out)
    config = benchmark_config()
    data = load_manifest(
        manifest,
        frames=config.frames,
        score_range=config.score_range,
        seed=config.seed,
        test_ratio=config.test_ratio,
        max_train=config.max_train_per_session,
    )
    return manifest, data


@pytest.fixture(scope="module")
def continual_runs(bench):
    _, data = bench
    t0 = time.perf_counter()
    replay_run = train_continual(benchmark_config(), data)
    seqft_run = train_continual(
        benchmark_config(replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0), data
    )
    return replay_run, seqft_run, time.perf_counter() - t0


def test_criterion_1_gradient_suite() -> None:
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    for _ in range(20):  # vector losses
        n = int(rng.integers(4, 12))
        pred = rng.normal(size=n) * 2.0 + 3.0
        truth = rng.normal(size=n) * 1.5 + 3.0
        for fn in (
            lambda p: correlation_loss(p, truth),
            lambda p: mse_loss(p, truth),
            lambda p: combined_loss(p, truth, 0.05),
        ):
            _, grad = fn(pred)
            numeric = central_diff(lambda p: fn(p)[0], pred)
            worst = max(worst, max_rel_error(grad, numeric))

    for _ in range(20):  # reconstruction penalty
        original = rng.normal(size=(1, 5, 4))
        recon = rng.normal(size=(1, 5, 4))
        _, grad = reg_loss(original, recon)
        numeric = central_diff(lambda r: reg_loss(original, r)[0][0], recon)
        worst = max(worst, max_rel_error(grad, numeric))

    for i in range(20):  # re-parameterized head, end to end
        head = init_mlp([4, 6, 2], SeededRng(500 + i))
        x = rng.normal(size=(3, 4))
        truth = rng.normal(size=3) * 1.5 + 3.0
        eps = rng.normal(size=3)

        def head_loss(flat: np.ndarray) -> float:
            out, _ = mlp_forward(MlpParams(flat, head.sizes), x)
            scores, _ = batch_sample(out, eps)
            return combined_loss(scores, truth, 0.05)[0]

        out, tape = mlp_forward(head, x)
        scores, sigma = batch_sample(out, eps)
        _, grad_s = combined_loss(scores, truth, 0.05)
        grads = np.empty_like(head.flat)
        mlp_backward(head, tape, batch_sample_backward(grad_s, eps, sigma), grads)
        numeric = central_diff(head_loss, head.flat)
        worst = max(worst, max_rel_error(grads, numeric))

    for i in range(20):  # adapter: through softmax mixing and the refiner MLP
        t, k, d = 6, 3, 4
        adapter = AdapterParams.from_parts(
            rng.normal(size=(t, k)), init_mlp([d, 5, d], SeededRng(900 + i))
        )
        compressed = rng.normal(size=(1, k, d))
        original = rng.normal(size=(1, t, d))

        out, tape = reconstruct_with_tape(adapter, compressed)
        _, grad_recon = reg_loss(original, out)
        (row,) = adapter_backward(adapter, tape, grad_recon)
        grads = AdapterParams(row, t, k, adapter.mlp_sizes)

        def adapter_loss(logits: np.ndarray) -> float:
            recon = reconstruct_with_tape(AdapterParams.from_parts(logits, adapter.mlp), compressed)[0]
            return reg_loss(original, recon)[0][0]

        numeric = central_diff(adapter_loss, adapter.mixing_logits)
        worst = max(worst, max_rel_error(grads.mixing_logits, numeric))

        def adapter_mlp_loss(flat: np.ndarray) -> float:
            mlp = MlpParams(flat, adapter.mlp.sizes)
            recon = reconstruct_with_tape(AdapterParams.from_parts(adapter.mixing_logits, mlp), compressed)[0]
            return reg_loss(original, recon)[0][0]

        numeric_mlp = central_diff(adapter_mlp_loss, adapter.mlp.flat)
        worst = max(worst, max_rel_error(grads.mlp.flat, numeric_mlp))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s"
    print(f"criterion 1 PASS: max rel gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_metric_oracles() -> None:
    rng = np.random.default_rng(202)
    for i in range(1000):
        n = int(rng.integers(2, 65))
        pred = rng.normal(size=n)
        truth = rng.normal(size=n)
        if i % 3 == 0:
            pred = np.round(pred * 2.0) / 2.0
        if i % 4 == 0:
            truth = np.round(truth * 2.0) / 2.0
        ref_p = naive_pearson(pred.tolist(), truth.tolist())
        ref_s = naive_spearman(pred.tolist(), truth.tolist())
        got_p, got_s = plcc(pred, truth), srcc(pred, truth)
        for got, ref in ((got_p, ref_p), (got_s, ref_s)):
            if ref is None:
                assert got is None
            else:
                assert abs(got - ref) < 1e-10
        ref_r = math.fsum((abs(t - p) / 4.0) ** 2 for p, t in zip(pred, truth)) / n
        assert abs(rl2e(pred, truth, 5.0, 1.0) - ref_r) < 1e-10

    pairs = [
        (np.array([1.0, 2.0]), np.array([1.0, 2.0])),
        (np.array([4.0, 3.0]), np.array([3.0, 4.0])),
    ]
    pooled_s, _ = pooled_metrics(pairs, 5.0, 1.0)
    averaged = np.mean([srcc(*pairs[0]), srcc(*pairs[1])])
    assert pooled_s == pytest.approx(0.8, abs=1e-12)
    assert averaged == pytest.approx(0.0, abs=1e-12)
    print("criterion 2 PASS: metric oracles at 1e-10 over 1000 vectors; pooled 0.8 vs averaged 0.0")


def test_criterion_3_invariances() -> None:
    rng = np.random.default_rng(303)
    for _ in range(50):
        pred = rng.normal(size=10)
        truth = rng.normal(size=10)
        base, _ = correlation_loss(pred, truth)
        for a in (0.5, 2.0, 10.0):
            for b in (-3.0, 0.0, 7.0):
                moved, _ = correlation_loss(a * pred + b, truth)
                assert abs(moved - base) < 1e-10
        base_s = srcc(pred, truth)
        for transform in (np.exp, lambda x: x**3, lambda x: 4.0 * x + 2.0):
            assert abs(srcc(transform(pred), truth) - base_s) < 1e-12
    print("criterion 3 PASS: affine invariance 1e-10; monotone invariance 1e-12")


def test_criterion_4_reparameterization_statistics() -> None:
    mu, sigma = 2.0, 0.5
    eps = SeededRng(404).normal(100_000)
    samples = mu + eps * sigma
    mean_err = abs(samples.mean() - mu) / mu
    std_err = abs(samples.std() - sigma) / sigma
    assert mean_err < 0.01
    assert std_err < 0.01
    print(f"criterion 4 PASS: mean off by {mean_err:.2%}, std off by {std_err:.2%}")


def test_criterion_5_keyframe_selector() -> None:
    three = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def objective(feats: np.ndarray, subset: tuple[int, ...], mu: float) -> float:
        sal = salience_scores(feats)
        top = sal.max()
        nsal = sal / top if top > 0 else sal * 0.0
        value = sum(nsal[i] for i in subset)
        for a in range(len(subset)):
            for b in range(a + 1, len(subset)):
                fa, fb = feats[subset[a]], feats[subset[b]]
                na, nb = np.linalg.norm(fa), np.linalg.norm(fb)
                cos = float(fa @ fb / (na * nb)) if na > 0 and nb > 0 else 0.0
                value -= mu * cos
        return value

    indices = select_key_frames(three, 2, 0.5)
    assert indices == (0, 1)
    best = max(
        objective(three, s, 0.5) for s in itertools.combinations(range(3), 2)
    )
    assert objective(three, indices, 0.5) == pytest.approx(best, abs=1e-12)

    rng = np.random.default_rng(505)
    ratios = []
    for _ in range(100):
        t = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, t + 1)))
        feats = rng.normal(size=(t, 5))
        chosen = select_key_frames(feats, k, 0.5)
        assert chosen == select_key_frames(feats, k, 0.5)
        greedy_value = objective(feats, chosen, 0.5)
        best = max(objective(feats, s, 0.5) for s in itertools.combinations(range(t), k))
        if best > 0:
            ratios.append(greedy_value / best)
            assert greedy_value >= 0.9 * best
        else:
            # k == t leaves no choice: greedy must equal the exhaustive value
            assert greedy_value == pytest.approx(best, abs=1e-12)
    print(f"criterion 5 PASS: greedy/exhaustive ratio min {min(ratios):.3f} over 100 instances")


def test_criterion_6_exemplar_formula() -> None:
    from scorealign.data import ScoredSample

    rng = np.random.default_rng(606)

    def make(scores):
        return [
            ScoredSample(f"x{i:04d}", np.zeros((2, 2)), float(s), "s")
            for i, s in enumerate(scores)
        ]

    assert select_exemplars(make(np.linspace(1, 5, 50)), 5) == [0, 12, 24, 36, 49]

    for _ in range(200):
        n = int(rng.integers(1, 120))
        m = int(rng.integers(1, 40))
        scores = rng.normal(size=n)
        chosen = select_exemplars(make(scores), m)
        assert len(chosen) == min(m, n)
        assert len(set(chosen)) == len(chosen)
        if m >= 2 or m >= n:
            assert int(np.argmin(scores)) in chosen
            assert int(np.argmax(scores)) in chosen
    print("criterion 6 PASS: positions [0, 12, 24, 36, 49]; quota and extremes over 200 cases")


def test_criterion_7_reduction_identities() -> None:
    data = _dataset(n_sessions=3, n=14)
    config = _config(replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0)
    result = train_continual(config, data)
    oracle_trace, _ = _literal_sequential_finetune(config, data)
    diff = np.max(np.abs(np.array(result.loss_trace) - np.array(oracle_trace)))
    assert diff < 1e-12

    lam0 = _config(mse_weight=0.0, replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0)
    result0 = train_continual(lam0, data)
    cor_trace, _ = _literal_sequential_finetune(lam0, data, lam=0.0)
    diff0 = np.max(np.abs(np.array(result0.loss_trace) - np.array(cor_trace)))
    assert diff0 < 1e-12
    print(f"criterion 7 PASS: seq-ft trace diff {diff:.1e}; lambda=0 trace diff {diff0:.1e}")


def test_criterion_8_forgetting_margin(continual_runs) -> None:
    replay_run, seqft_run, elapsed = continual_runs
    margin = replay_run.report.pooled["srcc_ove"] - seqft_run.report.pooled["srcc_ove"]
    assert margin >= 0.05, f"margin {margin:.3f}"
    assert replay_run.report.pooled["rl2e_ove"] < seqft_run.report.pooled["rl2e_ove"]
    assert elapsed < 300.0
    print(
        f"criterion 8 PASS: pooled SRCC {replay_run.report.pooled['srcc_ove']:.3f} vs "
        f"{seqft_run.report.pooled['srcc_ove']:.3f} (margin {margin:+.3f}); "
        f"RL2E {replay_run.report.pooled['rl2e_ove']:.4f} < {seqft_run.report.pooled['rl2e_ove']:.4f}; "
        f"{elapsed:.0f}s"
    )


def test_criterion_9_correlation_precision_tradeoff(bench) -> None:
    _, data = bench
    with_mse = train_joint(benchmark_config(mode="joint"), data)
    without = train_joint(benchmark_config(mode="joint", mse_weight=0.0), data)
    rl2e_with = with_mse.report.pooled["rl2e_ove"]
    rl2e_without = without.report.pooled["rl2e_ove"]
    srcc_with = with_mse.report.pooled["srcc_ove"]
    srcc_without = without.report.pooled["srcc_ove"]
    assert rl2e_with <= 0.7 * rl2e_without
    assert srcc_without - srcc_with < 0.05
    print(
        f"criterion 9 PASS: RL2E {rl2e_without:.4f} -> {rl2e_with:.4f} "
        f"({1 - rl2e_with / rl2e_without:.0%} reduction); "
        f"SRCC {srcc_without:.3f} -> {srcc_with:.3f}"
    )


def test_criterion_10_flat_minima_probe(bench) -> None:
    _, data = bench
    radii = [0.5, 1.0, 2.0, 5.0]
    replay_run = train_continual(probe_pairing_config(reparam=True), data)
    ablation = train_continual(probe_pairing_config(reparam=False), data)
    seed = probe_pairing_config().seed
    probe_a = flat_minima_probe(
        replay_run.model, data.sessions, 0.05, radii, SeededRng(derive_seed(seed, "probe")), draws=10
    )
    probe_b = flat_minima_probe(
        ablation.model, data.sessions, 0.05, radii, SeededRng(derive_seed(seed, "probe")), draws=10
    )
    assert probe_a["draws"] == 10 and probe_b["draws"] == 10
    largest = f"{radii[-1]:g}"
    wins = 0
    for session in data.sessions:
        da = probe_a["sessions"][session.name]["mean_delta"][largest]
        db = probe_b["sessions"][session.name]["mean_delta"][largest]
        wins += da <= db
    assert wins >= 3, f"flat-minima wins {wins}/5"
    print(f"criterion 10 PASS: mean-delta wins {wins}/5 at radius {largest} with 10 draws")


def test_criterion_11_determinism_and_formats(bench, continual_runs, tmp_path) -> None:
    manifest, data = bench
    replay_run, _, _ = continual_runs
    repeat = train_continual(benchmark_config(), data)
    assert report_text(repeat.report) == report_text(replay_run.report)

    feats = read_feature_file(
        manifest.parent / "features" / "session1_000.feat"
    )
    path = tmp_path / "echo.feat"
    write_feature_file(path, feats)
    assert np.array_equal(read_feature_file(path), feats)

    bank_path = tmp_path / "bank.bin"
    save_bank(replay_run.bank, bank_path)
    actual = bank_path.stat().st_size
    formula = 4 * replay_run.bank.num_floats()
    metadata = bank_file_size(replay_run.bank) - formula
    assert actual == formula + metadata
    loaded = load_bank(bank_path)
    for tag in replay_run.bank.sessions:
        for a, b in zip(replay_run.bank.sessions[tag], loaded.sessions[tag]):
            assert a.sample_id == b.sample_id
            assert np.array_equal(a.features, b.features)  # stored values are 32-bit
            assert b.score == float(np.float32(a.score))

    config = benchmark_config()
    ckpt = tmp_path / "run.ckpt"
    from scorealign.runner import _Counters

    c = replay_run.report.counters
    save_checkpoint(
        ckpt, config, replay_run.model, replay_run.bank, _Streams(config.seed), 5,
        _Counters(
            steps=c["steps"],
            degenerate_batches=c["degenerate_batches"],
            degenerate_replay_batches=c["degenerate_replay_batches"],
            dropped_singletons=c["dropped_singletons"],
        ),
        replay_run.loss_trace,
    )
    bundle = load_checkpoint(ckpt)
    assert bundle.config_digest == config_hash(config)
    for w, lw in zip(replay_run.model.head.weights, bundle.model.head.weights):
        assert np.array_equal(w, lw)
    assert bundle.loss_trace == replay_run.loss_trace
    print(
        f"criterion 11 PASS: byte-identical reports; feature/bank/checkpoint roundtrips; "
        f"bank bytes {actual} == 4*{replay_run.bank.num_floats()} + {metadata} metadata"
    )
