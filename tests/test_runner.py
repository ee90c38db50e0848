from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from scorealign import keyframe, memory, runner
from scorealign.data import LoadedData, ScoredSample, SessionData
from scorealign.head import batch_sample, batch_sample_backward, pool
from scorealign.losses import DegenerateBatchError, combined_loss, correlation_loss
from scorealign.numkit import (
    AdamState,
    MlpParams,
    SeededRng,
    adam_step,
    derive_seed,
    mlp_backward,
    mlp_forward,
    mlp_size,
)
from scorealign.runner import (
    CheckpointError,
    RunConfig,
    TrainingError,
    base_pretrain,
    evaluate,
    flat_minima_probe,
    init_model,
    load_checkpoint,
    model_param_dict,
    train_continual,
    train_joint,
)


FEAT_DIM = 6
FRAMES = 8


def _session(name: str, n: int, seed: int, w: np.ndarray | None = None, constant_score: float | None = None) -> SessionData:
    rng = np.random.default_rng(seed)
    if w is None:
        w = rng.normal(size=FEAT_DIM)
    samples = []
    for i in range(n):
        feats = rng.normal(size=(FRAMES, FEAT_DIM))
        score = constant_score if constant_score is not None else float(
            3.0 + w @ feats.mean(axis=0) + 0.05 * rng.normal()
        )
        samples.append(
            ScoredSample(
                sample_id=f"{name}_{i:03d}",
                features=feats,
                score=score,
                session=name,
            )
        )
    split = max(2, n // 5)
    return SessionData(name=name, train=samples[split:], test=samples[:split])


def _dataset(n_sessions: int = 2, n: int = 15, seed: int = 5, base: bool = False) -> LoadedData:
    rng = np.random.default_rng(seed)
    sessions = [
        _session(f"s{k + 1}", n, seed + k, w=rng.normal(size=FEAT_DIM)) for k in range(n_sessions)
    ]
    base_session = _session("Others", n, seed + 99, w=rng.normal(size=FEAT_DIM)) if base else None
    return LoadedData(base=base_session, sessions=sessions)


def _config(**overrides) -> RunConfig:
    base = dict(
        mode="continual",
        epochs=2,
        learning_rate=0.01,
        frames=FRAMES,
        hidden_sizes=(16, 8),
        seed=5,
    )
    base.update(overrides)
    return RunConfig(**base)


# --- reduction identities ---------------------------------------------------


def _literal_sequential_finetune(config: RunConfig, data: LoadedData, lam: float | None = None):
    """Independent reimplementation of sequential fine-tuning: current-data
    batches only, one Adam step each, no replay, no adapter."""
    lam = config.mse_weight if lam is None else lam
    model = init_model(FEAT_DIM, config)
    head = model.head
    params = {}
    for i, (w, b) in enumerate(zip(head.weights, head.biases)):
        params[f"head.w{i}"] = w
        params[f"head.b{i}"] = b
    adam = AdamState(lr=config.learning_rate, weight_decay=config.weight_decay)
    shuffle = SeededRng(derive_seed(config.seed, "shuffle"))
    noise = SeededRng(derive_seed(config.seed, "noise"))
    trace = []
    for session in data.sessions:
        pooled = pool(np.stack([s.features for s in session.train]))
        scores = np.array([s.score for s in session.train])
        n = len(session.train)
        for _ in range(config.epochs):
            order = shuffle.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                if idx.size < 2:
                    continue
                out, tape = mlp_forward(head, pooled[idx][None])
                eps = noise.normal(idx.size)
                scores_hat, sigma = batch_sample(out[0], eps)
                if lam == 0.0:
                    value, grad_s = correlation_loss(scores_hat, scores[idx])
                else:
                    value, grad_s = combined_loss(scores_hat, scores[idx], lam)
                trace.append(value)
                grad_out = batch_sample_backward(grad_s, eps, sigma)
                grads = MlpParams(np.empty_like(head.flat), head.sizes)
                mlp_backward(head, tape, grad_out[None], grads.flat)
                grad_dict = {}
                for i, (gw, gb) in enumerate(zip(grads.weights, grads.biases)):
                    grad_dict[f"head.w{i}"] = gw
                    grad_dict[f"head.b{i}"] = gb
                adam_step(adam, params, grad_dict)
    return trace, head


def test_continual_reduces_to_sequential_finetuning() -> None:
    data = _dataset(n_sessions=3, n=14)
    config = _config(replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0)
    result = train_continual(config, data)
    oracle_trace, oracle_head = _literal_sequential_finetune(config, data)
    assert len(result.loss_trace) == len(oracle_trace)
    assert np.max(np.abs(np.array(result.loss_trace) - np.array(oracle_trace))) < 1e-12
    for w, ow in zip(result.model.head.weights, oracle_head.weights):
        assert np.array_equal(w, ow)


def test_lambda_zero_trace_is_pure_correlation_loss() -> None:
    data = _dataset(n_sessions=2, n=12)
    config = _config(mse_weight=0.0, replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0)
    result = train_continual(config, data)
    oracle_trace, _ = _literal_sequential_finetune(config, data, lam=0.0)
    assert np.array_equal(np.array(result.loss_trace), np.array(oracle_trace))


def test_single_session_continual_equals_joint_without_reg() -> None:
    data = _dataset(n_sessions=1, n=15)
    config = _config(reg_weight=0.0)
    continual = train_continual(config, data)
    joint = train_joint(_config(mode="joint", reg_weight=0.0), data)
    assert continual.loss_trace == joint.loss_trace
    assert continual.report.pooled == joint.report.pooled


def test_keyframes_equal_frames_keeps_phi_identity() -> None:
    data = _dataset(n_sessions=2, n=12)
    config = _config(keyframes=FRAMES, exemplars_per_session=4)
    result = train_continual(config, data)
    for session in result.bank.sessions.values():
        assert session.features.shape[1:] == (FRAMES, FEAT_DIM)


# --- training behavior -------------------------------------------------------


def test_two_identical_runs_produce_identical_reports() -> None:
    from scorealign.data import report_text

    data = _dataset(n_sessions=2, n=14, base=True)
    a = train_continual(_config(), data)
    b = train_continual(_config(), data)
    assert report_text(a.report) == report_text(b.report)


def test_base_pretraining_beats_cold_init_on_base_split() -> None:
    data = _dataset(n_sessions=1, n=40, seed=11, base=True)
    config = _config(epochs=10)
    pretrained = base_pretrain(config, data.base)
    cold = init_model(FEAT_DIM, config)
    assert data.base is not None
    trained_eval = evaluate(pretrained, data.base.test, config.score_range)
    cold_eval = evaluate(cold, data.base.test, config.score_range)
    name = data.base.name
    assert trained_eval["sessions"][name]["srcc"] > cold_eval["sessions"][name]["srcc"]


def test_cold_start_without_base_is_tagged() -> None:
    data = _dataset(n_sessions=2, n=12, base=False)
    result = train_continual(_config(), data)
    assert any("cold start" in note for note in result.report.notes)


def test_exemplars_only_come_from_training_splits() -> None:
    data = _dataset(n_sessions=3, n=15)
    result = train_continual(_config(exemplars_per_session=4), data)
    train_ids = {s.sample_id for s in data.all_train()}
    test_ids = {s.sample_id for s in data.all_test()}
    bank_ids = set(result.bank.replay_pool().ids)
    assert bank_ids <= train_ids
    assert not (bank_ids & test_ids)


def test_session_quota_respected() -> None:
    data = _dataset(n_sessions=2, n=20)
    result = train_continual(_config(exemplars_per_session=3), data)
    for exemplars in result.bank.sessions.values():
        assert len(exemplars) <= 3


def test_degenerate_session_fails_loudly() -> None:
    healthy = _session("ok", 14, seed=0)
    constant = _session("flat", 14, seed=1, constant_score=3.0)
    data = LoadedData(base=None, sessions=[healthy, constant])
    with pytest.raises(TrainingError, match="degenerate"):
        train_continual(_config(replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0), data)


def test_all_degenerate_fails_loudly() -> None:
    constant = _session("flat", 12, seed=1, constant_score=3.0)
    data = LoadedData(base=None, sessions=[constant])
    with pytest.raises(TrainingError):
        train_continual(_config(replay_weight=0.0, reg_weight=0.0, exemplars_per_session=0), data)


def test_first_session_without_training_samples_fails_typed() -> None:
    data = _dataset(n_sessions=2, n=12)
    data.sessions[0].train.clear()
    with pytest.raises(TrainingError, match="s1.*no training samples"):
        train_continual(_config(), data)


def test_trailing_singleton_batches_are_dropped_not_fatal() -> None:
    # 10 train samples with b1 = 3 leaves a singleton every epoch
    session = _session("odd", 12, seed=3)
    session.train[:] = session.train[:10]
    data = LoadedData(base=None, sessions=[session])
    result = train_continual(_config(), data)
    assert result.report.counters["dropped_singletons"] == _config().epochs
    assert result.report.counters["steps"] == _config().epochs * 3


def test_a_lone_current_row_trains_with_its_replay_rows() -> None:
    # 9 and 10 train samples with b1 = 3: the second session ends on a lone
    # row, which joins the replay rows drawn from the first session's bank
    first, second = _session("s1", 11, seed=3), _session("s2", 12, seed=4)
    assert (len(first.train), len(second.train)) == (9, 10)
    epochs = _config().epochs
    counters = train_continual(_config(), LoadedData(base=None, sessions=[first, second])).report.counters
    assert (counters["steps"], counters["dropped_singletons"]) == (epochs * (3 + 4), 0)
    # without a bank the same session drops its lone row every epoch
    counters = train_continual(_config(), LoadedData(base=None, sessions=[second])).report.counters
    assert (counters["steps"], counters["dropped_singletons"]) == (epochs * 3, epochs)


def test_replay_counters_and_bank_accounting_in_report() -> None:
    from scorealign.memory import bank_file_size

    data = _dataset(n_sessions=3, n=15)
    result = train_continual(_config(), data)
    counters = result.report.counters
    assert set(counters) >= {"steps", "degenerate_batches", "dropped_singletons"}
    assert counters["steps"] > 0
    assert counters["bank_floats"] == result.bank.num_floats()
    assert counters["bank_bytes"] == bank_file_size(result.bank)


# --- evaluation ---------------------------------------------------------------


def test_evaluate_perfect_model_scores_one_and_zero() -> None:
    config = _config()
    model = init_model(FEAT_DIM, config)
    rng = np.random.default_rng(0)
    samples = []
    from scorealign.head import predict_eval

    for i in range(10):
        feats = rng.normal(size=(FRAMES, FEAT_DIM))
        samples.append(
            ScoredSample(
                sample_id=f"p{i}",
                features=feats,
                score=float(predict_eval(model.head, feats[None])[0]),
                session="s1",
            )
        )
    result = evaluate(model, samples, config.score_range)
    assert result["sessions"]["s1"]["srcc"] == pytest.approx(1.0, abs=1e-12)
    assert result["sessions"]["s1"]["rl2e"] == 0.0
    assert result["pooled"]["srcc_ove"] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_constant_predictor_marks_undefined() -> None:
    config = _config()
    model = init_model(FEAT_DIM, config)
    for w in model.head.weights:
        w[:] = 0.0
    rng = np.random.default_rng(1)
    samples = [
        ScoredSample(f"c{i}", rng.normal(size=(FRAMES, FEAT_DIM)), float(1.0 + i), "s1")
        for i in range(4)
    ]
    result = evaluate(model, samples, config.score_range)
    assert result["sessions"]["s1"]["srcc"] is None
    truths = np.array([1.0, 2.0, 3.0, 4.0])
    assert result["sessions"]["s1"]["rl2e"] == pytest.approx(float(np.mean((truths / 4.0) ** 2)))


def test_evaluate_groups_by_variant_tag() -> None:
    config = _config()
    model = init_model(FEAT_DIM, config)
    rng = np.random.default_rng(2)
    samples = [
        ScoredSample(
            f"v{i}",
            rng.normal(size=(FRAMES, FEAT_DIM)),
            float(1.0 + (i % 4)),
            session="s1",
            variant="7A" if i % 2 == 0 else "7B",
        )
        for i in range(8)
    ]
    result = evaluate(model, samples, config.score_range)
    assert set(result["variants"]) == {"7A", "7B"}
    assert result["variants"]["7A"]["n"] == 4


# --- flat-minima probe ---------------------------------------------------------


def test_probe_zero_radius_has_zero_delta() -> None:
    data = _dataset(n_sessions=2, n=12)
    result = train_continual(_config(), data)
    table = flat_minima_probe(
        result.model, data.sessions, 0.05, [0.0, 0.5], SeededRng(0), draws=10
    )
    assert table["draws"] == 10
    assert table["radii"] == ["0", "0.5"]
    for session in data.sessions:
        deltas = table["sessions"][session.name]["mean_delta"]
        assert deltas["0"] == 0.0
        assert np.isfinite(deltas["0.5"])
        assert np.isfinite(table["sessions"][session.name]["baseline_loss"])


def test_probe_is_deterministic_given_rng() -> None:
    data = _dataset(n_sessions=2, n=12)
    result = train_continual(_config(), data)
    a = flat_minima_probe(result.model, data.sessions, 0.05, [1.0], SeededRng(9), draws=10)
    b = flat_minima_probe(result.model, data.sessions, 0.05, [1.0], SeededRng(9), draws=10)
    assert a == b


@pytest.mark.parametrize(
    "radii, draws",
    [
        ([1.0], 0),
        ([1.0], -3),
        ([float("nan")], 10),
        ([0.5, float("inf")], 10),
        ([-np.inf], 10),
        ([1.0, 1], 10),
        ([5e-7, 5.0000001e-7], 10),
    ],
)
def test_probe_rejects_bad_draws_and_nonfinite_radii(radii, draws) -> None:
    data = _dataset(n_sessions=1, n=12)
    model = init_model(FEAT_DIM, _config())
    with pytest.raises(ValueError, match="draws|finite|distinct"):
        flat_minima_probe(model, data.sessions, 0.05, radii, SeededRng(0), draws=draws)


def test_probe_names_a_session_without_training_samples() -> None:
    data = _dataset(n_sessions=2, n=12)
    result = train_continual(_config(), data)
    data.sessions[1].test += data.sessions[1].train
    data.sessions[1].train = []
    with pytest.raises(TrainingError, match="session 's2' has no training samples"):
        flat_minima_probe(result.model, data.sessions, 0.05, [1.0], SeededRng(0), draws=10)


# per case: the distances from the trained head (0 is the trained head)
# at which a session's heads predict one score for all of its samples, the
# session and the head of the first error
_FLAT_PREDICTIONS = {
    "the trained head of a later session": ({4: {2.0}, 5: {0.0}}, "n5", "the trained head"),
    "the smaller radius of a later session": ({4: {2.0}, 5: {0.5}}, "n5", "radius 0.5"),
    "radius by radius": ({4: {1.0}, 6: {1.0, 0.5}}, "n6", "radius 0.5"),
    "the trained head before an empty session": ({4: {0.0, 1.0}}, "n4", "the trained head"),
    "an empty session before any radius": ({4: {0.5}, 5: {0.5}}, "empty", None),
}


@pytest.mark.parametrize("case", list(_FLAT_PREDICTIONS))
def test_probe_raises_the_first_undefined_loss_in_session_then_radius_order(case, monkeypatch) -> None:
    """The trained heads of all sessions come first, in session order; then
    the perturbed heads, radius by radius, each radius in session order. A
    session without training samples is named when the loop reaches it."""
    flat_at, name, head = _FLAT_PREDICTIONS[case]
    rng = np.random.default_rng(5)
    model = init_model(FEAT_DIM, _config())
    model.head.flat[:] += rng.normal(size=model.head.flat.size) * 0.3
    sessions = []
    for n in (4, 5, 6):
        samples = [
            ScoredSample(f"n{n}_{i}", rng.normal(size=(FRAMES, FEAT_DIM)), float(rng.uniform(1, 5)), f"n{n}")
            for i in range(n)
        ]
        sessions.append(SessionData(f"n{n}", samples, []))
    if name == "empty":
        sessions.insert(1, SessionData("empty", [], []))
    trained = model.head.flat.copy()
    real_forward = runner.mlp_forward

    def forward(params: MlpParams, x: np.ndarray):
        out, tape = real_forward(params, x)
        distances = np.sqrt(((np.atleast_2d(params.flat) - trained) ** 2).sum(axis=1))
        for row, distance in enumerate(distances):
            if any(abs(distance - r) < 1e-9 for r in flat_at.get(x.shape[1], ())):
                out[row, :, 0] = 3.0
        return out, tape

    monkeypatch.setattr(runner, "mlp_forward", forward)
    # several stacks per radius
    monkeypatch.setattr(runner, "_PROBE_STACK_ROWS", 8)
    with pytest.raises(TrainingError) as err:
        flat_minima_probe(model, sessions, 0.05, [0.5, 1.0, 2.0], SeededRng(3), draws=3)
    if head is None:
        assert str(err.value) == f"session '{name}' has no training samples"
    else:
        truth = np.array([s.score for s in next(x for x in sessions if x.name == name).train])
        spread = truth - truth.mean()
        at = "the trained head" if head == "the trained head" else f"a head perturbed by {head}"
        assert str(err.value) == (
            f"session '{name}': training loss undefined at {at}: variance below 1e-12 "
            f"(pred 0.000e+00, truth {float(spread @ spread) / truth.size:.3e})"
        )
    assert np.array_equal(model.head.flat, trained)


def test_probe_names_the_first_undefined_heads_own_pred_variance(monkeypatch) -> None:
    """Two heads of one radius predict all but constant scores, the first
    with the wider spread: the error names the first head's pred variance,
    not the least over the radius."""
    rng = np.random.default_rng(8)
    model = init_model(FEAT_DIM, _config())
    model.head.flat[:] += rng.normal(size=model.head.flat.size) * 0.3
    samples = [
        ScoredSample(f"a_{i}", rng.normal(size=(FRAMES, FEAT_DIM)), float(rng.uniform(1, 5)), "a")
        for i in range(6)
    ]
    trained = model.head.flat.copy()
    real_forward = runner.mlp_forward
    flat = []  # the predictions written for each undefined head, in head order

    def forward(params: MlpParams, x: np.ndarray):
        out, tape = real_forward(params, x)
        distances = np.sqrt(((np.atleast_2d(params.flat) - trained) ** 2).sum(axis=1))
        for row in np.flatnonzero(np.abs(distances - 1.0) < 1e-9)[: 2 - len(flat)]:
            out[row, :, 0] = 3.0 + np.resize([1.0, -1.0], x.shape[1]) * (1e-8 if flat else 1e-7)
            flat.append(out[row, :, 0].copy())
        return out, tape

    monkeypatch.setattr(runner, "mlp_forward", forward)
    with pytest.raises(TrainingError) as err:
        # every head in one stack
        flat_minima_probe(model, [SessionData("a", samples, [])], 0.05, [0.5, 1.0], SeededRng(3), draws=3)
    assert len(flat) == 2
    truth = np.array([s.score for s in samples])
    with pytest.raises(DegenerateBatchError) as first:
        combined_loss(flat[0], truth, 0.05)
    assert "pred 1.000e-14" in str(first.value)
    assert str(err.value) == (
        f"session 'a': training loss undefined at a head perturbed by radius 1: {first.value}"
    )


@pytest.mark.filterwarnings("error")
def test_probe_treats_a_non_finite_loss_as_undefined() -> None:
    data = _dataset(n_sessions=2, n=12)
    result = train_continual(_config(), data)
    with pytest.raises(TrainingError) as err:
        flat_minima_probe(result.model, data.sessions, 0.05, [1.0, 1e300], SeededRng(0), draws=10)
    assert str(err.value).startswith(
        "session 's1': training loss undefined at a head perturbed by radius 1e+300: "
    )


def test_probe_mean_increase_is_finite_where_its_sum_overflows(monkeypatch) -> None:
    data = _dataset(n_sessions=1, n=12)
    model = init_model(FEAT_DIM, _config())
    monkeypatch.setattr(
        runner, "combined_loss_values", lambda preds, scores, lam: np.r_[1.0, np.full(len(preds) - 1, 1e308)]
    )
    table = flat_minima_probe(model, data.sessions, 0.05, [1.0], SeededRng(0), draws=4)
    # four increases of 1e308 - 1.0 sum past the float range
    assert table["sessions"]["s1"]["mean_delta"] == {"1": 1e308 - 1.0}
    json.dumps(table, allow_nan=False)


# --- checkpointing ---------------------------------------------------------------


def test_checkpoint_roundtrip_preserves_state(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=14, base=True)
    config = _config()
    path = tmp_path / "run.ckpt"
    result = train_continual(config, data, checkpoint_path=path)
    bundle = load_checkpoint(path)
    assert bundle.completed_sessions == ["s1", "s2"]
    assert bundle.config == config
    for w, lw in zip(result.model.head.weights, bundle.model.head.weights):
        assert np.array_equal(w, lw)
    assert np.array_equal(result.model.adapter.mixing_logits, bundle.model.adapter.mixing_logits)
    assert set(bundle.bank.sessions) == set(result.bank.sessions)
    for tag in result.bank.sessions:
        for a, b in zip(result.bank.sessions[tag], bundle.bank.sessions[tag]):
            assert a.sample_id == b.sample_id
            assert a.score == b.score
            assert np.array_equal(a.features, b.features)
    assert bundle.loss_trace.dtype == np.float64
    assert np.array_equal(bundle.loss_trace, result.loss_trace)


def test_continual_run_without_test_samples_fails_before_training(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=12)
    for session in data.sessions:
        session.train += session.test
        session.test = []
    path = tmp_path / "run.ckpt"
    with pytest.raises(TrainingError, match="nonempty test split"):
        train_continual(_config(), data, checkpoint_path=path)
    assert not path.exists()


def test_continual_run_with_an_empty_later_split_fails_before_training(tmp_path) -> None:
    data = _dataset(n_sessions=3, n=12, base=True)
    data.sessions[2].test += data.sessions[2].train
    data.sessions[2].train = []
    path = tmp_path / "run.ckpt"
    with pytest.raises(TrainingError) as err:
        train_continual(_config(), data, checkpoint_path=path)
    assert str(err.value) == "session 's3' has no training samples"
    assert not path.exists()
    # a resumed run checks the sessions it has left to train
    prefix = LoadedData(base=data.base, sessions=data.sessions[:2])
    train_continual(_config(), prefix, checkpoint_path=path)
    with pytest.raises(TrainingError, match="session 's3' has no training samples"):
        train_continual(_config(), data, checkpoint_path=tmp_path / "resumed.ckpt", resume_from=path)
    assert not (tmp_path / "resumed.ckpt").exists()


def test_resume_matches_straight_run(tmp_path) -> None:
    from scorealign.data import report_text

    data = _dataset(n_sessions=3, n=14, base=True)
    config = _config()
    straight = train_continual(config, data)

    prefix = LoadedData(base=data.base, sessions=data.sessions[:2])
    path = tmp_path / "partial.ckpt"
    train_continual(config, prefix, checkpoint_path=path)
    resumed = train_continual(config, data, resume_from=path)
    assert report_text(resumed.report) != ""
    assert resumed.loss_trace == straight.loss_trace
    for w, sw in zip(resumed.model.head.weights, straight.model.head.weights):
        assert np.array_equal(w, sw)
    assert resumed.report.pooled == straight.report.pooled


def test_resume_rejects_mismatched_config(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=14)
    path = tmp_path / "cfg.ckpt"
    train_continual(_config(), data, checkpoint_path=path)
    with pytest.raises(CheckpointError, match="different configuration: seed differ"):
        train_continual(_config(seed=6), data, resume_from=path)
    with pytest.raises(CheckpointError, match="different configuration: epochs, learning_rate differ"):
        train_continual(_config(epochs=3, learning_rate=0.02), data, resume_from=path)


def test_resume_rejects_a_bank_of_other_sessions_than_it_completed(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=14)
    path = tmp_path / "run.ckpt"
    run = train_continual(_config(), data)
    runner.save_checkpoint(
        path, _config(), run.model, run.bank, runner._Streams(0), ["s1"], runner._Counters(), run.loss_trace
    )
    with pytest.raises(CheckpointError, match="the checkpoint's bank holds sessions s1, s2, not those it completed"):
        train_continual(_config(), data, resume_from=path)


def test_resume_past_the_manifest_end_is_rejected(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=14)
    path = tmp_path / "done.ckpt"
    done = train_continual(_config(), data, checkpoint_path=path)
    shorter = LoadedData(base=data.base, sessions=data.sessions[:1])
    with pytest.raises(CheckpointError, match="incompatible resume request"):
        train_continual(_config(), shorter, resume_from=path)
    # a finished run resumed on its own sessions only re-evaluates
    again = train_continual(_config(), data, resume_from=path)
    assert again.report.pooled == done.report.pooled
    assert again.loss_trace == done.loss_trace


def test_checkpoint_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_header_nested_too_deep_is_rejected(tmp_path) -> None:
    text = b"[" * 200_000 + b"]" * 200_000
    path = tmp_path / "deep.ckpt"
    path.write_bytes(
        runner.CHECKPOINT_MAGIC + struct.pack("<IQ", runner.CHECKPOINT_VERSION, len(text)) + text
    )
    with pytest.raises(CheckpointError, match="RecursionError"):
        load_checkpoint(path)


def _split_checkpoint(path) -> tuple[bytes, dict, int]:
    """A checkpoint's bytes, its JSON header and the offset of the arrays."""
    raw = path.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 12)[0]
    return raw, json.loads(raw[20 : 20 + header_len]), 20 + header_len


def _with_header(raw: bytes, header: dict, payload_at: int) -> bytes:
    text = json.dumps(header).encode()
    return raw[:12] + struct.pack("<Q", len(text)) + text + raw[payload_at:]


def _payload_arrays(header: dict) -> list[tuple[str, int]]:
    """The float64 arrays after a checkpoint's header, in file order, with
    their lengths: the layouts its config and feature dimension give."""
    config, d = header["config"], header["feat_dim"]
    lengths = {
        "head": mlp_size([d, *config["hidden_sizes"], 2]),
        "adapter": config["frames"] * config["keyframes"] + mlp_size([d, config["adapter_hidden"], d]),
    }
    moments = [(f"adam.{x}:{name}", lengths[name]) for name in sorted(header["adam_steps"]) for x in "mv"]
    return [*lengths.items(), *moments, ("trace", header["trace_length"])]


def _table_at(header: dict, payload_at: int) -> int:
    """The offset of the session table, which follows the arrays."""
    return payload_at + 8 * sum(count for _, count in _payload_arrays(header))


def test_checkpoint_header_holds_the_config_and_what_it_cannot_give(tmp_path) -> None:
    config = _config()
    path = tmp_path / "run.ckpt"
    run = train_continual(config, _dataset(n_sessions=2, n=12, base=True), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    assert set(header) == {
        "config", "feat_dim", "completed_sessions", "adam_steps", "counters", "rng", "trace_length"
    }
    assert header["config"] == config.to_dict()
    assert header["feat_dim"] == FEAT_DIM
    assert header["trace_length"] == len(run.loss_trace)
    assert header["adam_steps"] == run.model.adam.t
    assert len(raw) - _table_at(header, payload_at) == len(memory.encode_sessions(run.bank, "<f8"))
    bundle = load_checkpoint(path)
    assert bundle.model.head.sizes == (FEAT_DIM, 16, 8, 2)
    adapter = bundle.model.adapter
    assert (adapter.t_frames, adapter.k_frames, adapter.mlp_sizes) == (FRAMES, 3, (FEAT_DIM, 32, FEAT_DIM))
    assert (bundle.model.adam.lr, bundle.model.adam.weight_decay) == (0.01, 5e-4)


def test_save_checkpoint_rejects_a_model_its_config_does_not_give(tmp_path) -> None:
    result = train_continual(_config(), _dataset(n_sessions=1, n=12))
    path = tmp_path / "run.ckpt"
    # frames 12 x keyframes 2 holds as many mixing logits as the model's 8 x 3
    for other in (_config(frames=12, keyframes=2), _config(hidden_sizes=(16,)), _config(adapter_hidden=8)):
        with pytest.raises(ValueError, match="the model's layout is not the one its config gives"):
            runner.save_checkpoint(
                path, other, result.model, result.bank, runner._Streams(5), 1,
                runner._Counters(), result.loss_trace,
            )
    assert not path.exists()


def test_save_checkpoint_refuses_completed_sessions_its_loader_refuses(tmp_path) -> None:
    result = train_continual(_config(), _dataset(n_sessions=1, n=12))
    path = tmp_path / "run.ckpt"

    def save(completed) -> None:
        runner.save_checkpoint(
            path, _config(), result.model, result.bank, runner._Streams(5), completed,
            runner._Counters(), result.loss_trace,
        )

    bad = (5, "session1", [1, 2], None)
    for completed in bad:
        with pytest.raises(CheckpointError, match="completed_sessions must be a list of session names"):
            save(completed)
        assert not path.exists()
    save(["s1"])
    written = path.read_bytes()
    for completed in bad:
        with pytest.raises(CheckpointError, match="completed_sessions must be a list of session names"):
            save(completed)
        assert path.read_bytes() == written
    assert load_checkpoint(path).completed_sessions == ["s1"]


def test_run_config_rejects_layout_sizes_below_one() -> None:
    for overrides, match in (
        ({"hidden_sizes": (0,)}, "hidden_sizes and adapter_hidden must be positive integers"),
        ({"hidden_sizes": (16, -8)}, "hidden_sizes and adapter_hidden must be positive integers"),
        ({"hidden_sizes": (16.0,)}, "hidden_sizes and adapter_hidden must be positive integers"),
        ({"adapter_hidden": 0}, "hidden_sizes and adapter_hidden must be positive integers"),
        ({"adapter_hidden": True}, "hidden_sizes and adapter_hidden must be positive integers"),
        ({"score_range": (1.0, 3.0, 5.0)}, "score range must be a pair"),
        # a lone replay row joins the current rows' correlation; no row replays nothing
        ({"replay_batch_size": 0}, "replay_batch_size >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            _config(**overrides)
    assert _config(hidden_sizes=(), adapter_hidden=1).hidden_sizes == ()


@pytest.mark.parametrize("mode", ["Continual", "sequential", "", None])
def test_run_config_rejects_an_unknown_mode(mode) -> None:
    with pytest.raises(ValueError, match="mode must be 'continual' or 'joint'"):
        _config(mode=mode)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 2.5), ("epochs", 2.0), ("exemplars_per_session", 2.0), ("batch_size", 3.0),
     ("replay_batch_size", True), ("keyframes", np.int64(3)), ("frames", 8.0),
     ("max_train_per_session", 50.0), ("seed", 5.0)],
)
def test_run_config_rejects_a_count_that_is_not_an_int(field, value) -> None:
    with pytest.raises(ValueError, match=f"integer fields must be ints, got {field}="):
        _config(**{field: value})


@pytest.mark.parametrize(
    "overrides, match",
    [({"mse_weight": True}, "float fields must be numbers, not bools, got mse_weight=True"),
     ({"learning_rate": True}, "float fields must be numbers, not bools, got learning_rate=True"),
     ({"score_range": (True, 5.0)}, "float fields must be numbers, not bools, got score_range=True"),
     ({"reparam": "no"}, "reparam must be a bool, got 'no'"),
     ({"reparam": 0}, "reparam must be a bool, got 0"),
     ({"reparam": np.True_}, "reparam must be a bool, got ")],
)
def test_run_config_refuses_a_value_no_checkpoint_loads(overrides, match) -> None:
    """Each of these would train and save a checkpoint that load_checkpoint
    refuses; "no" would also train with reparameterization."""
    with pytest.raises(ValueError, match=match):
        _config(**overrides)


def test_run_config_of_numpy_floats_round_trips_through_a_checkpoint(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    config = _config(
        mse_weight=np.float64(0.05), learning_rate=np.float64(0.01), score_range=(np.float64(1.0), 5.0)
    )
    train_continual(config, _dataset(n_sessions=1, n=12), checkpoint_path=path)
    assert load_checkpoint(path).config == config


def test_each_training_mode_refuses_a_config_of_the_other() -> None:
    data = _dataset(n_sessions=1, n=12)
    with pytest.raises(ValueError, match="train_continual needs a continual config, got mode 'joint'"):
        train_continual(_config(mode="joint"), data)
    with pytest.raises(ValueError, match="train_joint needs a joint config, got mode 'continual'"):
        train_joint(_config(mode="continual"), data)


def test_checkpoint_rejects_version_one_and_missing_header_keys(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    old = tmp_path / "old.ckpt"
    # version 4 held the per-exemplar session table, version 5 a count of
    # completed sessions, version 6 a run trained with a separate replay loss
    for version in (1, 2, 3, 4, 5, 6):
        old.write_bytes(raw[:8] + struct.pack("<I", version) + raw[12:])
        with pytest.raises(CheckpointError, match=f"unsupported version {version}"):
            load_checkpoint(old)
    for key in header:
        path.write_bytes(_with_header(raw, {k: v for k, v in header.items() if k != key}, payload_at))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)


def test_checkpoint_rejects_malformed_rng_states(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    for stream, key, value in (
        ("noise", None, None),  # the stream is missing
        ("shuffle", "bit_generator", "MT19937"),
        ("replay", "state", {"state": 1}),
        ("replay", "uinteger", -1),
        ("noise", "has_uint32", "yes"),
    ):
        bad = json.loads(json.dumps(header))
        if key is None:
            del bad["rng"][stream]
        else:
            bad["rng"][stream][key] = value
        path.write_bytes(_with_header(raw, bad, payload_at))
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(path)


def test_checkpoint_rejects_mistyped_header_scalars(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    missing = object()
    for keys, value, match in (
        (("completed_sessions",), 1, "completed_sessions must be a list of session names, got 1"),
        (("completed_sessions",), "s1", "completed_sessions must be a list of session names"),
        (("completed_sessions",), ["s1", 2], "completed_sessions must be a list of session names"),
        (("completed_sessions",), [None], "completed_sessions must be a list of session names"),
        (("counters", "steps"), "x", "counter 'steps' must be a non-negative integer"),
        (("counters", "dropped_singletons"), -2, "counter 'dropped_singletons'"),
        (("counters", "steps"), missing, "counters must be exactly"),
        (("counters", "restarts"), 0, "counters must be exactly"),
        (("adam_steps", "head"), 2.0, "adam step count 'head'"),
        (("adam_steps", "adapter"), False, "adam step count 'adapter'"),
        (("adam_steps", "extra"), 0, "malformed checkpoint .*KeyError: 'extra'"),
        (("feat_dim",), 6.0, "feat_dim must be a non-negative integer"),
        (("feat_dim",), -1, "feat_dim must be a non-negative integer"),
        (("feat_dim",), 0, "feat_dim must be at least 1"),
        (("trace_length",), "7", "trace_length must be a non-negative integer"),
        (("trace_length",), -1, "trace_length must be a non-negative integer"),
        (("trace_length",), True, "trace_length must be a non-negative integer"),
    ):
        bad = json.loads(json.dumps(header))
        node = bad
        for key in keys[:-1]:
            node = node[key]
        if value is missing:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        path.write_bytes(_with_header(raw, bad, payload_at))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)


def test_checkpoint_rejects_a_stored_config_run_config_would_not_hold(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    missing = object()
    for key, value, match in (
        ("epochs", missing, r"fields: missing \['epochs'\], unknown \[\]"),
        ("momentum", 0.9, r"fields: missing \[\], unknown \['momentum'\]"),
        # values RunConfig rejects
        ("keyframes", FRAMES + 1, "config is invalid: need 1 <= keyframes <= frames"),
        ("hidden_sizes", [16, 0], "config is invalid: hidden_sizes and adapter_hidden must be"),
        ("adapter_hidden", 0, "config is invalid: hidden_sizes and adapter_hidden must be"),
        ("score_range", [1.0], "config is invalid: score range must be a pair"),
        ("test_ratio", 1.5, "config is invalid: test ratio"),
        # types to_dict never writes
        ("frames", 8.0, "config field 'frames' has the wrong type: 8.0"),
        ("epochs", True, "config field 'epochs' has the wrong type: True"),
        ("learning_rate", "0.01", "config field 'learning_rate' has the wrong type: '0.01'"),
        ("reparam", 1, "config field 'reparam' has the wrong type: 1"),
        ("mode", None, "config field 'mode' has the wrong type: None"),
        ("hidden_sizes", [16.0, 8], r"config field 'hidden_sizes' has the wrong type: \[16.0, 8\]"),
        ("score_range", "1,5", "config field 'score_range' has the wrong type: '1,5'"),
        ("score_range", [1.0, False], "config field 'score_range' has the wrong type"),
    ):
        bad = json.loads(json.dumps(header))
        if value is missing:
            del bad["config"][key]
        else:
            bad["config"][key] = value
        path.write_bytes(_with_header(raw, bad, payload_at))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
    path.write_bytes(_with_header(raw, {**header, "config": [1]}, payload_at))
    with pytest.raises(CheckpointError, match="malformed checkpoint .*AttributeError"):
        load_checkpoint(path)
    # an int where to_dict wrote a float is the same number
    path.write_bytes(_with_header(raw, {**header, "config": {**header["config"], "mse_weight": 0}}, payload_at))
    assert load_checkpoint(path).config == _config(mse_weight=0.0)


def test_checkpoint_reports_an_array_fault_before_a_later_table_fault(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    table_at = _table_at(header, payload_at)
    (n_sessions,) = struct.unpack_from("<I", raw, table_at)
    cut = raw[:-3]
    one_more_session = bytearray(raw)
    struct.pack_into("<I", one_more_session, table_at, n_sessions + 1)
    nan_at = payload_at + 8  # head[1]
    for table_fault, match in (
        (cut, "truncated exemplar"),
        (bytes(one_more_session), "truncated session tag"),
    ):
        path.write_bytes(table_fault)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        # arrays and table decode as one block, yet the earlier fault wins
        corrupt = bytearray(table_fault)
        corrupt[nan_at : nan_at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(corrupt))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"non-finite value in array 'head' at flat index 1 (byte offset {nan_at})"
        )
        assert err.value.offset == nan_at


def test_checkpoint_rejects_nonfinite_arrays_with_offset(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)

    def rejects(at: int, value: float, what: str) -> None:
        corrupt = bytearray(raw)
        corrupt[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(corrupt))
        with pytest.raises(CheckpointError, match=f"non-finite.*{what}.*offset {at}") as err:
            load_checkpoint(path)
        assert err.value.offset == at

    offset = payload_at  # the arrays follow the header
    for i, (name, count) in enumerate(_payload_arrays(header)):
        rejects(offset + 8 * (count - 1), [np.nan, np.inf][i % 2], f"'{name}'")
        offset += 8 * count
    # then the bank's session table: per session its tag, count, K and D,
    # the id lengths, the ids, then each exemplar's score and K x D values
    (n_sessions,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    exemplars = 0
    for _ in range(n_sessions):
        offset += 4 + struct.unpack_from("<I", raw, offset)[0]
        count, k, d = struct.unpack_from("<III", raw, offset)
        offset += 12
        ids = []
        for id_len in struct.unpack_from(f"<{count}I", raw, offset):
            ids.append(raw[offset + 4 * count : offset + 4 * count + id_len].decode())
            offset += id_len
        offset += 4 * count
        for j, sample_id in enumerate(ids):
            col = k * d if j % 2 else 0
            rejects(offset + 8 * col, np.nan, f"exemplar '{sample_id}' at flat index {col}")
            offset += 8 * (1 + k * d)
            exemplars += 1
    assert exemplars > 0
    assert offset == len(raw)
    header["config"]["learning_rate"] = float("inf")
    path.write_bytes(_with_header(raw, header, payload_at))
    with pytest.raises(CheckpointError, match="non-finite number Infinity"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "count, k, d, match",
    [
        (0, 3, FEAT_DIM, "session 's1' has no exemplars"),
        (2, 0, FEAT_DIM, r"session 's1' has empty exemplar shape \(0, 6\)"),
        (2, 3, 0, r"session 's1' has empty exemplar shape \(3, 0\)"),
    ],
)
def test_checkpoint_rejects_sessions_encode_never_writes(tmp_path, count, k, d, match) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    table_at = _table_at(header, payload_at)
    table = struct.pack("<I", 1) + struct.pack("<I", 2) + b"s1" + struct.pack("<III", count, k, d)
    table += struct.pack("<I", 6) * count + b"".join(f"s1_{j:03d}".encode() for j in range(count))
    table += np.zeros(count * (1 + k * d)).tobytes()
    path.write_bytes(raw[:table_at] + table)
    shape_at = table_at + 4 + (4 + 2)  # session count, tag "s1"
    with pytest.raises(CheckpointError, match=f"{match}.*offset {shape_at}") as err:
        load_checkpoint(path)
    assert err.value.offset == shape_at


def _table_regions(raw: bytes, at: int, width: int) -> dict[str, list[int]]:
    """Byte positions in the session table at `at`: every byte of the id
    length columns, of the ids and of the runs, and the start of every
    float in the runs."""
    regions: dict[str, list[int]] = {"lengths": [], "ids": [], "runs": [], "floats": []}
    (n_sessions,) = struct.unpack_from("<I", raw, at)
    at += 4
    for _ in range(n_sessions):
        at += 4 + struct.unpack_from("<I", raw, at)[0]
        count, k, d = struct.unpack_from("<III", raw, at)
        at += 12
        id_bytes = sum(struct.unpack_from(f"<{count}I", raw, at))
        run_bytes = width * count * (1 + k * d)
        regions["lengths"] += range(at, at + 4 * count)
        regions["ids"] += range(at + 4 * count, at + 4 * count + id_bytes)
        at += 4 * count + id_bytes
        regions["runs"] += range(at, at + run_bytes)
        regions["floats"] += range(at, at + run_bytes, width)
        at += run_bytes
    assert at == len(raw)
    return regions


def _table_mutant(rng: np.random.Generator, raw: bytes, regions: dict, width: int) -> tuple[bytes, set]:
    """raw with one to three faults: byte flips in the id lengths, the ids
    or the runs, a NaN or infinity in the runs, or a cut; and their kinds."""
    out, kinds = bytearray(raw), set()
    for _ in range(int(rng.integers(1, 4))):
        kind = ("cut", "lengths", "ids", "runs", "floats")[int(rng.integers(0, 5))]
        kinds.add(kind)
        if kind == "cut":
            del out[int(rng.integers(0, len(out))) :]
            break
        at = regions[kind][int(rng.integers(0, len(regions[kind])))]
        if kind == "floats":
            out[at : at + width] = np.array(rng.choice([np.nan, np.inf, -np.inf]), dtype=f"<f{width}").tobytes()
        else:
            out[at] ^= 1 << int(rng.integers(0, 8))
    return bytes(out), kinds


def test_mutated_banks_and_checkpoints_load_finite_or_raise_their_error(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    run = train_continual(_config(), _dataset(n_sessions=2, n=12), checkpoint_path=path)
    raw_ckpt, header, payload_at = _split_checkpoint(path)
    memory.save_bank(run.bank, tmp_path / "bank.bin")
    raw_bank = (tmp_path / "bank.bin").read_bytes()
    rng = np.random.default_rng(15)
    for raw, table_at, width, load, error in (
        (raw_bank, 12, 4, memory.load_bank, memory.BankError),
        (raw_ckpt, _table_at(header, payload_at), 8, load_checkpoint, CheckpointError),
    ):
        regions = _table_regions(raw, table_at, width)
        loaded, rejected, kinds = 0, 0, set()
        for case in range(200):
            mutant, mutated = _table_mutant(rng, raw, regions, width)
            kinds |= mutated
            path.write_bytes(mutant)
            try:
                back = load(path)
            except error:
                rejected += 1
                continue
            # no other exception type escapes the loader
            loaded += 1
            bank = back if error is memory.BankError else back.bank
            if error is CheckpointError:
                assert np.isfinite(back.model.head.flat).all() and np.isfinite(back.loss_trace).all()
            for exemplars in bank.sessions.values():
                for e in exemplars:
                    assert np.isfinite(e.features).all() and np.isfinite(e.score), case
        assert kinds == {"cut", "lengths", "ids", "runs", "floats"}
        assert loaded > 10 and rejected > 100, (loaded, rejected)


def test_model_initialized_once_per_run(monkeypatch) -> None:
    calls = []

    def counted(*args):
        calls.append(args)
        return init_model(*args)

    monkeypatch.setattr(runner, "init_model", counted)
    warm = train_continual(_config(), _dataset(n_sessions=1, n=12, base=True))
    assert len(calls) == 1
    cold = train_continual(_config(), _dataset(n_sessions=1, n=12))
    assert len(calls) == 2
    assert warm.report.notes == [] and cold.report.notes[0].startswith("cold start")


# --- oracle floor on easy synthetic data -----------------------------------------


def test_joint_training_reaches_oracle_floor_on_easy_data(tmp_path) -> None:
    from scorealign.data import SynthSpec, generate_synthetic, load_manifest

    spec = SynthSpec(sessions=2, samples_per_session=40, drift=0.0, noise_std=0.0, seed=3)
    manifest = generate_synthetic(spec, tmp_path)
    config = RunConfig(mode="joint", epochs=40, learning_rate=0.0075, seed=3)
    data = load_manifest(
        manifest,
        frames=config.frames,
        score_range=config.score_range,
        seed=config.seed,
        test_ratio=config.test_ratio,
        max_train=config.max_train_per_session,
    )
    result = train_joint(config, data)
    assert result.report.pooled["srcc_ove"] > 0.95


def test_joint_training_beats_point_nine_srcc_in_fifteen_epochs(tmp_path) -> None:
    from scorealign.data import SynthSpec, generate_synthetic, load_manifest

    spec = SynthSpec(sessions=2, samples_per_session=40, drift=0.0, noise_std=0.05, seed=3)
    manifest = generate_synthetic(spec, tmp_path)
    config = RunConfig(mode="joint", epochs=15, learning_rate=0.0075, seed=3)
    data = load_manifest(
        manifest,
        frames=config.frames,
        score_range=config.score_range,
        seed=config.seed,
        test_ratio=config.test_ratio,
        max_train=config.max_train_per_session,
    )
    result = train_joint(config, data)
    assert result.report.pooled["srcc_ove"] > 0.9


def test_param_blocks_alias_model_weights() -> None:
    model = init_model(FEAT_DIM, _config())
    blocks = model_param_dict(model)
    assert set(blocks) == {"head", "adapter"}
    head = [*model.head.weights, *model.head.biases]
    adapter = [model.adapter.mixing_logits, *model.adapter.mlp.weights, *model.adapter.mlp.biases]
    assert blocks["head"].size == sum(a.size for a in head)
    assert blocks["adapter"].size == sum(a.size for a in adapter)
    blocks["head"][:] = 1.0
    blocks["adapter"][:] = 2.0
    assert all(np.all(a == 1.0) for a in head)
    assert all(np.all(a == 2.0) for a in adapter)


def test_adam_step_contract_one_call_per_step_on_two_blocks(monkeypatch) -> None:
    # perfbench stamps training steps by wrapping runner's adam_step binding
    calls = []
    original = runner.adam_step

    def recording(*args, **kwargs):
        calls.append((args, kwargs, set(args[2])))
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "adam_step", recording)
    data = _dataset(n_sessions=2, n=14, base=True)
    config = _config()
    result = train_continual(config, data)
    n_base = len(data.base.train)
    base_steps = config.epochs * (n_base // config.batch_size + (n_base % config.batch_size >= 2))
    assert len(calls) == base_steps + result.report.counters["steps"]
    for args, kwargs, blocks in calls:
        assert len(args) == 3 and not kwargs
        assert isinstance(args[0], AdamState)
        assert set(args[1]) == {"head", "adapter"}
        assert "head" in blocks
        assert blocks <= {"head", "adapter"}
    assert all(blocks == {"head"} for _, _, blocks in calls[:base_steps])
    adapter_steps = sum("adapter" in blocks for _, _, blocks in calls)
    assert 0 < adapter_steps == result.model.adam.t["adapter"]


def _replay_step_adapter_gradient(monkeypatch, bank_scores: list[float]) -> np.ndarray:
    """The adapter gradient one step with replay reaches adam_step with,
    its loss a correlation only (no MSE term, no regularizer), replaying
    from one stored session of the given scores."""
    steps = []
    monkeypatch.setattr(runner, "adam_step", lambda state, params, grads: steps.append(grads))
    config = _config(epochs=1, replay_batch_size=2, mse_weight=0.0, reg_weight=0.0)
    session = _session("s2", 5, seed=3)
    model = init_model(FEAT_DIM, config)
    rng = np.random.default_rng(4)
    count = len(bank_scores)
    bank = memory.MemoryBank()
    bank.sessions["s1"] = memory.Session(
        [f"e{i}" for i in range(count)], np.array(bank_scores), rng.normal(size=(count, config.keyframes, FEAT_DIM))
    )
    samples = session.train[: config.batch_size]
    runner._train_on_samples(model, samples, config, runner._Streams(0), bank, runner._Counters(), [])
    assert len(steps) == 1
    return steps[0]["adapter"]


def test_two_replay_rows_train_the_adapter_through_the_correlation(monkeypatch) -> None:
    # a 2-row correlation is always +-1, so scored as its own batch it
    # gives the replay rows, and the adapter behind them, a zero gradient
    assert np.abs(_replay_step_adapter_gradient(monkeypatch, [1.5, 3.0, 4.5])).max() > 1e-6


def test_a_lone_replay_row_trains_the_adapter(monkeypatch) -> None:
    # a pool of one exemplar replays one row, which joins the current rows'
    # correlation batch like any other
    assert np.abs(_replay_step_adapter_gradient(monkeypatch, [3.0])).max() > 1e-6


def _count_selections(monkeypatch, config: RunConfig, data: LoadedData):
    """Run train_continual with every key-frame selection counted, both at
    the selector and at the two call sites that compress samples: calls,
    and samples selected (the rows of a stack, 1 for a single matrix)."""
    counts = {key: {"calls": 0, "rows": 0} for key in ("select", "runner", "memory")}

    def counting(fn, key):
        def wrapper(features, *args, **kwargs):
            counts[key]["calls"] += 1
            counts[key]["rows"] += len(features) if np.ndim(features) == 3 else 1
            return fn(features, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(keyframe, "select_key_frames", counting(keyframe.select_key_frames, "select"))
    monkeypatch.setattr(runner, "phi_select", counting(runner.phi_select, "runner"))
    monkeypatch.setattr(memory, "phi_select", counting(memory.phi_select, "memory"))
    result = train_continual(config, data)
    monkeypatch.undo()
    return counts, result


def test_key_frames_selected_once_per_sample_per_session(monkeypatch) -> None:
    data = _dataset(n_sessions=2, n=14, base=True)
    n_sessions = len(data.sessions)
    n_train = sum(len(s.train) for s in data.sessions)
    by_epochs = {}
    for epochs in (1, 3):
        config = _config(epochs=epochs, exemplars_per_session=4)
        counts, result = _count_selections(monkeypatch, config, data)
        n_written = sum(map(len, result.bank.sessions.values()))
        assert n_written > 0
        assert counts["runner"] == {"calls": n_sessions, "rows": n_train}
        assert counts["memory"] == {"calls": n_sessions, "rows": n_written}
        assert counts["select"] == {"calls": 2 * n_sessions, "rows": n_train + n_written}
        by_epochs[epochs] = counts
    assert by_epochs[1] == by_epochs[3]


def test_run_config_defaults_are_the_documented_ones() -> None:
    config = RunConfig()
    assert config.epochs == 15
    assert config.batch_size == 3
    assert config.replay_batch_size == 2
    assert config.mse_weight == 0.05
    assert config.replay_weight == 1.0
    assert config.reg_weight == 1.0
    assert config.exemplars_per_session == 16
    assert config.keyframes == 3
    assert config.diversity_weight == 0.5
    assert config.learning_rate == 1e-4
    assert config.weight_decay == 5e-4
    assert config.frames == 16
    assert config.score_range == (1.0, 5.0)
    assert config.test_ratio == 0.2
    assert config.max_train_per_session == 50
