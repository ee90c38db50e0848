from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from scorealign import keyframe, memory, runner
from scorealign.data import LoadedData, ScoredSample, SessionData
from scorealign.head import batch_sample, batch_sample_backward, pool
from scorealign.losses import combined_loss, correlation_loss
from scorealign.numkit import (
    AdamState,
    MlpParams,
    SeededRng,
    adam_step,
    derive_seed,
    mlp_backward,
    mlp_forward,
)
from scorealign.runner import (
    CheckpointError,
    RunConfig,
    TrainingError,
    base_pretrain,
    config_hash,
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
        pooled = np.stack([pool(s.features) for s in session.train])
        scores = np.array([s.score for s in session.train])
        n = len(session.train)
        for _ in range(config.epochs):
            order = shuffle.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                if idx.size < 2:
                    continue
                out, tape = mlp_forward(head, pooled[idx])
                eps = noise.normal(idx.size)
                scores_hat, sigma = batch_sample(out, eps)
                if lam == 0.0:
                    value, grad_s = correlation_loss(scores_hat, scores[idx])
                else:
                    value, grad_s = combined_loss(scores_hat, scores[idx], lam)
                trace.append(value)
                grad_out = batch_sample_backward(grad_s, eps, sigma)
                grads = MlpParams(np.empty_like(head.flat), head.sizes)
                mlp_backward(head, tape, grad_out, grads.flat)
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
    for exemplar in result.bank.all_exemplars():
        assert exemplar.features.shape == (FRAMES, FEAT_DIM)


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
    assert trained_eval.sessions[name]["srcc"] > cold_eval.sessions[name]["srcc"]


def test_cold_start_without_base_is_tagged() -> None:
    data = _dataset(n_sessions=2, n=12, base=False)
    result = train_continual(_config(), data)
    assert any("cold start" in note for note in result.report.notes)


def test_exemplars_only_come_from_training_splits() -> None:
    data = _dataset(n_sessions=3, n=15)
    result = train_continual(_config(exemplars_per_session=4), data)
    train_ids = {s.sample_id for s in data.all_train()}
    test_ids = {s.sample_id for s in data.all_test()}
    bank_ids = {e.sample_id for e in result.bank.all_exemplars()}
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


def test_replay_counters_and_bank_accounting_in_report() -> None:
    from scorealign.memory import bank_file_size

    data = _dataset(n_sessions=3, n=15)
    result = train_continual(_config(), data)
    counters = result.report.counters
    assert set(counters) >= {"steps", "degenerate_batches", "degenerate_replay_batches", "dropped_singletons"}
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
    assert result.sessions["s1"]["srcc"] == pytest.approx(1.0, abs=1e-12)
    assert result.sessions["s1"]["rl2e"] == 0.0
    assert result.pooled["srcc_ove"] == pytest.approx(1.0, abs=1e-12)


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
    assert result.sessions["s1"]["srcc"] is None
    truths = np.array([1.0, 2.0, 3.0, 4.0])
    assert result.sessions["s1"]["rl2e"] == pytest.approx(float(np.mean((truths / 4.0) ** 2)))


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
    assert set(result.variants) == {"7A", "7B"}
    assert result.variants["7A"]["n"] == 4


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


# --- checkpointing ---------------------------------------------------------------


def test_checkpoint_roundtrip_preserves_state(tmp_path) -> None:
    data = _dataset(n_sessions=2, n=14, base=True)
    config = _config()
    path = tmp_path / "run.ckpt"
    result = train_continual(config, data, checkpoint_path=path)
    bundle = load_checkpoint(path)
    assert bundle.completed_sessions == 2
    assert bundle.config_digest == config_hash(config)
    for w, lw in zip(result.model.head.weights, bundle.model.head.weights):
        assert np.array_equal(w, lw)
    assert np.array_equal(result.model.adapter.mixing_logits, bundle.model.adapter.mixing_logits)
    assert set(bundle.bank.sessions) == set(result.bank.sessions)
    for tag in result.bank.sessions:
        for a, b in zip(result.bank.sessions[tag], bundle.bank.sessions[tag]):
            assert a.sample_id == b.sample_id
            assert a.score == b.score
            assert np.array_equal(a.features, b.features)
    assert bundle.loss_trace == result.loss_trace


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
    with pytest.raises(CheckpointError, match="different configuration"):
        train_continual(_config(seed=6), data, resume_from=path)


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


def _split_checkpoint(path) -> tuple[bytes, dict, int]:
    """A checkpoint's bytes, its JSON header and the offset of the arrays."""
    raw = path.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 12)[0]
    return raw, json.loads(raw[20 : 20 + header_len]), 20 + header_len


def _with_header(raw: bytes, header: dict, payload_at: int) -> bytes:
    text = json.dumps(header).encode()
    return raw[:12] + struct.pack("<Q", len(text)) + text + raw[payload_at:]


def test_checkpoint_rejects_version_one_and_missing_header_keys(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    old = tmp_path / "old.ckpt"
    for version in (1, 2):
        old.write_bytes(raw[:8] + struct.pack("<I", version) + raw[12:])
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(old)
    for key in ("adam", "adapter_layout", "counters", "rng"):
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
        (("completed_sessions",), 1.5, "completed_sessions must be a non-negative integer"),
        (("completed_sessions",), -1, "completed_sessions must be a non-negative integer"),
        (("completed_sessions",), True, "completed_sessions must be a non-negative integer"),
        (("counters", "steps"), "x", "counter 'steps' must be a non-negative integer"),
        (("counters", "dropped_singletons"), -2, "counter 'dropped_singletons'"),
        (("counters", "steps"), missing, "counters must be exactly"),
        (("counters", "restarts"), 0, "counters must be exactly"),
        (("adam", "t", "head"), 2.0, "adam step count 'head'"),
        (("adam", "t", "adapter"), False, "adam step count 'adapter'"),
        (("adam", "lr"), "0.01", "adam 'lr' must be a number"),
        (("adam", "beta2"), True, "adam 'beta2' must be a number"),
        (("config_digest",), 7, "config digest must be a string"),
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


def test_checkpoint_rejects_stacked_parameter_blocks(tmp_path) -> None:
    path = tmp_path / "run.ckpt"
    train_continual(_config(), _dataset(n_sessions=1, n=12), checkpoint_path=path)
    raw, header, payload_at = _split_checkpoint(path)
    for entry in header["arrays"]:
        if entry["name"] in ("head", "adam.m:head", "adam.v:head"):
            entry["shape"] = [1, *entry["shape"]]
    path.write_bytes(_with_header(raw, header, payload_at))
    with pytest.raises(CheckpointError, match="'head' must be a vector"):
        load_checkpoint(path)


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

    offset = payload_at  # the arrays follow the header, in header order
    for i, entry in enumerate(header["arrays"]):
        count = int(np.prod(entry["shape"]))
        rejects(offset + 8 * (count - 1), [np.nan, np.inf][i % 2], f"'{entry['name']}'")
        offset += 8 * count
    # then the bank's session table, each exemplar one run of score and K x D values
    (n_sessions,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    exemplars = 0
    for _ in range(n_sessions):
        offset += 4 + struct.unpack_from("<I", raw, offset)[0]
        count, k, d = struct.unpack_from("<III", raw, offset)
        offset += 12
        for j in range(count):
            id_len = struct.unpack_from("<I", raw, offset)[0]
            sample_id = raw[offset + 4 : offset + 4 + id_len].decode()
            offset += 4 + id_len
            rejects(offset + 8 * (k * d if j % 2 else 0), np.nan, f"exemplar '{sample_id}'")
            offset += 8 * (1 + k * d)
            exemplars += 1
    assert exemplars > 0
    assert offset == len(raw)
    header["adam"]["lr"] = float("inf")
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
    # the session table follows the arrays the header lists
    table_at = payload_at + 8 * sum(int(np.prod(entry["shape"])) for entry in header["arrays"])
    table = struct.pack("<I", 1) + struct.pack("<I", 2) + b"s1" + struct.pack("<III", count, k, d)
    for j in range(count):
        table += struct.pack("<I", 6) + f"s1_{j:03d}".encode() + np.zeros(1 + k * d).tobytes()
    path.write_bytes(raw[:table_at] + table)
    shape_at = table_at + 4 + (4 + 2)  # session count, tag "s1"
    with pytest.raises(CheckpointError, match=f"{match}.*offset {shape_at}") as err:
        load_checkpoint(path)
    assert err.value.offset == shape_at


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
        n_written = len(result.bank.all_exemplars())
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
