"""Training and evaluation orchestration.

Implements joint training, base pretraining, the continual session loop
with alternating current/replay batches plus the adapter regularizer,
deterministic evaluation, the flat-minima probe, and checkpointing.

All randomness flows through three independent derived streams (shuffle,
noise, replay), so ablations that drop one consumer, such as the
no-reparameterization run, still see identical batch compositions.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .adapter import (
    AdapterParams,
    adapter_backward,
    init_adapter,
    reconstruct_with_tape,
    reg_loss_and_grads,
)
from .data import CodecError, LoadedData, Reader, ScoredSample, SessionData
from .head import (
    HeadConfig,
    batch_sample,
    batch_sample_backward,
    init_head,
    pool,
    predict_eval,
)
from .losses import DegenerateBatchError, combined_loss
from .memory import Exemplar, MemoryBank, bank_file_size, sample_replay_batch, write_session
from .metrics import MetricReport, metric_entry, pooled_metrics
from .numkit import (
    AdamState,
    MlpParams,
    SeededRng,
    adam_step,
    derive_seed,
    mlp_backward,
    mlp_forward,
)

CHECKPOINT_MAGIC = b"ASALCKPT"
CHECKPOINT_VERSION = 2

MAX_DEGENERATE_FRACTION = 0.05


class TrainingError(RuntimeError):
    """Raised when a run violates a hard training invariant."""


class CheckpointError(CodecError):
    """Malformed checkpoint file or incompatible resume request."""


@dataclass(frozen=True)
class RunConfig:
    """All run hyperparameters, with their standard defaults."""

    mode: str = "continual"
    epochs: int = 15
    batch_size: int = 3  # b1
    replay_batch_size: int = 2  # b2
    mse_weight: float = 0.05  # lambda
    replay_weight: float = 1.0  # alpha
    reg_weight: float = 1.0  # beta
    exemplars_per_session: int = 16  # m
    keyframes: int = 3  # K
    diversity_weight: float = 0.5
    learning_rate: float = 1e-4
    weight_decay: float = 5e-4
    frames: int = 16  # canonical T
    score_range: tuple[float, float] = (1.0, 5.0)
    test_ratio: float = 0.2
    max_train_per_session: int = 50
    hidden_sizes: tuple[int, ...] = (64, 32)
    adapter_hidden: int = 32
    reparam: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mse_weight < 0 or self.replay_weight < 0 or self.reg_weight < 0:
            raise ValueError("loss weights must be >= 0")
        if self.epochs < 1 or self.batch_size < 2 or self.replay_batch_size < 1:
            raise ValueError("need epochs >= 1, batch_size >= 2, replay_batch_size >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("need learning_rate > 0 and weight_decay >= 0")
        if self.keyframes < 1 or self.frames < self.keyframes:
            raise ValueError("need 1 <= keyframes <= frames")
        if self.exemplars_per_session < 0:
            raise ValueError("exemplar quota must be >= 0")
        if not self.score_range[0] < self.score_range[1]:
            raise ValueError("score range must satisfy lo < hi")
        if not 0.0 < self.test_ratio < 1.0:
            raise ValueError("test ratio must be in (0, 1)")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["score_range"] = list(self.score_range)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out


def config_hash(config: RunConfig) -> str:
    text = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def benchmark_config(mode: str = "continual", **overrides) -> RunConfig:
    """Run configuration committed for the synthetic drift benchmark.

    Defaults follow the standard configuration except the optimization
    budget: the desk-scale benchmark trains from random features rather
    than a pretrained backbone, so it needs a larger learning rate and
    more epochs per task to converge.
    """
    base: dict = {"mode": mode, "learning_rate": 0.0075, "epochs": 60, "seed": 7}
    base.update(overrides)
    return RunConfig(**base)


def probe_pairing_config(reparam: bool = True) -> RunConfig:
    """Committed configuration for the paired flat-minima comparison.

    Uses the standard epoch budget at a learning rate low enough that the
    predicted spread stays active through the whole run, the regime in
    which sampling-based smoothing shapes the loss landscape.
    """
    return RunConfig(mode="continual", learning_rate=5e-4, epochs=15, seed=7, reparam=reparam)


@dataclass
class ModelState:
    head: MlpParams
    adapter: AdapterParams
    adam: AdamState
    head_config: HeadConfig

    def copy(self) -> "ModelState":
        adam = replace(
            self.adam,
            m={k: v.copy() for k, v in self.adam.m.items()},
            v={k: v.copy() for k, v in self.adam.v.items()},
            t=dict(self.adam.t),
        )
        return ModelState(self.head.copy(), self.adapter.copy(), adam, self.head_config)


@dataclass
class SessionState:
    index: int
    tag: str
    epoch_mean_losses: list[float] = field(default_factory=list)
    degenerate_batches: int = 0


@dataclass
class RunResult:
    model: ModelState
    bank: MemoryBank
    report: MetricReport
    loss_trace: list[float]
    session_logs: list[SessionState]


class _Streams:
    """Independent seeded streams for shuffling, sampling noise, replay."""

    def __init__(self, seed: int):
        self.shuffle = SeededRng(derive_seed(seed, "shuffle"))
        self.noise = SeededRng(derive_seed(seed, "noise"))
        self.replay = SeededRng(derive_seed(seed, "replay"))

    def get_state(self) -> dict:
        return {
            "shuffle": self.shuffle.get_state(),
            "noise": self.noise.get_state(),
            "replay": self.replay.get_state(),
        }

    def set_state(self, state: dict) -> None:
        self.shuffle.set_state(state["shuffle"])
        self.noise.set_state(state["noise"])
        self.replay.set_state(state["replay"])


def init_model(feat_dim: int, config: RunConfig) -> ModelState:
    head_config = HeadConfig(
        hidden_sizes=tuple(config.hidden_sizes), score_range=config.score_range
    )
    head = init_head(feat_dim, head_config, SeededRng(derive_seed(config.seed, "init:head")))
    adapter = init_adapter(
        config.frames,
        config.keyframes,
        feat_dim,
        config.adapter_hidden,
        SeededRng(derive_seed(config.seed, "init:adapter")),
    )
    adam = AdamState(lr=config.learning_rate, weight_decay=config.weight_decay)
    return ModelState(head, adapter, adam, head_config)


def model_param_dict(model: ModelState) -> dict[str, np.ndarray]:
    """The model's two optimizer blocks, each the flat vector its layer
    arrays are views into."""
    return {"head": model.head.flat, "adapter": model.adapter.flat}


def _accumulate(grads: dict[str, np.ndarray], block: str, g: np.ndarray) -> None:
    """Add a freshly computed gradient into its block, in arrival order."""
    if block in grads:
        grads[block] += g
    else:
        grads[block] = g


@dataclass
class _Counters:
    steps: int = 0
    degenerate_batches: int = 0
    degenerate_replay_batches: int = 0
    dropped_singletons: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _train_on_samples(
    model: ModelState,
    samples: list[ScoredSample],
    config: RunConfig,
    streams: _Streams,
    bank: MemoryBank | None,
    counters: _Counters,
    trace: list[float],
    log: SessionState,
    use_reg: bool,
) -> None:
    """The shared epoch loop: one optimizer step per current-data batch,
    folding in the replay and reconstruction terms when enabled."""
    if not samples:
        raise TrainingError("cannot train on an empty split")
    pooled = np.stack([pool(s.features) for s in samples])
    scores = np.array([s.score for s in samples], dtype=np.float64)
    n = len(samples)
    replay_on = (
        bank is not None and config.replay_weight > 0.0 and config.exemplars_per_session > 0
    )
    reg_on = use_reg and config.reg_weight > 0.0

    for _ in range(config.epochs):
        order = streams.shuffle.permutation(n)
        epoch_losses: list[float] = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                # a single sample cannot define a batch correlation
                counters.dropped_singletons += 1
                continue
            x = pooled[idx]
            out, tape = mlp_forward(model.head, x)
            if config.reparam:
                eps = streams.noise.normal(idx.size)
            else:
                eps = np.zeros(idx.size)
            s_hat, sigma = batch_sample(out, eps)
            try:
                value, grad_s = combined_loss(s_hat, scores[idx], config.mse_weight)
            except DegenerateBatchError:
                counters.degenerate_batches += 1
                log.degenerate_batches += 1
                continue
            grad_out = batch_sample_backward(grad_s, eps, sigma)
            head_grads, _ = mlp_backward(model.head, tape, grad_out)
            grads = {"head": head_grads.flat}
            trace.append(value)
            epoch_losses.append(value)

            if replay_on and not bank.is_empty():
                _replay_term(model, bank, config, streams, counters, grads)
            if reg_on:
                _, adapter_grads = reg_loss_and_grads(
                    model.adapter,
                    [samples[i].features for i in idx],
                    config.keyframes,
                    config.diversity_weight,
                )
                _accumulate(grads, "adapter", config.reg_weight * adapter_grads.flat)

            adam_step(model.adam, model_param_dict(model), grads)
            counters.steps += 1
        log.epoch_mean_losses.append(
            float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        )


def _replay_term(
    model: ModelState,
    bank: MemoryBank,
    config: RunConfig,
    streams: _Streams,
    counters: _Counters,
    grads: dict[str, np.ndarray],
) -> None:
    batch = sample_replay_batch(bank, config.replay_batch_size, streams.replay)
    if len(batch) < 2:
        return
    recon_tapes = []
    pooled_rows = []
    for exemplar in batch:
        recon, tape = reconstruct_with_tape(model.adapter, exemplar.features)
        recon_tapes.append(tape)
        pooled_rows.append(recon.mean(axis=0))
    x = np.stack(pooled_rows)
    out, tape = mlp_forward(model.head, x)
    if config.reparam:
        eps = streams.noise.normal(len(batch))
    else:
        eps = np.zeros(len(batch))
    s_hat, sigma = batch_sample(out, eps)
    truth = np.array([e.score for e in batch], dtype=np.float64)
    try:
        _, grad_s = combined_loss(s_hat, truth, config.mse_weight)
    except DegenerateBatchError:
        counters.degenerate_replay_batches += 1
        return
    grad_out = batch_sample_backward(config.replay_weight * grad_s, eps, sigma)
    head_grads, x_grad = mlp_backward(model.head, tape, grad_out)
    _accumulate(grads, "head", head_grads.flat)
    t_frames = model.adapter.t_frames
    for i, tape_i in enumerate(recon_tapes):
        # mean pooling spreads the pooled gradient evenly over frames
        grad_recon = np.tile(x_grad[i] / t_frames, (t_frames, 1))
        _accumulate(grads, "adapter", adapter_backward(model.adapter, tape_i, grad_recon).flat)


def _check_degenerate_fraction(counters: _Counters) -> None:
    attempted = counters.steps + counters.degenerate_batches
    if attempted == 0:
        raise TrainingError("no trainable batches: every batch was degenerate or dropped")
    fraction = counters.degenerate_batches / attempted
    if fraction >= MAX_DEGENERATE_FRACTION:
        raise TrainingError(
            f"degenerate-batch skips at {fraction:.1%} of steps "
            f"(limit {MAX_DEGENERATE_FRACTION:.0%}); data or batching is unhealthy"
        )


# --- evaluation ---------------------------------------------------------


@dataclass
class EvalResult:
    sessions: dict[str, dict]
    variants: dict[str, dict]
    pooled: dict
    per_session_pairs: dict[str, tuple[np.ndarray, np.ndarray]]


def evaluate(
    model: ModelState, samples: list[ScoredSample], score_range: tuple[float, float]
) -> EvalResult:
    """Deterministic per-sample scoring grouped by session and variant."""
    if not samples:
        raise TrainingError("cannot evaluate an empty sample list")
    lo, hi = score_range
    preds = np.array([predict_eval(model.head, s.features) for s in samples])
    truths = np.array([s.score for s in samples])
    by_session: dict[str, list[int]] = {}
    by_variant: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_session.setdefault(s.session, []).append(i)
        if s.variant is not None:
            by_variant.setdefault(s.variant, []).append(i)
    sessions = {
        tag: metric_entry(preds[idx], truths[idx], hi, lo)
        for tag, idx in by_session.items()
    }
    variants = {
        tag: metric_entry(preds[idx], truths[idx], hi, lo)
        for tag, idx in by_variant.items()
    }
    pairs = {
        tag: (preds[idx], truths[idx]) for tag, idx in by_session.items()
    }
    srcc_ove, rl2e_ove = pooled_metrics(list(pairs.values()), hi, lo)
    pooled = {"srcc_ove": srcc_ove, "rl2e_ove": rl2e_ove, "n": int(preds.size)}
    return EvalResult(sessions, variants, pooled, pairs)


def build_report(
    config: RunConfig, mode: str, result: EvalResult | None = None, **fields
) -> MetricReport:
    """A report stamped with the run configuration, holding the tables of
    an evaluation when one is given, plus any other report fields."""
    if result is not None:
        fields.update(sessions=result.sessions, variants=result.variants, pooled=result.pooled)
    return MetricReport(
        mode=mode,
        seed=config.seed,
        config_hash=config_hash(config),
        config=config.to_dict(),
        **fields,
    )


# --- top-level training modes -------------------------------------------


def train_joint(
    config: RunConfig, data: LoadedData, checkpoint_path: str | Path | None = None
) -> RunResult:
    """Minimize the combined loss over all sessions' training data at once."""
    train = data.all_train()
    test = data.all_test()
    if not train or not test:
        raise TrainingError("joint training needs nonempty train and test splits")
    model = init_model(train[0].features.shape[1], config)
    streams = _Streams(config.seed)
    counters = _Counters()
    trace: list[float] = []
    log = SessionState(index=0, tag="joint")
    _train_on_samples(
        model, train, config, streams, None, counters, trace, log, use_reg=False
    )
    _check_degenerate_fraction(counters)
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path, config, model, MemoryBank(), streams, 0, counters, trace
        )
    result = evaluate(model, test, config.score_range)
    report = build_report(config, "joint", result, counters=counters.to_dict())
    return RunResult(model, MemoryBank(), report, trace, [log])


def base_pretrain(config: RunConfig, base: SessionData) -> tuple[ModelState, SessionState]:
    """Same loop as joint training, run on the auxiliary base session."""
    if not base.train:
        raise TrainingError("base session has no training samples")
    model = init_model(base.train[0].features.shape[1], config)
    streams = _Streams(derive_seed(config.seed, "base"))
    counters = _Counters()
    trace: list[float] = []
    log = SessionState(index=-1, tag=base.name)
    _train_on_samples(
        model, base.train, config, streams, None, counters, trace, log, use_reg=False
    )
    _check_degenerate_fraction(counters)
    return model, log


def train_continual(
    config: RunConfig,
    data: LoadedData,
    checkpoint_path: str | Path | None = None,
    resume_from: str | Path | None = None,
) -> RunResult:
    """The session loop: train on each session in manifest order with
    replay from the memory bank and the adapter regularizer, write the
    session's exemplars at session end, then evaluate on the union of all
    sessions' test splits."""
    if not data.sessions:
        raise TrainingError("continual training needs at least one session")
    notes: list[str] = []
    session_logs: list[SessionState] = []
    trace: list[float] = []
    counters = _Counters()
    start_session = 0

    if resume_from is not None:
        bundle = load_checkpoint(resume_from)
        if bundle.config_digest != config_hash(config):
            raise CheckpointError(
                "checkpoint was written under a different configuration"
            )
        model = bundle.model
        bank = bundle.bank
        streams = _Streams(config.seed)
        streams.set_state(bundle.stream_state)
        start_session = bundle.completed_sessions
        counters = bundle.counters
        trace = bundle.loss_trace
        notes.append(f"resumed after {start_session} completed sessions")
    else:
        first = data.sessions[0]
        if not first.train:
            raise TrainingError(f"session '{first.name}' has no training samples")
        bank = MemoryBank()
        if data.base is not None:
            model, base_log = base_pretrain(config, data.base)
            session_logs.append(base_log)
        else:
            model = init_model(first.train[0].features.shape[1], config)
            notes.append("cold start: no base session for pretraining")
        streams = _Streams(config.seed)

    for index in range(start_session, len(data.sessions)):
        session = data.sessions[index]
        log = SessionState(index=index, tag=session.name)
        _train_on_samples(
            model, session.train, config, streams, bank, counters, trace, log, use_reg=True
        )
        if config.exemplars_per_session > 0:
            write_session(
                bank,
                session.train,
                config.exemplars_per_session,
                config.keyframes,
                config.diversity_weight,
            )
        session_logs.append(log)
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path, config, model, bank, streams, index + 1, counters, trace
            )
    _check_degenerate_fraction(counters)

    result = evaluate(model, data.all_test(), config.score_range)
    report = build_report(
        config,
        "continual",
        result,
        counters={
            **counters.to_dict(),
            "bank_floats": bank.num_floats(),
            "bank_bytes": bank_file_size(bank),
        },
        notes=notes,
    )
    return RunResult(model, bank, report, trace, session_logs)


# --- flat-minima probe ---------------------------------------------------


def _probe_loss(head: MlpParams, pooled: np.ndarray, scores: np.ndarray, lam: float) -> float:
    out, _ = mlp_forward(head, pooled)
    value, _ = combined_loss(out[:, 0], scores, lam)
    return value


def flat_minima_probe(
    model: ModelState,
    sessions: list[SessionData],
    lam: float,
    radii: list[float],
    rng: SeededRng,
    draws: int = 10,
) -> dict:
    """Mean training-loss increase under random weight perturbations.

    For each radius, the head weights are shifted along `draws` random
    unit-norm directions and the deterministic training loss is
    re-evaluated on each session's training data. Directions are shared
    across sessions and radii so curves are comparable.
    """
    flat = model.head.flat
    directions = []
    for _ in range(draws):
        d = rng.normal(flat.size)
        directions.append(d / np.sqrt(d @ d))
    perturbed = model.head.copy()
    per_session: dict[str, dict] = {}
    for session in sessions:
        pooled = np.stack([pool(s.features) for s in session.train])
        scores = np.array([s.score for s in session.train])
        baseline = _probe_loss(model.head, pooled, scores, lam)
        deltas: dict[str, float] = {}
        for radius in radii:
            total = 0.0
            for d in directions:
                np.add(flat, radius * d, out=perturbed.flat)
                total += _probe_loss(perturbed, pooled, scores, lam) - baseline
            deltas[f"{radius:g}"] = total / draws
        per_session[session.name] = {"baseline_loss": baseline, "mean_delta": deltas}
    return {
        "radii": [f"{r:g}" for r in radii],
        "draws": draws,
        "sessions": per_session,
    }


# --- checkpointing --------------------------------------------------------


@dataclass
class CheckpointBundle:
    model: ModelState
    bank: MemoryBank
    stream_state: dict
    completed_sessions: int
    config_digest: str
    counters: _Counters
    loss_trace: list[float]


def _rng_state_to_json(state: dict) -> dict:
    return {
        "bit_generator": state["bit_generator"],
        "state": {"state": str(state["state"]["state"]), "inc": str(state["state"]["inc"])},
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


def _rng_state_from_json(state: dict) -> dict:
    return {
        "bit_generator": state["bit_generator"],
        "state": {"state": int(state["state"]["state"]), "inc": int(state["state"]["inc"])},
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }


def save_checkpoint(
    path: str | Path,
    config: RunConfig,
    model: ModelState,
    bank: MemoryBank,
    streams: _Streams,
    completed_sessions: int,
    counters: _Counters,
    loss_trace: list[float],
) -> None:
    arrays: list[tuple[str, np.ndarray]] = list(model_param_dict(model).items())
    for key in sorted(model.adam.m):
        arrays.append((f"adam.m:{key}", model.adam.m[key]))
        arrays.append((f"adam.v:{key}", model.adam.v[key]))
    bank_meta = []
    for tag, exemplars in bank.sessions.items():
        bank_meta.append(
            {
                "tag": tag,
                "ids": [e.sample_id for e in exemplars],
                "scores": [e.score for e in exemplars],
            }
        )
        for e in exemplars:
            arrays.append((f"bank:{tag}:{e.sample_id}", e.features))
    arrays.append(("trace", np.asarray(loss_trace, dtype=np.float64)))

    stream_state = streams.get_state()
    header = {
        "config_digest": config_hash(config),
        "completed_sessions": completed_sessions,
        "head_sizes": list(model.head.sizes),
        "adapter_layout": {
            "frames": model.adapter.t_frames,
            "keyframes": model.adapter.k_frames,
            "mlp_sizes": list(model.adapter.mlp.sizes),
        },
        "head_config": {
            "hidden_sizes": list(model.head_config.hidden_sizes),
            "score_range": list(model.head_config.score_range),
        },
        "adam": {
            "lr": model.adam.lr,
            "beta1": model.adam.beta1,
            "beta2": model.adam.beta2,
            "eps": model.adam.eps,
            "weight_decay": model.adam.weight_decay,
            "t": model.adam.t,
        },
        "counters": counters.to_dict(),
        "rng": {k: _rng_state_to_json(v) for k, v in stream_state.items()},
        "bank": bank_meta,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [
        CHECKPOINT_MAGIC,
        struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)),
        header_bytes,
    ]
    for _, a in arrays:
        chunks.append(np.ascontiguousarray(a, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> CheckpointBundle:
    reader = Reader(Path(path).read_bytes(), CheckpointError)
    reader.preamble(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        return _decode_checkpoint(reader)
    except CheckpointError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        # ValueError covers undecodable text, bad JSON and mismatched layouts
        raise CheckpointError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise CheckpointError(f"non-finite number {text} in checkpoint header")
    return value


def _decode_checkpoint(reader: Reader) -> CheckpointBundle:
    (header_len,) = reader.unpack("Q", "header length")
    text = reader.take(header_len, "header").decode("utf-8")
    header = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name = entry["name"]
        arrays[name] = reader.floats("<f8", tuple(entry["shape"]), f"array '{name}'")
    reader.end("checkpoint payload")

    head = MlpParams(arrays["head"], header["head_sizes"])
    layout = header["adapter_layout"]
    adapter = AdapterParams(
        arrays["adapter"], layout["frames"], layout["keyframes"], layout["mlp_sizes"]
    )
    blocks = {"head": head.flat, "adapter": adapter.flat}
    adam_cfg = header["adam"]
    t = {name: int(steps) for name, steps in adam_cfg["t"].items()}
    m = {name: arrays[f"adam.m:{name}"] for name in t}
    v = {name: arrays[f"adam.v:{name}"] for name in t}
    for name in t:
        if not blocks[name].shape == m[name].shape == v[name].shape:
            raise CheckpointError(f"optimizer moments do not match block '{name}'")
    adam = AdamState(
        lr=adam_cfg["lr"],
        beta1=adam_cfg["beta1"],
        beta2=adam_cfg["beta2"],
        eps=adam_cfg["eps"],
        weight_decay=adam_cfg["weight_decay"],
        m=m,
        v=v,
        t=t,
    )
    hc = header["head_config"]
    head_config = HeadConfig(
        hidden_sizes=tuple(hc["hidden_sizes"]),
        score_range=tuple(hc["score_range"]),
    )
    bank = MemoryBank()
    for entry in header["bank"]:
        tag = entry["tag"]
        bank.sessions[tag] = [
            Exemplar(
                sample_id=sid,
                features=arrays[f"bank:{tag}:{sid}"],
                score=score,
                session=tag,
            )
            for sid, score in zip(entry["ids"], entry["scores"])
        ]
    counters = _Counters(**header["counters"])
    return CheckpointBundle(
        model=ModelState(head, adapter, adam, head_config),
        bank=bank,
        stream_state={k: _rng_state_from_json(v) for k, v in header["rng"].items()},
        completed_sessions=header["completed_sessions"],
        config_digest=header["config_digest"],
        counters=counters,
        loss_trace=arrays["trace"].tolist(),
    )
