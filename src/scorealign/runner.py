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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .adapter import (
    AdapterParams,
    adapter_backward,
    init_adapter,
    reconstruct_with_tape,
    reg_loss_and_grads,
)
from .data import CodecError, LoadedData, Reader, ScoredSample, SessionData, _is_int, _is_number
from .head import batch_sample, batch_sample_backward, init_head, pool, pool_backward, predict_eval
from .keyframe import phi_select
from .losses import DegenerateBatchError, combined_loss, combined_loss_values
from .memory import (
    MemoryBank,
    bank_file_size,
    encode_sessions,
    read_sessions,
    sample_replay_batch,
    write_session,
)
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
CHECKPOINT_VERSION = 3

MAX_DEGENERATE_FRACTION = 0.05

# the AdamState hyperparameters a checkpoint header stores
_ADAM_SCALARS = ("lr", "beta1", "beta2", "eps", "weight_decay")


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


@dataclass
class RunResult:
    model: ModelState
    bank: MemoryBank
    report: MetricReport
    loss_trace: list[float]


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

    @classmethod
    def from_state(cls, state: dict) -> "_Streams":
        """The streams at the states get_state returned, built without
        seeding."""
        streams = cls.__new__(cls)
        streams.shuffle = SeededRng.from_state(state["shuffle"])
        streams.noise = SeededRng.from_state(state["noise"])
        streams.replay = SeededRng.from_state(state["replay"])
        return streams


def init_model(feat_dim: int, config: RunConfig) -> ModelState:
    head = init_head(
        feat_dim, config.hidden_sizes, SeededRng(derive_seed(config.seed, "init:head"))
    )
    adapter = init_adapter(
        config.frames,
        config.keyframes,
        feat_dim,
        config.adapter_hidden,
        SeededRng(derive_seed(config.seed, "init:adapter")),
    )
    adam = AdamState(lr=config.learning_rate, weight_decay=config.weight_decay)
    return ModelState(head, adapter, adam)


def model_param_dict(model: ModelState) -> dict[str, np.ndarray]:
    """The model's two optimizer blocks, each the flat vector its layer
    arrays are views into."""
    return {"head": model.head.flat, "adapter": model.adapter.flat}


@dataclass
class _Counters:
    steps: int = 0
    degenerate_batches: int = 0
    degenerate_replay_batches: int = 0
    dropped_singletons: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _head_term(
    model: ModelState,
    x: np.ndarray,
    truth: np.ndarray,
    weight: float,
    config: RunConfig,
    streams: _Streams,
    out: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The sampled-score step of one batch of pooled (B, D) features:
    score x with the head, sample s = mu + eps * sigma (eps = 0 without
    reparameterization), take the combined loss against truth and backprop
    weight times its gradient into out. Returns the loss and the gradient
    with respect to x. A degenerate batch raises DegenerateBatchError
    before out is touched."""
    head_out, tape = mlp_forward(model.head, x)
    eps = streams.noise.normal(len(x)) if config.reparam else np.zeros(len(x))
    s_hat, sigma = batch_sample(head_out, eps)
    value, grad_s = combined_loss(s_hat, truth, config.mse_weight)
    grad_out = batch_sample_backward(weight * grad_s, eps, sigma)
    return value, mlp_backward(model.head, tape, grad_out, out)


def _train_on_samples(
    model: ModelState,
    samples: list[ScoredSample],
    config: RunConfig,
    streams: _Streams,
    bank: MemoryBank | None,
    counters: _Counters,
    trace: list[float],
) -> None:
    """The shared epoch loop: one optimizer step per current-data batch,
    folding in the replay and reconstruction terms when a bank is given.

    Head and replay gradients go to buffers allocated once per call and
    are summed in a fixed order: the head's current batch then its replay
    batch; the adapter's replay rows, then reg_weight times the
    reconstruction rows' sum."""
    if not samples:
        raise TrainingError("cannot train on an empty split")
    pooled = np.stack([pool(s.features) for s in samples])
    scores = np.array([s.score for s in samples], dtype=np.float64)
    n = len(samples)
    replay_on = (
        bank is not None and config.replay_weight > 0.0 and config.exemplars_per_session > 0
    )
    reg_on = bank is not None and config.reg_weight > 0.0
    if reg_on:
        features = np.stack([s.features for s in samples])
        # selection is a pure function of the features: once per sample
        compressed = phi_select(features, config.keyframes, config.diversity_weight)
    head_grad = np.empty_like(model.head.flat)
    replay_head_grad = np.empty_like(model.head.flat)
    adapter_grad = np.empty_like(model.adapter.flat)

    for _ in range(config.epochs):
        order = streams.shuffle.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                # a single sample cannot define a batch correlation
                counters.dropped_singletons += 1
                continue
            try:
                value, _ = _head_term(
                    model, pooled[idx], scores[idx], 1.0, config, streams, head_grad
                )
            except DegenerateBatchError:
                counters.degenerate_batches += 1
                continue
            grads = {"head": head_grad}
            trace.append(value)

            if (
                replay_on
                and not bank.is_empty()
                and _replay_term(
                    model, bank, config, streams, counters, replay_head_grad, adapter_grad
                )
            ):
                head_grad += replay_head_grad
                grads["adapter"] = adapter_grad
            if reg_on:
                _, reg_grad = reg_loss_and_grads(model.adapter, features[idx], compressed[idx])
                reg_grad *= config.reg_weight
                if "adapter" in grads:
                    adapter_grad += reg_grad
                else:
                    grads["adapter"] = reg_grad

            adam_step(model.adam, model_param_dict(model), grads)
            counters.steps += 1


def _replay_term(
    model: ModelState,
    bank: MemoryBank,
    config: RunConfig,
    streams: _Streams,
    counters: _Counters,
    head_grad: np.ndarray,
    adapter_grad: np.ndarray,
) -> bool:
    """Draw a replay batch, decode it through the adapter as one stack and
    write its head gradient, scaled by replay_weight, into head_grad and
    its adapter rows, summed in sample order, into adapter_grad. Returns
    False, with both untouched, when the draw gives no usable batch."""
    batch = sample_replay_batch(bank, config.replay_batch_size, streams.replay)
    if len(batch) < 2:
        return False
    recon, recon_tape = reconstruct_with_tape(
        model.adapter, np.stack([e.features for e in batch])
    )
    truth = np.array([e.score for e in batch], dtype=np.float64)
    try:
        _, x_grad = _head_term(
            model, pool(recon), truth, config.replay_weight, config, streams, head_grad
        )
    except DegenerateBatchError:
        counters.degenerate_replay_batches += 1
        return False
    grad_recon = pool_backward(x_grad, model.adapter.t_frames)
    rows = adapter_backward(model.adapter, recon_tape, grad_recon)
    adapter_grad[...] = rows[0]
    for row in rows[1:]:
        adapter_grad += row
    return True


def _fit(
    config: RunConfig, samples: list[ScoredSample], stream_seed: int
) -> tuple[ModelState, _Streams, _Counters, list[float]]:
    """Initialize a model and train it on samples without a bank: joint
    training and base pretraining."""
    model = init_model(samples[0].features.shape[1], config)
    streams = _Streams(stream_seed)
    counters = _Counters()
    trace: list[float] = []
    _train_on_samples(model, samples, config, streams, None, counters, trace)
    _check_degenerate_fraction(counters)
    return model, streams, counters, trace


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


def check_feature_dim(model: ModelState, data: LoadedData) -> None:
    """Reject a manifest whose samples do not have the feature dimension a
    checkpointed model was built for, before it trains or scores them."""
    expected = model.head.sizes[0]
    for sample in data.all_train() + data.all_test():
        if sample.features.shape[1] != expected:
            raise CheckpointError(
                f"incompatible manifest: its features have {sample.features.shape[1]} "
                f"columns, the checkpoint's model expects {expected}"
            )


# --- evaluation ---------------------------------------------------------


@dataclass
class EvalResult:
    sessions: dict[str, dict]
    variants: dict[str, dict]
    pooled: dict


def evaluate(
    model: ModelState, samples: list[ScoredSample], score_range: tuple[float, float]
) -> EvalResult:
    """Deterministic per-sample scoring grouped by session and variant.
    The samples share one frame count and are scored as one stack."""
    if not samples:
        raise TrainingError("cannot evaluate an empty sample list")
    lo, hi = score_range
    preds = predict_eval(model.head, np.stack([s.features for s in samples]))
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
    srcc_ove, rl2e_ove = pooled_metrics(
        [(preds[idx], truths[idx]) for idx in by_session.values()], hi, lo
    )
    pooled = {"srcc_ove": srcc_ove, "rl2e_ove": rl2e_ove, "n": int(preds.size)}
    return EvalResult(sessions, variants, pooled)


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
    model, streams, counters, trace = _fit(config, train, config.seed)
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path, config, model, MemoryBank(), streams, 0, counters, trace
        )
    result = evaluate(model, test, config.score_range)
    report = build_report(config, "joint", result, counters=counters.to_dict())
    return RunResult(model, MemoryBank(), report, trace)


def base_pretrain(config: RunConfig, base: SessionData) -> ModelState:
    """Same fit as joint training, run on the auxiliary base session."""
    if not base.train:
        raise TrainingError("base session has no training samples")
    return _fit(config, base.train, derive_seed(config.seed, "base"))[0]


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
    trace: list[float] = []
    counters = _Counters()
    start_session = 0

    if resume_from is not None:
        bundle = load_checkpoint(resume_from)
        if bundle.config_digest != config_hash(config):
            raise CheckpointError(
                "checkpoint was written under a different configuration"
            )
        if bundle.completed_sessions > len(data.sessions):
            raise CheckpointError(
                f"incompatible resume request: the checkpoint completed "
                f"{bundle.completed_sessions} sessions, the manifest has {len(data.sessions)}"
            )
        check_feature_dim(bundle.model, data)
        model = bundle.model
        bank = bundle.bank
        streams = _Streams.from_state(bundle.stream_state)
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
            model = base_pretrain(config, data.base)
        else:
            model = init_model(first.train[0].features.shape[1], config)
            notes.append("cold start: no base session for pretraining")
        streams = _Streams(config.seed)

    for index in range(start_session, len(data.sessions)):
        session = data.sessions[index]
        _train_on_samples(model, session.train, config, streams, bank, counters, trace)
        if config.exemplars_per_session > 0:
            write_session(
                bank,
                session.train,
                config.exemplars_per_session,
                config.keyframes,
                config.diversity_weight,
            )
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
    return RunResult(model, bank, report, trace)


# --- flat-minima probe ---------------------------------------------------


# Scored rows (draws times samples) per stacked probe forward. Wider stacks
# ran slower than several narrower ones: with the benchmark's head on a
# 2-core Xeon, a probe of 5 sessions of 50 samples (4 radii, 10 draws) took
# 15 ms in stacks of 6 draws and 18-20 ms in stacks of 10.
_PROBE_STACK_ROWS = 300


def flat_minima_probe(
    model: ModelState,
    sessions: list[SessionData],
    lam: float,
    radii: list[float],
    rng: SeededRng,
    draws: int,
) -> dict:
    """Mean training-loss increase under random weight perturbations.

    For each radius, the head weights are shifted along `draws` random
    unit-norm directions and the deterministic training loss is
    re-evaluated on each session's training data. Directions are shared
    across sessions and radii so curves are comparable. Radii are keyed
    by their `:g` label, so two radii with one label are rejected.

    A radius's perturbed heads are rows of one reused buffer, scored as
    stacks; each loss is the one its head alone gives, and the increases
    are summed in draw order. A session whose loss is undefined at the
    trained head or at a perturbed one raises TrainingError.
    """
    if draws < 1:
        raise ValueError(f"probe needs draws >= 1, got {draws}")
    if not np.all(np.isfinite(radii)):
        raise ValueError(f"probe radii must be finite, got {radii}")
    labels = [f"{r:g}" for r in radii]
    if len(set(labels)) != len(labels):
        raise ValueError(f"probe radii must have distinct labels, got {labels}")
    flat = model.head.flat
    directions = np.empty((draws, flat.size))
    for row in directions:
        d = rng.normal(flat.size)
        row[...] = d / np.sqrt(d @ d)
    heads = np.empty_like(directions)
    per_session: dict[str, dict] = {}
    scored = []
    for session in sessions:
        if not session.train:
            raise TrainingError(f"session '{session.name}' has no training samples")
        pooled = np.stack([pool(s.features) for s in session.train])
        scores = np.array([s.score for s in session.train])
        out, _ = mlp_forward(model.head, pooled)
        try:
            baseline, _ = combined_loss(out[:, 0], scores, lam)
        except DegenerateBatchError as exc:
            raise TrainingError(
                f"session '{session.name}': training loss undefined at the trained head: {exc}"
            ) from exc
        rows = max(1, _PROBE_STACK_ROWS // len(pooled))
        stacks = [
            MlpParams(heads[i : i + rows], model.head.sizes) for i in range(0, draws, rows)
        ]
        entry = {"baseline_loss": baseline, "mean_delta": {}}
        per_session[session.name] = entry
        scored.append((session.name, pooled, scores, baseline, stacks, entry))
    for label, radius in zip(labels, radii):
        np.multiply(directions, radius, out=heads)
        heads += flat
        for name, pooled, scores, baseline, stacks, entry in scored:
            total = 0.0
            for stack in stacks:
                out, _ = mlp_forward(stack, pooled)
                try:
                    values = combined_loss_values(out[:, :, 0], scores, lam)
                except DegenerateBatchError as exc:
                    raise TrainingError(
                        f"session '{name}': training loss undefined at a head "
                        f"perturbed by radius {label}: {exc}"
                    ) from exc
                for value in (values - baseline).tolist():
                    total += value
            entry["mean_delta"][label] = total / draws
    return {
        "radii": labels,
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
    """Magic, version and header length, the JSON header, the float64
    arrays it lists, then the bank's session table at float64."""
    arrays: list[tuple[str, np.ndarray]] = list(model_param_dict(model).items())
    for key in sorted(model.adam.m):
        arrays.append((f"adam.m:{key}", model.adam.m[key]))
        arrays.append((f"adam.v:{key}", model.adam.v[key]))
    arrays.append(("trace", np.asarray(loss_trace, dtype=np.float64)))
    header = {
        "config_digest": config_hash(config),
        "completed_sessions": completed_sessions,
        "head_sizes": list(model.head.sizes),
        "adapter_layout": {
            "frames": model.adapter.t_frames,
            "keyframes": model.adapter.k_frames,
            "mlp_sizes": list(model.adapter.mlp.sizes),
        },
        "adam": {
            **{key: getattr(model.adam, key) for key in _ADAM_SCALARS},
            "t": model.adam.t,
        },
        "counters": counters.to_dict(),
        "rng": streams.get_state(),
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
    chunks.append(encode_sessions(bank, "<f8"))
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


def _count(value: object, what: str) -> int:
    if not _is_int(value) or value < 0:
        raise CheckpointError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _decode_checkpoint(reader: Reader) -> CheckpointBundle:
    (header_len,) = reader.unpack("Q", "header length")
    text = reader.take(header_len, "header").decode("utf-8")
    header = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name = entry["name"]
        arrays[name] = reader.floats("<f8", tuple(entry["shape"]), f"array '{name}'")
    bank = read_sessions(reader, "<f8")
    reader.end("checkpoint payload")

    for name in ("head", "adapter"):
        if arrays[name].ndim != 1:
            # a 2-d block would load as a stack of MLPs
            raise CheckpointError(
                f"parameter block '{name}' must be a vector, got shape {arrays[name].shape}"
            )
    head = MlpParams(arrays["head"], header["head_sizes"])
    layout = header["adapter_layout"]
    adapter = AdapterParams(
        arrays["adapter"], layout["frames"], layout["keyframes"], layout["mlp_sizes"]
    )
    rows = (adapter.k_frames, head.sizes[0])
    for tag, exemplars in bank.sessions.items():
        # the table gives every exemplar of a session one shape
        if exemplars[0].features.shape != rows:
            raise CheckpointError(
                f"bank session '{tag}' stores {exemplars[0].features.shape} exemplar rows,"
                f" the model's are {rows} (key frames, feature dim)"
            )
    blocks = {"head": head.flat, "adapter": adapter.flat}
    adam_cfg = header["adam"]
    t = {name: _count(steps, f"adam step count '{name}'") for name, steps in adam_cfg["t"].items()}
    m = {name: arrays[f"adam.m:{name}"] for name in t}
    v = {name: arrays[f"adam.v:{name}"] for name in t}
    for name in t:
        if not blocks[name].shape == m[name].shape == v[name].shape:
            raise CheckpointError(f"optimizer moments do not match block '{name}'")
    scalars = {key: adam_cfg[key] for key in _ADAM_SCALARS}
    for key, value in scalars.items():
        if not _is_number(value):
            raise CheckpointError(f"adam '{key}' must be a number, got {value!r}")
    adam = AdamState(**scalars, m=m, v=v, t=t)
    # building streams at the stored states checks every stream and field
    stream_state = _Streams.from_state(header["rng"]).get_state()
    names = [f.name for f in fields(_Counters)]
    if not isinstance(header["counters"], dict) or set(header["counters"]) != set(names):
        raise CheckpointError(f"checkpoint counters must be exactly {names}")
    counters = _Counters(**{n: _count(header["counters"][n], f"counter '{n}'") for n in names})
    if not isinstance(header["config_digest"], str):
        raise CheckpointError("checkpoint config digest must be a string")
    return CheckpointBundle(
        model=ModelState(head, adapter, adam),
        bank=bank,
        stream_state=stream_state,
        completed_sessions=_count(header["completed_sessions"], "completed_sessions"),
        config_digest=header["config_digest"],
        counters=counters,
        loss_trace=arrays["trace"].tolist(),
    )
