"""Training and evaluation orchestration.

Implements joint training, base pretraining, the continual session loop
(each step one correlation batch of current and replayed rows, plus the
adapter regularizer), deterministic evaluation, the flat-minima probe, and
checkpointing.

All randomness flows through three independent derived streams (shuffle,
noise, replay), so ablations that drop one consumer, such as the
no-reparameterization run, still see identical batch compositions.
"""

from __future__ import annotations

import hashlib
import json
import math
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
from .data import CodecError, LoadedData, Reader, ScoredSample, SessionData, _is_int, _parse_json
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
    mlp_size,
)

CHECKPOINT_MAGIC = b"ASALCKPT"
CHECKPOINT_VERSION = 7

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
    replay_weight: float = 1.0  # alpha: scales the replay rows' gradient in the joint loss
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
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if type(f.default) is float]
        floats += [("score_range", value) for value in self.score_range]
        # a bool trains as a number, but no checkpoint loads one
        if wrong := [f"{name}={value!r}" for name, value in floats if isinstance(value, bool)]:
            raise ValueError(f"float fields must be numbers, not bools, got {', '.join(wrong)}")
        if type(self.reparam) is not bool:
            raise ValueError(f"reparam must be a bool, got {self.reparam!r}")
        # NaN passes every `< 0` check below, and an infinity most of them
        if not all(math.isfinite(value) for _, value in floats):
            raise ValueError(f"float fields must be finite, got {self}")
        if self.mode not in ("continual", "joint"):
            raise ValueError(f"mode must be 'continual' or 'joint', got {self.mode!r}")
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
        if self.max_train_per_session < 1:
            raise ValueError("training-sample cap per session must be >= 1")
        if len(self.score_range) != 2 or not self.score_range[0] < self.score_range[1]:
            raise ValueError("score range must be a pair lo < hi")
        if not 0.0 < self.test_ratio < 1.0:
            raise ValueError("test ratio must be in (0, 1)")
        # the model's layout, and so a checkpoint's, derives from these
        if not all(_is_int(n) and n >= 1 for n in (*self.hidden_sizes, self.adapter_hidden)):
            raise ValueError("hidden_sizes and adapter_hidden must be positive integers")
        # a float count would fail later with a raw TypeError
        integers = {f.name: getattr(self, f.name) for f in fields(self) if type(f.default) is int}
        if wrong := [f"{name}={value!r}" for name, value in integers.items() if not _is_int(value)]:
            raise ValueError(f"integer fields must be ints, got {', '.join(wrong)}")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["score_range"] = list(self.score_range)
        out["hidden_sizes"] = list(self.hidden_sizes)
        return out


def config_hash(stamp: dict) -> str:
    """The sha256 of a RunConfig.to_dict() stamp, as reports carry it."""
    text = json.dumps(stamp, sort_keys=True)
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
) -> None:
    """The shared epoch loop: one optimizer step per current-data batch,
    folding in the replay and reconstruction terms when a bank is given.
    The bank changes only between calls, so its replay pool is built once.

    Every step's noise is drawn before the first step as one block, in
    step order: each step's current rows' noise, then its replay rows'.
    A step draws its min(b2, pool size) replay rows, then makes one head
    pass and one backward pass over one batch: the current rows, then the
    pooled reconstructions of its replay rows. Its sampled scores are one
    batch of combined_loss: its value is the trace entry, and the replay
    rows' share of its gradient is scaled by replay_weight. A batch is a
    step when it and its replay rows hold two rows or more, so a lone
    current row is dropped, and counted, only without a replay pool. A
    degenerate batch is counted and skipped; its draws stay drawn.
    The adapter's gradient is summed in a fixed order: the replay term,
    then reg_weight times the reconstruction term."""
    if not samples:
        raise TrainingError("cannot train on an empty split")
    features = np.stack([s.features for s in samples])
    pooled = pool(features)
    scores = np.array([s.score for s in samples], dtype=np.float64)
    n = len(samples)
    replay_on = bank is not None and config.replay_weight > 0.0 and config.exemplars_per_session > 0
    replay = bank.replay_pool() if replay_on and bank.sessions else None
    reg_on = bank is not None and config.reg_weight > 0.0
    if reg_on:
        # selection is a pure function of the features: once per sample
        compressed = phi_select(features, config.keyframes, config.diversity_weight)
    head_grad = np.empty_like(model.head.flat)

    # a joint batch of one row cannot define a correlation: no step
    n2 = 0 if replay is None else min(config.replay_batch_size, len(replay))
    batches = [min(config.batch_size, n - start) for start in range(0, n, config.batch_size)]
    sizes = [size for m in batches if m + n2 >= 2 for size in (m, n2)] * config.epochs
    noise = streams.noise.normal_block(sizes) if config.reparam else np.zeros(sum(sizes))
    at = 0

    for _ in range(config.epochs):
        order = streams.shuffle.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            m = idx.size
            if m + n2 < 2:
                counters.dropped_singletons += 1
                continue
            eps = noise[at : at + m + n2]
            at += m + n2
            # an overflow gives a non-finite gradient, which adam_step refuses
            with np.errstate(over="ignore", invalid="ignore"):
                batch, truth = pooled[idx], scores[idx]
                if n2:
                    replayed = sample_replay_batch(replay, n2, streams.replay)
                    recon, recon_tape = reconstruct_with_tape(model.adapter, replay.features[replayed])
                    batch = np.concatenate([batch, pool(recon)])
                    truth = np.concatenate([truth, replay.scores[replayed]])
                head_out, tape = mlp_forward(model.head, batch[None])
                s_hat, sigma = batch_sample(head_out[0], eps)
                try:
                    value, grad_s = combined_loss(s_hat, truth, config.mse_weight)
                except DegenerateBatchError:
                    counters.degenerate_batches += 1
                    continue
                trace.append(value)
                grad_s[m:] *= config.replay_weight
                grad_out = batch_sample_backward(grad_s, eps, sigma)
                x_grad = mlp_backward(model.head, tape, grad_out[None], head_grad)
                grads = {"head": head_grad}

                if n2:
                    grads["adapter"] = adapter_backward(
                        model.adapter, recon_tape, pool_backward(x_grad[0, m:], model.adapter.t_frames)
                    )
                if reg_on:
                    _, reg_grad = reg_loss_and_grads(model.adapter, features[idx], compressed[idx])
                    reg_grad *= config.reg_weight
                    if "adapter" in grads:
                        grads["adapter"] += reg_grad
                    else:
                        grads["adapter"] = reg_grad

            adam_step(model.adam, model_param_dict(model), grads)
            counters.steps += 1


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


def evaluate(
    model: ModelState, samples: list[ScoredSample], score_range: tuple[float, float]
) -> dict[str, dict]:
    """Deterministic per-sample scoring grouped by session and variant: the
    report's sessions, variants and pooled tables, by field name. The
    samples share one frame count and are scored as one stack."""
    if not samples:
        raise TrainingError("cannot evaluate an empty sample list")
    lo, hi = score_range
    by_session: dict[str, list[int]] = {}
    by_variant: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_session.setdefault(s.session, []).append(i)
        if s.variant is not None:
            by_variant.setdefault(s.variant, []).append(i)
    # an overflowing head gives non-finite metrics, which the report writer refuses
    with np.errstate(over="ignore", invalid="ignore"):
        preds = predict_eval(model.head, np.stack([s.features for s in samples]))
        truths = np.array([s.score for s in samples])
        sessions = {tag: metric_entry(preds[idx], truths[idx], hi, lo) for tag, idx in by_session.items()}
        variants = {tag: metric_entry(preds[idx], truths[idx], hi, lo) for tag, idx in by_variant.items()}
        srcc_ove, rl2e_ove = pooled_metrics([(preds[idx], truths[idx]) for idx in by_session.values()], hi, lo)
    pooled = {"srcc_ove": srcc_ove, "rl2e_ove": rl2e_ove, "n": int(preds.size)}
    return {"sessions": sessions, "variants": variants, "pooled": pooled}


def build_report(config: RunConfig, mode: str, **fields) -> MetricReport:
    """A report stamped with the run configuration, holding the given
    report fields."""
    stamp = config.to_dict()
    return MetricReport(
        mode=mode, seed=config.seed, config_hash=config_hash(stamp), config=stamp, **fields
    )


# --- top-level training modes -------------------------------------------


def train_joint(
    config: RunConfig, data: LoadedData, checkpoint_path: str | Path | None = None
) -> RunResult:
    """Minimize the combined loss over all sessions' training data at once."""
    if config.mode != "joint":
        raise ValueError(f"train_joint needs a joint config, got mode {config.mode!r}")
    train = data.all_train()
    test = data.all_test()
    if not train or not test:
        raise TrainingError("joint training needs nonempty train and test splits")
    model, streams, counters, trace = _fit(config, train, config.seed)
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path, config, model, MemoryBank(), streams, [], counters, trace
        )
    report = build_report(
        config, "joint", **evaluate(model, test, config.score_range), counters=counters.to_dict()
    )
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
    if config.mode != "continual":
        raise ValueError(f"train_continual needs a continual config, got mode {config.mode!r}")
    if not data.sessions:
        raise TrainingError("continual training needs at least one session")
    test = data.all_test()
    if not test:
        raise TrainingError("continual training needs a nonempty test split")
    notes: list[str] = []
    trace: list[float] = []
    counters = _Counters()
    start_session = 0

    if resume_from is not None:
        bundle = load_checkpoint(resume_from)
        stored, given = bundle.config.to_dict(), config.to_dict()
        if differ := [name for name in given if stored[name] != given[name]]:
            raise CheckpointError(
                f"checkpoint was written under a different configuration: {', '.join(differ)} differ"
            )
        start_session = len(bundle.completed_sessions)
        first = [session.name for session in data.sessions[:start_session]]
        if first != bundle.completed_sessions:
            raise CheckpointError(
                f"incompatible resume request: the checkpoint completed sessions "
                f"{', '.join(bundle.completed_sessions)}, the manifest begins with {', '.join(first)}"
            )
        if bundle.bank.sessions and list(bundle.bank.sessions) != first:
            raise CheckpointError(
                f"the checkpoint's bank holds sessions {', '.join(bundle.bank.sessions)}, not those it completed"
            )
        check_feature_dim(bundle.model, data)
    # every session this run trains is checked before any training
    for session in data.sessions[start_session:]:
        if not session.train:
            raise TrainingError(f"session '{session.name}' has no training samples")
    if resume_from is not None:
        model = bundle.model
        bank = bundle.bank
        streams = _Streams.from_state(bundle.stream_state)
        counters = bundle.counters
        trace = bundle.loss_trace.tolist()
        notes.append(f"resumed after {start_session} completed sessions")
    else:
        bank = MemoryBank()
        if data.base is not None:
            model = base_pretrain(config, data.base)
        else:
            model = init_model(data.sessions[0].train[0].features.shape[1], config)
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
            done = [s.name for s in data.sessions[: index + 1]]
            save_checkpoint(checkpoint_path, config, model, bank, streams, done, counters, trace)
    _check_degenerate_fraction(counters)

    report = build_report(
        config,
        "continual",
        **evaluate(model, test, config.score_range),
        counters={
            **counters.to_dict(),
            "bank_floats": bank.num_floats(),
            "bank_bytes": bank_file_size(bank),
        },
        notes=notes,
    )
    return RunResult(model, bank, report, trace)


# --- flat-minima probe ---------------------------------------------------


# Scored rows (heads times samples) per stacked probe forward. Wider stacks
# ran slower than several narrower ones: with the benchmark's head on a
# 2-core Xeon, a probe of 5 sessions of 50 samples (4 radii, 10 draws) took
# 15 ms in stacks of 6 heads and 18-20 ms in stacks of 10.
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

    The trained head and every perturbed head are rows of one buffer,
    run forward on each session in stacks and scored by one loss call;
    each loss is the one its head alone gives, and the increases are
    summed in draw order. A session whose loss is undefined (degenerate or
    not finite) at the trained head or at a perturbed one raises
    TrainingError: every session's trained head is checked first, then the
    perturbed heads, radius by radius, each radius in session order. The
    message names the session, the radius and the first undefined head's
    own pred variance. Heads are scored with floating-point warnings off,
    as an overflowing head is an undefined loss.
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
    # row 0 is the trained head, then one row per radius and draw
    heads = np.empty((1 + len(radii) * draws, flat.size))
    heads[0] = flat
    perturbed = heads[1:].reshape(len(radii), draws, flat.size)
    np.multiply(directions, np.asarray(radii, dtype=np.float64)[:, None, None], out=perturbed)
    perturbed += flat
    per_session: dict[str, dict] = {}
    first = None  # (radius index, session, error) of the first undefined perturbed loss
    for session in sessions:
        if not session.train:
            raise TrainingError(f"session '{session.name}' has no training samples")
        pooled = pool(np.stack([s.features for s in session.train]))[None]
        scores = np.array([s.score for s in session.train])
        rows = max(1, _PROBE_STACK_ROWS // len(scores))
        with np.errstate(over="ignore", invalid="ignore"):
            preds = np.concatenate([
                mlp_forward(MlpParams(heads[i : i + rows], model.head.sizes), pooled)[0][:, :, 0]
                for i in range(0, len(heads), rows)
            ])
        try:
            values = combined_loss_values(preds, scores, lam)
        except DegenerateBatchError as exc:
            if exc.row == 0:
                raise TrainingError(
                    f"session '{session.name}': training loss undefined at the trained head: {exc}"
                ) from exc
            r = (exc.row - 1) // draws
            if first is None or r < first[0]:
                first = (r, session.name, exc)
            continue
        entry = {"baseline_loss": float(values[0]), "mean_delta": {}}
        for label, deltas in zip(labels, (values[1:] - values[0]).reshape(-1, draws).tolist()):
            total = 0.0
            for value in deltas:
                total += value
            # the sum of finite increases can overflow where their mean cannot
            entry["mean_delta"][label] = total / draws if np.isfinite(total) else sum(v / draws for v in deltas)
        per_session[session.name] = entry
    if first is not None:
        r, name, exc = first
        raise TrainingError(
            f"session '{name}': training loss undefined at a head "
            f"perturbed by radius {labels[r]}: {exc}"
        ) from exc
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
    completed_sessions: list[str]  # their names, in training order
    config: RunConfig
    counters: _Counters
    loss_trace: np.ndarray  # float64


def save_checkpoint(
    path: str | Path,
    config: RunConfig,
    model: ModelState,
    bank: MemoryBank,
    streams: _Streams,
    completed_sessions: list[str],
    counters: _Counters,
    loss_trace: list[float] | np.ndarray,
) -> None:
    """Magic, version and header length, the JSON header, the float64
    blocks, each block's Adam moments in name order and the loss trace,
    then the bank's session table at float64. The header stores the
    config, from which the loader derives every array's layout."""
    adapter = model.adapter
    if (adapter.t_frames, adapter.k_frames, model.head.sizes[1:-1], adapter.mlp_sizes[1]) != (
        config.frames, config.keyframes, tuple(config.hidden_sizes), config.adapter_hidden
    ):
        raise ValueError("the model's layout is not the one its config gives")
    moments = [x[key] for key in sorted(model.adam.t) for x in (model.adam.m, model.adam.v)]
    vectors = [*model_param_dict(model).values(), *moments, np.asarray(loss_trace, dtype=np.float64)]
    header = {
        "config": config.to_dict(),
        "feat_dim": model.head.sizes[0],
        "completed_sessions": _session_names(completed_sessions),
        "adam_steps": model.adam.t,
        "counters": counters.to_dict(),
        "rng": streams.get_state(),
        "trace_length": len(loss_trace),
    }
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(text)), text]
    chunks += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in vectors]
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
        raise CheckpointError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc


def _session_names(value: object) -> list[str]:
    """value, when it is a list of names, as completed_sessions must be."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise CheckpointError(f"completed_sessions must be a list of session names, got {value!r}")
    return value


def _count(value: object, what: str) -> int:
    if not _is_int(value) or value < 0:
        raise CheckpointError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _typed(value: object, like: object) -> bool:
    """Whether value has the JSON type to_dict writes for a field whose
    default is like: a list for a tuple, an int or a float for a float, and
    a bool is never a number."""
    if isinstance(like, tuple):
        return isinstance(value, list) and all(_typed(v, like[0]) for v in value)
    return type(value) is type(like) or type(like) is float and type(value) is int


def _stored_config(stored: dict) -> RunConfig:
    """The RunConfig a header stores: exactly its fields, each of the type
    to_dict writes, with values RunConfig accepts."""
    like = {f.name: f.default for f in fields(RunConfig)}
    missing, unknown = sorted(like.keys() - stored.keys()), sorted(stored.keys() - like.keys())
    if missing or unknown:
        raise CheckpointError(f"checkpoint config fields: missing {missing}, unknown {unknown}")
    for name, value in stored.items():
        if not _typed(value, like[name]):
            raise CheckpointError(f"checkpoint config field '{name}' has the wrong type: {value!r}")
    try:
        return RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in stored.items()})
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc


def _decode_checkpoint(reader: Reader) -> CheckpointBundle:
    (header_len,) = reader.unpack("Q", "header length")
    header = _parse_json(reader.take(header_len, "header"), CheckpointError, "checkpoint header")
    config = _stored_config(header["config"])
    feat_dim = _count(header["feat_dim"], "feat_dim")
    if feat_dim < 1:
        raise CheckpointError("feat_dim must be at least 1")
    frames, keyframes = config.frames, config.keyframes
    sizes, refiner = (feat_dim, *config.hidden_sizes, 2), (feat_dim, config.adapter_hidden, feat_dim)
    blocks = {"head": mlp_size(sizes), "adapter": frames * keyframes + mlp_size(refiner)}
    t = {name: _count(steps, f"adam step count '{name}'") for name, steps in header["adam_steps"].items()}
    layout = [*blocks.items(), *((f"adam.{x}:{name}", blocks[name]) for name in sorted(t) for x in "mv")]
    layout.append(("trace", _count(header["trace_length"], "trace_length")))
    values = {name: reader.floats("<f8", count, f"array '{name}'") for name, count in layout}
    bank = read_sessions(reader, "<f8")
    reader.end("checkpoint payload")
    for tag, session in bank.sessions.items():
        if session.features.shape[1:] != (keyframes, feat_dim):
            raise CheckpointError(
                f"bank session '{tag}' stores {session.features.shape[1:]} exemplar rows,"
                f" the model's are {(keyframes, feat_dim)} (key frames, feature dim)"
            )
    m = {name: values[f"adam.m:{name}"] for name in t}
    v = {name: values[f"adam.v:{name}"] for name in t}
    adam = AdamState(lr=config.learning_rate, weight_decay=config.weight_decay, m=m, v=v, t=t)
    head = MlpParams(values["head"], sizes)
    adapter = AdapterParams(values["adapter"], frames, keyframes, refiner)
    # building streams at the stored states checks every stream and field
    stream_state = _Streams.from_state(header["rng"]).get_state()
    names = [f.name for f in fields(_Counters)]
    if not isinstance(header["counters"], dict) or set(header["counters"]) != set(names):
        raise CheckpointError(f"checkpoint counters must be exactly {names}")
    counters = _Counters(**{n: _count(header["counters"][n], f"counter '{n}'") for n in names})
    return CheckpointBundle(
        model=ModelState(head, adapter, adam),
        bank=bank,
        stream_state=stream_state,
        completed_sessions=_session_names(header["completed_sessions"]),
        config=config,
        counters=counters,
        loss_trace=values["trace"],
    )
