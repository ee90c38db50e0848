"""The benchmark's workloads: set-up, timed operations and output checks.

Two operation families exist:

* a training operation, one `runner.train_continual` call on the committed
  drift benchmark, checked through its emitted report;
* serve requests against the checkpoint it writes, issued by a closed loop
  of one client: `eval` and `probe` go through `scorealign.cli.main`,
  `archive` compresses a fresh session into the bank when the run keeps
  exemplars, then round-trips the bank file and a checkpoint.

Before each request the client writes a fresh input, drawn from the
workload's sample pool with seeded jitter, so no request repeats an input
and a cross-call memo cannot pass for a gain. Preparing an input is the
client's think time: it is not part of any latency.

Training inputs do not depend on the benchmark seed: the quality metrics
are taken from them, and across drift-stream draws the sequential
fine-tuning SRCC alone ranges from -0.10 to 0.70, far wider than any bound.
The seed drives the request order and every request input instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scorealign import cli, data, memory, runner

WORKLOADS = {
    "continual-replay": "the paper's method on the committed drift benchmark (key-frame replay, "
    "adapter regularizer, bank writes), then serving its checkpoint",
    "seqft-noreplay": "same data and steps with replay, regularizer and exemplars off: head, "
    "losses and Adam only, never key frames, adapter or replay",
}

OVERRIDES = {
    "continual-replay": {},
    "seqft-noreplay": {"replay_weight": 0.0, "reg_weight": 0.0, "exemplars_per_session": 0},
}

EVAL_PER_SESSION = 12  # test samples per session in an eval request: all of them
PROBE_PER_SESSION = 10  # train samples per session in a probe request
ARCHIVE_SAMPLES = 48  # samples compressed by one archive request

REQUEST_KINDS = ("eval", "probe", "archive")
JITTER_STD = 0.02  # per stored value; moves a pooled score by well under 0.01


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PoolSample:
    sample_id: str
    session: str
    score: float
    stored: np.ndarray  # features as stored on disk, float64


@dataclass
class Prepared:
    """Everything a workload needs after set-up."""

    workload: str
    config: runner.RunConfig
    loaded: data.LoadedData
    manifest: Path
    checkpoint: Path


def _pool(loaded_sessions, manifest: Path, side: str) -> dict[str, list[PoolSample]]:
    """Stored (pre-resampling) features of one split side, by session."""
    records = json.loads(manifest.read_text())["records"]
    paths = {r["id"]: manifest.parent / r["feature_path"] for r in records}
    return {
        session.name: [
            PoolSample(s.sample_id, s.session, s.score, data.read_feature_file(paths[s.sample_id]))
            for s in getattr(session, side)
        ]
        for session in loaded_sessions
    }


def setup(workload: str, workdir: Path) -> Prepared:
    """Synthesize the committed drift benchmark and ingest its manifest."""
    config = runner.benchmark_config(**OVERRIDES[workload])
    manifest = data.generate_synthetic(data.drift_benchmark_spec(), workdir / "stream")
    loaded = data.load_manifest(
        manifest,
        frames=config.frames,
        score_range=config.score_range,
        seed=config.seed,
        test_ratio=config.test_ratio,
        max_train=config.max_train_per_session,
    )
    return Prepared(
        workload=workload,
        config=config,
        loaded=loaded,
        manifest=manifest,
        checkpoint=workdir / "model.ckpt",
    )


# --- training operation ---------------------------------------------------


def expected_steps(config: runner.RunConfig, loaded: data.LoadedData) -> int:
    """Session optimizer steps: one per batch of at least two samples."""
    per_epoch = 0
    for session in loaded.sessions:
        n = len(session.train)
        per_epoch += n // config.batch_size + (1 if n % config.batch_size >= 2 else 0)
    return per_epoch * config.epochs


@dataclass
class TrainResult:
    steps: int
    wall_s: float
    segments: np.ndarray  # call start to first step, step to step, last step to return
    srcc_ove: float
    rl2e_ove: float
    report_sha256: str


@contextlib.contextmanager
def _step_clock(stamps: list[float]):
    """Stamp the time after every optimizer step of runner's training loop
    (base pretraining and sessions), by rebinding runner's `adam_step` for
    the duration of one call. The stamp costs about a microsecond of a step
    of 0.3 to 6 ms and leaves the report unchanged."""
    original = runner.adam_step

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result

    runner.adam_step = stamped
    try:
        yield
    finally:
        runner.adam_step = original


def train_op(prepared: Prepared, workdir: Path, step_clock: bool = True) -> TrainResult:
    """One continual run; writes the checkpoint the serve phase uses."""
    config = prepared.config
    stamps: list[float] = []
    clock = _step_clock(stamps) if step_clock else contextlib.nullcontext()
    with clock:
        start = time.perf_counter()
        result = runner.train_continual(config, prepared.loaded, checkpoint_path=prepared.checkpoint)
        end = time.perf_counter()
    # An array, not a list of floats: the harness's own memory must not grow
    # with the number of calls a run makes, as peak_rss_mb would show it.
    segments = np.diff(np.array([start] + stamps + [end]))
    report_path = workdir / "train-report.json"
    data.emit_report(result.report, report_path)
    report = data.read_report(report_path)
    steps = report.counters.get("steps")
    expected = expected_steps(config, prepared.loaded) - report.counters.get("degenerate_batches", 0)
    _require(steps == expected, f"report counts {steps} steps, expected {expected}")
    srcc = report.pooled.get("srcc_ove")
    rl2e = report.pooled.get("rl2e_ove")
    _require(srcc is not None and rl2e is not None, "report has a null pooled metric")
    return TrainResult(steps, end - start, segments, float(srcc), float(rl2e), sha256_file(report_path))


# --- serve requests ---------------------------------------------------------


class _SavedStreams:
    """Stream state read from a checkpoint, in the shape save_checkpoint takes."""

    def __init__(self, state: dict):
        self._state = state

    def get_state(self) -> dict:
        return self._state


@dataclass
class RequestResult:
    latency_s: float
    report_sha256: str


class Client:
    """Closed-loop client of one: prepares a fresh input, sends, checks."""

    def __init__(self, prepared: Prepared, workdir: Path, seed: int):
        self.prepared = prepared
        self.workdir = workdir
        # The stored features request inputs are drawn from, read once.
        self.test_pool = _pool(prepared.loaded.sessions, prepared.manifest, "test")
        self.train_pool = _pool(prepared.loaded.sessions, prepared.manifest, "train")
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(prepared.workload)])
        self.issued = 0
        self.bundle = runner.load_checkpoint(prepared.checkpoint)
        self._quiet = open(os.devnull, "w")

    def close(self) -> None:
        self._quiet.close()

    def round_kinds(self) -> list[str]:
        """The next round of the mix: each kind once, in seeded order."""
        return [REQUEST_KINDS[i] for i in self.rng.permutation(len(REQUEST_KINDS))]

    def _fresh(self, sample: PoolSample) -> np.ndarray:
        noise = self.rng.normal(0.0, JITTER_STD, size=sample.stored.shape)
        return sample.stored + noise

    def _draw(self, pool: dict[str, list[PoolSample]], per_session: int) -> list[PoolSample]:
        picked = []
        for name in sorted(pool):
            candidates = pool[name]
            take = min(per_session, len(candidates))
            picked += [candidates[i] for i in sorted(self.rng.choice(len(candidates), take, replace=False))]
        return picked

    def _write_manifest(self, request_dir: Path, samples: list[PoolSample], split: str) -> Path:
        (request_dir / "features").mkdir(parents=True)
        records = []
        for sample in samples:
            rel = f"features/{sample.sample_id}.feat"
            data.write_feature_file(request_dir / rel, self._fresh(sample))
            records.append(
                {
                    "id": f"r{self.issued:05d}_{sample.sample_id}",
                    "feature_path": rel,
                    "score": sample.score,
                    "session": sample.session,
                    "split": split,
                }
            )
        manifest = request_dir / "manifest.json"
        data.write_manifest(manifest, records)
        return manifest

    def _cli(self, argv: list[str]) -> float:
        config = self.prepared.config
        argv = argv + ["--frames", str(config.frames), "--seed", str(config.seed)]
        with contextlib.redirect_stdout(self._quiet):
            start = time.perf_counter()
            cli.main(argv, standalone_mode=False)
            return time.perf_counter() - start

    def request(self, kind: str) -> RequestResult:
        request_dir = self.workdir / f"request-{self.issued:05d}"
        try:
            return getattr(self, f"_{kind}")(request_dir)
        finally:
            self.issued += 1
            shutil.rmtree(request_dir, ignore_errors=True)

    def _eval(self, request_dir: Path) -> RequestResult:
        samples = self._draw(self.test_pool, EVAL_PER_SESSION)
        manifest = self._write_manifest(request_dir, samples, "test")
        out = request_dir / "eval.json"
        latency = self._cli(
            ["eval", "--checkpoint", str(self.prepared.checkpoint), "--manifest", str(manifest),
             "--report-out", str(out)]
        )
        report = data.read_report(out)
        _require(report.mode == "eval", f"eval report has mode {report.mode!r}")
        _require(report.pooled.get("n") == len(samples), "eval report covers the wrong samples")
        srcc, rl2e = report.pooled.get("srcc_ove"), report.pooled.get("rl2e_ove")
        _require(srcc is not None and rl2e is not None, "eval report has a null pooled metric")
        return RequestResult(latency, sha256_file(out))

    def _probe(self, request_dir: Path) -> RequestResult:
        samples = self._draw(self.train_pool, PROBE_PER_SESSION)
        manifest = self._write_manifest(request_dir, samples, "train")
        out = request_dir / "probe.json"
        latency = self._cli(
            ["probe-flatness", "--checkpoint", str(self.prepared.checkpoint),
             "--manifest", str(manifest), "--report-out", str(out)]
        )
        report = data.read_report(out)
        sessions = report.flatness.get("sessions", {})
        _require(report.mode == "probe", f"probe report has mode {report.mode!r}")
        _require(set(sessions) == {s.session for s in samples}, "probe report misses sessions")
        for entry in sessions.values():
            deltas = list(entry["mean_delta"].values()) + [entry["baseline_loss"]]
            _require(all(np.isfinite(deltas)), "probe report has a non-finite loss")
        return RequestResult(latency, sha256_file(out))

    def _archive(self, request_dir: Path) -> RequestResult:
        config = self.prepared.config
        pool = [s for name in sorted(self.train_pool) for s in self.train_pool[name]]
        tag = f"archive{self.issued:05d}"
        samples = [
            data.ScoredSample(
                sample_id=f"{tag}_{pool[i].sample_id}",
                features=data.resample_frames(self._fresh(pool[i]), config.frames),
                score=pool[i].score,
                session=tag,
            )
            for i in sorted(self.rng.choice(len(pool), ARCHIVE_SAMPLES, replace=False))
        ]
        bank = memory.MemoryBank(sessions=dict(self.bundle.bank.sessions))
        # New file names in a standing directory, removed after the checks:
        # a directory per request, or overwriting one file (which can wait
        # on its writeback), would time the file system more than the codecs.
        out_dir = self.workdir / "archive"
        out_dir.mkdir(exist_ok=True)
        bank_path = out_dir / f"{tag}.bank"
        ckpt_path = out_dir / f"{tag}.ckpt"
        try:
            start = time.perf_counter()
            if config.exemplars_per_session > 0:
                memory.write_session(
                    bank, samples, config.exemplars_per_session, config.keyframes,
                    config.diversity_weight,
                )
            memory.save_bank(bank, bank_path)
            bank_back = memory.load_bank(bank_path)
            runner.save_checkpoint(
                ckpt_path, config, self.bundle.model, bank, _SavedStreams(self.bundle.stream_state),
                self.bundle.completed_sessions, self.bundle.counters, self.bundle.loss_trace,
            )
            ckpt_back = runner.load_checkpoint(ckpt_path)
            latency = time.perf_counter() - start

            _require(memory.bank_file_size(bank) == bank_path.stat().st_size,
                     "bank_file_size is not the file size")
            if config.exemplars_per_session > 0:
                _require(len(bank.sessions[tag]) == min(config.exemplars_per_session, len(samples)),
                         "archive stored the wrong exemplar count")
            _check_bank_copy(bank, bank_back, np.float32, "bank file")
            _check_bank_copy(bank, ckpt_back.bank, np.float64, "checkpoint")
            return RequestResult(latency, sha256_file(bank_path))
        finally:
            bank_path.unlink(missing_ok=True)
            ckpt_path.unlink(missing_ok=True)


def _check_bank_copy(bank: memory.MemoryBank, copy: memory.MemoryBank, dtype, where: str) -> None:
    """Every session, id and feature of bank survives in copy at dtype."""
    _require(list(copy.sessions) == list(bank.sessions), f"{where} lost a session")
    for session, exemplars in bank.sessions.items():
        back = copy.sessions[session]
        _require([e.sample_id for e in back] == [e.sample_id for e in exemplars], f"{where} ids differ")
        for before, after in zip(exemplars, back):
            expect = before.features.astype(dtype).astype(np.float64)
            _require(np.array_equal(after.features, expect), f"{where} features differ")
