"""Data layer: feature codec, manifests, splits, synthetic data, reports.

Feature files hold one video's per-frame feature matrix as little-endian
32-bit floats behind a fixed header; everything is float64 once in
memory. Manifests are JSON. The synthetic generator plants a known
per-session linear scorer and ships it alongside the data so tests can
compute exact oracles.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .metrics import MetricReport
from .numkit import SeededRng, derive_seed

FEATURE_MAGIC = b"ASALFEAT"
FEATURE_VERSION = 1

BASE_SESSION = "Others"


class CodecError(ValueError):
    """Malformed binary file; offset is the byte position of the problem,
    or None when the fault has no position in a file."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class Reader:
    """Little-endian cursor over the bytes of one binary file.

    Feature, bank and checkpoint files all decode through it, so each
    rejects truncation, trailing bytes and non-finite floats the same way:
    with `error` (CodecError or a subclass) naming the byte offset.
    """

    def __init__(self, raw: bytes, error: type[CodecError] = CodecError):
        self.raw = raw
        self.pos = 0
        self.error = error

    def skip(self, n: int, what: str) -> None:
        """Move past n bytes, rejecting a read beyond the end."""
        end = self.pos + n
        if n < 0 or end > len(self.raw):
            raise self.error(
                f"truncated {what}: expected {end} bytes total, got {len(self.raw)}", self.pos
            )
        self.pos = end

    def take(self, n: int, what: str) -> bytes:
        start = self.pos
        self.skip(n, what)
        return self.raw[start : self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        raw = self.take(self.unpack("I", f"{what} length")[0], what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not valid UTF-8", self.pos - len(raw)) from exc

    def preamble(self, magic: bytes, version: int) -> None:
        """The magic bytes, then a u32 format version."""
        found = self.take(len(magic), "magic")
        if found != magic:
            raise self.error(f"bad magic {found!r}, expected {magic!r}", 0)
        (found_version,) = self.unpack("I", "version")
        if found_version != version:
            raise self.error(f"unsupported version {found_version}", len(magic))

    def floats(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A float64 copy of prod(shape) values stored as dtype; any
        non-finite value is rejected with its byte offset."""
        start = self.pos
        n = math.prod(shape)
        self.skip(np.dtype(dtype).itemsize * n, what)
        return self.runs(dtype, [start], n, [what]).reshape(shape)

    def runs(self, dtype: str, starts: list[int], length: int, whats: list[str]) -> np.ndarray:
        """A float64 (len(starts), length) block of the runs of length
        values stored as dtype at the byte offsets starts, already moved
        past; decoded and checked in one pass. The first non-finite value
        is rejected naming its run's `what`, its flat index in the run and
        its byte offset."""
        width = np.dtype(dtype).itemsize
        view = memoryview(self.raw)
        stored = np.frombuffer(b"".join([view[s : s + width * length] for s in starts]), dtype=dtype)
        # checked before the cast, which would warn on a signaling NaN
        finite = np.isfinite(stored)
        if not finite.all():
            row, col = divmod(int(np.flatnonzero(~finite)[0]), length)
            raise self.error(
                f"non-finite value in {whats[row]} at flat index {col}", starts[row] + width * col
            )
        return stored.astype(np.float64).reshape(len(starts), length)

    def end(self, what: str) -> None:
        if self.pos != len(self.raw):
            raise self.error(f"{len(self.raw) - self.pos} trailing bytes after {what}", self.pos)


class ManifestError(ValueError):
    """Malformed or inconsistent manifest."""


@dataclass(frozen=True)
class ScoredSample:
    sample_id: str
    features: np.ndarray  # (T, D) float64
    score: float
    session: str
    variant: str | None = None


@dataclass
class SessionData:
    name: str
    train: list[ScoredSample]
    test: list[ScoredSample]


@dataclass
class LoadedData:
    base: SessionData | None
    sessions: list[SessionData]

    def all_train(self) -> list[ScoredSample]:
        return [s for session in self.sessions for s in session.train]

    def all_test(self) -> list[ScoredSample]:
        return [s for session in self.sessions for s in session.test]


def write_feature_file(path: str | Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.size == 0:
        raise ValueError(f"features must be a nonempty (T, D) matrix, got {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    t, d = features.shape
    header = FEATURE_MAGIC + struct.pack("<III", FEATURE_VERSION, t, d)
    Path(path).write_bytes(header + features.astype("<f4").tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    reader = Reader(Path(path).read_bytes())
    reader.preamble(FEATURE_MAGIC, FEATURE_VERSION)
    t, d = reader.unpack("II", "shape")
    if t < 1 or d < 1:
        raise CodecError(f"empty shape ({t}, {d}) in header", 12)
    features = reader.floats("<f4", (t, d), "features")
    reader.end("features")
    return features


def resample_frames(features: np.ndarray, frames: int) -> np.ndarray:
    """Nearest-index temporal resampling to a canonical frame count."""
    features = np.asarray(features, dtype=np.float64)
    t = features.shape[0]
    if frames < 1:
        raise ValueError(f"canonical frame count must be >= 1, got {frames}")
    if t == frames:
        return features
    if frames == 1:
        idx = np.zeros(1, dtype=int)
    else:
        idx = (np.arange(frames) * (t - 1)) // (frames - 1)
    return features[idx].copy()


def ingest_features(path: str | Path, frames: int) -> np.ndarray:
    return resample_frames(read_feature_file(path), frames)


# --- manifests ---------------------------------------------------------

_SPLITS = ("train", "test", "unassigned")


def write_manifest(path: str | Path, records: list[dict]) -> None:
    text = json.dumps({"records": records}, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def _parse_records(path: Path) -> list[dict]:
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        # undecodable text, bad JSON, or an int past the digit limit
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list) or not records:
        raise ManifestError("manifest must contain a nonempty 'records' list")
    return records


def load_manifest(
    path: str | Path,
    frames: int,
    score_range: tuple[float, float],
    seed: int,
    test_ratio: float,
    max_train: int,
) -> LoadedData:
    """Parse, validate, split, and cap a manifest.

    Per session: explicit split tags are honored; unassigned records get a
    seeded train/test split at the given ratio; the train side is capped
    at max_train by seeded subsampling. A session named 'Others' is routed
    to the base-pretraining slot instead of the continual task list.
    """
    path = Path(path)
    records = _parse_records(path)
    lo, hi = score_range
    seen_ids: set[str] = set()
    by_session: dict[str, list[tuple[dict, int]]] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ManifestError(f"record {i}: expected an object, got {type(rec).__name__}")
        for key in ("id", "feature_path", "score", "session"):
            if key not in rec:
                raise ManifestError(f"record {i}: missing field '{key}'")
        for key in ("id", "feature_path", "session"):
            if not isinstance(rec[key], str):
                raise ManifestError(f"record {i}: field '{key}' is not a string")
        if not isinstance(rec.get("variant", ""), (str, type(None))):
            raise ManifestError(f"record {i}: field 'variant' is not a string")
        if rec["id"] in seen_ids:
            raise ManifestError(f"record {i}: duplicate id '{rec['id']}'")
        seen_ids.add(rec["id"])
        score = rec["score"]
        if not _is_number(score):
            raise ManifestError(f"record {i}: score {score!r} is not a number")
        if not lo <= score <= hi:
            raise ManifestError(
                f"record {i}: score {score} outside configured range [{lo}, {hi}]"
            )
        split = rec.get("split", "unassigned")
        if split not in _SPLITS:
            raise ManifestError(f"record {i}: unknown split '{split}'")
        feature_path = path.parent / rec["feature_path"]
        if not feature_path.is_file():
            raise ManifestError(f"record {i}: missing feature file '{feature_path}'")
        by_session.setdefault(rec["session"], []).append((rec, i))

    def _load(rec: dict) -> ScoredSample:
        return ScoredSample(
            sample_id=rec["id"],
            features=ingest_features(path.parent / rec["feature_path"], frames),
            score=float(rec["score"]),
            session=rec["session"],
            variant=rec.get("variant"),
        )

    base: SessionData | None = None
    sessions: list[SessionData] = []
    for name, pairs in by_session.items():
        train_recs = [r for r, _ in pairs if r.get("split", "unassigned") == "train"]
        test_recs = [r for r, _ in pairs if r.get("split", "unassigned") == "test"]
        unassigned = [r for r, _ in pairs if r.get("split", "unassigned") == "unassigned"]
        if unassigned:
            rng = SeededRng(derive_seed(seed, f"split:{name}"))
            order = rng.permutation(len(unassigned))
            n_test = int(len(unassigned) * test_ratio + 0.5)
            test_idx = set(order[:n_test].tolist())
            test_recs += [unassigned[i] for i in range(len(unassigned)) if i in test_idx]
            train_recs += [unassigned[i] for i in range(len(unassigned)) if i not in test_idx]
        if len(train_recs) > max_train:
            rng = SeededRng(derive_seed(seed, f"cap:{name}"))
            keep = sorted(rng.permutation(len(train_recs))[:max_train].tolist())
            train_recs = [train_recs[i] for i in keep]
        session = SessionData(
            name=name,
            train=[_load(r) for r in train_recs],
            test=[_load(r) for r in test_recs],
        )
        if name == BASE_SESSION:
            base = session
        else:
            sessions.append(session)
    samples = [s for part in (base, *sessions) if part for s in part.train + part.test]
    for sample in samples:
        if sample.features.shape[1] != samples[0].features.shape[1]:
            raise ManifestError(
                f"sample '{sample.sample_id}' has feature dimension {sample.features.shape[1]},"
                f" sample '{samples[0].sample_id}' has {samples[0].features.shape[1]}"
            )
    return LoadedData(base=base, sessions=sessions)


# --- synthetic drift benchmark ----------------------------------------

SYNTH_SCORE_RANGE = (1.0, 5.0)


@dataclass(frozen=True)
class SynthSpec:
    """Desk-scale stand-in for a non-stationary session stream."""

    sessions: int = 5
    samples_per_session: int = 62
    frames: int = 16
    feat_dim: int = 32
    drift: float = 1.5
    noise_std: float = 0.05
    seed: int = 7
    include_base: bool = True

    def __post_init__(self) -> None:
        if self.sessions < 1 or self.samples_per_session < 2:
            raise ValueError(f"degenerate synthetic spec: {self}")
        if self.frames < 2 or self.feat_dim < 2:
            raise ValueError(f"frames and feat_dim must be >= 2, got {self}")
        if self.drift < 0 or self.noise_std < 0:
            raise ValueError(f"drift and noise_std must be >= 0, got {self}")
        if self.drift > 2.0:
            raise ValueError("drift > 2.0 cannot keep unit planted weights")


_SCORE_CENTER = 3.0
_LATENT_STD = 0.7
_LATENT_RANK = 4
_WAVE_AMP = 1.0
_JITTER_STD = 0.05


def drift_benchmark_spec() -> SynthSpec:
    """The committed drift benchmark: 5 sessions of 62 samples (50 train /
    12 test at the default 0.2 ratio) plus a base session, T=16, D=32."""
    return SynthSpec()


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(v @ v)


def _rotate_toward(w: np.ndarray, raw_dir: np.ndarray, chord: float) -> np.ndarray:
    """Move w along the unit sphere so that ||w' - w|| == chord exactly."""
    if chord == 0.0:
        return w.copy()
    tangent = raw_dir - (raw_dir @ w) * w
    tangent = _unit(tangent)
    theta = 2.0 * np.arcsin(chord / 2.0)
    return np.cos(theta) * w + np.sin(theta) * tangent


def _session_basis(w: np.ndarray, rng: SeededRng, rank: int) -> np.ndarray:
    """Orthonormal basis of the session's latent subspace; the first axis
    is the scoring direction, so scores generalize from few samples."""
    dim = w.size
    cols = [w]
    while len(cols) < rank:
        v = rng.normal(dim)
        for c in cols:
            v = v - (v @ c) * c
        cols.append(_unit(v))
    return np.stack(cols, axis=1)


def generate_synthetic(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write feature files, a manifest, and the planted ground truth.

    Session s draws video latents around a drifting mean; the true score
    is an affine map of the pooled feature under unit planted weights
    w_s with ||w_{s+1} - w_s|| equal to the drift magnitude, plus noise,
    clipped to the score range. Returns the manifest path.
    """
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = SeededRng(spec.seed)
    lo, hi = SYNTH_SCORE_RANGE

    w = _unit(rng.normal(spec.feat_dim))
    # session means drift on the unit sphere too, so consecutive means are
    # exactly `drift` apart while input norms stay bounded across sessions
    mean = _unit(rng.normal(spec.feat_dim))
    session_names = [BASE_SESSION] if spec.include_base else []
    session_names += [f"session{s + 1}" for s in range(spec.sessions)]

    records: list[dict] = []
    truth_sessions: list[dict] = []
    first = True
    for name in session_names:
        if not first:
            w = _rotate_toward(w, rng.normal(spec.feat_dim), spec.drift)
            mean = _rotate_toward(mean, rng.normal(spec.feat_dim), spec.drift)
        first = False
        bias = _SCORE_CENTER - float(w @ mean)
        basis = _session_basis(w, rng, min(_LATENT_RANK, spec.feat_dim))
        truth_sessions.append(
            {"name": name, "weights": w.tolist(), "bias": bias, "mean": mean.tolist()}
        )
        for i in range(spec.samples_per_session):
            latent = basis @ (_LATENT_STD * rng.normal(basis.shape[1]))
            wave_dir = _WAVE_AMP * _unit(rng.normal(spec.feat_dim))
            phase = 2.0 * np.pi * rng.uniform(1)[0]
            tt = np.arange(spec.frames)
            wave = np.sin(2.0 * np.pi * tt / spec.frames + phase)[:, None] * wave_dir[None, :]
            jitter = _JITTER_STD * rng.normal(spec.frames * spec.feat_dim).reshape(
                spec.frames, spec.feat_dim
            )
            feats = mean[None, :] + latent[None, :] + wave + jitter
            # score the feature matrix as stored (32-bit), so the planted
            # scorer is exact on what a reader will see
            feats = feats.astype(np.float32).astype(np.float64)
            noise = spec.noise_std * rng.normal(1)[0]
            score = float(np.clip(w @ feats.mean(axis=0) + bias + noise, lo, hi))
            sample_id = f"{name}_{i:03d}"
            rel_path = f"features/{sample_id}.feat"
            write_feature_file(out_dir / rel_path, feats)
            records.append(
                {
                    "id": sample_id,
                    "feature_path": rel_path,
                    "score": score,
                    "session": name,
                    "split": "unassigned",
                }
            )

    manifest_path = out_dir / "manifest.json"
    write_manifest(manifest_path, records)
    truth = {
        "score_range": list(SYNTH_SCORE_RANGE),
        "spec": asdict(spec),
        "sessions": truth_sessions,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")
    return manifest_path


# --- reports -----------------------------------------------------------


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ManifestError(f"duplicate key '{key}' in report")
        out[key] = value
    return out


def report_text(report: MetricReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_report(report: MetricReport, path: str | Path) -> None:
    Path(path).write_text(report_text(report))


def read_report(path: str | Path) -> MetricReport:
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_reject_duplicate_keys)
    except ManifestError:
        raise
    except ValueError as exc:
        # undecodable text, bad JSON, or an int past the digit limit
        raise ManifestError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"report must be a JSON object, got {type(data).__name__}")
    for key, kind in (("mode", str), ("seed", int), ("pooled", dict), ("sessions", dict)):
        if key not in data:
            raise ManifestError(f"report missing field '{key}'")
        if not (_is_int(data[key]) if kind is int else isinstance(data[key], kind)):
            raise ManifestError(f"report field '{key}' is not a {kind.__name__}")
    for key, kind in (
        ("config_hash", str), ("config", dict), ("variants", dict),
        ("counters", dict), ("flatness", dict), ("notes", list),
    ):
        if key in data and not isinstance(data[key], kind):
            raise ManifestError(f"report field '{key}' is not a {kind.__name__}")
    for tag, entry in data["sessions"].items():
        where = f"report session '{tag}'"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where} is not an object")
        for key in ("n", "plcc", "srcc", "rl2e"):
            if key not in entry:
                raise ManifestError(f"{where} missing field '{key}'")
        if not _is_int(entry["n"]):
            raise ManifestError(f"{where} field 'n' is not an int")
        for key in ("plcc", "srcc", "rl2e"):
            _check_metric(entry[key], f"{where} field '{key}'")
    for key in ("srcc_ove", "rl2e_ove"):
        if key in data["pooled"]:
            _check_metric(data["pooled"][key], f"report pooled field '{key}'")
    return MetricReport.from_dict(data)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    """An int or a float; a bool is neither."""
    return _is_int(value) or isinstance(value, float)


def _check_metric(value: object, where: str) -> None:
    """A metric value is a number, or null when undefined."""
    if value is not None and not _is_number(value):
        raise ManifestError(f"{where} is not a number or null")
