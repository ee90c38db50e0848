"""Data layer: feature codec, manifests, splits, synthetic data, reports.

Feature files hold one video's per-frame feature matrix as little-endian
32-bit floats behind a fixed header; everything is float64 once in
memory. Manifests are JSON. The synthetic generator plants a known
per-session linear scorer and ships it alongside the data so tests can
compute exact oracles.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import stat
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NoReturn, TypeVar

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
    rejects truncation, a bad preamble, trailing bytes and non-finite
    floats the same way: with `error` (CodecError or a subclass), its
    message after `prefix`, naming the byte offset. The walk moves past
    float payloads with `run`, which records them for `decode`.
    """

    def __init__(self, raw: bytes, error: type[CodecError] = CodecError, prefix: str = ""):
        self.raw = raw
        self.pos = 0
        self.error = error
        self.prefix = prefix
        # per recorded run: where it starts, its float count and its name(s)
        self.runs: list[tuple[int, int, str | list[str]]] = []

    def fault(self, message: str, offset: int) -> CodecError:
        return self.error(self.prefix + message, offset)

    def skip(self, n: int, what: str) -> int:
        """Move past n bytes, rejecting a read beyond the end; where they start."""
        start = self.pos
        end = start + n
        if n < 0 or end > len(self.raw):
            raise self.fault(
                f"truncated {what}: expected {end} bytes total, got {len(self.raw)}", start
            )
        self.pos = end
        return start

    def take(self, n: int, what: str) -> bytes:
        return self.raw[self.skip(n, what) : self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        packed = _struct(fmt)
        return packed.unpack_from(self.raw, self.skip(packed.size, what))

    def strings(self, count: int, what: str) -> list[str]:
        """count UTF-8 strings: a column of count u32 byte lengths, then the
        strings back to back, each decoded on its own so that a fault names
        its offset. The first cut length, cut string or invalid string is
        reported, as reading them one at a time would."""
        raw, start = self.raw, self.pos
        size = len(raw)
        whole = min(count, (size - start) // 4)
        self.pos = start + 4 * whole
        if whole < count:
            self.skip(4, f"{what} length")
        lengths = np.frombuffer(raw, "<u4", count, start).tolist()
        at, decoded = self.pos, []
        try:
            for n in lengths:
                if at + n > size:
                    break
                decoded.append(raw[at : at + n].decode("utf-8"))
                at += n
        except UnicodeDecodeError as exc:
            raise self.fault(f"{what} is not valid UTF-8", at) from exc
        self.pos = at
        if len(decoded) < count:
            self.skip(lengths[len(decoded)], what)
        return decoded

    def preamble(self, magic: bytes, version: int) -> None:
        """The magic bytes, then a u32 format version."""
        found = self.take(len(magic), "magic")
        if found != magic:
            raise self.fault(f"bad magic {found!r}, expected {magic!r}", 0)
        (found_version,) = self.unpack("I", "version")
        if found_version != version:
            raise self.fault(f"unsupported version {found_version}", len(magic))

    def run(self, dtype: str, count: int, what: str | list[str]) -> None:
        """Move past count floats stored as dtype, recording them for
        decode. `what` names the run, or is a list naming each of its equal
        rows: a fault then names its row and the index in it, and a cut
        run records its whole rows and reports the first cut one, as if
        each row were a run of its own."""
        width = _itemsize(dtype)
        if isinstance(what, str):
            self.runs.append((self.skip(width * count, what), count, what))
            return
        row = count // len(what)
        whole = min(len(what), (len(self.raw) - self.pos) // (width * row))
        self.runs.append((self.skip(width * row * whole, what[0]), row * whole, what[:whole]))
        if whole < len(what):
            self.skip(width * row, what[whole])

    def decode(self, dtype: str, walk: Callable[[], T]) -> tuple[T, list[np.ndarray]]:
        """What walk() returns, and the float64 values of each run it
        recorded with run, as views of one flat block.

        The runs are joined, checked for finiteness and cast at once. The
        first non-finite value is rejected naming its run's `what` (or its
        row's name, for a run of named rows), its flat index in the run (or
        row) and its byte offset. A CodecError the walk raises comes after
        every run it recorded, so it is raised only when those runs are
        finite: the first fault in the input is the one reported.
        """
        fault = None
        try:
            walked = walk()
        except CodecError as exc:
            fault = exc
        runs, width = self.runs, _itemsize(dtype)
        view = memoryview(self.raw)
        stored = np.frombuffer(b"".join([view[s : s + width * n] for s, n, _ in runs]), dtype=dtype)
        offsets = [0, *itertools.accumulate(n for _, n, _ in runs)]
        # checked before the cast, which would warn on a signaling NaN
        finite = np.isfinite(stored)
        if not finite.all():
            at = int(np.flatnonzero(~finite)[0])
            i = int(np.searchsorted(offsets, at, side="right")) - 1
            start, count, what = runs[i]
            col = at - offsets[i]
            byte = start + width * col
            if not isinstance(what, str):
                row, col = divmod(col, count // len(what))
                what = what[row]
            raise self.fault(f"non-finite value in {what} at flat index {col}", byte)
        if fault is not None:
            raise fault
        block = stored.astype(np.float64)
        return walked, [block[a:b] for a, b in zip(offsets, offsets[1:])]

    def end(self, what: str) -> None:
        if self.pos != len(self.raw):
            raise self.fault(f"{len(self.raw) - self.pos} trailing bytes after {what}", self.pos)


# looked up for every field and run of every file a Reader walks, so built once
_struct = functools.cache(lambda fmt: struct.Struct("<" + fmt))
_itemsize = functools.cache(lambda dtype: np.dtype(dtype).itemsize)

T = TypeVar("T")


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
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, *features.shape)
    Path(path).write_bytes(header + features.astype("<f4").tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    return _read_features([(path, Path(path).read_bytes())])[0]


# magic, version, T, D
_FEATURE_HEADER = struct.Struct("<8sIII")


def _read_features(files: list[tuple[str | Path, bytes]]) -> list[np.ndarray]:
    """The float64 (T, D) matrices of feature files, given as (name, bytes)
    pairs, as views of one block. When every file holds a well-formed
    header and exactly its T * D finite floats, which one header unpack
    per file and one finiteness pass show, the payloads decode as one
    block; otherwise _raise_feature_fault reports the first fault."""
    header = _FEATURE_HEADER
    shapes = []
    for _, raw in files:
        if len(raw) < header.size:
            break
        magic, version, t, d = header.unpack_from(raw)
        if (
            magic != FEATURE_MAGIC
            or version != FEATURE_VERSION
            or t < 1
            or d < 1
            or len(raw) != header.size + 4 * t * d
        ):
            break
        shapes.append((t, d))
    else:
        stored = np.frombuffer(
            b"".join([memoryview(raw)[header.size :] for _, raw in files]), dtype="<f4"
        )
        # checked before the cast, which would warn on a signaling NaN
        if np.isfinite(stored).all():
            block = stored.astype(np.float64)
            offsets = itertools.accumulate((t * d for t, d in shapes), initial=0)
            return [block[at : at + t * d].reshape(t, d) for at, (t, d) in zip(offsets, shapes)]
    _raise_feature_fault(files)


def _raise_feature_fault(files: list[tuple[str | Path, bytes]]) -> NoReturn:
    """Raise the first fault, in file order, of feature files that
    _read_features rejected. Each file is decoded by a Reader walk of its
    header and end, so a fault names its file and byte offset, and a bad
    end is raised only after the file's payload is found finite. The walk
    accepts exactly what the header check accepts, so when every header
    passes, a payload holds the non-finite value that decode raises for."""
    for name, raw in files:
        reader = Reader(raw, prefix=f"feature file '{name}': ")

        def walk() -> None:
            reader.preamble(FEATURE_MAGIC, FEATURE_VERSION)
            t, d = reader.unpack("II", "shape")
            if t < 1 or d < 1:
                raise reader.fault(f"empty shape ({t}, {d}) in header", 12)
            reader.run("<f4", t * d, "features")
            reader.end("features")

        reader.decode("<f4", walk)
    raise AssertionError("feature files that pass every check reached the fault walk")


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
    return features[idx]


_READ_FLAGS = os.O_RDONLY | os.O_NONBLOCK


def _read_regular_file(path: str) -> bytes | None:
    """The bytes of path, or None when it is not a regular file. It is
    opened without blocking, so a listed FIFO is not waited on."""
    try:
        fd = os.open(path, _READ_FLAGS)
    except (FileNotFoundError, NotADirectoryError, ValueError):
        # ValueError: a path with a NUL byte
        return None
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            return None
        # read to the end, even if the file grew since fstat
        chunks = [os.read(fd, info.st_size + 1)]
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
    finally:
        os.close(fd)
    return chunks[0] if len(chunks) == 2 else b"".join(chunks)


# --- manifests ---------------------------------------------------------

_SPLITS = ("train", "test", "unassigned")


def write_manifest(path: str | Path, records: list[dict]) -> None:
    Path(path).write_text(_json_text({"records": records}, "manifest"))


def _parse_records(path: Path) -> list[dict]:
    payload = _parse_json(path.read_bytes(), ManifestError, "manifest")
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
    folder = path.parent
    prefix = str(folder / "x")[:-1]  # str(folder / name) is prefix + name
    files: dict[str, tuple[str, bytes]] = {}  # id -> (feature file, its bytes)
    by_session: dict[str, dict[str, list[dict]]] = {}  # name -> split -> records
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
        if rec["id"] in files:
            raise ManifestError(f"record {i}: duplicate id '{rec['id']}'")
        score = rec["score"]
        # the JSON reader gives a number as exactly an int or a float
        if type(score) is not float and type(score) is not int:
            raise ManifestError(f"record {i}: score {score!r} is not a number")
        if not lo <= score <= hi:
            raise ManifestError(
                f"record {i}: score {score} outside configured range [{lo}, {hi}]"
            )
        split = rec.get("split", "unassigned")
        if split not in _SPLITS:
            raise ManifestError(f"record {i}: unknown split '{split}'")
        name = rec["feature_path"]
        parts = name.split("/")
        # joined as strings unless Path would respell name: absolute, or with
        # an empty or '.' part
        feature_path = str(folder / name) if "" in parts or "." in parts else prefix + name
        try:
            raw = _read_regular_file(feature_path)
        except OSError as exc:
            raise ManifestError(
                f"record {i}: cannot read feature file '{feature_path}': {exc.strerror or exc}"
            ) from exc
        if raw is None:
            raise ManifestError(f"record {i}: missing feature file '{feature_path}'")
        files[rec["id"]] = (feature_path, raw)
        parts = by_session.get(rec["session"])
        if parts is None:
            parts = by_session[rec["session"]] = {split: [] for split in _SPLITS}
        parts[split].append(rec)

    splits: list[tuple[str, list[dict], list[dict]]] = []
    for name, parts in by_session.items():
        train_recs, test_recs, unassigned = (parts[split] for split in _SPLITS)
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
        splits.append((name, train_recs, test_recs))

    # only the records kept are decoded, all in one pass and in load order
    kept = [r for _, train_recs, test_recs in splits for r in train_recs + test_recs]
    loaded = [
        ScoredSample(
            rec["id"], resample_frames(features, frames), float(rec["score"]), rec["session"],
            rec.get("variant"),
        )
        for rec, features in zip(kept, _read_features([files[r["id"]] for r in kept]))
    ]

    base: SessionData | None = None
    sessions: list[SessionData] = []
    end = 0
    for name, train_recs, test_recs in splits:
        start, cut = end, end + len(train_recs)
        end = cut + len(test_recs)
        session = SessionData(name=name, train=loaded[start:cut], test=loaded[cut:end])
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
        # NaN passes a `< 0` check
        if not (0 <= self.drift < math.inf and 0 <= self.noise_std < math.inf):
            raise ValueError(f"drift and noise_std must be finite and >= 0, got {self}")
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
    (out_dir / "truth.json").write_text(_json_text(truth, "truth"))
    return manifest_path


# --- JSON: manifests, truth.json, reports, checkpoint headers -----------


def _json_text(document: object, what: str) -> str:
    """The indented, key-sorted text of a document, in ASCII: json escapes
    every other character. A non-finite number, which JSON cannot hold
    (RFC 8259), raises FloatingPointError."""
    try:
        return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"{what} holds a non-finite number: {exc}") from exc


def _parse_json(raw: bytes, error: type[ValueError], what: str) -> object:
    """The document raw holds. Bytes that are not UTF-8, bad JSON, a
    duplicate key, NaN, Infinity, a number past the float range (1e999),
    an int past the digit limit and nesting too deep raise error, one of
    the package's own, as `malformed <what>: ...`."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        out = dict(pairs)
        if len(out) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise error(f"malformed {what}: duplicate key '{key}'")
        return out

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise error(f"malformed {what}: non-finite number {text}")
        return value

    try:
        return json.loads(
            raw.decode("utf-8"), object_pairs_hook=unique, parse_float=finite, parse_constant=finite
        )
    except error:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what}: not valid JSON: {type(exc).__name__}: {exc}") from exc


# --- reports -----------------------------------------------------------


def report_text(report: MetricReport) -> str:
    return _json_text(report.to_dict(), "report")


def emit_report(report: MetricReport, path: str | Path) -> None:
    Path(path).write_text(report_text(report))


def read_report(path: str | Path) -> MetricReport:
    data = _parse_json(Path(path).read_bytes(), ManifestError, "report")
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
