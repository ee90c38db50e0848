"""Replay memory bank: stratified exemplar selection, compressed storage.

At the end of a session, samples are sorted by score and evenly sampled
so the stored exemplars span the session's score range; each chosen
sample is compressed to its K key-frame feature rows before storage.
Replay draws uniformly without replacement across the union of all
stored sessions. The bank serializes to a compact little-endian binary
file with 32-bit floats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ScoredSample
from .keyframe import phi_select
from .numkit import SeededRng

BANK_MAGIC = b"ASALBANK"
BANK_VERSION = 1


class BankError(ValueError):
    """Invalid bank operation or malformed bank file."""


@dataclass(frozen=True)
class Exemplar:
    sample_id: str
    features: np.ndarray  # (K, D) compressed key-frame rows
    score: float
    session: str


@dataclass
class MemoryBank:
    sessions: dict[str, list[Exemplar]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not any(self.sessions.values())

    def all_exemplars(self) -> list[Exemplar]:
        return [e for exemplars in self.sessions.values() for e in exemplars]

    def num_floats(self) -> int:
        return sum(e.features.size for e in self.all_exemplars())


def select_exemplars(samples: list[ScoredSample], m: int) -> list[int]:
    """Indices of the samples kept for replay.

    Samples are ranked by (score, id); positions floor(i*(n-1)/(m-1)) are
    kept, which always includes the lowest- and highest-scored samples.
    """
    if not samples:
        raise BankError("cannot select exemplars from an empty session")
    if m < 1:
        raise BankError(f"exemplar quota must be >= 1, got {m}")
    order = sorted(range(len(samples)), key=lambda i: (samples[i].score, samples[i].sample_id))
    n = len(samples)
    if m >= n:
        return order
    if m == 1:
        return [order[0]]
    positions = [(i * (n - 1)) // (m - 1) for i in range(m)]
    return [order[p] for p in positions]


def write_session(
    bank: MemoryBank,
    samples: list[ScoredSample],
    m: int,
    k: int,
    diversity_weight: float,
) -> None:
    """Compress and append one session's exemplars; sessions write once."""
    if not samples:
        raise BankError("cannot write an empty session")
    tags = {s.session for s in samples}
    if len(tags) != 1:
        raise BankError(f"mixed session tags in one write: {sorted(tags)}")
    tag = samples[0].session
    if tag in bank.sessions:
        raise BankError(f"session '{tag}' already written")
    chosen = select_exemplars(samples, m)
    bank.sessions[tag] = [
        Exemplar(
            sample_id=samples[i].sample_id,
            features=phi_select(samples[i].features, k, diversity_weight),
            score=samples[i].score,
            session=tag,
        )
        for i in chosen
    ]


def sample_replay_batch(bank: MemoryBank, b2: int, rng: SeededRng) -> list[Exemplar]:
    """Up to b2 exemplars drawn uniformly without replacement from the
    union of stored sessions; empty list signals no-replay."""
    pool = bank.all_exemplars()
    if not pool:
        return []
    take = min(b2, len(pool))
    idx = rng.permutation(len(pool))[:take]
    return [pool[i] for i in idx]


# --- bank file ----------------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def save_bank(bank: MemoryBank, path: str | Path) -> None:
    chunks = [BANK_MAGIC, struct.pack("<II", BANK_VERSION, len(bank.sessions))]
    for tag, exemplars in bank.sessions.items():
        if not exemplars:
            raise BankError(f"session '{tag}' has no exemplars to serialize")
        k, d = exemplars[0].features.shape
        chunks.append(_pack_str(tag))
        chunks.append(struct.pack("<III", len(exemplars), k, d))
        for e in exemplars:
            if e.features.shape != (k, d):
                raise BankError(
                    f"inconsistent exemplar shape {e.features.shape} in '{tag}'"
                )
            chunks.append(_pack_str(e.sample_id))
            chunks.append(struct.pack("<f", e.score))
            chunks.append(e.features.astype("<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def bank_file_size(bank: MemoryBank) -> int:
    """Exact size in bytes of the serialized bank: metadata plus
    4 bytes per stored feature float."""
    size = len(BANK_MAGIC) + 8
    for tag, exemplars in bank.sessions.items():
        size += 4 + len(tag.encode("utf-8")) + 12
        for e in exemplars:
            size += 4 + len(e.sample_id.encode("utf-8")) + 4 + 4 * e.features.size
    return size


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise BankError(
                f"truncated bank file: needed {n} bytes for {what} at offset {self.pos}"
            )
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32(self, what: str) -> float:
        return struct.unpack("<f", self.take(4, what))[0]

    def string(self, what: str) -> str:
        raw = self.take(self.u32(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BankError(
                f"{what} at offset {self.pos - len(raw)} is not valid UTF-8"
            ) from exc


def load_bank(path: str | Path) -> MemoryBank:
    reader = _Reader(Path(path).read_bytes())
    magic = reader.take(8, "magic")
    if magic != BANK_MAGIC:
        raise BankError(f"bad magic {magic!r}, expected {BANK_MAGIC!r}")
    version = reader.u32("version")
    if version != BANK_VERSION:
        raise BankError(f"unsupported bank version {version}")
    bank = MemoryBank()
    for _ in range(reader.u32("session count")):
        tag = reader.string("session tag")
        if tag in bank.sessions:
            raise BankError(f"duplicate session '{tag}' in bank file")
        count = reader.u32("exemplar count")
        k = reader.u32("K")
        d = reader.u32("D")
        exemplars = []
        for _ in range(count):
            sample_id = reader.string("sample id")
            score = reader.f32("score")
            payload = reader.take(4 * k * d, "features")
            feats = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(k, d)
            exemplars.append(
                Exemplar(sample_id=sample_id, features=feats, score=score, session=tag)
            )
        bank.sessions[tag] = exemplars
    if reader.pos != len(reader.raw):
        raise BankError(f"trailing bytes after bank payload at offset {reader.pos}")
    return bank
