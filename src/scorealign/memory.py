"""Replay memory bank: stratified exemplar selection, compressed storage.

At the end of a session, samples are sorted by score and evenly sampled
so the stored exemplars span the session's score range; the chosen
samples are compressed to their K key-frame feature rows as one stack
before storage. A stored session is columns, as in its file: an id list,
a score vector and a (count, K, D) feature array. Replay draws uniformly
without replacement from the stored sessions joined as one pool. One
session table encodes the stored exemplars: the bank file holds it at
32-bit floats, a checkpoint at 64-bit floats. Each session's run decodes
where the reader meets it, and its columns are views of that run; the
decoder rejects what the encoder never writes: an empty session or an
empty exemplar shape.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .data import CodecError, Reader, ScoredSample
from .keyframe import phi_select
from .numkit import SeededRng

BANK_MAGIC = b"ASALBANK"
BANK_VERSION = 2


class BankError(CodecError):
    """Invalid bank operation or malformed bank file."""


class Exemplar(NamedTuple):  # one row of a Session, as iterating it yields
    sample_id: str
    features: np.ndarray  # (K, D) compressed key-frame rows
    score: float


@dataclass(frozen=True)
class Session:
    """Stored exemplars as columns; row i of each is exemplar i."""

    ids: list[str]
    scores: np.ndarray  # (count,) float64
    features: np.ndarray  # (count, K, D) compressed key-frame rows

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Exemplar]:
        return map(Exemplar, self.ids, self.features, self.scores.tolist())


@dataclass
class MemoryBank:
    sessions: dict[str, Session] = field(default_factory=dict)

    def num_floats(self) -> int:
        return sum(s.features.size for s in self.sessions.values())

    def replay_pool(self) -> Session:
        """The stored sessions, of which there is at least one, joined in
        session order as one copy: replay draws from it."""
        sessions = self.sessions.values()
        return Session(
            [i for s in sessions for i in s.ids],
            np.concatenate([s.scores for s in sessions]),
            np.concatenate([s.features for s in sessions]),
        )


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
    bank.sessions[tag] = Session(
        [samples[i].sample_id for i in chosen],
        np.array([samples[i].score for i in chosen], dtype=np.float64),
        phi_select(np.stack([samples[i].features for i in chosen]), k, diversity_weight),
    )


def sample_replay_batch(pool: Session, b2: int, rng: SeededRng) -> np.ndarray:
    """The indices of up to b2 rows of pool, drawn uniformly without
    replacement, in draw order."""
    return rng.permutation(len(pool))[:b2]


# --- session table and bank file ---------------------------------------


def encode_sessions(bank: MemoryBank, dtype: str) -> bytes:
    """The session table, the one layout of stored exemplars: the session
    count, then per session its tag, exemplar count, K and D, each
    exemplar's id length, the ids' UTF-8 bytes back to back, and one
    (count, 1 + K x D) run of each exemplar's score then K x D feature rows
    at dtype. Counts, lengths and shapes are little-endian u32; a tag is
    its length, then its UTF-8 bytes."""
    chunks = [struct.pack("<I", len(bank.sessions))]
    for tag, session in bank.sessions.items():
        if not session:
            raise BankError(f"session '{tag}' has no exemplars to serialize")
        count, k, d = session.features.shape
        tag_bytes = tag.encode("utf-8")
        ids = [sample_id.encode("utf-8") for sample_id in session.ids]
        chunks.append(
            struct.pack(
                f"<I{len(tag_bytes)}s{3 + len(ids)}I",
                len(tag_bytes), tag_bytes, len(ids), k, d, *map(len, ids),
            )
        )
        chunks.append(b"".join(ids))
        # one cast per session: row i is exemplar i's score, then its K x D rows
        runs = np.empty((count, 1 + k * d), dtype=dtype)
        runs[:, 0] = session.scores
        runs[:, 1:] = session.features.reshape(count, k * d)
        chunks.append(runs.tobytes())
    return b"".join(chunks)


def read_sessions(reader: Reader, dtype: str) -> MemoryBank:
    """The session table at the reader's cursor: a session's scores and
    features are views of its one decoded (count, 1 + K x D) run, whose
    rows are named by exemplar. Faults raise reader.error, at the offset a
    walk one exemplar at a time would report."""
    bank = MemoryBank()
    for _ in range(reader.unpack("I", "session count")[0]):
        tag_at = reader.pos
        (tag,) = reader.strings(1, "session tag")
        if tag in bank.sessions:
            raise reader.fault(f"duplicate session '{tag}' in session table", tag_at)
        shape_at = reader.pos
        count, k, d = reader.unpack("III", "exemplar count and shape")
        if count == 0:
            raise reader.fault(f"session '{tag}' has no exemplars", shape_at)
        if k == 0 or d == 0:
            raise reader.fault(f"session '{tag}' has empty exemplar shape ({k}, {d})", shape_at)
        ids = reader.strings(count, "sample id")
        rows = reader.floats(dtype, count * (1 + k * d), [f"exemplar '{i}'" for i in ids])
        rows = rows.reshape(count, 1 + k * d)
        bank.sessions[tag] = Session(ids, rows[:, 0], rows[:, 1:].reshape(count, k, d))
    return bank


def _encode_bank(bank: MemoryBank) -> bytes:
    return BANK_MAGIC + struct.pack("<I", BANK_VERSION) + encode_sessions(bank, "<f4")


def save_bank(bank: MemoryBank, path: str | Path) -> None:
    Path(path).write_bytes(_encode_bank(bank))


def bank_file_size(bank: MemoryBank) -> int:
    """Exact size in bytes of the file save_bank writes."""
    return len(_encode_bank(bank))


def load_bank(path: str | Path) -> MemoryBank:
    reader = Reader(Path(path).read_bytes(), BankError)
    reader.preamble(BANK_MAGIC, BANK_VERSION)
    bank = read_sessions(reader, "<f4")
    reader.end("bank payload")
    return bank
