"""Replay memory bank: stratified exemplar selection, compressed storage.

At the end of a session, samples are sorted by score and evenly sampled
so the stored exemplars span the session's score range; the chosen
samples are compressed to their K key-frame feature rows as one stack
before storage. Replay draws uniformly without replacement across the
union of all stored sessions. One session table encodes the stored
exemplars: the bank file holds it at 32-bit floats, a checkpoint at
64-bit floats. The whole table decodes as one block, and the decoder
rejects what the encoder never writes: an empty session or an empty
exemplar shape.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import CodecError, Reader, ScoredSample, decode_block
from .keyframe import phi_select
from .numkit import SeededRng

BANK_MAGIC = b"ASALBANK"
BANK_VERSION = 2


class BankError(CodecError):
    """Invalid bank operation or malformed bank file."""


@dataclass(frozen=True)
class Exemplar:
    sample_id: str
    features: np.ndarray  # (K, D) compressed key-frame rows
    score: float


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
    compressed = phi_select(np.stack([samples[i].features for i in chosen]), k, diversity_weight)
    bank.sessions[tag] = [
        Exemplar(sample_id=samples[i].sample_id, features=rows, score=samples[i].score)
        for i, rows in zip(chosen, compressed)
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


# --- session table and bank file ---------------------------------------


def encode_sessions(bank: MemoryBank, dtype: str) -> bytes:
    """The session table, the one layout of stored exemplars: the session
    count, then per session its tag, exemplar count, K and D, each
    exemplar's id length, the ids' UTF-8 bytes back to back, and one
    (count, 1 + K x D) run of each exemplar's score then K x D feature rows
    at dtype. Counts, lengths and shapes are little-endian u32; a tag is
    its length, then its UTF-8 bytes."""
    chunks = [struct.pack("<I", len(bank.sessions))]
    for tag, exemplars in bank.sessions.items():
        if not exemplars:
            raise BankError(f"session '{tag}' has no exemplars to serialize")
        k, d = exemplars[0].features.shape
        for e in exemplars:
            if e.features.shape != (k, d):
                raise BankError(
                    f"inconsistent exemplar shape {e.features.shape} in '{tag}'"
                )
        tag_bytes = tag.encode("utf-8")
        ids = [e.sample_id.encode("utf-8") for e in exemplars]
        chunks.append(
            struct.pack(
                f"<I{len(tag_bytes)}s{3 + len(ids)}I",
                len(tag_bytes), tag_bytes, len(ids), k, d, *map(len, ids),
            )
        )
        chunks.append(b"".join(ids))
        # one cast per session: row i is exemplar i's score, then its K x D rows
        runs = np.empty((len(exemplars), 1 + k * d), dtype=dtype)
        runs[:, 0] = [e.score for e in exemplars]
        runs[:, 1:] = np.reshape([e.features for e in exemplars], (len(exemplars), k * d))
        chunks.append(runs.tobytes())
    return b"".join(chunks)


# a walked session table: per session tag, its exemplar ids, (K, D) and the
# index of its run among those the walk recorded
SessionTable = dict[str, tuple[list[str], int, int, int]]


def walk_sessions(reader: Reader, dtype: str, runs: list) -> SessionTable:
    """The session table at the reader's cursor, walked, with each
    session's (count, 1 + K x D) run recorded in runs for decode_block,
    its rows named by exemplar. Faults raise reader.error, at the offset a
    walk one exemplar at a time would report."""
    table: SessionTable = {}
    for _ in range(reader.unpack("I", "session count")[0]):
        tag_at = reader.pos
        tag = reader.string("session tag")
        if tag in table:
            raise reader.fault(f"duplicate session '{tag}' in session table", tag_at)
        shape_at = reader.pos
        count, k, d = reader.unpack("III", "exemplar count and shape")
        if count == 0:
            raise reader.fault(f"session '{tag}' has no exemplars", shape_at)
        if k == 0 or d == 0:
            raise reader.fault(f"session '{tag}' has empty exemplar shape ({k}, {d})", shape_at)
        ids = reader.strings(reader.lengths(count, "sample id length"), "sample id")
        table[tag] = (ids, k, d, len(runs))
        reader.run(runs, dtype, count * (1 + k * d), [f"exemplar '{i}'" for i in ids])
    return table


def sessions_from(table: SessionTable, block: np.ndarray, offsets: list[int]) -> MemoryBank:
    """The bank of a walked session table, given decode_block's block and
    run offsets: a session's exemplars' features are views of its one
    (count, 1 + K x D) run."""
    bank = MemoryBank()
    for tag, (ids, k, d, run) in table.items():
        at = offsets[run]
        rows = block[at : at + len(ids) * (1 + k * d)].reshape(len(ids), 1 + k * d)
        features = rows[:, 1:].reshape(len(ids), k, d)
        bank.sessions[tag] = [
            Exemplar(sample_id, f, score)
            for sample_id, f, score in zip(ids, features, rows[:, 0].tolist())
        ]
    return bank


def read_sessions(reader: Reader, dtype: str) -> MemoryBank:
    """The session table at the reader's cursor, decoded as one block."""
    table, block, offsets = decode_block(dtype, lambda runs: walk_sessions(reader, dtype, runs))
    return sessions_from(table, block, offsets)


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
