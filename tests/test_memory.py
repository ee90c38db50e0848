from __future__ import annotations

import struct

import numpy as np
import pytest

from scorealign.data import Reader, ScoredSample
from scorealign.memory import (
    BANK_MAGIC,
    BANK_VERSION,
    BankError,
    MemoryBank,
    Session,
    bank_file_size,
    encode_sessions,
    load_bank,
    read_sessions,
    sample_replay_batch,
    save_bank,
    select_exemplars,
    write_session,
)
from scorealign.numkit import SeededRng


def _samples(scores, session="s1", t_frames=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ScoredSample(
            sample_id=f"{session}_{i:03d}",
            features=rng.normal(size=(t_frames, dim)),
            score=float(s),
            session=session,
        )
        for i, s in enumerate(scores)
    ]


def test_select_exemplars_documented_positions() -> None:
    samples = _samples(np.linspace(1.0, 5.0, 50))
    assert select_exemplars(samples, 5) == [0, 12, 24, 36, 49]


def test_select_exemplars_quota_at_least_n_returns_all() -> None:
    samples = _samples([3.0, 1.0, 2.0])
    chosen = select_exemplars(samples, 7)
    assert sorted(chosen) == [0, 1, 2]


def test_select_exemplars_single_slot_takes_lowest_score() -> None:
    samples = _samples([3.0, 1.0, 2.0])
    assert select_exemplars(samples, 1) == [1]


def test_select_exemplars_sorts_by_score_then_id() -> None:
    samples = _samples([2.0, 2.0, 1.0])
    # ties on score break by sample id: s1_000 before s1_001
    assert select_exemplars(samples, 2) == [2, 1]


def test_select_exemplars_random_cases_quota_and_extremes() -> None:
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 30))
        scores = rng.normal(size=n)
        samples = _samples(scores)
        chosen = select_exemplars(samples, m)
        assert len(chosen) == min(m, n)
        assert len(set(chosen)) == len(chosen)
        if m >= 2 or m >= n:
            assert int(np.argmin(scores)) in chosen
            assert int(np.argmax(scores)) in chosen


def test_select_exemplars_empty_rejected() -> None:
    with pytest.raises(BankError):
        select_exemplars([], 3)


def test_write_session_compresses_and_counts_floats() -> None:
    bank = MemoryBank()
    samples = _samples(np.linspace(1.0, 5.0, 50), t_frames=8, dim=256)
    write_session(bank, samples, m=16, k=3, diversity_weight=0.5)
    assert bank.num_floats() == 16 * 3 * 256
    assert len(bank.sessions["s1"]) == 16
    for exemplar in bank.sessions["s1"]:
        assert exemplar.features.shape == (3, 256)


def test_write_session_preserves_scores_exactly() -> None:
    bank = MemoryBank()
    scores = [1.25, 4.75, 3.125, 2.5]
    write_session(bank, _samples(scores), m=4, k=2, diversity_weight=0.5)
    stored = sorted(e.score for e in bank.sessions["s1"])
    assert stored == sorted(scores)


def test_two_sessions_stay_independent() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0, 3.0], session="a"), 2, 2, 0.5)
    write_session(bank, _samples([4.0, 5.0, 4.5], session="b"), 2, 2, 0.5)
    assert set(bank.sessions) == {"a", "b"}
    assert all(e.sample_id.startswith("a_") for e in bank.sessions["a"])
    assert all(e.sample_id.startswith("b_") for e in bank.sessions["b"])


def test_duplicate_session_write_rejected() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0]), 2, 2, 0.5)
    with pytest.raises(BankError, match="already written"):
        write_session(bank, _samples([3.0, 4.0]), 2, 2, 0.5)


def test_mixed_session_tags_rejected() -> None:
    bank = MemoryBank()
    mixed = _samples([1.0], session="a") + _samples([2.0], session="b")
    with pytest.raises(BankError, match="mixed"):
        write_session(bank, mixed, 2, 2, 0.5)


def test_stored_scores_span_session_range() -> None:
    rng = np.random.default_rng(9)
    for _ in range(20):
        bank = MemoryBank()
        scores = rng.normal(size=30)
        write_session(bank, _samples(scores), m=int(rng.integers(2, 10)), k=2, diversity_weight=0.5)
        stored = [e.score for e in bank.sessions["s1"]]
        assert min(stored) == pytest.approx(scores.min())
        assert max(stored) == pytest.approx(scores.max())


def test_replay_empty_bank_signals_no_replay() -> None:
    empty = Session([], np.empty(0), np.empty((0, 2, 4)))
    drawn = sample_replay_batch(empty, 2, SeededRng(0))
    assert len(drawn) == 0 and empty.features[drawn].shape == (0, 2, 4)


def test_replay_returns_all_when_bank_is_exactly_batch_sized() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0]), 2, 2, 0.5)
    pool = bank.replay_pool()
    drawn = sample_replay_batch(pool, 2, SeededRng(0))
    assert {pool.ids[i] for i in drawn} == {"s1_000", "s1_001"}


def test_replay_deterministic_for_fixed_seed() -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 20)), 8, 2, 0.5)
    pool = bank.replay_pool()
    a = [pool.ids[i] for i in sample_replay_batch(pool, 3, SeededRng(11))]
    b = [pool.ids[i] for i in sample_replay_batch(bank.replay_pool(), 3, SeededRng(11))]
    assert a == b


def test_replay_pool_joins_sessions_in_order_as_a_copy() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0, 3.0], session="b"), 2, 2, 0.5)
    write_session(bank, _samples([4.0, 5.0], session="a"), 2, 2, 0.5)
    pool = bank.replay_pool()
    assert pool.ids == ["b_000", "b_002", "a_000", "a_001"]
    assert pool.scores.tolist() == [1.0, 3.0, 4.0, 5.0]
    assert np.array_equal(pool.features, np.concatenate([bank.sessions["b"].features, bank.sessions["a"].features]))
    assert not any(np.shares_memory(pool.features, s.features) for s in bank.sessions.values())


def test_replay_frequencies_are_uniform() -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 16), session="a"), 16, 2, 0.5)
    write_session(bank, _samples(np.linspace(1, 5, 16), session="b"), 16, 2, 0.5)
    rng = SeededRng(4)
    pool = bank.replay_pool()
    counts: dict[str, int] = {}
    draws = 10_000
    for _ in range(draws):
        for i in sample_replay_batch(pool, 2, rng):
            counts[pool.ids[i]] = counts.get(pool.ids[i], 0) + 1
    expected = draws * 2 / 32
    sigma = np.sqrt(draws * (2 / 32) * (30 / 32))
    assert len(counts) == 32
    for count in counts.values():
        assert abs(count - expected) < 3 * sigma


def test_bank_file_roundtrip_at_32bit_precision(tmp_path) -> None:
    bank = MemoryBank()
    rng = np.random.default_rng(3)
    # feature values representable in 32-bit so the roundtrip is exact
    samples = [
        ScoredSample(
            sample_id=f"v{i}",
            features=rng.normal(size=(4, 6)).astype(np.float32).astype(np.float64),
            score=float(np.float32(rng.uniform(1, 5))),
            session="s1",
        )
        for i in range(5)
    ]
    write_session(bank, samples, m=3, k=2, diversity_weight=0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    loaded = load_bank(path)
    assert set(loaded.sessions) == {"s1"}
    for a, b in zip(bank.sessions["s1"], loaded.sessions["s1"]):
        assert a.sample_id == b.sample_id
        assert a.score == b.score
        assert np.array_equal(a.features, b.features)


def test_bank_file_size_formula_matches_disk(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 30), t_frames=8, dim=16), 10, 3, 0.5)
    write_session(bank, _samples(np.linspace(1, 5, 12), session="s2", t_frames=8, dim=16), 5, 3, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    actual = path.stat().st_size
    assert actual == bank_file_size(bank)
    metadata = actual - 4 * bank.num_floats()
    assert 4 * bank.num_floats() == 4 * (10 + 5) * 3 * 16
    assert metadata > 0


def _version_one_size(bank: MemoryBank, width: int) -> int:
    """The table size of bank file version 1, which stored each id in front
    of its own run: the columnar layout moves bytes, it adds none."""
    size = 4
    for tag, session in bank.sessions.items():
        size += 4 + len(tag.encode()) + 12
        for e in session:
            size += 4 + len(e.sample_id.encode()) + width * (1 + e.features.size)
    return size


def _random_table_bank(rng: np.random.Generator) -> MemoryBank:
    """One to four sessions of mixed (K, D), one or several exemplars each,
    with ASCII, empty and multi-byte ids and tags."""
    names = ["", "a", "s1_000", "\u00e9t\u00e9", "\u4e2d\u6587\U0001f3b5", "x" * 40]
    bank = MemoryBank()
    for s in range(int(rng.integers(1, 5))):
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        count = 1 if rng.random() < 0.3 else int(rng.integers(2, 7))
        tag = f"{names[int(rng.integers(0, len(names)))]}{s}"
        rows = [
            (names[int(rng.integers(0, len(names)))], rng.normal(size=(k, d)), float(rng.normal()))
            for _ in range(count)
        ]
        ids, features, scores = zip(*rows)
        bank.sessions[tag] = Session(list(ids), np.array(scores), np.stack(features))
    return bank


@pytest.mark.parametrize("dtype", ["<f4", "<f8"])
def test_session_table_round_trips_at_the_version_one_size(tmp_path, dtype) -> None:
    rng = np.random.default_rng(31 if dtype == "<f4" else 32)
    width = np.dtype(dtype).itemsize
    shapes, ids = set(), set()
    for case in range(150):
        bank = _random_table_bank(rng)
        raw = encode_sessions(bank, dtype)
        assert len(raw) == _version_one_size(bank, width), case
        reader = Reader(raw, BankError)
        back = read_sessions(reader, dtype)
        reader.end("session table")
        assert list(back.sessions) == list(bank.sessions), case
        for tag, session in bank.sessions.items():
            got = back.sessions[tag]
            assert got.ids == session.ids, case
            assert got.features.dtype == np.float64 and got.features.shape == session.features.shape
            assert np.array_equal(got.features, session.features.astype(dtype).astype(np.float64)), case
            assert got.scores.dtype == np.float64
            assert np.array_equal(got.scores, session.scores.astype(dtype).astype(np.float64)), case
            shapes.add(session.features.shape[1:])
            ids.update(session.ids)
        if dtype == "<f4":
            # the bank file: magic, version, then the table
            assert bank_file_size(bank) == 8 + 4 + _version_one_size(bank, 4), case
            save_bank(bank, tmp_path / "bank.bin")
            assert (tmp_path / "bank.bin").stat().st_size == bank_file_size(bank), case
    assert len(shapes) > 10 and {"", "\u4e2d\u6587\U0001f3b5"} <= ids


def test_bank_file_rejects_nonfinite_values_with_offset(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0, 3.0]), 2, 2, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    raw = path.read_bytes()
    ids = [e.sample_id for e in bank.sessions["s1"]]
    assert ids == ["s1_000", "s1_002"]
    # magic, version, session count, tag "s1", exemplar count, K, D, the two
    # id lengths and ids, then the run: per exemplar its score and K x D rows
    score_at = 8 + 4 + 4 + (4 + 2) + 12 + 2 * 4 + 2 * 6
    row = 4 * (1 + 2 * 4)
    assert struct.unpack_from("<f", raw, score_at)[0] == 1.0
    assert struct.unpack_from("<f", raw, score_at + row)[0] == 3.0
    # each exemplar's score, first and last row value
    cells = [(score_at + row * i + 4 * col, ids[i], col) for i in (0, 1) for col in (0, 1, 8)]
    for value in (np.nan, np.inf, -np.inf):
        for offset, sample_id, col in cells:
            corrupt = bytearray(raw)
            corrupt[offset : offset + 4] = np.array(value, dtype="<f4").tobytes()
            path.write_bytes(bytes(corrupt))
            with pytest.raises(BankError) as err:
                load_bank(path)
            assert str(err.value) == (
                f"non-finite value in exemplar '{sample_id}' at flat index {col} (byte offset {offset})"
            )
            assert err.value.offset == offset


def test_bank_file_rejects_corruption(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0, 3.0]), 2, 2, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOTABANK" + raw[8:])
    with pytest.raises(BankError, match="magic"):
        load_bank(bad_magic)
    # version 1 held the per-exemplar session table
    version_one = tmp_path / "version_one.bin"
    version_one.write_bytes(raw[:8] + struct.pack("<I", 1) + raw[12:])
    with pytest.raises(BankError, match="unsupported version 1 .byte offset 8."):
        load_bank(version_one)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-7])
    with pytest.raises(BankError, match="truncated"):
        load_bank(truncated)
    trailing = tmp_path / "trailing.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(BankError, match="trailing"):
        load_bank(trailing)
    bad_tag = tmp_path / "bad_tag.bin"
    bad_tag.write_bytes(raw[:20] + b"\xff" + raw[21:])  # first byte of the session tag
    with pytest.raises(BankError, match="UTF-8"):
        load_bank(bad_tag)
    duplicate = tmp_path / "duplicate.bin"
    duplicate.write_bytes(raw[:12] + struct.pack("<I", 2) + raw[16:] + raw[16:])  # s1 twice
    with pytest.raises(BankError, match=f"duplicate session 's1'.*offset {len(raw)}") as err:
        load_bank(duplicate)
    assert err.value.offset == len(raw)


def _one_session_table(count: int, k: int, d: int, dtype: str) -> bytes:
    """A session table of one session 's1' that claims count exemplars of
    shape (k, d) and holds them: their id lengths, their ids, then each
    one's score and k x d values."""
    table = struct.pack("<I", 1) + struct.pack("<I", 2) + b"s1" + struct.pack("<III", count, k, d)
    ids = [f"s1_{j:03d}".encode() for j in range(count)]
    table += b"".join(struct.pack("<I", len(sample_id)) for sample_id in ids) + b"".join(ids)
    return table + np.tile(np.arange(1 + k * d, dtype=dtype), count).tobytes()


@pytest.mark.parametrize(
    "count, k, d, match",
    [
        (0, 3, 4, "session 's1' has no exemplars"),
        (2, 0, 4, r"session 's1' has empty exemplar shape \(0, 4\)"),
        (2, 3, 0, r"session 's1' has empty exemplar shape \(3, 0\)"),
    ],
)
def test_bank_file_rejects_sessions_encode_never_writes(tmp_path, count, k, d, match) -> None:
    # encode_sessions refuses an empty session, so a file holding one is corrupt;
    # loading it would leave a bank that save_bank cannot write back
    path = tmp_path / "bank.bin"
    path.write_bytes(BANK_MAGIC + struct.pack("<I", BANK_VERSION) + _one_session_table(count, k, d, "<f4"))
    shape_at = 8 + 4 + 4 + (4 + 2)  # magic, version, session count, tag "s1"
    with pytest.raises(BankError, match=f"{match}.*offset {shape_at}") as err:
        load_bank(path)
    assert err.value.offset == shape_at


def test_encode_refuses_a_session_without_exemplars() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0]), 2, 2, 0.5)
    bank.sessions["s2"] = Session([], np.empty(0), np.empty((0, 2, 4)))
    with pytest.raises(BankError, match="^session 's2' has no exemplars to serialize$"):
        encode_sessions(bank, "<f4")


def test_loaded_features_are_views_of_one_block_per_session(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 10)), 4, 2, 0.5)
    write_session(bank, _samples(np.linspace(1, 5, 10), session="s2", dim=3), 5, 3, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    loaded = load_bank(path)
    # each session's run decodes as one block; its two columns view it
    for tag, session in loaded.sessions.items():
        block = session.features.base
        assert block is not None and block.dtype == np.float64
        assert session.scores.base is block
        assert session.features.shape == bank.sessions[tag].features.shape
        assert session.scores.shape == (len(session),) == (len(session.ids),)
        # row i of the run is score i, then exemplar i's K x D values
        scores_at = session.scores.__array_interface__["data"][0]
        assert session.features.__array_interface__["data"][0] == scores_at + 8
        assert session.scores.strides[0] == session.features.strides[0] == 8 * (1 + session.features[0].size)
        assert all(type(e.score) is float for e in session)
