from __future__ import annotations

import struct

import numpy as np
import pytest

from scorealign.data import ScoredSample
from scorealign.memory import (
    BANK_MAGIC,
    BankError,
    MemoryBank,
    bank_file_size,
    load_bank,
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
    assert sample_replay_batch(MemoryBank(), 2, SeededRng(0)) == []


def test_replay_returns_all_when_bank_is_exactly_batch_sized() -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0]), 2, 2, 0.5)
    batch = sample_replay_batch(bank, 2, SeededRng(0))
    assert {e.sample_id for e in batch} == {"s1_000", "s1_001"}


def test_replay_deterministic_for_fixed_seed() -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 20)), 8, 2, 0.5)
    a = [e.sample_id for e in sample_replay_batch(bank, 3, SeededRng(11))]
    b = [e.sample_id for e in sample_replay_batch(bank, 3, SeededRng(11))]
    assert a == b


def test_replay_frequencies_are_uniform() -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 16), session="a"), 16, 2, 0.5)
    write_session(bank, _samples(np.linspace(1, 5, 16), session="b"), 16, 2, 0.5)
    rng = SeededRng(4)
    counts: dict[str, int] = {}
    draws = 10_000
    for _ in range(draws):
        for e in sample_replay_batch(bank, 2, rng):
            counts[e.sample_id] = counts.get(e.sample_id, 0) + 1
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


def test_bank_file_rejects_nonfinite_values_with_offset(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples([1.0, 2.0, 3.0]), 2, 2, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    raw = path.read_bytes()
    # magic, version, session count, tag "s1", exemplar count, K, D, then
    # the first exemplar: id "s1_000", its score, its K x D feature rows
    score_at = 8 + 4 + 4 + (4 + 2) + 12 + (4 + 6)
    assert struct.unpack_from("<f", raw, score_at)[0] == 1.0
    for value in (np.nan, np.inf, -np.inf):
        for offset in (score_at, score_at + 4, score_at + 4 * 8):  # score, first and last row value
            corrupt = bytearray(raw)
            corrupt[offset : offset + 4] = np.array(value, dtype="<f4").tobytes()
            path.write_bytes(bytes(corrupt))
            with pytest.raises(BankError, match=f"non-finite.*s1_000.*offset {offset}") as err:
                load_bank(path)
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
    shape (k, d) and holds them, each with a score and k x d values."""
    table = struct.pack("<I", 1) + struct.pack("<I", 2) + b"s1" + struct.pack("<III", count, k, d)
    for j in range(count):
        sample_id = f"s1_{j:03d}".encode()
        table += struct.pack("<I", len(sample_id)) + sample_id
        table += np.arange(1 + k * d, dtype=dtype).tobytes()
    return table


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
    path.write_bytes(BANK_MAGIC + struct.pack("<I", 1) + _one_session_table(count, k, d, "<f4"))
    shape_at = 8 + 4 + 4 + (4 + 2)  # magic, version, session count, tag "s1"
    with pytest.raises(BankError, match=f"{match}.*offset {shape_at}") as err:
        load_bank(path)
    assert err.value.offset == shape_at


def test_loaded_features_are_views_of_one_block_per_session(tmp_path) -> None:
    bank = MemoryBank()
    write_session(bank, _samples(np.linspace(1, 5, 10)), 4, 2, 0.5)
    write_session(bank, _samples(np.linspace(1, 5, 10), session="s2", dim=3), 5, 3, 0.5)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    loaded = load_bank(path)
    for tag, exemplars in loaded.sessions.items():
        block = exemplars[0].features.base
        assert block is not None
        assert all(e.features.base is block for e in exemplars)
        assert all(e.features.shape == bank.sessions[tag][0].features.shape for e in exemplars)
        assert all(type(e.score) is float for e in exemplars)
