from __future__ import annotations

import json
import os
import signal
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from scorealign.data import (
    BASE_SESSION,
    CodecError,
    ManifestError,
    SynthSpec,
    drift_benchmark_spec,
    emit_report,
    generate_synthetic,
    load_manifest,
    read_feature_file,
    read_report,
    report_text,
    resample_frames,
    write_feature_file,
    write_manifest,
)
from scorealign.metrics import MetricReport
from scorealign.memory import BankError, MemoryBank, load_bank, save_bank
from scorealign.runner import (
    CheckpointBundle,
    CheckpointError,
    RunConfig,
    load_checkpoint,
    train_continual,
)

# the split settings of a default run
_SPLIT = {
    "test_ratio": RunConfig().test_ratio,
    "max_train": RunConfig().max_train_per_session,
}


# --- feature codec --------------------------------------------------------


def test_feature_roundtrip_at_32bit_precision(tmp_path) -> None:
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(16, 8))
    path = tmp_path / "a.feat"
    write_feature_file(path, feats)
    loaded = read_feature_file(path)
    assert loaded.shape == (16, 8)
    assert np.array_equal(loaded, feats.astype(np.float32).astype(np.float64))


def test_feature_roundtrip_exact_for_32bit_values(tmp_path) -> None:
    feats = np.arange(12.0).reshape(3, 4) / 8.0
    path = tmp_path / "b.feat"
    write_feature_file(path, feats)
    assert np.array_equal(read_feature_file(path), feats)


def test_feature_bad_magic_offset_zero(tmp_path) -> None:
    path = tmp_path / "bad.feat"
    path.write_bytes(b"WRONGMAG" + struct.pack("<III", 1, 2, 2) + b"\x00" * 16)
    with pytest.raises(CodecError, match="offset 0") as err:
        read_feature_file(path)
    assert err.value.offset == 0


def test_feature_truncated_payload_names_byte_counts(tmp_path) -> None:
    path = tmp_path / "trunc.feat"
    write_feature_file(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CodecError, match="expected 84 bytes total, got 79"):
        read_feature_file(path)


def test_feature_nonfinite_value_names_offset(tmp_path) -> None:
    path = tmp_path / "inf.feat"
    payload = np.array([1.0, np.inf, 2.0, 3.0], dtype="<f4").tobytes()
    path.write_bytes(b"ASALFEAT" + struct.pack("<III", 1, 2, 2) + payload)
    with pytest.raises(CodecError, match="offset 24") as err:
        read_feature_file(path)
    assert err.value.offset == 20 + 4 * 1


def test_feature_bad_version_rejected(tmp_path) -> None:
    path = tmp_path / "v9.feat"
    path.write_bytes(b"ASALFEAT" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(CodecError, match="version 9"):
        read_feature_file(path)


def test_write_rejects_nonfinite_features(tmp_path) -> None:
    with pytest.raises(ValueError, match="non-finite"):
        write_feature_file(tmp_path / "x.feat", np.array([[np.nan, 1.0]]))


def test_signaling_nans_are_rejected_without_a_warning(tmp_path) -> None:
    # casting a signaling NaN to float64 warns, so every decoder checks
    # finiteness on the stored values, before the cast
    manifest = generate_synthetic(
        SynthSpec(sessions=1, samples_per_session=8, frames=8, feat_dim=4, seed=3), tmp_path / "s"
    )
    config = RunConfig(epochs=1, frames=8, exemplars_per_session=3, hidden_sizes=(4,), adapter_hidden=4)
    data = load_manifest(manifest, frames=8, score_range=config.score_range, seed=0, **_SPLIT)
    feature = manifest.parent / "features" / "session1_000.feat"
    bank, ckpt = tmp_path / "run.bank", tmp_path / "run.ckpt"
    run = train_continual(config, data, checkpoint_path=ckpt)
    save_bank(run.bank, bank)
    *_, last = run.bank.replay_pool()
    head_at = 20 + struct.unpack_from("<Q", ckpt.read_bytes(), 12)[0]
    for path, load, fmt, bits, at, what in (
        (feature, read_feature_file, "<I", 0x7FA00000, 20 + 4 * 5, "features at flat index 5"),
        (bank, load_bank, "<I", 0x7FA00000, bank.stat().st_size - 4,
         f"exemplar '{last.sample_id}' at flat index {last.features.size}"),
        (ckpt, load_checkpoint, "<Q", 0x7FF4000000000000, head_at, "array 'head' at flat index 0"),
    ):
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, at, bits)
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError) as err:
                load(path)
        assert str(err.value).endswith(f"non-finite value in {what} (byte offset {at})")
        assert err.value.offset == at


def test_codec_totality_random_bytes_parse_or_raise_typed(tmp_path) -> None:
    rng = np.random.default_rng(13)
    path = tmp_path / "fuzz.feat"
    for i in range(200):
        n = int(rng.integers(0, 120))
        raw = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        if i % 4 == 0:  # bias some cases toward a valid-looking header
            raw = b"ASALFEAT" + raw
        path.write_bytes(raw)
        try:
            out = read_feature_file(path)
        except CodecError:
            continue
        assert out.ndim == 2 and np.all(np.isfinite(out))

    # truncations and byte flips of a real bank file, checkpoint, manifest
    # and report
    manifest = generate_synthetic(
        SynthSpec(sessions=2, samples_per_session=12, frames=8, feat_dim=4, seed=3), tmp_path / "s"
    )
    config = RunConfig(epochs=1, frames=8, exemplars_per_session=3, hidden_sizes=(4,), adapter_hidden=4)

    def manifest_loader(p):
        return load_manifest(p, frames=8, score_range=config.score_range, seed=0, **_SPLIT)

    data = manifest_loader(manifest)
    ckpt = tmp_path / "run.ckpt"
    bank = tmp_path / "run.bank"
    report = tmp_path / "run.json"
    run = train_continual(config, data, checkpoint_path=ckpt)
    save_bank(run.bank, bank)
    emit_report(run.report, report)
    # a manifest mutant sits beside the feature files its records name
    manifest_mutant = manifest.parent / "mutant.json"
    loaded_counts = []
    # text mutants flip only the low seven bits, so most stay UTF-8 and reach
    # the schema checks instead of failing to decode
    for original, load, error, target, flip_below in (
        (bank.read_bytes(), load_bank, BankError, path, 256),
        (ckpt.read_bytes(), load_checkpoint, CheckpointError, path, 256),
        (manifest.read_bytes(), manifest_loader, ManifestError, manifest_mutant, 128),
        (report.read_bytes(), read_report, ManifestError, path, 128),
    ):
        loaded = 0
        for i in range(200):
            raw = bytearray(original)
            if i % 2 == 0:
                raw = raw[: int(rng.integers(0, len(raw)))]
            else:  # half the flips land in the first 2 KiB, where the headers are
                span = len(raw) if i % 4 == 1 else min(len(raw), 2048)
                for pos in rng.integers(0, span, size=int(rng.integers(1, 4))):
                    raw[pos] ^= int(rng.integers(1, flip_below))
            target.write_bytes(bytes(raw))
            try:
                out = load(target)
            except error:
                continue
            loaded += 1
            if isinstance(out, (MemoryBank, CheckpointBundle)):
                assert all(np.isfinite(a).all() for a in _float_arrays(out))
        loaded_counts.append(loaded)
    # the text mutants exercise the schema checks, not only the JSON parser
    assert loaded_counts[2] > 0 and loaded_counts[3] > 0


def _float_arrays(loaded: MemoryBank | CheckpointBundle) -> list[np.ndarray]:
    """Every float array a loaded bank or checkpoint holds."""
    bank = loaded if isinstance(loaded, MemoryBank) else loaded.bank
    arrays = [a for s in bank.sessions.values() for a in (s.features, s.scores)]
    if isinstance(loaded, CheckpointBundle):
        model = loaded.model
        arrays += [model.head.flat, model.adapter.flat, np.array(loaded.loss_trace)]
        arrays += [*model.adam.m.values(), *model.adam.v.values()]
    return arrays


# --- resampling -----------------------------------------------------------


def test_resample_20_to_16_uses_floor_indices() -> None:
    feats = np.arange(20.0)[:, None] * np.ones((1, 3))
    resampled = resample_frames(feats, 16)
    expected_rows = [(i * 19) // 15 for i in range(16)]
    assert np.array_equal(resampled[:, 0], np.array(expected_rows, dtype=float))


def test_resample_identity_when_already_canonical() -> None:
    feats = np.random.default_rng(0).normal(size=(16, 4))
    assert resample_frames(feats, 16) is feats


def test_resample_upsamples_by_repeating_nearest() -> None:
    feats = np.array([[0.0], [1.0]])
    up = resample_frames(feats, 4)
    assert np.array_equal(up[:, 0], np.array([0.0, 0.0, 0.0, 1.0]))


def test_ingest_applies_resampling(tmp_path) -> None:
    feats = np.arange(20.0)[:, None] * np.ones((1, 2))
    write_feature_file(tmp_path / "c.feat", feats)
    write_manifest(
        tmp_path / "m.json",
        [{"id": "c", "feature_path": "c.feat", "score": 3.0, "session": "s", "split": "test"}],
    )
    loaded = load_manifest(tmp_path / "m.json", frames=16, score_range=(1.0, 5.0), seed=0, **_SPLIT)
    (sample,) = loaded.all_test()
    assert sample.features.shape == (16, 2)
    assert np.array_equal(sample.features, resample_frames(feats, 16))


# --- manifests --------------------------------------------------------------


def _write_session_files(tmp_path, session: str, n: int, start: int = 0, split: str | None = None):
    rng = np.random.default_rng(hash(session) % 2**32)
    records = []
    for i in range(n):
        sample_id = f"{session}_{start + i:03d}"
        rel = f"features/{sample_id}.feat"
        write_feature_file(tmp_path / rel, rng.normal(size=(16, 4)))
        rec = {
            "id": sample_id,
            "feature_path": rel,
            "score": float(rng.uniform(1.0, 5.0)),
            "session": session,
        }
        if split is not None:
            rec["split"] = split
        records.append(rec)
    return records


def test_manifest_split_caps_train_at_fifty(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "big", 100)
    write_manifest(tmp_path / "manifest.json", records)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    session = data.sessions[0]
    assert len(session.test) == 20
    assert len(session.train) == 50


def test_manifest_explicit_split_tags_honored(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "tagged", 4, split="train")
    records += _write_session_files(tmp_path, "tagged", 2, start=4, split="test")
    write_manifest(tmp_path / "manifest.json", records)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    session = data.sessions[0]
    assert {s.sample_id for s in session.train} == {f"tagged_{i:03d}" for i in range(4)}
    assert {s.sample_id for s in session.test} == {"tagged_004", "tagged_005"}


def test_manifest_routes_others_to_base_slot(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, BASE_SESSION, 10)
    records += _write_session_files(tmp_path, "cityscape", 10)
    write_manifest(tmp_path / "manifest.json", records)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    assert data.base is not None and data.base.name == BASE_SESSION
    assert [s.name for s in data.sessions] == ["cityscape"]


def test_manifest_split_conserves_records(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "big", 100)
    write_manifest(tmp_path / "manifest.json", records)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    session = data.sessions[0]
    train_ids = {s.sample_id for s in session.train}
    test_ids = {s.sample_id for s in session.test}
    all_ids = {r["id"] for r in records}
    assert not train_ids & test_ids
    assert train_ids | test_ids <= all_ids
    # the cap shrinks the train side; it never moves records into test
    assert len(test_ids) == 20
    uncapped = load_manifest(
        tmp_path / "manifest.json",
        frames=16,
        score_range=(1, 5),
        seed=0,
        test_ratio=_SPLIT["test_ratio"],
        max_train=1000,
    )
    assert {s.sample_id for s in uncapped.sessions[0].test} == test_ids
    assert train_ids <= {s.sample_id for s in uncapped.sessions[0].train}


def test_manifest_split_deterministic_across_loads(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    write_manifest(tmp_path / "manifest.json", _write_session_files(tmp_path, "s", 30))
    a = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=3, **_SPLIT)
    b = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=3, **_SPLIT)
    assert [s.sample_id for s in a.sessions[0].train] == [s.sample_id for s in b.sessions[0].train]


def test_manifest_duplicate_ids_rejected(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 2)
    records[1]["id"] = records[0]["id"]
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError, match="duplicate id"):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)


def test_manifest_missing_feature_file_rejected(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 2)
    records[1]["feature_path"] = "features/nope.feat"
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError, match="record 1.*missing feature file"):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)


def test_manifest_unreadable_feature_file_rejected(tmp_path, monkeypatch) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 3)
    records[1]["feature_path"] = "features"
    write_manifest(tmp_path / "manifest.json", records)

    def load() -> None:
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)

    # a directory is not a feature file
    with pytest.raises(ManifestError) as err:
        load()
    assert str(err.value) == f"record 1: missing feature file '{tmp_path / 'features'}'"

    records = _write_session_files(tmp_path, "s", 3)
    write_manifest(tmp_path / "manifest.json", records)
    locked = tmp_path / records[2]["feature_path"]

    real_open = os.open

    def guarded_open(file, *args, **kwargs):
        if Path(file) == locked:
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    # chmod cannot make a file unreadable to root, so the open fails instead
    monkeypatch.setattr("scorealign.data.os.open", guarded_open)
    with pytest.raises(ManifestError) as err:
        load()
    assert str(err.value) == f"record 2: cannot read feature file '{locked}': Permission denied"


@pytest.mark.parametrize("from_folder", [False, True])
def test_manifest_feature_paths_open_as_a_path_join_spells_them(
    tmp_path, monkeypatch, from_folder
) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 6, split="test")
    spellings = ["./features/{}", "features//{}", ".//features/./{}", "features/{}/", "features/{}/."]
    for rec, spelling in zip(records, spellings):
        rec["feature_path"] = spelling.format(rec["feature_path"].split("/")[1])
    records[5]["feature_path"] = str(tmp_path / records[5]["feature_path"])
    write_manifest(tmp_path / "manifest.json", records)
    manifest = tmp_path / "manifest.json"
    if from_folder:
        # a manifest in the working directory: Path gives its folder as '.'
        monkeypatch.chdir(tmp_path)
        manifest = Path("manifest.json")
    opened = []
    real_open = os.open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("scorealign.data.os.open", recording_open)
    load_manifest(manifest, frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    assert opened == [str(manifest.parent / r["feature_path"]) for r in records]
    assert "//" not in "".join(opened) and "/./" not in "".join(opened)

    records[5]["feature_path"] = ".//features/./nope.feat"
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError) as err:
        load_manifest(manifest, frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    folder = "" if from_folder else f"{tmp_path}/"
    assert str(err.value) == f"record 5: missing feature file '{folder}features/nope.feat'"


def test_manifest_fifo_is_not_waited_on(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 3)
    os.mkfifo(tmp_path / "features" / "pipe.feat")
    records[1]["feature_path"] = "features/pipe.feat"
    write_manifest(tmp_path / "manifest.json", records)

    def blocked(signum, frame):
        raise TimeoutError("load_manifest waited on a FIFO")

    # a blocking open of a FIFO with no writer would never return
    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(5)
    try:
        with pytest.raises(ManifestError) as err:
            load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err.value) == f"record 1: missing feature file '{tmp_path / 'features' / 'pipe.feat'}'"


def test_manifest_feature_faults_name_their_file(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 4, split="test")
    write_manifest(tmp_path / "manifest.json", records)
    paths = [tmp_path / r["feature_path"] for r in records]

    def first_fault() -> CodecError:
        with pytest.raises(CodecError) as err:
            load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
        return err.value

    paths[3].write_bytes(b"WRONGMAG" + paths[3].read_bytes()[8:])
    fault = first_fault()
    assert str(fault).startswith(f"feature file '{paths[3]}': bad magic b'WRONGMAG'")
    assert fault.offset == 0
    # a non-finite value in an earlier file is the first fault, at its
    # offset within that file
    raw = bytearray(paths[1].read_bytes())
    raw[20 + 4 * 5 : 20 + 4 * 6] = np.array(np.nan, dtype="<f4").tobytes()
    paths[1].write_bytes(bytes(raw))
    fault = first_fault()
    assert str(fault) == (
        f"feature file '{paths[1]}': non-finite value in features at flat index 5 (byte offset 40)"
    )
    assert fault.offset == 40
    paths[0].write_bytes(paths[0].read_bytes()[:-1])
    assert str(first_fault()).startswith(f"feature file '{paths[0]}': truncated features")


def test_manifest_out_of_range_score_rejected(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 2)
    records[0]["score"] = 9.0
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError, match="record 0.*outside"):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    records[0]["score"] = "high"
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError, match="record 0.*not a number"):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)


def test_manifest_unknown_split_rejected(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 2)
    records[0]["split"] = "validation"
    write_manifest(tmp_path / "manifest.json", records)
    with pytest.raises(ManifestError, match="unknown split"):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)


def _replace(records: list, i: int, **fields) -> dict:
    return {"records": [{**r, **fields} if j == i else r for j, r in enumerate(records)]}


_SCHEMA_FAULTS = {
    "payload-not-utf8": (lambda recs: b'{"records": [\xff]}', "not valid JSON"),
    "payload-not-object": (lambda recs: [1, 2], "nonempty 'records' list"),
    "score-past-int-digit-limit": (lambda recs: b'{"records": [' + b"1" * 5000 + b"]}", "not valid JSON"),
    "nested-too-deep": (lambda recs: b'{"records": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "not valid JSON"),
    "record-is-number": (lambda recs: {"records": [5, recs[1]]}, "record 0: expected an object"),
    "record-is-string": (lambda recs: {"records": [recs[0], "s_001"]}, "record 1: expected an object"),
    "id-is-list": (lambda recs: _replace(recs, 0, id=["s_000"]), "record 0: field 'id' is not a string"),
    "session-is-number": (lambda recs: _replace(recs, 1, session=3), "record 1: field 'session'"),
    "feature-path-is-number": (lambda recs: _replace(recs, 1, feature_path=7), "record 1: field 'feature_path'"),
    "variant-is-list": (lambda recs: _replace(recs, 0, variant=["7A"]), "record 0: field 'variant'"),
    "score-is-bool": (lambda recs: _replace(recs, 0, score=True), "record 0: score True is not a number"),
    "score-is-numeric-string": (lambda recs: _replace(recs, 1, score="3.5"), "record 1: score '3.5' is not a number"),
    "mixed-feature-dimension": (
        lambda recs: _replace(recs, 1, feature_path="features/wide.feat"),
        "feature dimension 5",
    ),
}


@pytest.mark.parametrize("case", list(_SCHEMA_FAULTS))
def test_manifest_schema_faults_rejected(tmp_path, case) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 2)
    write_feature_file(tmp_path / "features" / "wide.feat", np.ones((16, 5)))
    payload, match = _SCHEMA_FAULTS[case]
    text = payload(records)
    if not isinstance(text, bytes):
        text = json.dumps(text).encode()
    (tmp_path / "manifest.json").write_bytes(text)
    with pytest.raises(ManifestError, match=match):
        load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)


def test_manifest_variant_tags_pass_through(tmp_path) -> None:
    (tmp_path / "features").mkdir()
    records = _write_session_files(tmp_path, "s", 4)
    for i, rec in enumerate(records):
        rec["variant"] = "7A" if i % 2 == 0 else "7B"
    write_manifest(tmp_path / "manifest.json", records)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=0, **_SPLIT)
    variants = {s.variant for s in data.sessions[0].train + data.sessions[0].test}
    assert variants == {"7A", "7B"}


# --- synthetic generator ----------------------------------------------------


def test_synthetic_deterministic_byte_identical(tmp_path) -> None:
    spec = SynthSpec(sessions=2, samples_per_session=6, seed=5)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    generate_synthetic(spec, dir_a)
    generate_synthetic(spec, dir_b)
    assert (dir_a / "manifest.json").read_bytes() == (dir_b / "manifest.json").read_bytes()
    assert (dir_a / "truth.json").read_bytes() == (dir_b / "truth.json").read_bytes()
    sample = "session1_000.feat"
    assert (dir_a / "features" / sample).read_bytes() == (dir_b / "features" / sample).read_bytes()


def test_synthetic_scores_within_range(tmp_path) -> None:
    generate_synthetic(SynthSpec(sessions=3, samples_per_session=20, seed=1), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    scores = [r["score"] for r in manifest["records"]]
    assert all(1.0 <= s <= 5.0 for s in scores)


def test_synthetic_planted_weights_drift_exactly(tmp_path) -> None:
    spec = SynthSpec(sessions=4, samples_per_session=4, drift=0.8, seed=2)
    generate_synthetic(spec, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    weights = [np.array(s["weights"]) for s in truth["sessions"]]
    means = [np.array(s["mean"]) for s in truth["sessions"]]
    for a, b in zip(weights, weights[1:]):
        assert np.linalg.norm(b - a) == pytest.approx(0.8, abs=1e-9)
    for a, b in zip(means, means[1:]):
        assert np.linalg.norm(b - a) == pytest.approx(0.8, abs=1e-9)


def test_synthetic_zero_drift_keeps_one_global_scorer(tmp_path) -> None:
    spec = SynthSpec(sessions=3, samples_per_session=4, drift=0.0, noise_std=0.0, seed=3)
    generate_synthetic(spec, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    weights = [np.array(s["weights"]) for s in truth["sessions"]]
    for w in weights[1:]:
        assert np.array_equal(w, weights[0])


def test_synthetic_planted_scorer_reproduces_unclipped_scores(tmp_path) -> None:
    spec = SynthSpec(sessions=2, samples_per_session=8, noise_std=0.0, seed=4)
    generate_synthetic(spec, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    by_name = {s["name"]: s for s in truth["sessions"]}
    for rec in manifest["records"]:
        feats = read_feature_file(tmp_path / rec["feature_path"])
        session = by_name[rec["session"]]
        raw = float(np.array(session["weights"]) @ feats.mean(axis=0) + session["bias"])
        if 1.0 < rec["score"] < 5.0:
            assert rec["score"] == pytest.approx(raw, abs=1e-9)


def test_benchmark_spec_protocol_shape(tmp_path) -> None:
    spec = drift_benchmark_spec()
    assert (spec.sessions, spec.frames, spec.feat_dim) == (5, 16, 32)
    generate_synthetic(spec, tmp_path)
    data = load_manifest(tmp_path / "manifest.json", frames=16, score_range=(1, 5), seed=7, **_SPLIT)
    assert len(data.sessions) == 5
    for session in data.sessions:
        assert len(session.train) == 50
        assert len(session.test) == 12
    assert data.base is not None


def test_synth_spec_validation() -> None:
    with pytest.raises(ValueError):
        SynthSpec(drift=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(drift=2.5)
    with pytest.raises(ValueError):
        SynthSpec(samples_per_session=1)


@pytest.mark.parametrize(
    "field, value",
    [("sessions", 2.5), ("frames", 16.0), ("feat_dim", 8.0), ("samples_per_session", 3.0),
     ("seed", 7.5), ("sessions", True), ("seed", np.int64(7))],
)
def test_synth_spec_refuses_a_count_that_is_not_an_int(field, value) -> None:
    """A float count would construct, then fail inside generate_synthetic
    with a raw TypeError."""
    with pytest.raises(ValueError, match=f"integer fields must be ints, got {field}="):
        SynthSpec(**{field: value})


@pytest.mark.parametrize("value", [1, "no", None])
def test_synth_spec_refuses_an_include_base_that_is_not_a_bool(value) -> None:
    with pytest.raises(ValueError, match="include_base must be a bool"):
        SynthSpec(include_base=value)


# --- reports -----------------------------------------------------------------


def _report() -> MetricReport:
    return MetricReport(
        mode="continual",
        seed=7,
        config_hash="deadbeef",
        config={"epochs": 15, "score_range": [1.0, 5.0]},
        sessions={"s1": {"plcc": 0.9, "srcc": 0.8, "rl2e": 0.01, "n": 12}},
        variants={},
        pooled={"srcc_ove": 0.8, "rl2e_ove": 0.01, "n": 12},
        counters={"steps": 100, "degenerate_batches": 0},
        notes=["cold start: no base session"],
    )


def test_report_roundtrips_through_parser(tmp_path) -> None:
    path = tmp_path / "report.json"
    report = _report()
    emit_report(report, path)
    assert read_report(path) == report


def test_report_emission_is_byte_stable(tmp_path) -> None:
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    emit_report(_report(), a)
    emit_report(_report(), b)
    assert a.read_bytes() == b.read_bytes()


def test_report_pooled_key_appears_exactly_once() -> None:
    text = report_text(_report())
    assert text.count('"srcc_ove"') == 1


def test_report_none_serializes_as_null_not_zero(tmp_path) -> None:
    report = _report()
    report.sessions["s1"]["srcc"] = None
    path = tmp_path / "null.json"
    emit_report(report, path)
    assert '"srcc": null' in path.read_text()
    assert read_report(path).sessions["s1"]["srcc"] is None


def test_json_writers_refuse_non_finite_numbers(tmp_path) -> None:
    report = _report()
    report.sessions["s1"]["plcc"] = float("nan")
    path = tmp_path / "report.json"
    with pytest.raises(FloatingPointError, match="report holds a non-finite number"):
        emit_report(report, path)
    with pytest.raises(FloatingPointError, match="manifest holds a non-finite number"):
        write_manifest(tmp_path / "manifest.json", [{"score": float("inf")}])
    assert not path.exists() and not (tmp_path / "manifest.json").exists()


def test_report_duplicate_keys_rejected(tmp_path) -> None:
    path = tmp_path / "dup.json"
    path.write_text('{"mode": "joint", "mode": "joint", "seed": 1, "pooled": {}, "sessions": {}}')
    with pytest.raises(ManifestError, match="duplicate key"):
        read_report(path)


def test_report_missing_fields_rejected(tmp_path) -> None:
    path = tmp_path / "missing.json"
    path.write_text('{"mode": "joint"}')
    with pytest.raises(ManifestError, match="missing field"):
        read_report(path)
    for text in ("5", '"mode seed pooled sessions"'):
        path.write_text(text)
        with pytest.raises(ManifestError, match="must be a JSON object"):
            read_report(path)
    for fields, message in (
        ('"seed": 1, "pooled": {}, "sessions": 5', "'sessions' is not a dict"),
        ('"seed": true, "pooled": {}, "sessions": {}', "'seed' is not a int"),
    ):
        path.write_text('{"mode": "joint", ' + fields + "}")
        with pytest.raises(ManifestError, match=message):
            read_report(path)


_MALFORMED_REPORT_BODIES = (
    ('"sessions": {"s1": {}}', "missing field 'n'"),
    ('"sessions": {"s1": 5}', "is not an object"),
    ('"sessions": {"s1": {"n": 3, "plcc": "0.9", "srcc": null, "rl2e": null}}', "'plcc' is not a number"),
    ('"sessions": {"s1": {"n": 3.0, "plcc": null, "srcc": null, "rl2e": null}}', "'n' is not an int"),
    ('"sessions": {"s1": {"n": true, "plcc": null, "srcc": null, "rl2e": null}}', "'n' is not an int"),
    ('"sessions": {"s1": {"n": 3, "plcc": 0.9, "srcc": [0.8], "rl2e": null}}', "'srcc' is not a number"),
    ('"sessions": {"s1": {"n": 3, "plcc": 0.9, "srcc": 0.8}}', "missing field 'rl2e'"),
    ('"sessions": {}, "pooled": {"srcc_ove": "high"}', "'srcc_ove' is not a number"),
    ('"sessions": {}, "pooled": {"rl2e_ove": false}', "'rl2e_ove' is not a number"),
    ('"sessions": {}, "config_hash": 12', "'config_hash' is not a str"),
    ('"sessions": {}, "flatness": []', "'flatness' is not a dict"),
    ('"sessions": {}, "config": []', "'config' is not a dict"),
    ('"sessions": {}, "variants": 5', "'variants' is not a dict"),
    ('"sessions": {}, "counters": "x"', "'counters' is not a dict"),
    ('"sessions": {}, "notes": {"a": 1}', "'notes' is not a list"),
    ('"sessions": {}, "counters": {"steps": ' + "1" * 5000 + "}", "not valid JSON"),
    ('"sessions": {}, "notes": ' + "[" * 200_000 + "]" * 200_000, "not valid JSON"),
    ('"sessions": {"s1": {"n": 3, "plcc": NaN, "srcc": null, "rl2e": null}}', "non-finite number NaN"),
    ('"sessions": {}, "pooled": {"rl2e_ove": Infinity}', "non-finite number Infinity"),
    ('"sessions": {}, "pooled": {"srcc_ove": -Infinity}', "non-finite number -Infinity"),
    ('"sessions": {}, "flatness": {"sessions": {"s1": {"mean_delta": {"1": 1e999}}}}', "non-finite number 1e999"),
)


def test_report_session_entries_and_pooled_metrics_schema_checked(tmp_path) -> None:
    path = tmp_path / "bad.json"
    for body, message in _MALFORMED_REPORT_BODIES:
        pooled = "" if '"pooled"' in body else ', "pooled": {}'
        path.write_text('{"mode": "joint", "seed": 1' + pooled + ", " + body + "}")
        with pytest.raises(ManifestError, match=message):
            read_report(path)


def test_report_accepts_integer_and_null_metrics(tmp_path) -> None:
    path = tmp_path / "ok.json"
    path.write_text(
        '{"mode": "eval", "seed": 1, "pooled": {"srcc_ove": 1, "rl2e_ove": null, "n": 4},'
        ' "sessions": {"s1": {"n": 4, "plcc": 1, "srcc": null, "rl2e": 0.5}}}'
    )
    report = read_report(path)
    assert report.sessions["s1"] == {"n": 4, "plcc": 1, "srcc": None, "rl2e": 0.5}
    assert report.pooled["srcc_ove"] == 1
