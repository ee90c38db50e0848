from __future__ import annotations

import json
import os
import re
import struct
import subprocess
import sys
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from scorealign.cli import _make_config, main
import scorealign
from scorealign.data import ManifestError, SynthSpec, load_manifest, read_report
from scorealign.memory import MemoryBank, encode_sessions
from scorealign.runner import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    RunConfig,
    load_checkpoint,
    save_checkpoint,
)

SYNTH_ARGS = [
    "synth",
    "--sessions", "2",
    "--samples-per-session", "12",
    "--feat-dim", "8",
    "--frames", "8",
    "--seed", "3",
]

# the options eval and probe-flatness take; train takes these too
DATA_ARGS = [
    "--frames", "8",
    "--seed", "3",
]

TRAIN_SPEED_ARGS = ["--epochs", "2"] + DATA_ARGS


@pytest.fixture()
def bench(tmp_path):
    runner = CliRunner()
    out = tmp_path / "bench"
    result = runner.invoke(main, SYNTH_ARGS + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return runner, out


def test_synth_writes_manifest_truth_and_features(bench) -> None:
    _, out = bench
    assert (out / "manifest.json").is_file()
    assert (out / "truth.json").is_file()
    assert any((out / "features").glob("*.feat"))


def test_train_continual_writes_report_bank_checkpoint(bench, tmp_path) -> None:
    runner, out = bench
    report_path = tmp_path / "report.json"
    ckpt = tmp_path / "run.ckpt"
    bank = tmp_path / "bank.bin"
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--mode", "continual",
            "--report-out", str(report_path),
            "--checkpoint-out", str(ckpt),
            "--bank-out", str(bank),
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    report = read_report(report_path)
    assert report.mode == "continual"
    assert "srcc_ove" in report.pooled
    assert ckpt.is_file() and bank.is_file()


def test_train_determinism_byte_identical_reports(bench, tmp_path) -> None:
    runner, out = bench
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        result = runner.invoke(
            main,
            ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(path)]
            + TRAIN_SPEED_ARGS,
        )
        assert result.exit_code == 0, result.output
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_eval_and_probe_from_checkpoint(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "train.json"),
            "--checkpoint-out", str(ckpt),
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output

    eval_report = tmp_path / "eval.json"
    result = runner.invoke(
        main,
        [
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(eval_report),
        ]
        + DATA_ARGS,
    )
    assert result.exit_code == 0, result.output
    assert read_report(eval_report).mode == "eval"

    probe_report = tmp_path / "probe.json"
    result = runner.invoke(
        main,
        [
            "probe-flatness",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(probe_report),
            "--radii", "0.5,1",
            "--draws", "10",
        ]
        + DATA_ARGS,
    )
    assert result.exit_code == 0, result.output
    flatness = read_report(probe_report).flatness
    assert flatness["draws"] == 10
    assert flatness["radii"] == ["0.5", "1"]


def test_eval_and_probe_stamp_the_checkpoints_config(bench, tmp_path) -> None:
    runner, out = bench
    manifest = str(out / "manifest.json")
    ckpt = tmp_path / "run.ckpt"
    train = ["train", "--manifest", manifest, "--checkpoint-out", str(ckpt)]
    result = runner.invoke(
        main,
        train + ["--report-out", str(tmp_path / "train.json"), "--epochs", "2", "--learning-rate", "0.003"]
        + DATA_ARGS,
    )
    assert result.exit_code == 0, result.output
    trained = read_report(tmp_path / "train.json")
    assert trained.config["epochs"] == 2 and trained.config["learning_rate"] == 0.003
    serve = ["--checkpoint", str(ckpt), "--manifest", manifest]
    for command, mode in (("eval", "eval"), ("probe-flatness", "probe")):
        report = tmp_path / f"{mode}.json"
        result = runner.invoke(main, [command] + serve + ["--report-out", str(report)] + DATA_ARGS)
        assert result.exit_code == 0, result.output
        served = read_report(report)
        assert served.mode == mode and served.config["mode"] == "continual"
        assert (served.config, served.config_hash) == (trained.config, trained.config_hash)
    # the options a command is given take the place of the checkpoint's
    report = tmp_path / "other.json"
    result = runner.invoke(
        main, ["eval"] + serve + ["--report-out", str(report), "--frames", "8", "--seed", "4"]
    )
    assert result.exit_code == 0, result.output
    assert read_report(report).config == {**trained.config, "seed": 4}
    resumed = tmp_path / "resumed.json"
    result = runner.invoke(
        main,
        ["train", "--manifest", manifest, "--resume", str(ckpt), "--report-out", str(resumed),
         "--epochs", "3", "--learning-rate", "0.003"] + DATA_ARGS,
    )
    assert result.exit_code == 3, result.output
    assert "different configuration: epochs differ" in result.output
    assert not resumed.exists()


def test_eval_and_probe_default_to_the_checkpoints_data_options(bench, tmp_path) -> None:
    runner, out = bench
    manifest = str(out / "manifest.json")
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        ["train", "--manifest", manifest, "--checkpoint-out", str(ckpt),
         "--report-out", str(tmp_path / "train.json"), "--epochs", "2", "--frames", "8",
         "--seed", "7", "--test-ratio", "0.25", "--max-train", "7", "--score-max", "6",
         "--mse-weight", "0.1"],
    )
    assert result.exit_code == 0, result.output
    trained = read_report(tmp_path / "train.json")
    serve = ["--checkpoint", str(ckpt), "--manifest", manifest]
    for command, mode in (("eval", "eval"), ("probe-flatness", "probe")):
        report = tmp_path / f"{mode}.json"
        # no data option given: every one is the checkpoint's, not a default
        result = runner.invoke(main, [command] + serve + ["--report-out", str(report)])
        assert result.exit_code == 0, result.output
        served = read_report(report)
        assert served.config["seed"] == 7 and served.config["mse_weight"] == 0.1
        assert (served.config, served.config_hash) == (trained.config, trained.config_hash)
        if mode == "eval":
            # the same split as training held out, so the same scores
            assert served.pooled == trained.pooled and served.sessions == trained.sessions


def _train_checkpoint(runner, manifest, ckpt: Path, *extra) -> Path:
    result = runner.invoke(
        main,
        ["train", "--manifest", str(manifest), "--report-out", str(ckpt.with_suffix(".json")),
         "--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS + list(extra),
    )
    assert result.exit_code == 0, result.output
    return ckpt


def test_eval_and_probe_reject_training_options(bench, tmp_path) -> None:
    runner, out = bench
    manifest = str(out / "manifest.json")
    for command in ("eval", "probe-flatness"):
        report = tmp_path / f"{command}.json"
        result = runner.invoke(
            main,
            [command, "--checkpoint", manifest, "--manifest", manifest, "--report-out", str(report)]
            + TRAIN_SPEED_ARGS,
        )
        assert result.exit_code == 2, (command, result.output)
        assert "No such option" in result.output and "--epochs" in result.output
        assert not report.exists()


def test_eval_at_fewer_frames_than_default_keyframes(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    ckpt = _train_checkpoint(runner, manifest, tmp_path / "run.ckpt", "--frames", "2", "--keyframes", "2")
    report = tmp_path / "eval.json"
    result = runner.invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest), "--report-out", str(report),
         "--frames", "2"],
    )
    assert result.exit_code == 0, result.output
    assert read_report(report).config["keyframes"] == 2


def test_probe_with_constant_session_scores_exit_code_four(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    ckpt = _train_checkpoint(runner, manifest, tmp_path / "run.ckpt")
    payload = json.loads(manifest.read_text())
    for rec in payload["records"]:
        if rec["session"] == "session1":
            rec["score"] = 3.0
    flat = out / "flat.json"  # feature paths resolve against the manifest's directory
    flat.write_text(json.dumps(payload))
    report = tmp_path / "probe.json"
    result = runner.invoke(
        main,
        ["probe-flatness", "--checkpoint", str(ckpt), "--manifest", str(flat),
         "--report-out", str(report)] + DATA_ARGS,
    )
    assert result.exit_code == 4, result.output
    assert "session 'session1': training loss undefined at the trained head" in result.output
    assert not report.exists()


@pytest.mark.filterwarnings("error")
def test_probe_at_an_overflowing_radius_exit_code_four(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    ckpt = _train_checkpoint(runner, manifest, tmp_path / "run.ckpt")
    report = tmp_path / "probe.json"
    result = runner.invoke(
        main,
        ["probe-flatness", "--checkpoint", str(ckpt), "--manifest", str(manifest),
         "--report-out", str(report), "--radii", "1e300", "--draws", "2"] + DATA_ARGS,
    )
    assert result.exit_code == 4, result.output
    assert "session 'session1': training loss undefined at a head perturbed by radius 1e+300" in result.output
    assert not report.exists()


@pytest.mark.filterwarnings("error")
def test_eval_of_an_overflowing_head_exit_code_four(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    bundle = load_checkpoint(_train_checkpoint(runner, manifest, tmp_path / "run.ckpt"))
    bundle.model.head.flat[...] *= 1e120
    ckpt = tmp_path / "huge.ckpt"
    streams = types.SimpleNamespace(get_state=lambda: bundle.stream_state)
    save_checkpoint(
        ckpt, bundle.config, bundle.model, bundle.bank, streams, bundle.completed_sessions,
        bundle.counters, bundle.loss_trace,
    )
    report = tmp_path / "eval.json"
    result = runner.invoke(
        main, ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest), "--report-out", str(report)]
    )
    assert result.exit_code == 4, result.output
    assert "error: report holds a non-finite number" in result.output
    assert not report.exists()


@pytest.mark.filterwarnings("error")
def test_train_that_overflows_exit_code_four(bench, tmp_path) -> None:
    runner, out = bench
    report = tmp_path / "r.json"
    result = runner.invoke(
        main,
        ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(report),
         "--learning-rate", "10", "--epochs", "3"] + DATA_ARGS,
    )
    assert result.exit_code == 4, result.output
    assert "error: non-finite gradient" in result.output
    assert not report.exists()


def test_train_and_eval_on_one_test_sample_report_null_pooled_srcc(bench, tmp_path) -> None:
    runner, out = bench
    payload = json.loads((out / "manifest.json").read_text())
    for rec in payload["records"]:
        rec["split"] = "train"
    next(r for r in payload["records"] if r["session"] == "session1")["split"] = "test"
    manifest = out / "one_test.json"  # feature paths resolve against the manifest's directory
    manifest.write_text(json.dumps(payload))
    ckpt = _train_checkpoint(runner, manifest, tmp_path / "run.ckpt")
    eval_report = tmp_path / "eval.json"
    result = runner.invoke(
        main,
        ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
         "--report-out", str(eval_report)] + DATA_ARGS,
    )
    assert result.exit_code == 0, result.output
    for path in (ckpt.with_suffix(".json"), eval_report):
        pooled = json.loads(path.read_text())["pooled"]
        assert pooled["n"] == 1 and pooled["srcc_ove"] is None
        assert np.isfinite(pooled["rl2e_ove"])
        assert read_report(path).pooled == pooled


def test_manifest_of_another_feature_dim_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    synth = list(SYNTH_ARGS)
    synth[synth.index("--feat-dim") + 1] = "6"
    narrow = tmp_path / "narrow"
    result = runner.invoke(main, synth + ["--out", str(narrow)])
    assert result.exit_code == 0, result.output
    # a one-session prefix leaves the second session to train on resume
    payload = json.loads(manifest.read_text())
    prefix = out / "prefix.json"
    prefix.write_text(
        json.dumps({"records": [r for r in payload["records"] if r["session"] != "session2"]})
    )
    finished = _train_checkpoint(runner, manifest, tmp_path / "finished.ckpt")
    partial = _train_checkpoint(runner, prefix, tmp_path / "partial.ckpt")
    report = tmp_path / "report.json"
    on_narrow = ["--manifest", str(narrow / "manifest.json"), "--report-out", str(report)]
    for argv in (
        ["eval", "--checkpoint", str(finished)] + on_narrow + DATA_ARGS,
        ["probe-flatness", "--checkpoint", str(finished)] + on_narrow + DATA_ARGS,
        ["train", "--resume", str(partial)] + on_narrow + TRAIN_SPEED_ARGS,
        ["train", "--resume", str(finished)] + on_narrow + TRAIN_SPEED_ARGS,
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, (argv, result.output)
        assert "incompatible manifest: its features have 6 columns" in result.output
        assert "expects 8" in result.output
        assert not report.exists()


def test_report_command_summarizes(bench, tmp_path) -> None:
    runner, out = bench
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(report_path)]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["report", str(report_path)])
    assert result.exit_code == 0, result.output
    assert "pooled" in result.output


def test_data_errors_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["records"][0]["score"] = 99.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    result = runner.invoke(
        main,
        ["train", "--manifest", str(broken), "--report-out", str(tmp_path / "r.json")]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 3
    assert "outside configured range" in result.output


@pytest.mark.parametrize("fault", ["truncated", "nan", "bad-magic"])
def test_corrupt_feature_file_exit_code_three(bench, tmp_path, fault) -> None:
    runner, out = bench
    manifest = out / "manifest.json"
    ckpt = _train_checkpoint(runner, manifest, tmp_path / "run.ckpt")
    payload = json.loads(manifest.read_text())
    bad = out / payload["records"][3]["feature_path"]
    raw = bytearray(bad.read_bytes())
    if fault == "truncated":
        del raw[-3:]
        expected = "truncated features: expected 276 bytes total, got 273 (byte offset 20)"
    elif fault == "nan":
        raw[20 + 4 * 9 : 20 + 4 * 10] = struct.pack("<f", float("nan"))
        expected = "non-finite value in features at flat index 9 (byte offset 56)"
    else:
        raw[:8] = b"ASALBANK"
        expected = "bad magic b'ASALBANK', expected b'ASALFEAT' (byte offset 0)"
    bad.write_bytes(bytes(raw))
    report = tmp_path / "report.json"
    common = ["--manifest", str(manifest), "--report-out", str(report)]
    for argv in (
        ["train"] + common + TRAIN_SPEED_ARGS,
        ["eval", "--checkpoint", str(ckpt)] + common + DATA_ARGS,
        ["probe-flatness", "--checkpoint", str(ckpt)] + common + DATA_ARGS,
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, (argv, result.output)
        assert f"error: feature file '{bad}': {expected}" in result.output, (argv, result.output)
        assert not report.exists()


def test_corrupt_checkpoint_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "train.json"),
            "--checkpoint-out", str(ckpt),
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:20] + b"\xff\xfe" + raw[22:])  # header text is no longer UTF-8
    result = runner.invoke(
        main,
        [
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "eval.json"),
        ]
        + DATA_ARGS,
    )
    assert result.exit_code == 3, result.output
    assert "malformed checkpoint" in result.output


def test_nonfinite_checkpoint_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "train.json"),
            "--checkpoint-out", str(ckpt),
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    raw = ckpt.read_bytes()
    first_array = 20 + struct.unpack_from("<Q", raw, 12)[0]  # the head block's first weight
    ckpt.write_bytes(raw[:first_array] + struct.pack("<d", float("nan")) + raw[first_array + 8 :])
    result = runner.invoke(
        main,
        [
            "eval",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "eval.json"),
        ]
        + DATA_ARGS,
    )
    assert result.exit_code == 3, result.output
    assert f"non-finite value in array 'head' at flat index 0 (byte offset {first_array})" in result.output


def test_resume_with_malformed_rng_state_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    train = ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(tmp_path / "r.json")]
    result = runner.invoke(main, train + ["--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS)
    assert result.exit_code == 0, result.output
    raw = ckpt.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 12)[0]
    header = json.loads(raw[20 : 20 + header_len])
    bad = tmp_path / "bad.ckpt"
    for stream, mangle in (
        ("noise", lambda rng: rng.pop("noise")),
        ("shuffle", lambda rng: rng["shuffle"].update(bit_generator="MT19937")),
    ):
        rng = json.loads(json.dumps(header["rng"]))
        mangle(rng)
        text = json.dumps({**header, "rng": rng}).encode()
        bad.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text + raw[20 + header_len :])
        result = runner.invoke(main, train + ["--resume", str(bad)] + TRAIN_SPEED_ARGS)
        assert result.exit_code == 3, (stream, result.output)
        assert "malformed checkpoint" in result.output


def test_resume_with_mistyped_header_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    manifest = out / "manifest.json"
    # a one-session prefix leaves the second session to train on resume
    payload = json.loads(manifest.read_text())
    prefix = out / "prefix.json"
    records = [r for r in payload["records"] if r["session"] != "session2"]
    prefix.write_text(json.dumps({"records": records}))
    train = ["train", "--report-out", str(tmp_path / "r.json")]
    result = runner.invoke(
        main, train + ["--manifest", str(prefix), "--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS
    )
    assert result.exit_code == 0, result.output
    raw = ckpt.read_bytes()
    header_len = struct.unpack_from("<Q", raw, 12)[0]
    header = json.loads(raw[20 : 20 + header_len])
    bad = tmp_path / "bad.ckpt"
    for mangle, match in (
        (lambda h: h.update(completed_sessions=1.5), "completed_sessions"),
        (lambda h: h["counters"].update(steps="x"), "counter 'steps'"),
        (lambda h: h["config"].update(learning_rate="0.01"), "'learning_rate' has the wrong type"),
        (lambda h: h["config"].update(frames=16.0), "'frames' has the wrong type"),
        (lambda h: h["config"].update(epochs=True), "'epochs' has the wrong type"),
        (lambda h: h["config"].update(keyframes=9), "need 1 <= keyframes <= frames"),
        (lambda h: h["config"].pop("seed"), "missing ['seed']"),
        (lambda h: h.update(feat_dim=0), "feat_dim must be at least 1"),
        (lambda h: h.update(trace_length=-1), "trace_length must be a non-negative integer"),
    ):
        mangled = json.loads(json.dumps(header))
        mangle(mangled)
        text = json.dumps(mangled).encode()
        bad.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text + raw[20 + header_len :])
        result = runner.invoke(
            main, train + ["--manifest", str(manifest), "--resume", str(bad)] + TRAIN_SPEED_ARGS
        )
        assert result.exit_code == 3, (match, result.output)
        assert match in result.output


def test_resume_past_the_manifest_end_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    manifest = out / "manifest.json"
    result = runner.invoke(
        main,
        ["train", "--manifest", str(manifest), "--report-out", str(tmp_path / "r.json"),
         "--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(manifest.read_text())
    prefix = out / "prefix.json"
    prefix.write_text(
        json.dumps({"records": [r for r in payload["records"] if r["session"] != "session2"]})
    )
    report = tmp_path / "resumed.json"
    resume = ["train", "--resume", str(ckpt), "--report-out", str(report)] + TRAIN_SPEED_ARGS
    result = runner.invoke(main, resume + ["--manifest", str(prefix)])
    assert result.exit_code == 3, result.output
    assert "incompatible resume request" in result.output
    assert not report.exists()
    # resuming on the sessions the run finished only re-evaluates
    result = runner.invoke(main, resume + ["--manifest", str(manifest)])
    assert result.exit_code == 0, result.output
    assert read_report(report).pooled == read_report(tmp_path / "r.json").pooled


def _resume_on_other_first_sessions(tmp_path, edit: str, *extra: str) -> None:
    """Resume a two-session checkpoint on a manifest whose second session
    is renamed or moved after a third; it must exit 3, writing nothing."""
    runner = CliRunner()
    out = tmp_path / "three"
    result = runner.invoke(main, SYNTH_ARGS + ["--sessions", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    records = json.loads((out / "manifest.json").read_text())["records"]
    prefix = out / "prefix.json"
    prefix.write_text(json.dumps({"records": [r for r in records if r["session"] != "session3"]}))
    if edit == "renamed":
        records = [dict(r, session="sessionX") if r["session"] == "session2" else r for r in records]
    else:
        records = sorted(records, key=lambda r: r["session"] == "session2")
    manifest = out / f"{edit}.json"
    manifest.write_text(json.dumps({"records": records}))
    train = ["train", "--report-out", str(tmp_path / "r.json")] + TRAIN_SPEED_ARGS + list(extra)
    ckpt = tmp_path / "prefix.ckpt"
    result = runner.invoke(main, train + ["--manifest", str(prefix), "--checkpoint-out", str(ckpt)])
    assert result.exit_code == 0, result.output
    resumed = tmp_path / "resumed.ckpt"
    result = runner.invoke(
        main, train + ["--manifest", str(manifest), "--resume", str(ckpt), "--checkpoint-out", str(resumed)]
    )
    assert result.exit_code == 3, result.output
    second = "sessionX" if edit == "renamed" else "session3"
    assert (
        "error: incompatible resume request: the checkpoint completed sessions session1, session2, "
        f"the manifest begins with session1, {second}"
    ) in result.output
    assert not resumed.exists()


@pytest.mark.parametrize("edit", ["renamed", "reordered"])
def test_resume_on_other_first_sessions_exit_code_three(tmp_path, edit) -> None:
    _resume_on_other_first_sessions(tmp_path, edit)


@pytest.mark.parametrize("edit", ["renamed", "reordered"])
def test_resume_without_exemplars_on_other_first_sessions_exit_code_three(tmp_path, edit) -> None:
    # the bank holds no sessions, so only the stored names can tell
    _resume_on_other_first_sessions(tmp_path, edit, "--exemplars-per-session", "0")


def test_resume_with_misshapen_bank_rows_exit_code_three(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    manifest = out / "manifest.json"
    # a one-session prefix leaves the second session to train on resume
    payload = json.loads(manifest.read_text())
    prefix = out / "prefix.json"
    prefix.write_text(
        json.dumps({"records": [r for r in payload["records"] if r["session"] != "session2"]})
    )
    train = ["train", "--report-out", str(tmp_path / "r.json")]
    result = runner.invoke(
        main, train + ["--manifest", str(prefix), "--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS
    )
    assert result.exit_code == 0, result.output
    raw = ckpt.read_bytes()
    bank = load_checkpoint(ckpt).bank
    table_at = len(raw) - len(encode_sessions(bank, "<f8"))
    bad = tmp_path / "bad.ckpt"
    # the model keeps K=3 key frames of D=8 features
    for rows, shape in ((np.s_[:, 0:2], "(2, 8)"), (np.s_[:, :, 0:7], "(3, 7)")):
        cut = MemoryBank(
            {tag: replace(session, features=session.features[rows])
             for tag, session in bank.sessions.items()}
        )
        bad.write_bytes(raw[:table_at] + encode_sessions(cut, "<f8"))
        result = runner.invoke(
            main, train + ["--manifest", str(manifest), "--resume", str(bad)] + TRAIN_SPEED_ARGS
        )
        assert result.exit_code == 3, (shape, result.output)
        assert f"stores {shape} exemplar rows, the model's are (3, 8)" in result.output


def test_resume_of_a_joint_run_exit_code_two(bench, tmp_path) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    report = tmp_path / "joint.json"
    train = ["train", "--manifest", str(out / "manifest.json")]
    result = runner.invoke(
        main, train + ["--report-out", str(tmp_path / "r.json"), "--checkpoint-out", str(ckpt)] + TRAIN_SPEED_ARGS
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main, train + ["--mode", "joint", "--resume", str(ckpt), "--report-out", str(report)] + TRAIN_SPEED_ARGS
    )
    assert result.exit_code == 2, result.output
    assert "--resume applies only to continual runs" in result.output
    assert not report.exists()


def test_config_defaults_are_run_config_defaults(tmp_path) -> None:
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{}")
    required = {
        "train": ["--manifest", str(manifest), "--report-out", "r.json"],
        "eval": ["--checkpoint", str(manifest), "--manifest", str(manifest), "--report-out", "r.json"],
        "probe-flatness": ["--checkpoint", str(manifest), "--manifest", str(manifest), "--report-out", "r.json"],
    }
    data = {"frames", "score_min", "score_max", "test_ratio", "max_train", "seed"}
    training = {
        "epochs", "batch_size", "replay_batch_size", "mse_weight", "replay_weight", "reg_weight",
        "exemplars_per_session", "keyframes", "diversity_weight", "learning_rate", "weight_decay",
        "no_reparam",
    }
    config_names = {"train": data | training, "eval": data, "probe-flatness": data | {"mse_weight"}}
    other_names = {
        "train": {"manifest", "mode", "report_out", "checkpoint_out", "bank_out", "resume"},
        "eval": {"checkpoint_path", "manifest", "report_out"},
        "probe-flatness": {"checkpoint_path", "manifest", "report_out", "radii", "draws"},
    }
    stored = RunConfig(frames=8, keyframes=2, seed=7, test_ratio=0.25, max_train_per_session=9,
                       score_range=(0.0, 6.0), mse_weight=0.1, epochs=3)
    for name, argv in required.items():
        ctx = main.commands[name].make_context(name, argv)
        kw = {k: v for k, v in ctx.params.items() if k not in other_names[name]}
        assert set(kw) == config_names[name], name
        assert _make_config(RunConfig(), kw) == RunConfig(), name
        if name != "train":
            # a served checkpoint's options are unset unless given
            assert set(kw.values()) == {None}, name
            assert _make_config(stored, kw) == stored, name


def test_synth_options_are_synth_spec_fields() -> None:
    """Every SynthSpec field but include_base is a synth option of its name
    and default, so a new field cannot go without one."""
    params = {p.name: p for p in main.commands["synth"].params}
    spec = {f.name: f.default for f in fields(SynthSpec) if f.name != "include_base"}
    assert list(params) == ["out", *spec, "no_base"]
    for name, default in spec.items():
        assert params[name].opts == ["--" + name.replace("_", "-")], name
        assert params[name].default == default and params[name].show_default, name


@pytest.mark.parametrize("option", ["--report-out", "--bank-out", "--checkpoint-out"])
def test_unwritable_train_output_exit_code_three(bench, tmp_path, option) -> None:
    runner, out = bench
    outputs = {"--report-out": "r.json", "--bank-out": "b.bin", "--checkpoint-out": "c.ckpt"}
    outputs[option] = "nodir/" + outputs[option]
    argv = ["train", "--manifest", str(out / "manifest.json")]
    for name, path in outputs.items():
        argv += [name, str(tmp_path / path)]
    result = runner.invoke(main, argv + TRAIN_SPEED_ARGS)
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert "No such file or directory" in result.output and "nodir" in result.output


def test_synth_into_a_regular_file_exit_code_three(tmp_path) -> None:
    afile = tmp_path / "afile"
    afile.write_text("")
    result = CliRunner().invoke(main, SYNTH_ARGS + ["--out", str(afile / "x")])
    assert result.exit_code == 3, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert "Not a directory" in result.output


def test_config_errors_exit_code_two(bench, tmp_path) -> None:
    runner, out = bench
    # train always gives --keyframes (default 3), so it is not clamped to --frames
    for bad, message in (
        (["--mse-weight", "-1"], "loss weights must be >= 0"),
        (["--replay-batch-size", "1"], "replay_batch_size >= 2"),
        (["--frames", "2"], "need 1 <= keyframes <= frames"),
    ):
        result = runner.invoke(
            main,
            ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(tmp_path / "r.json")]
            + TRAIN_SPEED_ARGS + bad,
        )
        assert result.exit_code == 2, (bad, result.output)
        assert message in result.output, bad
        assert not (tmp_path / "r.json").exists()


def test_non_finite_float_options_exit_code_two(bench, tmp_path) -> None:
    runner, out = bench
    report = tmp_path / "r.json"
    train = ["train", "--manifest", str(out / "manifest.json"), "--report-out", str(report)]
    run_floats = [f.name for f in fields(RunConfig) if type(f.default) is float]
    synth_floats = [f.name for f in fields(SynthSpec) if type(f.default) is float]
    assert run_floats and synth_floats
    for command, names in ((train + TRAIN_SPEED_ARGS, run_floats + ["score_min", "score_max"]),
                           (SYNTH_ARGS + ["--out", str(tmp_path / "synth")], synth_floats)):
        for name in names:
            for value in ("nan", "inf", "-inf"):
                result = runner.invoke(main, command + ["--" + name.replace("_", "-"), value])
                assert result.exit_code == 2, (name, value, result.output)
                assert "must be finite" in result.output, (name, value)
    assert not report.exists() and not (tmp_path / "synth").exists()


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_train_cap_below_one_exit_code_two(bench, tmp_path, cap) -> None:
    runner, out = bench
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "r.json"),
            "--max-train", cap,
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 2, result.output
    assert "training-sample cap per session must be >= 1" in result.output
    assert not (tmp_path / "r.json").exists()


# (radii, draws) -> the message rejecting them
BAD_PROBE_ARGS = {
    ("0.5,1", "0"): "probe needs draws >= 1",
    ("0.5,1", "-3"): "probe needs draws >= 1",
    ("nan", "10"): "probe radii must be finite",
    ("0.5,inf", "10"): "probe radii must be finite",
    ("-inf", "10"): "probe radii must be finite",
    ("1,1.0", "10"): "probe radii must have distinct labels",
}


@pytest.mark.parametrize("radii, draws", list(BAD_PROBE_ARGS))
def test_probe_bad_draws_or_radii_exit_code_two(bench, tmp_path, radii, draws) -> None:
    runner, out = bench
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "train.json"),
            "--checkpoint-out", str(ckpt),
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    probe_report = tmp_path / "probe.json"
    result = runner.invoke(
        main,
        [
            "probe-flatness",
            "--checkpoint", str(ckpt),
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(probe_report),
            "--radii", radii,
            "--draws", draws,
        ]
        + DATA_ARGS,
    )
    assert result.exit_code == 2, result.output
    assert BAD_PROBE_ARGS[radii, draws] in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not probe_report.exists()


def test_malformed_report_exit_code_three(tmp_path) -> None:
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    for text in (
        b"{not json",
        b"5",
        b'"mode seed pooled sessions"',
        b'{"mode": "\xff"}',
        b'{"mode": "joint", "seed": true, "pooled": {}, "sessions": {}}',
    ):
        bad.write_bytes(text)
        result = runner.invoke(main, ["report", str(bad)])
        assert result.exit_code == 3, text


# a body per fault that every JSON document refuses, and what its message says
_FAULTY_JSON = {
    "duplicate key": (b'{"records": [{"score": 1, "score": 4.99}]}', "duplicate key 'score'"),
    "NaN": (b'{"records": [{"score": NaN}]}', "non-finite number NaN"),
    "Infinity": (b'{"records": [{"score": Infinity}]}', "non-finite number Infinity"),
    "past the float range": (b'{"records": [{"score": 1e999}]}', "non-finite number 1e999"),
    "not UTF-8": (b'{"records": [{"id": "\xff"}]}', "not valid JSON: UnicodeDecodeError"),
    "nested too deep": (b"[" * 200_000 + b"]" * 200_000, "not valid JSON: RecursionError"),
}


def test_every_json_document_refuses_the_same_faults(bench, tmp_path) -> None:
    runner, out = bench
    manifest, report, ckpt = tmp_path / "manifest.json", tmp_path / "report.json", tmp_path / "run.ckpt"
    outputs = ["--report-out", str(tmp_path / "out.json")]
    for fault, (body, message) in _FAULTY_JSON.items():
        manifest.write_bytes(body)
        report.write_bytes(body)
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(body)) + body)
        for read, error, what in (
            (lambda: load_manifest(manifest, 8, (1.0, 5.0), 3, 0.2, 50), ManifestError, "manifest"),
            (lambda: read_report(report), ManifestError, "report"),
            (lambda: load_checkpoint(ckpt), CheckpointError, "checkpoint header"),
        ):
            with pytest.raises(error, match=re.escape(f"malformed {what}: {message}")):
                read()
        for args in (
            ["train", "--manifest", str(manifest)] + outputs,
            ["report", str(report)],
            ["eval", "--checkpoint", str(ckpt), "--manifest", str(out / "manifest.json")] + outputs,
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (fault, args[0], result.output)
            assert message in result.output, (fault, args[0])
    assert not (tmp_path / "out.json").exists()


def test_train_under_a_c_locale_reads_and_writes_utf8(bench, tmp_path) -> None:
    _, out = bench
    payload = json.loads((out / "manifest.json").read_text())
    for rec in payload["records"]:
        rec["id"] = "é-" + rec["id"]
        if rec["session"] != "Others":  # the base session, by its name
            rec["session"] += "-ß"
    manifest = out / "utf8.json"
    manifest.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    report, ckpt, bank = tmp_path / "report.json", tmp_path / "run.ckpt", tmp_path / "bank.bin"
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(scorealign.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "scorealign.cli", "train", "--manifest", str(manifest),
         "--report-out", str(report), "--checkpoint-out", str(ckpt), "--bank-out", str(bank)]
        + TRAIN_SPEED_ARGS,
        env=env, capture_output=True,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert set(read_report(report).sessions) == {"session1-ß", "session2-ß"}
    assert load_checkpoint(ckpt).completed_sessions == ["session1-ß", "session2-ß"]


def test_malformed_report_entries_exit_code_three(tmp_path) -> None:
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    head = '{"mode": "joint", "seed": 1, '
    for body in (
        '"pooled": {}, "sessions": {"s1": {}}',
        '"pooled": {}, "sessions": {"s1": 5}',
        '"pooled": {}, "sessions": {"s1": {"n": 2, "plcc": "x", "srcc": null, "rl2e": null}}',
        '"pooled": {"srcc_ove": "x"}, "sessions": {}',
        '"pooled": {}, "sessions": {}, "config_hash": 7',
        '"pooled": {"srcc_ove": NaN}, "sessions": {}',
        '"pooled": {}, "sessions": {}, "counters": {"steps": 1e999}',
    ):
        bad.write_text(head + body + "}")
        result = runner.invoke(main, ["report", str(bad)])
        assert result.exit_code == 3, body


def test_continual_run_with_an_empty_later_split_exits_four_before_its_checkpoint(tmp_path) -> None:
    runner = CliRunner()
    out = tmp_path / "three"
    result = runner.invoke(main, SYNTH_ARGS + ["--sessions", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text())
    for rec in payload["records"]:
        if rec["session"] == "session3":
            rec["split"] = "test"
    manifest.write_text(json.dumps(payload))
    ckpt = tmp_path / "run.ckpt"
    result = runner.invoke(
        main,
        ["train", "--manifest", str(manifest), "--report-out", str(tmp_path / "r.json"),
         "--checkpoint-out", str(ckpt)]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 4, result.output
    assert "error: session 'session3' has no training samples" in result.output
    assert not ckpt.exists()


def test_runtime_errors_exit_code_four(tmp_path) -> None:
    runner = CliRunner()
    out = tmp_path / "flat"
    result = runner.invoke(
        main,
        SYNTH_ARGS + ["--out", str(out), "--drift", "0", "--noise-std", "0"],
    )
    assert result.exit_code == 0, result.output
    # forcing constant targets: rewrite every score to the same value
    manifest = out / "manifest.json"
    payload = json.loads(manifest.read_text())
    for rec in payload["records"]:
        rec["score"] = 3.0
    manifest.write_text(json.dumps(payload))
    result = runner.invoke(
        main,
        ["train", "--manifest", str(manifest), "--report-out", str(tmp_path / "r.json")]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 4
    assert "degenerate" in result.output or "no trainable" in result.output