from __future__ import annotations

import json
import struct

import pytest
from click.testing import CliRunner

from scorealign.cli import _make_config, main
from scorealign.data import read_report
from scorealign.runner import RunConfig

SYNTH_ARGS = [
    "synth",
    "--sessions", "2",
    "--samples-per-session", "12",
    "--feat-dim", "8",
    "--frames", "8",
    "--seed", "3",
]

TRAIN_SPEED_ARGS = [
    "--epochs", "2",
    "--frames", "8",
    "--seed", "3",
]


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
        + TRAIN_SPEED_ARGS,
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
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 0, result.output
    flatness = read_report(probe_report).flatness
    assert flatness["draws"] == 10
    assert flatness["radii"] == ["0.5", "1"]


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
        + TRAIN_SPEED_ARGS,
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
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 3, result.output
    assert f"non-finite value in array 'head' at flat index 0 (byte offset {first_array})" in result.output


def test_config_defaults_are_run_config_defaults(tmp_path) -> None:
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{}")
    required = {
        "train": ["--manifest", str(manifest), "--report-out", "r.json"],
        "eval": ["--checkpoint", str(manifest), "--manifest", str(manifest), "--report-out", "r.json"],
        "probe-flatness": ["--checkpoint", str(manifest), "--manifest", str(manifest), "--report-out", "r.json"],
    }
    config_names = {p.name for p in main.commands["eval"].params} - {"checkpoint_path", "manifest", "report_out"}
    for name, argv in required.items():
        ctx = main.commands[name].make_context(name, argv)
        kw = {k: v for k, v in ctx.params.items() if k in config_names}
        assert _make_config("continual", kw) == RunConfig(), name


def test_config_errors_exit_code_two(bench, tmp_path) -> None:
    runner, out = bench
    result = runner.invoke(
        main,
        [
            "train",
            "--manifest", str(out / "manifest.json"),
            "--report-out", str(tmp_path / "r.json"),
            "--mse-weight", "-1",
        ]
        + TRAIN_SPEED_ARGS,
    )
    assert result.exit_code == 2


def test_malformed_report_exit_code_three(tmp_path) -> None:
    runner = CliRunner()
    bad = tmp_path / "bad.json"
    for text in (b"{not json", b"5", b'"mode seed pooled sessions"', b'{"mode": "\xff"}'):
        bad.write_bytes(text)
        result = runner.invoke(main, ["report", str(bad)])
        assert result.exit_code == 3, text


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