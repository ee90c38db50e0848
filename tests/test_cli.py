from __future__ import annotations

import json
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from scorealign.cli import _make_config, main
from scorealign.data import read_report
from scorealign.memory import MemoryBank, encode_sessions
from scorealign.runner import RunConfig, load_checkpoint

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
        (lambda h: h["adam"].update(lr="0.01"), "adam 'lr'"),
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
    for rows, shape in ((slice(0, 2), "(2, 8)"), ((slice(None), slice(0, 7)), "(3, 7)")):
        cut = MemoryBank(
            {tag: [replace(e, features=e.features[rows]) for e in exemplars]
             for tag, exemplars in bank.sessions.items()}
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
    for name, argv in required.items():
        ctx = main.commands[name].make_context(name, argv)
        kw = {k: v for k, v in ctx.params.items() if k not in other_names[name]}
        assert set(kw) == config_names[name], name
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
    ):
        bad.write_text(head + body + "}")
        result = runner.invoke(main, ["report", str(bad)])
        assert result.exit_code == 3, body


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