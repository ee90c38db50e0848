"""Command-line surface: synth, train, eval, probe-flatness, report.

Exit codes: 0 success, 2 bad usage/configuration, 3 data errors
(manifests, reports, binary files) and file I/O errors, 4 runtime failures.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import fields, replace
from pathlib import Path

import click

from .data import (
    CodecError,
    ManifestError,
    SynthSpec,
    emit_report,
    generate_synthetic,
    load_manifest,
    read_report,
)
from .memory import save_bank
from .numkit import SeededRng, derive_seed
from .runner import (
    RunConfig,
    TrainingError,
    build_report,
    check_feature_dim,
    evaluate,
    flat_minima_probe,
    load_checkpoint,
    train_continual,
    train_joint,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# BankError and CheckpointError are CodecErrors; OSError is file I/O
_DATA_ERRORS = (ManifestError, CodecError, OSError)


def _exit_codes(command):
    """Decorator around a command's body: an error it raises is printed and
    exits with its kind's code, a ValueError of no other kind with 2."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except _DATA_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except (TrainingError, FloatingPointError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)

    return run


_RUN_DEFAULTS = RunConfig()

# Every RunConfig option, in `train --help` order: its flag, default and
# help. `eval` and `probe-flatness` take only the ones they read.
_CONFIG_OPTIONS = {
    "epochs": ("--epochs", _RUN_DEFAULTS.epochs, "epochs per task"),
    "batch_size": ("--batch-size", _RUN_DEFAULTS.batch_size, "current-data batch size b1"),
    "replay_batch_size": ("--replay-batch-size", _RUN_DEFAULTS.replay_batch_size, "replay mini-batch size b2"),
    "mse_weight": ("--mse-weight", _RUN_DEFAULTS.mse_weight, "precision-loss weight (lambda)"),
    "replay_weight": ("--replay-weight", _RUN_DEFAULTS.replay_weight, "replay-loss weight (alpha)"),
    "reg_weight": ("--reg-weight", _RUN_DEFAULTS.reg_weight, "reconstruction-loss weight (beta)"),
    "exemplars_per_session": ("--exemplars-per-session", _RUN_DEFAULTS.exemplars_per_session, "memory quota m per session"),
    "keyframes": ("--keyframes", _RUN_DEFAULTS.keyframes, "key frames K kept per stored sample"),
    "diversity_weight": ("--diversity-weight", _RUN_DEFAULTS.diversity_weight, "key-frame diversity weight"),
    "learning_rate": ("--learning-rate", _RUN_DEFAULTS.learning_rate, None),
    "weight_decay": ("--weight-decay", _RUN_DEFAULTS.weight_decay, None),
    "frames": ("--frames", _RUN_DEFAULTS.frames, "canonical frame count T"),
    "score_min": ("--score-min", _RUN_DEFAULTS.score_range[0], None),
    "score_max": ("--score-max", _RUN_DEFAULTS.score_range[1], None),
    "test_ratio": ("--test-ratio", _RUN_DEFAULTS.test_ratio, None),
    "max_train": ("--max-train", _RUN_DEFAULTS.max_train_per_session, "training-sample cap per session"),
    "no_reparam": ("--no-reparam", not _RUN_DEFAULTS.reparam, "disable re-parameterized sampling (ablation)"),
    "seed": ("--seed", _RUN_DEFAULTS.seed, None),
}

# what loading a manifest reads
_DATA_OPTIONS = ("frames", "score_min", "score_max", "test_ratio", "max_train", "seed")


def _config_options(names=tuple(_CONFIG_OPTIONS), unset=False):
    """Decorator adding the named config options, in _CONFIG_OPTIONS order.
    With unset, an option not given is None, so that the base config's
    value holds: a served checkpoint keeps the data options it was
    trained with unless the command is given others."""

    def decorate(fn):
        for name in reversed(_CONFIG_OPTIONS):
            if name not in names:
                continue
            flag, default, help_ = _CONFIG_OPTIONS[name]
            if isinstance(default, bool):
                option = click.option(flag, is_flag=True, default=default, help=help_)
            elif unset:
                served = "[default: the checkpoint's]"
                option = click.option(flag, type=type(default), help=f"{help_}  {served}" if help_ else served)
            else:
                option = click.option(flag, default=default, show_default=True, help=help_)
            fn = option(fn)
        return fn

    return decorate


def _make_config(base: RunConfig, kw: dict) -> RunConfig:
    """base with a command's parsed options put in its place; only renamed
    flags need mapping. An option the command lacks or was not given (None)
    keeps base's value, except that where keyframes is not an option (eval,
    probe-flatness) it is clamped to the frame count."""
    kw = {name: value for name, value in kw.items() if value is not None}
    kw["score_range"] = (kw.pop("score_min", base.score_range[0]), kw.pop("score_max", base.score_range[1]))
    if "max_train" in kw:
        kw["max_train_per_session"] = kw.pop("max_train")
    if "no_reparam" in kw:
        kw["reparam"] = not kw.pop("no_reparam")
    kw.setdefault("keyframes", min(base.keyframes, kw.get("frames", base.frames)))
    return replace(base, **kw)


def _load(manifest: str, config: RunConfig):
    return load_manifest(
        manifest,
        frames=config.frames,
        score_range=config.score_range,
        seed=config.seed,
        test_ratio=config.test_ratio,
        max_train=config.max_train_per_session,
    )


@click.group()
def main() -> None:
    """Continual perceptual-score regression engine."""


def _spec_options(fn):
    """Decorator adding one option per SynthSpec field but include_base, in
    field order, with the field's default."""
    for spec_field in reversed([f for f in fields(SynthSpec) if f.name != "include_base"]):
        flag = "--" + spec_field.name.replace("_", "-")
        fn = click.option(flag, default=spec_field.default, show_default=True)(fn)
    return fn


@main.command()
@click.option("--out", required=True, type=click.Path(), help="output directory")
@_spec_options
@click.option("--no-base", is_flag=True, help="skip the auxiliary base session")
@_exit_codes
def synth(out, no_base, **spec):
    """Generate a synthetic drift benchmark with a planted scorer."""
    manifest = generate_synthetic(SynthSpec(**spec, include_base=not no_base), out)
    click.echo(f"wrote {manifest}")


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["joint", "continual"]), default="continual", show_default=True)
@click.option("--report-out", required=True, type=click.Path())
@click.option("--checkpoint-out", type=click.Path(), default=None)
@click.option("--bank-out", type=click.Path(), default=None, help="also write the memory bank file")
@click.option("--resume", type=click.Path(exists=True), default=None, help="resume a continual run")
@_config_options()
@_exit_codes
def train(manifest, mode, report_out, checkpoint_out, bank_out, resume, **kw):
    """Train a model and write its evaluation report."""
    if resume is not None and mode != "continual":
        raise ValueError("--resume applies only to continual runs")
    config = _make_config(RunConfig(mode=mode), kw)
    data = _load(manifest, config)
    if mode == "joint":
        result = train_joint(config, data, checkpoint_path=checkpoint_out)
    else:
        result = train_continual(config, data, checkpoint_path=checkpoint_out, resume_from=resume)
    emit_report(result.report, report_out)
    if bank_out is not None:
        save_bank(result.bank, bank_out)
    srcc = result.report.pooled.get("srcc_ove")
    rl2e = result.report.pooled.get("rl2e_ove")
    click.echo(f"wrote {report_out} (pooled srcc={srcc}, rl2e={rl2e})")


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--report-out", required=True, type=click.Path())
@_config_options(_DATA_OPTIONS, unset=True)
@_exit_codes
def eval_cmd(checkpoint_path, manifest, report_out, **kw):
    """Evaluate a checkpointed model on a manifest's test splits."""
    bundle = load_checkpoint(checkpoint_path)
    config = _make_config(bundle.config, kw)
    data = _load(manifest, config)
    check_feature_dim(bundle.model, data)
    tables = evaluate(bundle.model, data.all_test(), config.score_range)
    emit_report(build_report(config, "eval", **tables), report_out)
    click.echo(f"wrote {report_out}")


@main.command("probe-flatness")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--report-out", required=True, type=click.Path())
@click.option("--radii", default="0.5,1,2,5", show_default=True, help="comma-separated radii")
@click.option("--draws", default=10, show_default=True, help="random directions per radius")
@_config_options(_DATA_OPTIONS + ("mse_weight",), unset=True)
@_exit_codes
def probe_flatness(checkpoint_path, manifest, report_out, radii, draws, **kw):
    """Probe loss-landscape flatness around a trained model."""
    radius_list = [float(r) for r in radii.split(",") if r.strip()]
    if not radius_list:
        raise ValueError("at least one probe radius is required")
    bundle = load_checkpoint(checkpoint_path)
    config = _make_config(bundle.config, kw)
    data = _load(manifest, config)
    check_feature_dim(bundle.model, data)
    rng = SeededRng(derive_seed(config.seed, "probe"))
    table = flat_minima_probe(bundle.model, data.sessions, config.mse_weight, radius_list, rng, draws=draws)
    emit_report(build_report(config, "probe", flatness=table), report_out)
    click.echo(f"wrote {report_out}")


@main.command()
@click.argument("path", type=click.Path(exists=True))
@_exit_codes
def report(path):
    """Validate a report file and print a summary."""
    rep = read_report(path)
    click.echo(f"mode: {rep.mode}  seed: {rep.seed}  config: {rep.config_hash[:12]}")
    for tag in sorted(rep.sessions):
        entry = rep.sessions[tag]
        click.echo(
            f"  {tag}: n={entry['n']} plcc={_fmt(entry['plcc'])} "
            f"srcc={_fmt(entry['srcc'])} rl2e={_fmt(entry['rl2e'])}"
        )
    if rep.pooled:
        click.echo(
            f"  pooled: srcc_ove={_fmt(rep.pooled.get('srcc_ove'))} "
            f"rl2e_ove={_fmt(rep.pooled.get('rl2e_ove'))}"
        )
    if rep.flatness:
        click.echo(f"  flatness probe over radii {rep.flatness.get('radii')}")


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.4f}"


if __name__ == "__main__":
    main()
