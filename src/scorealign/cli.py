"""Command-line surface: synth, train, eval, probe-flatness, report.

Exit codes: 0 success, 2 bad usage/configuration, 3 data errors
(manifests, reports, binary files), 4 runtime failures.
"""

from __future__ import annotations

import sys
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
    evaluate,
    flat_minima_probe,
    load_checkpoint,
    train_continual,
    train_joint,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# BankError and CheckpointError are CodecErrors
_DATA_ERRORS = (ManifestError, CodecError)


def _run(action):
    try:
        action()
    except _DATA_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    except (TrainingError, FloatingPointError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


_RUN_DEFAULTS = RunConfig()


def _config_options(fn):
    d = _RUN_DEFAULTS
    opts = [
        click.option("--epochs", default=d.epochs, show_default=True, help="epochs per task"),
        click.option("--batch-size", default=d.batch_size, show_default=True, help="current-data batch size b1"),
        click.option("--replay-batch-size", default=d.replay_batch_size, show_default=True, help="replay mini-batch size b2"),
        click.option("--mse-weight", default=d.mse_weight, show_default=True, help="precision-loss weight (lambda)"),
        click.option("--replay-weight", default=d.replay_weight, show_default=True, help="replay-loss weight (alpha)"),
        click.option("--reg-weight", default=d.reg_weight, show_default=True, help="reconstruction-loss weight (beta)"),
        click.option("--exemplars-per-session", default=d.exemplars_per_session, show_default=True, help="memory quota m per session"),
        click.option("--keyframes", default=d.keyframes, show_default=True, help="key frames K kept per stored sample"),
        click.option("--diversity-weight", default=d.diversity_weight, show_default=True, help="key-frame diversity weight"),
        click.option("--learning-rate", default=d.learning_rate, show_default=True),
        click.option("--weight-decay", default=d.weight_decay, show_default=True),
        click.option("--frames", default=d.frames, show_default=True, help="canonical frame count T"),
        click.option("--score-min", default=d.score_range[0], show_default=True),
        click.option("--score-max", default=d.score_range[1], show_default=True),
        click.option("--test-ratio", default=d.test_ratio, show_default=True),
        click.option("--max-train", default=d.max_train_per_session, show_default=True, help="training-sample cap per session"),
        click.option("--no-reparam", is_flag=True, default=not d.reparam, help="disable re-parameterized sampling (ablation)"),
        click.option("--seed", default=d.seed, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _make_config(mode: str, kw: dict) -> RunConfig:
    """RunConfig from the parsed options; only renamed flags need mapping."""
    kw = dict(kw)
    renamed = {
        "score_range": (kw.pop("score_min"), kw.pop("score_max")),
        "max_train_per_session": kw.pop("max_train"),
        "reparam": not kw.pop("no_reparam"),
    }
    return RunConfig(mode=mode, **renamed, **kw)


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


_SYNTH_DEFAULTS = SynthSpec()


@main.command()
@click.option("--out", required=True, type=click.Path(), help="output directory")
@click.option("--sessions", default=_SYNTH_DEFAULTS.sessions, show_default=True)
@click.option("--samples-per-session", default=_SYNTH_DEFAULTS.samples_per_session, show_default=True)
@click.option("--frames", default=_SYNTH_DEFAULTS.frames, show_default=True)
@click.option("--feat-dim", default=_SYNTH_DEFAULTS.feat_dim, show_default=True)
@click.option("--drift", default=_SYNTH_DEFAULTS.drift, show_default=True)
@click.option("--noise-std", default=_SYNTH_DEFAULTS.noise_std, show_default=True)
@click.option("--seed", default=_SYNTH_DEFAULTS.seed, show_default=True)
@click.option("--no-base", is_flag=True, help="skip the auxiliary base session")
def synth(out, sessions, samples_per_session, frames, feat_dim, drift, noise_std, seed, no_base):
    """Generate a synthetic drift benchmark with a planted scorer."""

    def action():
        spec = SynthSpec(
            sessions=sessions,
            samples_per_session=samples_per_session,
            frames=frames,
            feat_dim=feat_dim,
            drift=drift,
            noise_std=noise_std,
            seed=seed,
            include_base=not no_base,
        )
        manifest = generate_synthetic(spec, out)
        click.echo(f"wrote {manifest}")

    _run(action)


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["joint", "continual"]), default="continual", show_default=True)
@click.option("--report-out", required=True, type=click.Path())
@click.option("--checkpoint-out", type=click.Path(), default=None)
@click.option("--bank-out", type=click.Path(), default=None, help="also write the memory bank file")
@click.option("--resume", type=click.Path(exists=True), default=None, help="resume a continual run")
@_config_options
def train(manifest, mode, report_out, checkpoint_out, bank_out, resume, **kw):
    """Train a model and write its evaluation report."""

    def action():
        config = _make_config(mode, kw)
        data = _load(manifest, config)
        if mode == "joint":
            result = train_joint(config, data, checkpoint_path=checkpoint_out)
        else:
            result = train_continual(
                config, data, checkpoint_path=checkpoint_out, resume_from=resume
            )
        emit_report(result.report, report_out)
        if bank_out is not None:
            save_bank(result.bank, bank_out)
        srcc = result.report.pooled.get("srcc_ove")
        rl2e = result.report.pooled.get("rl2e_ove")
        click.echo(f"wrote {report_out} (pooled srcc={srcc}, rl2e={rl2e})")

    _run(action)


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--report-out", required=True, type=click.Path())
@_config_options
def eval_cmd(checkpoint_path, manifest, report_out, **kw):
    """Evaluate a checkpointed model on a manifest's test splits."""

    def action():
        config = _make_config("eval", kw)
        bundle = load_checkpoint(checkpoint_path)
        data = _load(manifest, config)
        test = data.all_test()
        result = evaluate(bundle.model, test, config.score_range)
        emit_report(build_report(config, "eval", result), report_out)
        click.echo(f"wrote {report_out}")

    _run(action)


@main.command("probe-flatness")
@click.option("--checkpoint", "checkpoint_path", required=True, type=click.Path(exists=True))
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--report-out", required=True, type=click.Path())
@click.option("--radii", default="0.5,1,2,5", show_default=True, help="comma-separated radii")
@click.option("--draws", default=10, show_default=True, help="random directions per radius")
@_config_options
def probe_flatness(checkpoint_path, manifest, report_out, radii, draws, **kw):
    """Probe loss-landscape flatness around a trained model."""

    def action():
        config = _make_config("probe", kw)
        radius_list = [float(r) for r in radii.split(",") if r.strip()]
        if not radius_list:
            raise ValueError("at least one probe radius is required")
        bundle = load_checkpoint(checkpoint_path)
        data = _load(manifest, config)
        rng = SeededRng(derive_seed(config.seed, "probe"))
        table = flat_minima_probe(
            bundle.model, data.sessions, config.mse_weight, radius_list, rng, draws=draws
        )
        emit_report(build_report(config, "probe", flatness=table), report_out)
        click.echo(f"wrote {report_out}")

    _run(action)


@main.command()
@click.argument("path", type=click.Path(exists=True))
def report(path):
    """Validate a report file and print a summary."""

    def action():
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

    _run(action)


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.4f}"


if __name__ == "__main__":
    main()
