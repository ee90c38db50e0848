"""Compressed replay against sequential fine-tuning over several drift streams.

For each stream `SynthSpec(seed=s)` this trains the committed continual run
(`benchmark_config()`) and its sequential fine-tuning baseline (replay,
regularizer and exemplars off, as criterion 8 runs it), then prints each
run's pooled SRCC and RL2E and criterion 8's margin: replay's SRCC minus
fine-tuning's. Criterion 8 holds where the margin is at least 0.05 and
replay's RL2E is the lower. Over the streams it prints the margin's mean
and minimum and the count of streams where replay is ahead.

Run from the repository root; the committed sweep is the default:

    PYTHONPATH=src python scripts/claims_sweep.py
    PYTHONPATH=src python scripts/claims_sweep.py --streams 7,13 --epochs 1
"""

from __future__ import annotations

import argparse
import statistics
import tempfile

from scorealign.data import SynthSpec, generate_synthetic, load_manifest
from scorealign.runner import benchmark_config, train_continual

STREAMS = (7, 13, 19, 29, 31, 37, 41, 43)
SEQFT = {"replay_weight": 0.0, "reg_weight": 0.0, "exemplars_per_session": 0}
CRITERION_8_MARGIN = 0.05


def _pooled(config, data) -> tuple[float, float]:
    pooled = train_continual(config, data).report.pooled
    return pooled["srcc_ove"], pooled["rl2e_ove"]


def sweep_stream(stream: int, epochs: int | None) -> dict:
    """Both runs of one stream: each one's pooled SRCC and RL2E."""
    overrides = {} if epochs is None else {"epochs": epochs}
    replay, seqft = benchmark_config(**overrides), benchmark_config(**overrides, **SEQFT)
    with tempfile.TemporaryDirectory() as out:
        manifest = generate_synthetic(SynthSpec(seed=stream), out)
        data = load_manifest(
            manifest,
            frames=replay.frames,
            score_range=replay.score_range,
            seed=replay.seed,
            test_ratio=replay.test_ratio,
            max_train=replay.max_train_per_session,
        )
    (srcc, rl2e), (seqft_srcc, seqft_rl2e) = _pooled(replay, data), _pooled(seqft, data)
    return {"srcc": srcc, "seqft_srcc": seqft_srcc, "rl2e": rl2e, "seqft_rl2e": seqft_rl2e}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--streams", default=",".join(map(str, STREAMS)), help="comma-separated SynthSpec seeds"
    )
    parser.add_argument("--epochs", type=int, help="epochs per task (default: benchmark_config's)")
    args = parser.parse_args(argv)
    streams = [int(s) for s in args.streams.split(",")]

    print("| stream | SRCC replay | SRCC seqft | RL2E replay | RL2E seqft | margin | criterion 8 |")
    print("|---|---|---|---|---|---|---|")
    margins, holds = [], 0
    for stream in streams:
        row = sweep_stream(stream, args.epochs)
        margin = row["srcc"] - row["seqft_srcc"]
        held = margin >= CRITERION_8_MARGIN and row["rl2e"] < row["seqft_rl2e"]
        margins.append(margin)
        holds += held
        print(
            f"| {stream} | {row['srcc']:.3f} | {row['seqft_srcc']:.3f} | {row['rl2e']:.4f} "
            f"| {row['seqft_rl2e']:.4f} | {margin:+.3f} | {'holds' if held else 'fails'} |"
        )
    print(
        f"margin over {len(margins)} streams: mean {statistics.fmean(margins):+.3f}, "
        f"min {min(margins):+.3f}; replay ahead on {sum(m > 0 for m in margins)} of "
        f"{len(margins)}; criterion 8 holds on {holds} of {len(margins)}"
    )


if __name__ == "__main__":
    main()
