"""Training wall time and optimizer-step times of the benchmark's two runs.

For the committed continual run (`benchmark_config()`, on the drift
benchmark `drift_benchmark_spec()`) and its sequential fine-tuning control
(replay, regularizer and exemplars off), this trains in-process and prints
the training wall time and the median and 95th percentile of the step
times. A step time is the time between two optimizer steps, the first
from the call's start and the last to its return, stamped by rebinding
`runner.adam_step` for the duration of the call, as perfbench's step
clock does. Each run is repeated and the fastest repeat's wall time is
printed with its step times; pin BLAS to one thread, as perfbench does, so
that runs compare.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/step_times.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/step_times.py --epochs 1 --repeats 1
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from scorealign import runner
from scorealign.data import drift_benchmark_spec, generate_synthetic, load_manifest

RUNS = {
    "continual-replay": {},
    "seqft-noreplay": {"replay_weight": 0.0, "reg_weight": 0.0, "exemplars_per_session": 0},
}


def timed_run(config: runner.RunConfig, data) -> tuple[float, np.ndarray]:
    """One train_continual call: its wall time in s and its step times in ms."""
    stamps: list[float] = []
    original = runner.adam_step

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return result

    runner.adam_step = stamped
    try:
        start = time.perf_counter()
        runner.train_continual(config, data)
        end = time.perf_counter()
    finally:
        runner.adam_step = original
    return end - start, 1000.0 * np.diff([start, *stamps, end])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, help="epochs per task (default: benchmark_config's)")
    parser.add_argument("--repeats", type=int, default=3, help="runs per workload (default: 3)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    overrides = {} if args.epochs is None else {"epochs": args.epochs}

    print("| run | wall (s) | steps | step p50 (ms) | step p95 (ms) |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as out:
        manifest = generate_synthetic(drift_benchmark_spec(), Path(out) / "stream")
        for name, run_overrides in RUNS.items():
            config = runner.benchmark_config(**overrides, **run_overrides)
            data = load_manifest(
                manifest,
                frames=config.frames,
                score_range=config.score_range,
                seed=config.seed,
                test_ratio=config.test_ratio,
                max_train=config.max_train_per_session,
            )
            wall, steps_ms = min((timed_run(config, data) for _ in range(args.repeats)), key=lambda r: r[0])
            p50, p95 = np.quantile(steps_ms, [0.5, 0.95], method="weibull")
            print(f"| {name} | {wall:.3f} | {steps_ms.size - 1} | {p50:.3f} | {p95:.3f} |")


if __name__ == "__main__":
    main()
