"""Benchmark harness for scorealign.

Run from the repository root:

    python3 perfbench/run.py --workload continual-replay --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md for
the workloads, the metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread per process: the timings are of this process alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pinning, which BLAS reads at load)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 15  # set-ups per run, spread evenly over the window
TRAIN_SHARE = 0.7  # of the window for training calls; serving gets the rest
MIN_TRAIN_CALLS = 2  # training calls per run at least, so steps sample more of the window
BLOCK_ROUNDS = 10  # serve rounds per block; a round is one request of each kind
MIN_ROUNDS = 100  # serve rounds per run at least, so a tail has TAIL_BEYOND samples beyond p90
TRACE_ROUNDS = 4  # serve rounds in one traced unit
TRACED_UNITS = 2  # traced units per traced run: their call counts must repeat
TAIL_BEYOND = 10  # samples a tail percentile must have above it

USAGE = """\
workloads:
  continual-replay  train_continual(benchmark_config()) on the committed drift
                    benchmark, then eval / probe-flatness / archive requests
                    with fresh inputs against the checkpoint it wrote
  seqft-noreplay    the same with replay, regularizer and exemplars off

--trace 0 prints the end-to-end metrics: median set-up time, the p95
duration of a training step, pooled quality, the tail latency of each
request kind (the highest percentile with 10 samples beyond it, about
p90), peak RSS and the share of operations that passed their checks. --trace 1 runs a fixed unit of work
(set-up, one training operation, four serve rounds) once untraced, twice
traced, then untraced and traced in turn while the window lasts, and prints
the per-layer metrics: calls and self time per layer and function, counts,
and the tracing overhead. Spans of the first traced unit go to
.perfbench_out/spans-<workload>.tsv.

Exit codes: 0 when a result was printed (check "correct"), 2 when the
scorealign sources are missing or an argument is invalid.
"""


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark of scorealign: two workloads, end-to-end and per-layer metrics.",
        epilog=USAGE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=["continual-replay", "seqft-noreplay"])
    parser.add_argument("--seed", type=int, required=True, help="seed of the request inputs and order")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "scorealign" / "__init__.py").is_file():
        print(f"perfbench: scorealign sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import scorealign

    if Path(scorealign.__file__).resolve().parent != (src / "scorealign").resolve():
        print(f"perfbench: imported scorealign from {scorealign.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[tail_index],
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 1),
    }


class Run:
    """Bookkeeping of attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # an operation failing is a measured outcome
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"perfbench: {label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def measure(workloads, args, workdir: Path) -> tuple[Run, dict, dict]:
    """The untraced run: end-to-end metrics.

    The machine this was tuned on switches between a fast and a slow speed
    up to 1.8x apart, through load outside the process, many times a second
    and in phases of seconds to minutes. A median or lower quartile of
    request latencies flips between the two speeds as the share of slow
    time in a run passes it; the tail, which nearly every run reaches in
    the slow speed, holds. So requests and training steps are measured by
    their tails. Training calls, serve blocks and set-ups interleave so
    that each statistic samples the whole window.
    """
    run = Run()
    start = time.perf_counter()
    train_target = args.seconds * TRAIN_SHARE
    setup_times: list[float] = []

    def timed_setup():
        target = workdir / f"setup{len(setup_times)}"
        began = time.perf_counter()
        prepared = workloads.setup(args.workload, target)
        setup_times.append(time.perf_counter() - began)
        return prepared

    def setup_when_due(force: bool = False):
        """Spare set-ups, due at even shares of the window."""
        elapsed = (time.perf_counter() - start) / args.seconds
        if len(setup_times) < SETUP_REPEATS and (force or elapsed * SETUP_REPEATS >= len(setup_times)):
            target = workdir / f"setup{len(setup_times)}"
            timed_setup()
            shutil.rmtree(target)

    prepared = timed_setup()
    trains = []
    latencies = {kind: [] for kind in workloads.REQUEST_KINDS}
    rounds = 0
    train_time = serve_time = 0.0
    client = None
    try:
        while True:
            want_train = (
                len(trains) < MIN_TRAIN_CALLS or train_time + trains[-1].wall_s <= train_target
            )
            want_serve = rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds
            if not (want_train or want_serve):
                break
            began = time.perf_counter()
            serve_due = serve_time * TRAIN_SHARE < train_time * (1.0 - TRAIN_SHARE)
            if want_train and (not want_serve or not trains or not serve_due):
                result = run.attempt("train", lambda: workloads.train_op(prepared, workdir))
                train_time += time.perf_counter() - began
                if result is None:
                    break
                trains.append(result)
            else:
                if client is None:
                    client = workloads.Client(prepared, workdir, args.seed)
                for _ in range(BLOCK_ROUNDS):
                    for kind in client.round_kinds():
                        result = run.attempt(kind, lambda: client.request(kind))
                        if result is not None:
                            latencies[kind].append(result.latency_s)
                rounds += BLOCK_ROUNDS
                serve_time += time.perf_counter() - began
            setup_when_due()
    finally:
        if client is not None:
            client.close()
    while len(setup_times) < SETUP_REPEATS:
        setup_when_due(force=True)

    report_shas = sorted({t.report_sha256 for t in trains})
    if len(report_shas) > 1:
        run.fail(f"training reports differ between identical runs: {report_shas}")
    if len({len(t.segments) for t in trains}) > 1:
        run.fail("training calls made different numbers of optimizer steps")
    # Segments between optimizer steps. The dozen that also hold a session's
    # end (exemplar writes, checkpoint) or the final eval lie far beyond p95.
    steps_ms = 1000.0 * np.concatenate([t.segments for t in trains]) if trains else None
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # method="weibull" is the definition statistics.quantiles uses.
        "train_step_tail_ms": (
            float(np.quantile(steps_ms, 0.95, method="weibull")) if trains else None, "ms"
        ),
        "srcc_ove": (trains[0].srcc_ove if trains else None, "coef"),
        "rl2e_ove": (trains[0].rl2e_ove if trains else None, "ratio"),
    }
    details = {
        "setup_s": setup_times,
        "train_ops": len(trains),
        "train_wall_s": [t.wall_s for t in trains],
        "train_steps_per_s": trains[0].steps / statistics.median(t.wall_s for t in trains) if trains else None,
        "train_step_p50_ms": float(np.median(steps_ms)) if trains else None,
        "train_report_sha256": report_shas,
        "serve_rounds": rounds,
    }
    served = []
    for kind in workloads.REQUEST_KINDS:
        if not latencies[kind]:
            run.fail(f"no {kind} request completed")
            metrics[f"{kind}_tail_ms"] = (None, "ms")
            continue
        summary = latency_summary(latencies[kind])
        metrics[f"{kind}_tail_ms"] = (1000.0 * summary["tail"], "ms")
        details[kind] = {"n": summary["n"], "tail_percentile": summary["tail_percentile"],
                         "p50_ms": 1000.0 * summary["p50"]}
        served += latencies[kind]
    details["requests_per_s"] = len(served) / sum(served) if served else None
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    ok = (run.attempted - run.failed) / run.attempted if run.attempted else None
    metrics["ok_ops"] = (ok, "ratio")
    for name, (value, _) in metrics.items():
        if value is None:
            run.fail(f"metric {name} could not be measured")
    return run, metrics, details


# Calls that must be non-zero on a workload, and, on seqft-noreplay, the
# layers the configuration switches off, which must stay at zero.
_EVERY_WORKLOAD = [
    "numkit.adam", "numkit.mlp_forward.head", "numkit.mlp_backward.head", "head.batch_sample",
    "head.batch_sample_backward", "head.predict_eval", "losses.combined", "metrics.metric_entry",
    "metrics.pooled_metrics", "memory.save_bank", "memory.load_bank", "data.read_feature_file",
    "data.resample_frames", "data.load_manifest", "data.write_feature_file",
    "data.generate_synthetic", "data.emit_report", "runner.model_param_dict", "runner.evaluate",
    "runner.flat_minima_probe", "runner.save_checkpoint", "runner.load_checkpoint", "cli.main",
]
_REPLAY_PATH = [
    "keyframe.select", "adapter.reg", "adapter.reconstruct.replay", "adapter.reconstruct.reg",
    "adapter.backward.replay", "adapter.backward.reg", "numkit.mlp_forward.adapter",
    "numkit.mlp_backward.adapter", "losses.reg", "memory.write_session", "memory.replay_draw",
]
EXPECT_CALLS = {
    "continual-replay": _EVERY_WORKLOAD + _REPLAY_PATH + ["runner.train_continual", "runner.base_pretrain"],
    "seqft-noreplay": _EVERY_WORKLOAD + ["runner.train_continual", "runner.base_pretrain"],
}
EXPECT_NO_CALLS = {"seqft-noreplay": _REPLAY_PATH}


def _unit(workloads, args, workdir: Path, tracer=None) -> tuple[float, list[str]]:
    """Fixed work for the traced comparison: set-up, one training operation
    on the training workloads, TRACE_ROUNDS serve rounds. Returns its wall
    time and the sha256 of every report it wrote."""
    def operation(label: str):
        """Root span of one operation, so its spans share an ancestor."""
        return tracer.span(f"bench.{label}") if tracer is not None else contextlib.nullcontext()

    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        shas = []
        with operation("setup"):
            prepared = workloads.setup(args.workload, workdir / "setup")
        with operation("train"):
            shas.append(workloads.train_op(prepared, workdir, step_clock=False).report_sha256)
        client = workloads.Client(prepared, workdir, args.seed)
        try:
            for _ in range(TRACE_ROUNDS):
                for kind in client.round_kinds():
                    with operation(kind):
                        shas.append(client.request(kind).report_sha256)
        finally:
            client.close()
        return time.perf_counter() - start, shas
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir / "setup", ignore_errors=True)


def trace(workloads, tracer_mod, args, workdir: Path) -> tuple[Run, dict, dict]:
    """The traced run: per-layer metrics and the harness self-checks.

    An untraced unit and TRACED_UNITS traced ones, then untraced and
    traced units in turn while the next one should end within the window.
    Every unit must write the same reports.
    """
    run = Run()
    deadline = time.perf_counter() + args.seconds
    untraced, units = [], []
    base_shas = None
    order = itertools.chain(["untraced"] + ["traced"] * TRACED_UNITS, itertools.cycle(["untraced", "traced"]))
    for done, kind in enumerate(order):
        if done > TRACED_UNITS and time.perf_counter() + max(untraced) > deadline:
            break
        tracer = tracer_mod.Tracer() if kind == "traced" else None
        result = run.attempt(f"{kind} unit", lambda: _unit(workloads, args, workdir, tracer))
        if result is None:
            break
        wall, shas = result
        if base_shas is None:
            base_shas = shas
        elif shas != base_shas:
            run.fail(f"a {kind} unit wrote other reports than the first untraced one")
        if tracer is None:
            untraced.append(wall)
            continue
        if not units:
            tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.tsv")
        units.append((wall, tracer.metrics()))
    if not units:
        return run, {}, {}

    first = units[0][1]
    for _, values in units[1:]:
        moved = sorted(k for k in values if k.endswith(".calls") and values[k] != first[k])
        if moved:
            run.fail(f"per-layer call counts differ between traced units: {moved}")
    for metric in EXPECT_CALLS[args.workload]:
        if first[f"{metric}.calls"] == 0:
            run.fail(f"{metric} saw no call on {args.workload}: a wrapper was not reached")
    for metric in EXPECT_NO_CALLS.get(args.workload, []):
        if first[f"{metric}.calls"] != 0:
            run.fail(f"{metric} was called on {args.workload}, which switches it off")

    metrics = {}
    for name, unit, _ in tracer_mod.per_layer_metric_specs():
        if name.startswith("trace."):
            continue
        if unit == "s":
            value = statistics.median(values[name] for _, values in units)
        else:
            value = first[name]
        metrics[name] = (value, unit)
    traced_s = statistics.median(wall for wall, _ in units)
    untraced_s = statistics.median(untraced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    details = {"untraced_unit_s": untraced, "traced_unit_s": [w for w, _ in units]}
    return run, metrics, details


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    _import_program()
    import tracer as tracer_mod
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.trace:
            run, metrics, details = trace(workloads, tracer_mod, args, workdir)
        else:
            run, metrics, details = measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.problems and run.failed == 0 and bool(metrics)
    details["problems"] = run.problems
    print(json.dumps({"workload": args.workload, "seed": args.seed, "details": details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": run.failed if run.attempted else 1,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
