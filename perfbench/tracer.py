"""Outside-in tracing of scorealign for the benchmark's per-layer metrics.

The tracer replaces each public function of every scorealign module with a
wrapper, at every module that binds it: `runner`, `adapter`, `memory` and
`cli` import with `from ... import ...`, so rebinding only the defining
module would miss their copies. One wrapper exists per (function, binding
module) pair, so the binding module names the call site: `mlp_forward`
called through `adapter` is the adapter's MLP, through `runner` or `head`
it is the score head's.

Each call records one span (name, parent span, start, end) in flat arrays;
nothing is written until the run ends. Self time of a span is its duration
minus the durations of its child spans, which are disjoint because the
program is single-threaded.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import inspect
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = (
    "numkit",
    "head",
    "losses",
    "metrics",
    "keyframe",
    "adapter",
    "memory",
    "runner",
    "data",
    "cli",
)

# Per-function metrics: (metric, layer.function, binding filter). The filter
# selects call sites by binding module: None takes every binding, "x" only
# calls made through module x, "!x" every binding except x.
FUNCTION_METRICS = (
    ("keyframe.select", "keyframe.select_key_frames", None),
    ("adapter.reg", "adapter.reg_loss_and_grads", None),
    ("adapter.reconstruct.replay", "adapter.reconstruct_with_tape", "!adapter"),
    ("adapter.reconstruct.reg", "adapter.reconstruct_with_tape", "adapter"),
    ("adapter.backward.replay", "adapter.adapter_backward", "!adapter"),
    ("adapter.backward.reg", "adapter.adapter_backward", "adapter"),
    ("numkit.adam", "numkit.adam_step", None),
    ("numkit.mlp_forward.head", "numkit.mlp_forward", "!adapter"),
    ("numkit.mlp_forward.adapter", "numkit.mlp_forward", "adapter"),
    ("numkit.mlp_backward.head", "numkit.mlp_backward", "!adapter"),
    ("numkit.mlp_backward.adapter", "numkit.mlp_backward", "adapter"),
    ("head.batch_sample", "head.batch_sample", None),
    ("head.batch_sample_backward", "head.batch_sample_backward", None),
    ("head.predict_eval", "head.predict_eval", None),
    ("losses.combined", "losses.combined_loss", None),
    ("losses.reg", "losses.reg_loss", None),
    ("metrics.metric_entry", "metrics.metric_entry", None),
    ("metrics.pooled_metrics", "metrics.pooled_metrics", None),
    ("memory.write_session", "memory.write_session", None),
    ("memory.replay_draw", "memory.sample_replay_batch", None),
    ("memory.save_bank", "memory.save_bank", None),
    ("memory.load_bank", "memory.load_bank", None),
    ("data.read_feature_file", "data.read_feature_file", None),
    ("data.resample_frames", "data.resample_frames", None),
    ("data.load_manifest", "data.load_manifest", None),
    ("data.write_feature_file", "data.write_feature_file", None),
    ("data.generate_synthetic", "data.generate_synthetic", None),
    ("data.emit_report", "data.emit_report", None),
    ("runner.train_continual", "runner.train_continual", None),
    ("runner.base_pretrain", "runner.base_pretrain", None),
    ("runner.model_param_dict", "runner.model_param_dict", None),
    ("runner.evaluate", "runner.evaluate", None),
    ("runner.flat_minima_probe", "runner.flat_minima_probe", None),
    ("runner.save_checkpoint", "runner.save_checkpoint", None),
    ("runner.load_checkpoint", "runner.load_checkpoint", None),
    ("cli.main", "cli.main", None),
)

# Counts and ratios measured where the work happens, by post-call hooks.
COUNT_METRICS = (
    ("keyframe.select.distinct_ratio", "ratio", "higher"),
    ("numkit.adam.blocks", "count", "lower"),
    ("losses.degenerate_ratio", "ratio", "lower"),
    ("memory.replay_useful_ratio", "ratio", "higher"),
    ("memory.bank_bytes", "bytes", "lower"),
    ("data.bytes_read", "bytes", "lower"),
    ("runner.checkpoint_bytes", "bytes", "lower"),
    ("cli.self_s_per_request", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    for metric, _, _ in FUNCTION_METRICS:
        specs.append((f"{metric}.calls", "count", "lower"))
        specs.append((f"{metric}.self_s", "s", "lower"))
    specs.extend(COUNT_METRICS)
    return specs


class RebindingError(RuntimeError):
    """A scorealign module still holds an unwrapped public function."""


def _scorealign_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "scorealign" or name.startswith("scorealign."))
    ]


def _public_functions(mod) -> dict[str, object]:
    out = {}
    for attr, value in vars(mod).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == mod.__name__:
            out[attr] = value
    return out


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder plus the wrappers it installs into scorealign."""

    def __init__(self) -> None:
        self.labels: list[str] = []  # name id -> "layer.function@binding"
        self._label_ids: dict[str, int] = {}
        self.name_ids = array.array("l")
        self.parents = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._select_inputs: set[bytes] = set()
        self._installed: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    @contextlib.contextmanager
    def span(self, label: str):
        """Root span for one benchmark operation, opened from the harness."""
        nid = self._label_id(label)
        sid = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, label: str, hook):
        nid = self._label_id(label)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- post-call hooks ------------------------------------------------

    def _on_select(self, args, kwargs, result) -> None:
        features = np.ascontiguousarray(_arg(args, kwargs, 0, "features"), dtype=np.float64)
        k = _arg(args, kwargs, 1, "k")
        weight = _arg(args, kwargs, 2, "diversity_weight")
        digest = hashlib.blake2b(features.tobytes(), digest_size=16)
        digest.update(repr((features.shape, k, weight)).encode())
        self._select_inputs.add(digest.digest())

    def _on_adam(self, args, kwargs, result) -> None:
        self.counts["adam_blocks"] += len(_arg(args, kwargs, 2, "grads"))

    def _on_replay_draw(self, args, kwargs, result) -> None:
        self.counts["replay_useful"] += len(result) >= 2

    def _on_save_bank(self, args, kwargs, result) -> None:
        self.counts["bank_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _on_read_feature(self, args, kwargs, result) -> None:
        self.counts["bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _on_save_checkpoint(self, args, kwargs, result) -> None:
        self.counts["checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _hooks(self) -> dict:
        return {
            "keyframe.select_key_frames": self._on_select,
            "numkit.adam_step": self._on_adam,
            "memory.sample_replay_batch": self._on_replay_draw,
            "memory.save_bank": self._on_save_bank,
            "data.read_feature_file": self._on_read_feature,
            "runner.save_checkpoint": self._on_save_checkpoint,
        }

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers at each binding.

        Raises RebindingError when a scorealign module would keep calling
        an unwrapped original, so a missed binding fails instead of
        reporting an idle layer.
        """
        import scorealign.cli  # noqa: F401  (loads every traced layer)

        originals: dict[int, str] = {}
        for layer in LAYERS:
            mod = sys.modules[f"scorealign.{layer}"]
            for attr, fn in _public_functions(mod).items():
                originals[id(fn)] = f"{layer}.{attr}"
        cli_main = sys.modules["scorealign.cli"].main
        originals[id(cli_main)] = "cli.main"

        hooks = self._hooks()
        for mod in _scorealign_modules():
            binding = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                key = originals.get(id(value))
                if key is None:
                    continue
                wrapper = self._wrap(value, f"{key}@{binding}", hooks.get(key))
                self._installed.append((mod, attr, value))
                setattr(mod, attr, wrapper)

        for mod in _scorealign_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    self.uninstall()
                    raise RebindingError(f"{mod.__name__}.{attr} was not wrapped")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # --- results ---------------------------------------------------------

    def per_label(self) -> dict[str, tuple[int, float]]:
        """{label: (calls, self seconds)} over every recorded span."""
        n = len(self.name_ids)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_ids, dtype=np.int64 if self.name_ids.itemsize == 8 else np.int32)
        parents = np.frombuffer(self.parents, dtype=names.dtype)
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.labels))
        self_sum = np.bincount(names, weights=self_time, minlength=len(self.labels))
        return {
            label: (int(calls[i]), float(self_sum[i])) for i, label in enumerate(self.labels)
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, except overhead."""
        table = self.per_label()
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = [v for k, v in table.items() if k.startswith(f"{layer}.")]
            out[f"{layer}.calls"] = sum(c for c, _ in rows)
            out[f"{layer}.self_s"] = sum(s for _, s in rows)
        for metric, key, where in FUNCTION_METRICS:
            calls, self_s = 0, 0.0
            for label, (c, s) in table.items():
                fn_key, _, binding = label.partition("@")
                if fn_key != key or not _site_matches(binding, where):
                    continue
                calls += c
                self_s += s
            out[f"{metric}.calls"] = calls
            out[f"{metric}.self_s"] = self_s

        select_calls = out["keyframe.select.calls"]
        out["keyframe.select.distinct_ratio"] = (
            len(self._select_inputs) / select_calls if select_calls else 0.0
        )
        adam_calls = out["numkit.adam.calls"]
        out["numkit.adam.blocks"] = self.counts["adam_blocks"] / adam_calls if adam_calls else 0.0
        combined_ids = [
            self._label_ids[label] for label in self.labels if label.startswith("losses.combined_loss@")
        ]
        degenerate = sum(self.errors[i] for i in combined_ids)
        combined_calls = out["losses.combined.calls"]
        out["losses.degenerate_ratio"] = degenerate / combined_calls if combined_calls else 0.0
        draws = out["memory.replay_draw.calls"]
        out["memory.replay_useful_ratio"] = self.counts["replay_useful"] / draws if draws else 0.0
        out["memory.bank_bytes"] = self.counts["bank_bytes"]
        out["data.bytes_read"] = self.counts["bytes_read"]
        out["runner.checkpoint_bytes"] = self.counts["checkpoint_bytes"]
        requests = out["cli.main.calls"]
        out["cli.self_s_per_request"] = out["cli.main.self_s"] / requests if requests else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, label, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\tlabel\tstart_s\tend_s\n")
            for i in range(len(self.name_ids)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.labels[self.name_ids[i]]}\t"
                    f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )


def _site_matches(binding: str, where: str | None) -> bool:
    if where is None:
        return True
    if where.startswith("!"):
        return binding != where[1:]
    return binding == where
