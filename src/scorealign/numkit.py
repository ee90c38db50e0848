"""Small dense numerical kernel: MLPs with explicit backprop, Adam, seeded RNG.

Everything runs on float64 numpy arrays. Matrices are row-major with one
sample per row; a stack of B such matrices is a (B, n, D) array, and
gradients of a stack are (B, n_params) arrays of flat rows. The MLP family
is fixed: fully-connected layers, rectifier on hidden layers, identity on
the output layer.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class ShapeMismatchError(ValueError):
    """Operand shapes do not chain."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient block contains NaN or infinity; the run must abort."""


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for an independent random stream.

    Keyed on (seed, label) so adding a new consumer never shifts the
    draws seen by existing ones.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class _NoSeed(ISeedSequence):
    """Zero seed words, for a generator whose state is replaced at once:
    it skips the hashing a seed sequence does."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


class SeededRng:
    """Deterministic random source backed by PCG64.

    Gaussian draws use Box-Muller over the raw uniform stream, so normal
    variates depend only on the seed and the call sequence, not on any
    library distribution code.
    """

    def __init__(self, seed: int | ISeedSequence):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    @classmethod
    def from_state(cls, state: dict) -> "SeededRng":
        """A stream at a state get_state returned, built without seeding.
        A malformed state raises numpy's TypeError or ValueError."""
        rng = cls(_NoSeed())
        rng.set_state(state)
        return rng

    def uniform(self, n: int) -> np.ndarray:
        """n draws from U[0, 1)."""
        return self._gen.random(n)

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal draws via Box-Muller."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        if n == 0:
            return np.zeros(0)
        pairs = (n + 1) // 2
        u1 = 1.0 - self._gen.random(pairs)  # (0, 1]: keeps log finite
        u2 = self._gen.random(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:n]

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def get_state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state


def flatten(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """One new float64 vector holding each array row-major, in order."""
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


@functools.lru_cache(maxsize=64)
def _spans(shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each array of a flat layout."""
    spans, pos = [], 0
    for shape in shapes:
        count = math.prod(shape)
        spans.append((pos, pos + count, shape))
        pos += count
    return tuple(spans)


def unflatten(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views into a flat vector, one per shape, in order: the inverse of
    flatten. Writing through a view writes the vector. A (B, n) array of
    flat rows gives (B, *shape) views, one row per stacked sample."""
    spans = _spans(tuple(map(tuple, shapes)))
    total = spans[-1][1] if spans else 0
    if flat.ndim not in (1, 2) or flat.shape[-1] != total:
        raise ShapeMismatchError(
            f"layout holds {total} values, vector has shape {flat.shape}"
        )
    lead = flat.shape[:-1]
    return [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in spans]


def _mlp_layout(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    pairs = tuple(zip(sizes[:-1], sizes[1:]))
    return pairs + tuple((fan_out,) for _, fan_out in pairs)


@dataclass(eq=False)
class MlpParams:
    """An MLP's parameters as one flat float64 vector: every layer's
    weights (fan_in, fan_out) row-major, then every layer's biases
    (fan_out,). `weights` and `biases` are views into it.

    A (S, n_params) array of flat rows is a stack of S MLPs: its weights
    are (S, fan_in, fan_out) views and its biases (S, 1, fan_out) views,
    shaped to broadcast over each MLP's own (n, fan_out) layer output."""

    flat: np.ndarray
    sizes: tuple[int, ...]
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sizes = tuple(self.sizes)
        views = unflatten(self.flat, _mlp_layout(self.sizes))
        self.weights, self.biases = views[: self.n_layers], views[self.n_layers :]
        if self.flat.ndim == 2:
            self.biases = [b[:, None, :] for b in self.biases]

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1


def init_mlp(sizes: list[int], rng: SeededRng) -> MlpParams:
    """Scaled-uniform (Glorot) weights, zero biases."""
    params = zeros_mlp(sizes)
    for w in params.weights:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = ((rng.uniform(w.size) * 2.0 - 1.0) * bound).reshape(w.shape)
    return params


def zeros_mlp(sizes: list[int]) -> MlpParams:
    count = sum(math.prod(shape) for shape in _mlp_layout(sizes))
    return MlpParams(np.zeros(count), sizes)


@dataclass
class MlpTape:
    """Activation cache from a forward pass, consumed by mlp_backward.
    Every array is a (B, n, width) stack."""

    x: np.ndarray
    pre: list[np.ndarray]
    post: list[np.ndarray]


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Forward pass over a (B, n, D) stack of row batches, or one (n, D)
    batch taken as a stack of one; rectifier on hidden layers only.

    Each layer is one np.matmul over the stack, which runs the same
    per-slice product as B separate (n, D) calls. Stacked params (S MLPs)
    score one (n, D) batch with every MLP, as an (S, n, out) stack whose
    slice s holds the bytes MLP s alone gives.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeMismatchError(f"input must be 2-d or 3-d, got shape {x.shape}")
    fan_in = params.weights[0].shape[-2]
    if x.shape[-1] != fan_in:
        raise ShapeMismatchError(
            f"input has {x.shape[-1]} columns but first layer expects {fan_in}"
        )
    single = x.ndim == 2 and params.flat.ndim == 1
    a = x[None] if x.ndim == 2 else x
    tape = MlpTape(a, [], [])
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        tape.pre.append(z)
        tape.post.append(a)
    return (a[0] if single else a), tape


def mlp_backward(
    params: MlpParams, tape: MlpTape, grad_out: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Backprop through a taped forward pass.

    A (B, n, width) grad_out writes one gradient row per stacked sample
    into `out`, a (B, n_params) array (a view works) in the params' flat
    layout; a 2-d grad_out is a stack of one and writes one (n_params,)
    vector. Returns the gradient with respect to the input.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if len(tape.pre) != params.n_layers:
        raise ShapeMismatchError(
            f"tape has {len(tape.pre)} layers but params have {params.n_layers}"
        )
    single = grad_out.ndim == 2
    g = grad_out[None] if single else grad_out
    if g.shape != tape.post[-1].shape:
        raise ShapeMismatchError(
            f"output grad shape {grad_out.shape} != forward output shape "
            f"{tape.post[-1].shape}"
        )
    rows = out[None] if single else out
    if rows.shape != g.shape[:1] + params.flat.shape:
        raise ShapeMismatchError(
            f"gradient buffer shape {out.shape} does not hold {g.shape[0]} "
            f"rows of {params.flat.size}"
        )
    views = unflatten(rows, _mlp_layout(params.sizes))
    last = params.n_layers - 1
    # np.add.reduce is np.sum's kernel without its Python wrapper
    for i in range(last, -1, -1):
        d_pre = g if i == last else g * (tape.pre[i] > 0)
        a_prev = tape.x if i == 0 else tape.post[i - 1]
        np.matmul(a_prev.transpose(0, 2, 1), d_pre, out=views[i])
        np.add.reduce(d_pre, axis=1, out=views[params.n_layers + i])
        g = d_pre @ params.weights[i].T
    return g[0] if single else g


@dataclass
class AdamState:
    """Adam moments plus hyperparameters; one (m, v, t) triple per block.
    `work` holds two scratch vectors per block, reused by every step."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)
    work: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)


def adam_step(
    state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> None:
    """One Adam update, in place, over the blocks present in grads.

    Decoupled weight decay scales each block by (1 - lr*wd) before the
    Adam delta is applied. Intermediates go to the block's scratch
    vectors, in the operation order of the textbook expressions
    m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t) and
    p -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in block '{name}'")
        if name not in params:
            raise ShapeMismatchError(f"gradient for unknown parameter block '{name}'")
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.t[name] = 0
        if name not in state.work:
            state.work[name] = np.empty((2, *p.shape))
        state.t[name] += 1
        t = state.t[name]
        m = state.m[name]
        v = state.v[name]
        step, denom = state.work[name]
        m *= state.beta1
        np.multiply(1.0 - state.beta1, g, out=step)
        m += step
        v *= state.beta2
        np.multiply(1.0 - state.beta2, g, out=step)
        step *= g
        v += step
        np.divide(v, 1.0 - state.beta2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, 1.0 - state.beta1**t, out=step)
        step *= state.lr
        step /= denom
        if state.weight_decay != 0.0:
            p *= 1.0 - state.lr * state.weight_decay
        p -= step
