"""Small dense numerical kernel: MLPs with explicit backprop, Adam, seeded RNG.

Everything runs on float64 numpy arrays. Matrices are row-major with one
sample per row, and the MLP kernels take only stacks of them: a stack of B
such matrices is a (B, n, D) array, and the gradient of a stack is one
flat vector, summed over the stack. The MLP family is fixed:
fully-connected layers, rectifier on hidden layers, identity on the
output layer.
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


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine standard normals of pairs of U[0, 1) draws: u1
    gives the radius, mapped to (0, 1] so its log is finite, u2 the angle."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


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
        cos, sin = _box_muller(self._gen.random(pairs), self._gen.random(pairs))
        return np.concatenate([cos, sin])[:n]

    def normal_block(self, sizes: Sequence[int]) -> np.ndarray:
        """The draws of normal(n) for each n in sizes, called in turn,
        joined as one vector: the same bits, and the same stream state
        after, from one uniform block.

        normal(n) takes (n + 1) // 2 uniforms for the radii, then as many
        for the angles, and keeps the cosine half, then the sine half, up
        to n values; the block holds each call's two runs where its own
        draw would put them."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size and sizes.min() < 0:
            raise ValueError(f"draw counts must be >= 0, got {int(sizes.min())}")
        pairs = (sizes + 1) // 2
        u = self._gen.random(2 * int(pairs.sum()))
        radius = np.repeat(np.tile([True, False], pairs.size), np.repeat(pairs, 2))
        cos, sin = _box_muller(u[radius], u[~radius])
        z = np.empty_like(u)
        z[radius], z[~radius] = cos, sin
        # an odd n drops the last sine of its call
        return np.delete(z, np.cumsum(2 * pairs)[sizes % 2 == 1] - 1)

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
    flatten. Writing through a view writes the vector. An (S, n) array of
    flat rows gives (S, *shape) views, one per row."""
    spans = _spans(tuple(map(tuple, shapes)))
    total = spans[-1][1] if spans else 0
    if flat.ndim not in (1, 2) or flat.shape[-1] != total:
        raise ShapeMismatchError(
            f"layout holds {total} values, vector has shape {flat.shape}"
        )
    lead = flat.shape[:-1]
    return [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in spans]


@functools.lru_cache(maxsize=64)
def _mlp_layout(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
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


def mlp_size(sizes: Sequence[int]) -> int:
    """Parameter count of an MLP with these layer sizes."""
    return sum(math.prod(shape) for shape in _mlp_layout(tuple(sizes)))


def zeros_mlp(sizes: list[int]) -> MlpParams:
    return MlpParams(np.zeros(mlp_size(sizes)), sizes)


@dataclass
class MlpTape:
    """Activation cache from a forward pass, consumed by mlp_backward.
    Every array is a (B, n, width) stack."""

    x: np.ndarray
    pre: list[np.ndarray]
    post: list[np.ndarray]


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Forward pass over a (B, n, D) stack of row batches; rectifier on
    hidden layers only.

    Each layer is one np.matmul over the stack, which runs the same
    per-slice product as B separate (n, D) calls. Stacked params (S MLPs)
    score a (1, n, D) stack with every MLP, as an (S, n, out) stack whose
    slice s holds the bytes MLP s alone gives.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatchError(f"input must be a (B, n, D) stack, got shape {x.shape}")
    fan_in = params.weights[0].shape[-2]
    if x.shape[-1] != fan_in:
        raise ShapeMismatchError(
            f"input has {x.shape[-1]} columns but first layer expects {fan_in}"
        )
    tape, a = MlpTape(x, [], []), x
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        tape.pre.append(z)
        tape.post.append(a)
    return a, tape


def mlp_backward(
    params: MlpParams, tape: MlpTape, grad_out: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Backprop through a taped forward pass, on the stack's B * n rows
    as one matrix: `out`, one vector in the params' flat layout (a view
    works), gets the parameter gradient summed over the stack. Returns the
    (B, n, D) gradient with respect to the input.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if len(tape.pre) != params.n_layers:
        raise ShapeMismatchError(
            f"tape has {len(tape.pre)} layers but params have {params.n_layers}"
        )
    if grad_out.shape != tape.post[-1].shape:
        raise ShapeMismatchError(
            f"output grad shape {grad_out.shape} != forward output shape "
            f"{tape.post[-1].shape}"
        )
    if params.flat.ndim != 1 or out.shape != params.flat.shape:
        raise ShapeMismatchError(
            f"gradient buffer shape {out.shape} does not hold the {params.flat.shape} parameters"
        )
    views = unflatten(out, _mlp_layout(params.sizes))
    last = params.n_layers - 1
    g = grad_out.reshape(-1, grad_out.shape[-1])
    # np.add.reduce is np.sum's kernel without its Python wrapper
    for i in range(last, -1, -1):
        d_pre = g if i == last else g * (tape.pre[i].reshape(g.shape) > 0)
        a_prev = tape.x if i == 0 else tape.post[i - 1]
        np.matmul(a_prev.reshape(len(g), -1).T, d_pre, out=views[i])
        np.add.reduce(d_pre, axis=0, out=views[params.n_layers + i])
        g = d_pre @ params.weights[i].T
    return g.reshape(tape.x.shape)


# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments plus the two hyperparameters a run sets; one (m, v, t)
    triple per block."""

    lr: float
    weight_decay: float
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)


def adam_step(
    state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> None:
    """One Adam update, in place, over the blocks present in grads.

    Decoupled weight decay scales each block by (1 - lr*wd) before the
    Adam delta is applied. Every block is checked before any moves, so a
    refused step leaves params, moments and step counts as they were. The
    moments update in place and the delta is built in two work vectors,
    with the operands of the textbook formula in its order: m = b1*m +
    (1-b1)*g, v = b2*v + ((1-b2)*g)*g, then lr*m_hat / (sqrt(v_hat) + eps).
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient in block '{name}'")
        if name not in params:
            raise ShapeMismatchError(f"gradient for unknown parameter block '{name}'")
    for name, g in grads.items():
        p = params[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        m, v = state.m[name], state.v[name]
        step, denom = np.empty_like(p), np.empty_like(p)
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=step)
        step *= g
        v += step
        np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
        np.multiply(state.lr, step, out=step)
        step /= denom
        if state.weight_decay != 0.0:
            p *= 1.0 - state.lr * state.weight_decay
        p -= step
