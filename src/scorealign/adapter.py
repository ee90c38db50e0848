"""Feature adapter: expands K compressed frame features back to T frames.

Each output frame is a softmax-weighted convex combination of the K
compressed rows (a learned temporal mixing matrix), refined by a shared
per-frame residual MLP. Mixing logits start concentrated on the nearest
key slot under linear spacing, so a fresh adapter behaves like temporal
nearest-neighbor interpolation; the MLP output layer starts at zero, so
the refinement is initially the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numkit import (
    MlpParams,
    MlpTape,
    SeededRng,
    ShapeMismatchError,
    flatten,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .losses import reg_loss

# Logit scale used by interpolation init. Softmax rows stay concentrated
# but unsaturated, so the mixing remains trainable; a saturated one-hot
# init would zero the softmax jacobian and freeze the logits forever.
DEFAULT_SHARPNESS = 8.0


@dataclass(eq=False)
class AdapterParams:
    """The adapter's parameters as one flat float64 vector: the (T, K)
    mixing logits row-major, then the refiner MLP's flat layout.
    `mixing_logits` and `mlp` are views into it."""

    flat: np.ndarray
    t_frames: int
    k_frames: int
    mlp_sizes: tuple[int, ...]
    mixing_logits: np.ndarray = field(init=False, repr=False)  # rows softmax-normalized at use
    mlp: MlpParams = field(init=False, repr=False)  # shared per-frame refiner, D -> hidden -> D

    def __post_init__(self) -> None:
        n_logits = self.t_frames * self.k_frames
        self.mixing_logits = self.flat[:n_logits].reshape(self.t_frames, self.k_frames)
        self.mlp = MlpParams(self.flat[n_logits:], self.mlp_sizes)

    @classmethod
    def from_parts(cls, mixing_logits: np.ndarray, mlp: MlpParams) -> "AdapterParams":
        """Copy mixing logits and a refiner MLP into a new flat vector."""
        t_frames, k_frames = mixing_logits.shape
        return cls(flatten([mixing_logits, mlp.flat]), t_frames, k_frames, mlp.sizes)


def interpolation_logits(t_frames: int, k: int, sharpness: float = DEFAULT_SHARPNESS) -> np.ndarray:
    """Logits concentrating output frame t on its nearest key slot when key
    slots are spaced linearly over [0, T-1]."""
    if t_frames < 1 or k < 1:
        raise ValueError(f"need T >= 1 and K >= 1, got T={t_frames}, K={k}")
    if k == 1:
        slots = np.zeros(1)
    else:
        slots = np.arange(k) * (t_frames - 1) / (k - 1)
    distance = np.abs(np.arange(t_frames)[:, None] - slots[None, :])
    return -sharpness * distance


def init_adapter(
    t_frames: int,
    k: int,
    feat_dim: int,
    hidden: int,
    rng: SeededRng,
) -> AdapterParams:
    mlp = init_mlp([feat_dim, hidden, feat_dim], rng)
    # zero output layer: the residual refinement starts as the identity
    mlp.weights[-1][...] = 0.0
    return AdapterParams.from_parts(interpolation_logits(t_frames, k), mlp)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class AdapterTape:
    compressed: np.ndarray  # (B, K, D)
    mix: np.ndarray  # (T, K) softmax rows
    mlp_tape: MlpTape  # its input x is the (B, T, D) stack of convex combinations


def _check_compressed(params: AdapterParams, compressed: np.ndarray) -> np.ndarray:
    compressed = np.asarray(compressed, dtype=np.float64)
    feat_dim = params.mlp.weights[0].shape[0]
    if compressed.ndim != 3 or compressed.shape[1:] != (params.k_frames, feat_dim):
        raise ShapeMismatchError(
            f"compressed features must be a (B, {params.k_frames}, {feat_dim}) stack, "
            f"got {compressed.shape}"
        )
    return compressed


def reconstruct_with_tape(
    params: AdapterParams, compressed: np.ndarray
) -> tuple[np.ndarray, AdapterTape]:
    """(B, K, D) compressed stack -> (B, T, D) reconstructions, plus the
    tape adapter_backward needs. Every product is one np.matmul over the
    stack, which runs the same per-sample product as one call per sample."""
    compressed = _check_compressed(params, compressed)
    mix = _softmax_rows(params.mixing_logits)
    base = mix @ compressed
    refined, mlp_tape = mlp_forward(params.mlp, base)
    return base + refined, AdapterTape(compressed, mix, mlp_tape)


def adapter_backward(
    params: AdapterParams, tape: AdapterTape, grad_out: np.ndarray
) -> np.ndarray:
    """Backprop a (B, T, D) output gradient to the mixing logits and the
    MLP. Returns one gradient row per sample, a (B, n) array in the
    parameters' flat layout; the logit and MLP parts are written straight
    into their column slices."""
    if grad_out.shape != tape.mlp_tape.x.shape:
        raise ShapeMismatchError(
            f"output grad shape {grad_out.shape} != {tape.mlp_tape.x.shape}"
        )
    n_samples = grad_out.shape[0]
    n_logits = params.mixing_logits.size
    rows = np.empty((n_samples, params.flat.size))
    grad_into_mlp_input = mlp_backward(params.mlp, tape.mlp_tape, grad_out, rows[:, n_logits:])
    grad_base = grad_out + grad_into_mlp_input  # residual path + refiner path
    grad_mix = grad_base @ tape.compressed.transpose(0, 2, 1)  # (B, T, K)
    # softmax backward per row: s * (g - <g, s>)
    inner = np.add.reduce(grad_mix * tape.mix, axis=2, keepdims=True)
    grad_logits = rows[:, :n_logits].reshape(grad_mix.shape)
    np.multiply(tape.mix, grad_mix - inner, out=grad_logits)
    return rows


def reg_loss_and_grads(
    params: AdapterParams,
    features: np.ndarray,
    compressed: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Reconstruction penalty over a batch: sum of per-sample Euclidean
    reconstruction errors of each sample's (T, D) features in a (B, T, D)
    stack from its (K, D) key-frame rows in a (B, K, D) stack (the
    selection is a constant, no gradient through it).

    The value and the gradient are the per-sample terms summed into zero
    in sample order (np.sum may sum pairwise, in another order).
    """
    features = np.asarray(features, dtype=np.float64)
    if len(features) == 0:
        raise ValueError("regularization needs a nonempty batch")
    if len(compressed) != len(features):
        raise ValueError(
            f"{len(features)} samples but {len(compressed)} compressed sequences"
        )
    recon, tape = reconstruct_with_tape(params, compressed)
    values, grad_recon = reg_loss(features, recon)
    rows = adapter_backward(params, tape, grad_recon)
    total = 0.0
    for value in values.tolist():
        total += value
    grads = np.zeros_like(params.flat)
    for row in rows:
        grads += row
    return total, grads
