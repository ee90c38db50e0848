"""Training losses with analytic gradients.

All losses return (value, gradient). The correlation loss is computed
within a mini-batch, so its value depends on batch composition; batches
whose predictions or targets have (near) zero variance cannot define a
correlation and raise DegenerateBatchError for the caller to handle.
"""

from __future__ import annotations

import numpy as np

VARIANCE_FLOOR = 1e-12
NORM_FLOOR = 1e-12


class DegenerateBatchError(ValueError):
    """Batch correlation is undefined (too few points or zero variance), or
    a stacked row's loss is not finite.

    row is the first undefined row of a stacked call: 0 for a single
    vector, for fewer than two samples or for a constant truth."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


def _check_lengths(pred: np.ndarray, truth: np.ndarray) -> None:
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(
            f"pred and truth must be 1-d vectors of equal length, got "
            f"{pred.shape} vs {truth.shape}"
        )


def correlation_loss(pred: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    """1 - PLCC(pred, truth), with gradient w.r.t. pred.

    Invariant under positive affine maps of pred; value in [0, 2].
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _check_lengths(pred, truth)
    n = pred.size
    if n < 2:
        raise DegenerateBatchError(f"correlation needs >= 2 samples, got {n}")
    a = pred - pred.mean()
    b = truth - truth.mean()
    ssq_a = float(a @ a)
    ssq_b = float(b @ b)
    if ssq_a / n < VARIANCE_FLOOR or ssq_b / n < VARIANCE_FLOOR:
        raise DegenerateBatchError(
            f"variance below {VARIANCE_FLOOR:g} (pred {ssq_a / n:.3e}, "
            f"truth {ssq_b / n:.3e})"
        )
    cross = float(a @ b)
    denom = np.sqrt(ssq_a * ssq_b)
    plcc = cross / denom
    grad = -(b - (cross / ssq_a) * a) / denom
    return 1.0 - plcc, grad


def mse_loss(pred: np.ndarray, truth: np.ndarray) -> tuple[float, np.ndarray]:
    """(1/2N) sum of squared residuals; gradient (pred - truth)/N."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _check_lengths(pred, truth)
    n = pred.size
    if n < 1:
        raise ValueError("mse needs at least one sample")
    residual = pred - truth
    value = float(residual @ residual) / (2.0 * n)
    return value, residual / n


def combined_loss(
    pred: np.ndarray, truth: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Correlation loss plus lam times the precision loss, with the bytes
    correlation_loss and mse_loss give, in one pass over the inputs. Each
    mean is np.add.reduce(x) / n, ndarray.mean's kernel without its Python
    wrapper."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    _check_lengths(pred, truth)
    n = pred.size
    if n < 2:
        raise DegenerateBatchError(f"correlation needs >= 2 samples, got {n}")
    a = pred - np.add.reduce(pred) / n
    b = truth - np.add.reduce(truth) / n
    ssq_a = float(a @ a)
    ssq_b = float(b @ b)
    if ssq_a / n < VARIANCE_FLOOR or ssq_b / n < VARIANCE_FLOOR:
        raise DegenerateBatchError(
            f"variance below {VARIANCE_FLOOR:g} (pred {ssq_a / n:.3e}, "
            f"truth {ssq_b / n:.3e})"
        )
    cross = float(a @ b)
    denom = np.sqrt(ssq_a * ssq_b)
    residual = pred - truth
    mse_value = float(residual @ residual) / (2.0 * n)
    cor_grad = -(b - (cross / ssq_a) * a) / denom
    return (1.0 - cross / denom) + lam * mse_value, cor_grad + lam * (residual / n)


def combined_loss_values(pred: np.ndarray, truth: np.ndarray, lam: float) -> np.ndarray:
    """combined_loss's value for every row of an (S, n) prediction stack
    against one truth vector, as an (S,) vector; no gradient.

    Each row's value has the bytes combined_loss gives for that row alone:
    the means are the same per-vector np.add.reduce, and every dot product
    is one (1, n) @ (n, 1) slice of np.matmul, which runs the same dot
    kernel as a 1-d @. Any undefined row, degenerate or with a non-finite
    value (as huge or non-finite predictions give), raises
    DegenerateBatchError, naming the first one and its own pred variance;
    no floating-point warning is emitted.
    """
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.ndim != 2 or truth.shape != pred.shape[1:]:
        raise ValueError(
            f"pred must be an (S, n) stack of rows as long as truth, got "
            f"{pred.shape} vs {truth.shape}"
        )
    n = truth.size
    if n < 2:
        raise DegenerateBatchError(f"correlation needs >= 2 samples, got {n}")
    with np.errstate(all="ignore"):
        a = pred - (np.add.reduce(pred, axis=1) / n)[:, None]
        b = truth - truth.mean()
        rows = a[:, None, :]
        ssq_a = (rows @ a[:, :, None])[:, 0, 0]
        ssq_b = float(b @ b)
        var_a = ssq_a / n
        cross = (rows @ b[:, None])[:, 0, 0]
        residual = pred - truth
        squares = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
        values = (1.0 - cross / np.sqrt(ssq_a * ssq_b)) + lam * (squares / (2.0 * n))
    flat_truth = ssq_b / n < VARIANCE_FLOOR
    flat = var_a < VARIANCE_FLOOR
    undefined = flat | ~np.isfinite(values)
    if flat_truth or undefined.any():
        row = 0 if flat_truth else int(undefined.argmax())
        what = f"variance below {VARIANCE_FLOOR:g}" if flat_truth or flat[row] else "non-finite loss"
        raise DegenerateBatchError(f"{what} (pred {var_a[row]:.3e}, truth {ssq_b / n:.3e})", row)
    return values


def reg_loss(
    original: np.ndarray, reconstructed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean norm of each sample's reconstruction error in a pair of
    (B, T, D) stacks, as a (B,) vector, with the gradient w.r.t. the
    reconstructions.

    Each sample's gradient is the unit direction (reconstructed -
    original)/norm, with a zero subgradient when the norm is (numerically)
    zero.
    """
    original = np.asarray(original, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if original.shape != reconstructed.shape or original.ndim != 3:
        raise ValueError(
            f"shape mismatch: original {original.shape} vs reconstructed "
            f"{reconstructed.shape}, need two (B, T, D) stacks"
        )
    diff = reconstructed - original
    squares = diff * diff
    # each sample's T*D squares are summed as one run, in the order np.sum
    # of one (T, D) array sums them
    norm = np.sqrt(np.add.reduce(squares.reshape(len(diff), -1), axis=1))
    small = norm < NORM_FLOOR
    if not small.any():
        return norm, diff / norm[:, None, None]
    norm[small] = 0.0
    grad = diff / np.where(small, 1.0, norm)[:, None, None]
    grad[small] = 0.0
    return norm, grad
