"""Probabilistic regression head.

Pools each frame-feature sequence of an (N, T, D) stack to one vector,
maps it through a small MLP to (mu, log_var), and produces either a
re-parameterized sample (training) or mu itself (evaluation).
Parameterizing the spread as log-variance keeps sigma positive without
clamping.
"""

from __future__ import annotations

import numpy as np

from .numkit import MlpParams, SeededRng, ShapeMismatchError, init_mlp, mlp_forward


def init_head(feat_dim: int, hidden_sizes: tuple[int, ...], rng: SeededRng) -> MlpParams:
    """Head network: feat_dim -> hidden layers -> (mu, log_var)."""
    return init_mlp([feat_dim, *hidden_sizes, 2], rng)


def pool(features: np.ndarray) -> np.ndarray:
    """Temporal mean over frames: an (N, T, D) stack to (N, D)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[1] < 1:
        raise ShapeMismatchError(
            f"features must be a nonempty (N, T, D) stack, got shape {features.shape}"
        )
    # ndarray.mean's kernel without its Python wrapper
    return np.add.reduce(features, axis=1) / features.shape[1]


def pool_backward(grad_pooled: np.ndarray, frames: int) -> np.ndarray:
    """Gradient of pool back to its input: an (N, D) pooled gradient
    spread evenly over the frames of an (N, frames, D) stack."""
    return np.repeat((grad_pooled / frames)[:, None, :], frames, axis=1)


def predict_eval(params: MlpParams, features: np.ndarray) -> np.ndarray:
    """Deterministic evaluation of an (N, T, D) stack: each sample's
    distribution mean (eps pinned to 0), as an (N,) vector.

    Each pooled sample is its own one-row slice of an (N, 1, D) stack, so
    its score is the one a forward pass of that sample alone gives.
    """
    out, _ = mlp_forward(params, pool(features)[:, None, :])
    return out[:, 0, 0]


def batch_sample(
    head_out: np.ndarray, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-parameterized scores for a batch of head outputs.

    head_out is the (n, 2) matrix of (mu, log_var) rows. Returns the score
    vector and the sigma vector (needed for the backward pass). Each score
    is mu + eps * sigma, differentiable in (mu, log_var) for fixed eps.
    """
    if head_out.ndim != 2 or head_out.shape[1] != 2:
        raise ShapeMismatchError(f"head output must be (n, 2), got {head_out.shape}")
    if eps.shape != (head_out.shape[0],):
        raise ShapeMismatchError(
            f"eps must have shape ({head_out.shape[0]},), got {eps.shape}"
        )
    sigma = np.exp(head_out[:, 1] / 2.0)
    return head_out[:, 0] + eps * sigma, sigma


def batch_sample_backward(
    grad_scores: np.ndarray, eps: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Gradient of the sampled scores back to the (mu, log_var) outputs.

    d s/d mu = 1 and d s/d log_var = eps * sigma / 2.
    """
    grad_out = np.empty((grad_scores.size, 2))
    grad_out[:, 0] = grad_scores
    grad_out[:, 1] = grad_scores * eps * sigma / 2.0
    return grad_out
