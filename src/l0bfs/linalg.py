"""Small dense linear-algebra helpers shared across the solver."""

import math

import numpy as np

__all__ = ["truncate_top", "l2_norm", "top_norm", "spectral_norm"]


def truncate_top(j, z):
    """Keep the j entries of z with largest magnitude, zero out the rest.

    Ties in magnitude are broken toward the smaller index so the result is
    deterministic.  j <= 0 gives the zero vector, j >= z.size a copy of z.
    """
    z = np.asarray(z, dtype=float)
    if j >= z.size:
        return z.copy()
    out = np.zeros_like(z)
    if j <= 0:
        return out
    # stable argsort on -|z|: equal magnitudes keep their original order
    keep = np.argsort(-np.abs(z), kind="stable")[:j]
    out[keep] = z[keep]
    return out


def l2_norm(x):
    """np.linalg.norm of a 1-D float array, by its own formula sqrt(x @ x)."""
    return math.sqrt(x @ x)


def top_norm(j, z):
    """Euclidean norm of the j largest-magnitude entries of z."""
    if j <= 0:
        return 0.0
    z = np.abs(np.asarray(z, dtype=float))
    if j < z.size:
        z.partition(z.size - j)
        z = z[z.size - j:]
    return l2_norm(z)


def spectral_norm(A):
    """Largest singular value of A.

    The square root of the top eigenvalue of the smaller Gram matrix
    (A^T A or A A^T), so the cost is that of a min(n, d)-sized eigvalsh.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return 0.0
    gram = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
