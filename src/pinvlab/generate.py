"""Seeded random matrix models used by the experiment harness and tests.

Complex Ginibre entries are the base model; prescribed-rank matrices are
products of Haar-ish isometries (QRs of Ginibre draws) with a diagonal,
positive matrices conjugations of positive diagonals, and sequence
families rank-preserving or rank-jumping perturbation schedules.  The
rank-preserving ones multiply by factors G = I + g near the identity,
with g a Ginibre draw scaled to Frobenius norm ``scale``: that bounds
||G - I|| by ``scale`` in the operator norm and every Schatten-p norm
with p >= 2, and takes no factorization.  The only factorizations here
are those QRs and the SVD a rank jump reads its directions from.  All
generators take an explicit ``numpy.random.Generator`` so every
experiment is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .matcore import svd


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(rng, m: int, n: int) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def unitary(rng, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR factorization of a Ginibre sample."""
    q, r = np.linalg.qr(ginibre(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _check_rank(m: int, n: int, r) -> None:
    """PreconditionError, before any draw, unless r is a non-bool int in 0..min(m, n)."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 0 <= r <= min(m, n):
        raise PreconditionError(f"rank {r!r} infeasible for shape {(m, n)}")


def fixed_rank(rng, m: int, n: int, r: int) -> np.ndarray:
    """Random m x n matrix of exact rank r with singular values in [0.5, 2]."""
    _check_rank(m, n, r)
    if r == 0:
        return np.zeros((m, n), dtype=complex)
    u = unitary(rng, m)[:, :r]
    v = unitary(rng, n)[:, :r]
    s = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
    return (u * s) @ v.conj().T


def hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = ginibre(rng, n, n)
    return scale * 0.5 * (g + g.conj().T)


def psd_fixed_rank(rng, n: int, r: int, ev_range=(0.5, 2.0)) -> np.ndarray:
    """Hermitian PSD matrix of exact rank r."""
    _check_rank(n, n, r)
    if r == 0:
        return np.zeros((n, n), dtype=complex)
    q = unitary(rng, n)[:, :r]
    ev = rng.uniform(*ev_range, size=r)
    return (q * ev) @ q.conj().T


def positive_definite(rng, n: int, ev_range=(0.5, 2.0)) -> np.ndarray:
    return psd_fixed_rank(rng, n, n, ev_range)


def near_identity(rng, n: int, scale: float = 0.05) -> np.ndarray:
    """G = I + g with ||G - I||_F = scale, for a Ginibre draw g.

    The Frobenius norm takes no factorization, and it bounds the operator
    norm: ||G - I|| <= scale, so G is invertible for scale < 1 and lies
    within ``scale`` of I in the operator norm and the Hilbert-Schmidt
    ideal alike.
    """
    g = ginibre(rng, n, n)
    g *= scale / max(np.linalg.norm(g), np.finfo(float).tiny)
    return np.eye(n, dtype=complex) + g


def rank_preserving_perturbation(rng, b, scale: float) -> np.ndarray:
    """(I + X) B (I + Y) with ||X||_F = ||Y||_F = scale: same rank for scale < 1.

    X and Y are the ``near_identity`` draws, so ||X||, ||Y|| <= scale and
    ||(I + X) B (I + Y) - B|| <= scale (2 + scale) ||B||.
    """
    m, n = b.shape
    return near_identity(rng, m, scale) @ b @ near_identity(rng, n, scale)


def rank_jump_perturbation(b, eps: float) -> np.ndarray:
    """B plus eps times a partial isometry from N(B) into R(B)^perp.

    B is a matrix or its SVD.  Raises PreconditionError when B has
    neither nullspace nor corange to spare.
    """
    res = svd(b)
    r = res.rank
    if r >= min(res.matrix.shape):
        raise PreconditionError("no room to increase the rank of B")
    left = res.U[:, r]
    right = res.Vt[r, :].conj()
    return res.matrix + eps * np.outer(left, right.conj())


def in_stratum_family(rng, b, length: int) -> list:
    """B_n -> B in the zero stratum of B, B_n at Frobenius scale 0.2 * 2^-n."""
    return [rank_preserving_perturbation(rng, b, 0.2 * 0.5**k)
            for k in range(length)]


def jump_family(b, length: int) -> list:
    """B_n -> B in a lower stratum, B_n at distance 0.2 * 2^-n from B; B is a
    matrix or its SVD, which is taken once for every term."""
    res = svd(b)
    return [rank_jump_perturbation(res, 0.2 * 0.5**k)
            for k in range(length)]


def tangent_pair(rng, m: int, n: int):
    """Ginibre directions (X, Y) generating the tangent vector X B - B Y at any B."""
    return ginibre(rng, m, m), ginibre(rng, n, n)


def partial_isometry(rng, m: int, n: int, r: int) -> np.ndarray:
    _check_rank(m, n, r)
    if r == 0:
        return np.zeros((m, n), dtype=complex)
    return unitary(rng, m)[:, :r] @ unitary(rng, n)[:, :r].conj().T
