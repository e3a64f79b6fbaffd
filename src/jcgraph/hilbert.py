"""The truncated qubit-oscillator product space and its basic tools.

The product basis |n, s> (photon number n = 0..N, qubit level s in {g, e})
is flattened to index 2n + s with g = 0 and e = 1, so the truncated space
has dimension 2(N + 1).  States are complex vectors of that length and
operators are complex matrices; both are plain numpy arrays.

Besides the indexing helpers this module builds the Gaussian quadrature
rules for the radial integrals with numpy alone: Newton on the Legendre
recurrence, and the Laguerre Jacobi matrix's eigenvalues polished by one
Newton step, with weights kept as logs.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LEVEL_INDEX = {"g": 0, "e": 1}


class ValidationError(ValueError):
    """A state or operator failed a structural precondition."""


@dataclass(frozen=True)
class TruncationConfig:
    """Photon cutoff N."""

    n_fock: int

    def __post_init__(self) -> None:
        # an integral cutoff only: 20.0 would equal 20 yet break the index arrays
        object.__setattr__(self, "n_fock", operator.index(self.n_fock))
        if self.n_fock < 2:
            raise ValueError(f"n_fock must be >= 2, got {self.n_fock}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_fock + 1)


def basis_index(n: int, s: str) -> int:
    """Flattened index 2n + s of the product basis state |n, s>, s = 'g' or 'e'."""
    try:
        level = _LEVEL_INDEX[s]
    except (KeyError, TypeError):
        raise IndexError(f"unknown qubit level {s!r}; expected 'g' or 'e'") from None
    n = int(n)
    if n < 0:
        raise IndexError(f"photon number must be >= 0, got {n}")
    return 2 * n + level


def projector_onto(vectors: Sequence[np.ndarray], dim: int | None = None,
                   tol: float = 1e-10) -> np.ndarray:
    """Orthogonal projector onto the span of pairwise orthonormal vectors.

    The inputs are validated: every pair must be orthonormal within ``tol``
    (a failed pair is named in the error).  An empty list with an explicit
    ``dim`` yields the zero operator.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        if dim is None:
            raise ValueError("projector_onto needs dim when no vectors are given")
        return np.zeros((dim, dim), dtype=complex)
    d = vecs[0].shape[0]
    if dim is not None and dim != d:
        raise ValueError(f"vector length {d} does not match dim = {dim}")
    v_mat = np.column_stack(vecs)
    gram = v_mat.conj().T @ v_mat
    dev = np.abs(gram - np.eye(len(vecs)))
    if dev.max() > tol:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            f"vectors {i} and {j} are not orthonormal: <v{i}|v{j}> = {gram[i, j]:.3e}"
        )
    return v_mat @ v_mat.conj().T


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and log weights approximating int f(x) w(x) dx over the support.

    Weights are kept as logs: one below the smallest double (Laguerre,
    x > ~745) still counts against a large x^k.
    """

    nodes: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.shape != self.log_weights.shape:
            raise ValueError("nodes and log weights must be 1-d arrays of equal length")
        if self.nodes.size < 2:
            raise ValueError("a quadrature rule needs at least 2 nodes")

    @staticmethod
    def gauss_legendre(a: float, b: float, n: int) -> "QuadratureRule":
        """Gauss-Legendre rule on [a, b]; exact for polynomials of degree 2n - 1."""
        x, log_w = _legendre_rule(n)
        half = 0.5 * (b - a)
        return QuadratureRule(nodes=a + half * (x + 1.0),
                              log_weights=math.log(half) + log_w)

    @staticmethod
    def gauss_laguerre(n: int) -> "QuadratureRule":
        """Gauss-Laguerre rule: sum w_i f(x_i) ~ int_0^inf e^{-x} f(x) dx."""
        x, log_w = _laguerre_rule(n)
        return QuadratureRule(nodes=x, log_weights=log_w)


def _frozen(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _legendre_pair(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


@functools.lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes (increasing) and log weights on [-1, 1].

    Newton on the recurrence from Tricomi's guesses converges in two or
    three steps; O(n^2) work and no eigensolver.
    """
    if n < 2:
        raise ValueError("a quadrature rule needs at least 2 nodes")
    k = np.arange(n, 0, -1)
    x = ((1.0 - 1.0 / (8 * n ** 2) + 1.0 / (8 * n ** 3))
         * np.cos(np.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(20):
        p, q = _legendre_pair(n, x)
        dx = p * (1.0 - x) * (1.0 + x) / (n * (q - x * p))
        x = x - dx
        if np.abs(dx).max() <= 1e-15:
            break
    p, q = _legendre_pair(n, x)
    dp = n * (q - x * p) / ((1.0 - x) * (1.0 + x))
    return _frozen(x, math.log(2.0) - np.log((1.0 - x) * (1.0 + x) * dp ** 2))


def _laguerre_scaled(n: int, x: np.ndarray) -> tuple:
    """L_n(x) and D_n(x) = L_n(x) - L_{n-1}(x), as (l, d, log_scale).

    L_n = l e^{log_scale} and D_n = d e^{log_scale}.  The three-term
    recurrence runs in difference form, (k + 1) D_{k+1} = k D_k - x L_k,
    which keeps small x accurate; each step divides the pair by a power of
    two, exactly, so nothing overflows at large x.
    """
    p, d = 1.0 - x, -x
    exps = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, n):
        d = (k * d - x * p) / (k + 1)
        p = p + d
        _, e = np.frexp(np.maximum(np.abs(p), np.abs(d)))
        p, d, exps = np.ldexp(p, -e), np.ldexp(d, -e), exps + e
    return p, d, exps * math.log(2.0)


@functools.lru_cache(maxsize=8)
def _laguerre_rule(n: int) -> tuple:
    """Read-only Gauss-Laguerre nodes (increasing) and log weights.

    Nodes are the eigenvalues of the Jacobi matrix (diagonal 2k + 1,
    off-diagonal k), each polished by one Newton step on L_n, whose
    derivative is L_n' = n D_n / x.  The weights w ~ 1 / (L_{n-1} L_n')
    are normalized to sum 1 in log space and never exponentiated.
    """
    if n < 2:
        raise ValueError("a quadrature rule needs at least 2 nodes")
    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1)
    x = np.linalg.eigvalsh(jacobi)
    p, d, _ = _laguerre_scaled(n, x)
    x = x - x * p / (n * d)
    p, d, log_scale = _laguerre_scaled(n, x)
    log_w = -np.log(np.abs(p - d)) - np.log(np.abs(n * d / x)) - 2.0 * log_scale
    log_w -= log_w.max()
    log_w -= math.log(np.exp(log_w).sum())
    return _frozen(x, log_w)

