"""Minimal code dimension and the invariant-subspace decomposition.

The lower dressed branch S_k = E_{k,-} (with S_0 the ground energy) is
eventually strictly increasing.  M0 is the smallest index from which the
consecutive gaps stay positive, characterized by the strict inequality

    1 / (sqrt(delta^2 + kappa^2 (M0+1)) + sqrt(delta^2 + kappa^2 M0))
        < 2 omega_f / kappa^2.

Scaled by kappa it reads in the rates gamma_f = kappa/omega_f and
gamma_s = kappa/omega_s alone,

    sqrt(d^2 + M0 + 1) + sqrt(d^2 + M0) > gamma_f / 2,   d = 1/gamma_f - 1/gamma_s,

and this is the form evaluated, so M0 does not depend on the frequency unit.

A cut index k0 >= max(3, M0) splits the truncated space into the upper
branch H1, the increasing part of the lower branch H2 = span{|n,->, n >= k0},
and the protected remainder H3 = span{|0,g>, |1,->, ..., |k0-1,->}, which
hosts a code of dimension k0 - 1 (always at least 2).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import TruncationConfig
from .jc_spectrum import DressedFrame, JCParams, dressed_frame

_WALK_CAP = 64  # steps the closed-form start may move; rounding needs a few
_MAX_SWEEP_ROWS = 10 ** 6  # a larger sweep is refused before it is allocated
_GAP_BLOCK = 1 << 16  # rows per vector pass of _gap_indices: bounds its temporaries


class CutConstraintError(ValueError):
    """The requested cut index violates k0 >= max(3, M0) or the cutoff."""


class EnergyOrderError(CutConstraintError):
    """A dressed ladder failed to increase strictly: the cut lies below M0."""

    def __init__(self, message: str, index: int, gap: float = 0.0):
        super().__init__(message)
        self.index = index
        self.gap = gap


def _first_gap_index(gamma_f: float, gamma_s: float) -> int:
    """Smallest m >= 1 with sqrt(d^2 + m + 1) + sqrt(d^2 + m) > gamma_f / 2.

    The gap condition holds exactly for m > m* = ((u - 1/u)/2)^2 - d^2 with
    u = gamma_f/2, and for all m when u < 1.  The start floor(m*) + 1 moves
    only while the strict inequality, evaluated in floating point, says so.
    That can be off by one where m* lies within an ulp of an integer: at
    the double nearest the jump 2(2 + sqrt 3) it returns 4, where exact
    arithmetic on that double gives m* = 3 - eps and M0 = 3.  ValueError
    when M0 is not resolvable: past m* = 2^53 neighbouring m are not
    distinct doubles.
    """
    u = 0.5 * gamma_f
    if u < 1.0:
        return 1
    d = 1.0 / gamma_f - 1.0 / gamma_s
    d2 = d * d
    half = 0.5 * (u - 1.0 / u)
    m_star = half * half - d2

    def gap_holds(k):
        return math.sqrt(d2 + k + 1) + math.sqrt(d2 + k) > u

    if m_star <= 2.0 ** 53:  # also false for NaN
        m = 1 if m_star < 1.0 else math.floor(m_star) + 1
        for _ in range(_WALK_CAP):
            if m > 1 and gap_holds(m - 1):
                m -= 1
            elif gap_holds(m):
                return m
            else:
                m += 1
    raise ValueError(f"M0 is not resolvable in double precision at gamma_f = "
                     f"{gamma_f}, gamma_s = {gamma_s} (m* = {m_star})")


def minimal_m0(params: JCParams) -> int:
    """Smallest M0 >= 1 from which the lower-branch gaps are all positive.

    Only the rates kappa/omega are read, at any scale; kappa = 0 gives 1.
    """
    return _first_gap_index(params.gamma_f, params.gamma_s)


def minimal_m0_from_rates(gamma_f: float, gamma_s: float) -> int:
    """Same threshold from the dimensionless rates, which must be positive."""
    if not (0 < gamma_f < math.inf and 0 < gamma_s < math.inf):
        raise ValueError("rates must be positive and finite")
    return _first_gap_index(gamma_f, gamma_s)


def minimal_k0(m0: int) -> int:
    """Smallest admissible cut index K0* = max(3, M0)."""
    if m0 < 1:
        raise ValueError(f"M0 must be >= 1, got {m0}")
    return max(3, m0)


@dataclass(frozen=True)
class CodeSpec:
    """The cut: the run's dressed frame, its index partition and the code.

    The dressed indices 0..2N+1 of ``frame`` split into four sets: H3 =
    ``h3_indices`` = {0, 2, ..., 2k0 - 2} (|0,g>, |1,->, ..., |k0-1,->), the
    upper ladder J = ``j_indices`` = {1, 3, ..., 2N - 1} (|n,+>), the lower
    ladder S = ``s_indices`` = {2k0, 2k0 + 2, ..., 2N} (|n,->, n >= k0) and the
    decoupled |N, e> at ``decoupled_index`` = 2N + 1.  The ladders of
    ``gk_states.jc_families`` and H3 are views of this partition, and the
    code is spanned by the first k0 - 1 H3 vectors: a code state with
    amplitudes a holds them at ``h3_indices[:-1]`` in dressed coordinates, so
    the code's dimension is ``h3_indices.size - 1`` (k0 - 1).  No basis is
    stored; ``p3`` (onto H3) and ``code_projector`` are dense reference forms.
    """

    trunc: TruncationConfig
    m0: int
    k0: int
    frame: DressedFrame
    h3_indices: np.ndarray
    j_indices: np.ndarray
    s_indices: np.ndarray

    @property
    def decoupled_index(self) -> int:
        return 2 * self.trunc.n_fock + 1

    @property
    def p3(self) -> np.ndarray:
        w = self.frame.embed(self.h3_indices, np.eye(self.h3_indices.size))
        return w @ w.conj().T

    @property
    def code_projector(self) -> np.ndarray:
        w = self.frame.embed(self.h3_indices[:-1], np.eye(self.h3_indices.size - 1))
        return w @ w.conj().T


@functools.lru_cache(maxsize=8, typed=True)
def decompose(params: JCParams, k0: int, trunc: TruncationConfig,
              m0: int | None = None) -> CodeSpec:
    """Build the run's dressed frame and split its indices along the cut k0.

    Requires 1 <= k0 < N so the cut lies inside the truncation, both
    ladders strictly increasing (``EnergyOrderError`` names the first
    offending step) and k0 >= max(3, M0), checked in that order.  The code
    spans the first k0 - 1 (always >= 2) H3 vectors.  ``m0`` is
    ``minimal_m0(params)``, computed here unless the caller passes it.

    The last 8 cuts are kept per process, so repeated calls at one
    operating point share one ``CodeSpec``; its arrays are read-only.
    Errors are not kept: an inadmissible cut raises on every call.
    The cache is typed, so k0 = 3.0 does not share the entry of k0 = 3.
    """
    n = trunc.n_fock
    if not 1 <= k0 < n:
        raise CutConstraintError(
            f"k0 = {k0} must lie in 1..N-1 for the photon cutoff N = {n}")
    frame = dressed_frame(params, trunc)
    j_indices = np.arange(1, 2 * n, 2)  # |n,+> for n = 1..N
    s_indices = np.arange(2 * k0, 2 * n + 1, 2)  # |n,-> for n = k0..N
    for label, idx in (("J", j_indices), ("S", s_indices)):
        gaps = np.diff(frame.energies[idx])
        if gaps.size and gaps.min() <= 0:
            i = int(np.argmax(gaps <= 0))
            raise EnergyOrderError(
                f"{label} ladder not strictly increasing: h[{i + 1}] - h[{i}] = "
                f"{gaps[i]:.3e} (cut k0 = {k0} below the monotonicity threshold?)",
                index=i, gap=float(gaps[i]))
    if m0 is None:
        m0 = minimal_m0(params)
    k_min = minimal_k0(m0)
    if k0 < k_min:
        raise CutConstraintError(
            f"k0 = {k0} below the admissible minimum max(3, M0) = {k_min} (M0 = {m0})")

    h3_indices = np.arange(0, 2 * k0, 2)  # |0,g> and |n,-> for n = 1..k0-1
    for a in (frame.cos, frame.sin, frame.energies, h3_indices, j_indices, s_indices):
        a.flags.writeable = False
    return CodeSpec(trunc=trunc, m0=m0, k0=k0, frame=frame, h3_indices=h3_indices,
                    j_indices=j_indices, s_indices=s_indices)


def _gap_indices(gamma_f: np.ndarray, gamma_s: np.ndarray) -> np.ndarray:
    """``_first_gap_index`` over equal-length rate arrays, ``_GAP_BLOCK`` rows a pass.

    The closed-form start m is certified where the scalar walk would return
    it at its first step: u < 1 (M0 = 1), or m* <= 2^53 with the gap failing
    at m - 1 (or m = 1) and holding at m.  The operations and their order
    are the scalar ones, and numpy rounds them alike, so a certified entry
    is the scalar result.  The scalar walk settles every other point, in
    order, block after block, so the first unresolvable one raises its
    ValueError.
    """
    m = np.empty(gamma_f.size, dtype=np.int64)
    for start in range(0, gamma_f.size, _GAP_BLOCK):
        block = slice(start, start + _GAP_BLOCK)
        m[block] = _gap_block(gamma_f[block], gamma_s[block])
    return m


def _gap_block(gamma_f: np.ndarray, gamma_s: np.ndarray) -> np.ndarray:
    """One vector pass of ``_gap_indices``."""
    u = 0.5 * gamma_f
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = 1.0 / gamma_f - 1.0 / gamma_s
        d2 = d * d
        half = 0.5 * (u - 1.0 / u)
        m_star = half * half - d2
        weak = u < 1.0
        walkable = ~weak & (m_star <= 2.0 ** 53)  # also false for NaN
        start = np.where(walkable & (m_star >= 1.0), m_star, 0.0)
        m = np.floor(start).astype(np.int64) + 1

        def gap_holds(k):
            return np.sqrt(d2 + k + 1) + np.sqrt(d2 + k) > u

        ok = weak | (walkable & ((m == 1) | ~gap_holds(m - 1)) & gap_holds(m))
    for i in np.flatnonzero(~ok):
        m[i] = _first_gap_index(float(gamma_f[i]), float(gamma_s[i]))
    return m


def sweep_columns(gamma_f: np.ndarray, gamma_s: np.ndarray) -> tuple:
    """The sweep's columns m0, k0_star and d_min, as arrays.

    One entry per rate pair, in the arrays' order.
    """
    m0 = _gap_indices(gamma_f, gamma_s)
    k0_star = np.maximum(3, m0)
    return m0, k0_star, k0_star - 1


def _check_rows(*steps: int) -> None:
    """Refuse a sweep before allocating it: >= 1 point per axis, <= the row cap."""
    if min(steps) < 1:
        raise ValueError("steps must be >= 1")
    rows = math.prod(steps)
    if rows > _MAX_SWEEP_ROWS:
        raise ValueError(f"a sweep of {rows} rows exceeds the cap of "
                         f"{_MAX_SWEEP_ROWS} rows")


def _rate_axis(gamma_range: tuple, steps: int) -> np.ndarray:
    """``steps`` evenly spaced rates over a positive, finite, increasing range."""
    lo, hi = gamma_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"rate range must be positive, finite and increasing, "
                         f"got {gamma_range}")
    return np.linspace(lo, hi, steps)


def grid_rates(gamma_f_range: tuple, gamma_s_range: tuple, steps: tuple) -> tuple:
    """The rate pairs (gamma_f, gamma_s) of a grid sweep, two arrays in row-major order.

    ``steps`` is (steps_f, steps_s), the number of grid points per axis.  The
    outer loop runs over gamma_f, the inner over gamma_s.
    """
    steps_f, steps_s = steps
    _check_rows(steps_f, steps_s)
    gfs = _rate_axis(gamma_f_range, steps_f)
    gss = _rate_axis(gamma_s_range, steps_s)
    return np.repeat(gfs, steps_s), np.tile(gss, steps_f)


def resonant_rates(gamma_range: tuple, steps: int) -> tuple:
    """The rate pairs (gamma, gamma) of a sweep along the resonant line, two arrays."""
    if steps < 2:
        raise ValueError("a resonant sweep needs at least 2 points")
    _check_rows(steps)
    gammas = _rate_axis(gamma_range, steps)
    return gammas, gammas
