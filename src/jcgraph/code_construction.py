"""Minimal code dimension and the invariant-subspace decomposition.

The lower dressed branch S_k = E_{k,-} (with S_0 the ground energy) is
eventually strictly increasing.  M0 is the smallest index from which the
consecutive gaps stay positive, characterized by the strict inequality

    1 / (sqrt(delta^2 + kappa^2 (M0+1)) + sqrt(delta^2 + kappa^2 M0))
        < 2 omega_f / kappa^2,

equivalently, in terms of the rates gamma_f = kappa/omega_f and
gamma_s = kappa/omega_s,

    sqrt(d^2 + M0 + 1) + sqrt(d^2 + M0) > gamma_f / 2,   d = 1/gamma_f - 1/gamma_s.

A cut index k0 >= max(3, M0) splits the truncated space into the upper
branch H1, the increasing part of the lower branch H2 = span{|n,->, n >= k0},
and the protected remainder H3 = span{|0,g>, |1,->, ..., |k0-1,->}, which
hosts a code of dimension k0 - 1 (always at least 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import TruncationConfig, ValidationError
from .jc_spectrum import JCParams, dressed_frame, dressed_index, eigenenergy

_WALK_CAP = 64  # steps the closed-form start may move; rounding needs a few


class CutConstraintError(ValueError):
    """The requested cut index violates k0 >= max(3, M0) or the cutoff."""


def s_sequence(params: JCParams, k: int) -> float:
    """Lower-branch energy ladder: S_0 = E_{0,g}, S_k = E_{k,-} for k >= 1."""
    if k < 0:
        raise ValueError(f"sequence index must be >= 0, got {k}")
    if k == 0:
        return eigenenergy(params, 0, "ground")
    return eigenenergy(params, k, "minus")


def _gap_condition(params: JCParams, m: int) -> bool:
    # S_{m+1} - S_m > 0 written as the strict closed-form inequality.
    lhs = 1.0 / (math.sqrt(params.delta ** 2 + params.kappa ** 2 * (m + 1))
                 + math.sqrt(params.delta ** 2 + params.kappa ** 2 * m))
    return lhs < 2.0 * params.omega_f / params.kappa ** 2


def _first_gap_index(gamma_f: float, gamma_s: float, gap_holds) -> int:
    """Smallest m >= 1 with ``gap_holds(m)``, started from the closed form.

    The gap condition holds exactly for m > m* = ((u - 1/u)/2)^2 - d^2 with
    u = gamma_f/2, and for all m when u < 1.  The start floor(m*) + 1 moves
    only while the exact strict predicate says so, which keeps the resonant
    jump at gamma = 2(2 + sqrt 3) exact.  ValueError when M0 is not
    resolvable: past m* = 2^53 neighbouring m are not distinct doubles.
    """
    u = 0.5 * gamma_f
    if u < 1.0:
        return 1
    d = 1.0 / gamma_f - 1.0 / gamma_s
    half = 0.5 * (u - 1.0 / u)
    m_star = half * half - d * d
    if m_star <= 2.0 ** 53:  # also false for NaN
        m = 1 if m_star < 1.0 else math.floor(m_star) + 1
        try:
            for _ in range(_WALK_CAP):
                if m > 1 and gap_holds(m - 1):
                    m -= 1
                elif gap_holds(m):
                    return m
                else:
                    m += 1
        except OverflowError:  # the frequency form squares delta and kappa
            pass
    raise ValueError(f"M0 is not resolvable in double precision at gamma_f = "
                     f"{gamma_f}, gamma_s = {gamma_s} (m* = {m_star})")


def minimal_m0(params: JCParams) -> int:
    """Smallest M0 >= 1 from which the lower-branch gaps are all positive."""
    return _first_gap_index(params.gamma_f, params.gamma_s,
                            lambda m: _gap_condition(params, m))


def minimal_m0_from_rates(gamma_f: float, gamma_s: float) -> int:
    """Same threshold evaluated purely from the dimensionless rates."""
    if not (0 < gamma_f < math.inf and 0 < gamma_s < math.inf):
        raise ValueError("rates must be positive and finite")
    d = 1.0 / gamma_f - 1.0 / gamma_s
    return _first_gap_index(
        gamma_f, gamma_s,
        lambda m: math.sqrt(d * d + m + 1) + math.sqrt(d * d + m) > 0.5 * gamma_f)


def minimal_k0(m0: int) -> int:
    """Smallest admissible cut index K0* = max(3, M0)."""
    if m0 < 1:
        raise ValueError(f"M0 must be >= 1, got {m0}")
    return max(3, m0)


@dataclass(frozen=True)
class CodeSpec:
    """Cut data: the H3 basis and the code basis as columns.

    ``h3_basis`` W holds the k0 dressed vectors |0,g>, |1,->, ...,
    |k0-1,-> spanning H3; ``code_basis`` its first k0 - 1 columns, so
    callers prepare code states directly.  The dense projectors ``p3`` =
    W W+ and ``code_projector`` are built on demand for the dense oracles.
    H1 and H2 are the ladders of ``gk_states.jc_families``.
    """

    params: JCParams
    trunc: TruncationConfig
    m0: int
    k0: int
    h3_basis: np.ndarray
    code_basis: np.ndarray

    @property
    def p3(self) -> np.ndarray:
        return self.h3_basis @ self.h3_basis.conj().T

    @property
    def code_projector(self) -> np.ndarray:
        return self.code_basis @ self.code_basis.conj().T


def decompose(params: JCParams, k0: int, trunc: TruncationConfig) -> CodeSpec:
    """Split the truncated space along the cut k0 and build the code.

    Requires k0 >= max(3, M0) so that H2 carries a strictly increasing
    energy ladder, and k0 < N so the cut lies inside the truncation.  H3 is
    taken from the dressed frame by index, as ``jc_families`` takes H1 and
    H2; the code spans its first k0 - 1 (always >= 2) basis vectors.
    """
    m0 = minimal_m0(params)
    k_min = minimal_k0(m0)
    if k0 < k_min:
        raise CutConstraintError(
            f"k0 = {k0} below the admissible minimum max(3, M0) = {k_min} (M0 = {m0})")
    if k0 >= trunc.n_fock:
        raise CutConstraintError(
            f"k0 = {k0} must be smaller than the photon cutoff N = {trunc.n_fock}")

    idx = np.concatenate(([0], dressed_index("minus", np.arange(1, k0))))
    h3_basis = dressed_frame(params, trunc).columns(idx)
    dev = np.abs(h3_basis.conj().T @ h3_basis - np.eye(k0))
    if dev.max() > 1e-10:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(f"H3 basis vectors {i} and {j} are not orthonormal")
    return CodeSpec(params=params, trunc=trunc, m0=m0, k0=k0,
                    h3_basis=h3_basis, code_basis=h3_basis[:, :k0 - 1])


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the minimal-dimension sweep."""

    gamma_s: float
    gamma_f: float
    m0: int
    k0_star: int
    d_min: int


def _row(gamma_f: float, gamma_s: float) -> SweepRow:
    m0 = minimal_m0_from_rates(gamma_f, gamma_s)
    k0_star = minimal_k0(m0)
    return SweepRow(gamma_s=gamma_s, gamma_f=gamma_f, m0=m0,
                    k0_star=k0_star, d_min=k0_star - 1)


def _rate_axis(gamma_range: tuple, steps: int) -> np.ndarray:
    """``steps`` evenly spaced rates over a positive, finite, increasing range."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    lo, hi = gamma_range
    if not 0 < lo <= hi < math.inf:
        raise ValueError(f"rate range must be positive, finite and increasing, "
                         f"got {gamma_range}")
    return np.linspace(lo, hi, steps)


def dmin_sweep(gamma_f_range: tuple, gamma_s_range: tuple, steps) -> list:
    """Minimal code data over a rate grid, rows in row-major order.

    ``steps`` is the number of grid points per axis (a single int applies
    to both).  The outer loop runs over gamma_f, the inner over gamma_s.
    """
    try:
        steps_f, steps_s = steps
    except TypeError:
        steps_f = steps_s = steps
    gfs = _rate_axis(gamma_f_range, steps_f)
    gss = _rate_axis(gamma_s_range, steps_s)
    return [_row(float(gf), float(gs)) for gf in gfs for gs in gss]


def resonant_sweep(gamma_range: tuple, steps: int) -> list:
    """Sweep along the resonant line gamma_s = gamma_f."""
    if steps < 2:
        raise ValueError("a resonant sweep needs at least 2 points")
    return [_row(float(gf), float(gf)) for gf in _rate_axis(gamma_range, steps)]
