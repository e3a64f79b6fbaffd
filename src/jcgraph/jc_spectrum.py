"""Closed-form spectrum of the Jaynes-Cummings Hamiltonian.

H = omega_f a+a- + (omega_s/2) sigma_z + (kappa/2)(sigma- a+ + sigma+ a-)

with sigma_z |e> = +|e>, sigma_z |g> = -|g> and detuning
delta = omega_f - omega_s.  Apart from the uncoupled ground state |0, g>
(energy -omega_s/2) the Hamiltonian is block diagonal over the pairs
{|n-1, e>, |n, g>}, n >= 1, with eigenvalues

    E_{n,+-} = omega_f (n - 1/2) +- (1/2) sqrt(delta^2 + kappa^2 n).

Convention used here: the mixing angle is theta_n = atan2(kappa sqrt(n),
delta) in (0, pi) for kappa > 0, and the dressed eigenvectors are

    |n, +> = sin(theta_n/2) |n-1, e> + cos(theta_n/2) |n, g>
    |n, -> = cos(theta_n/2) |n-1, e> - sin(theta_n/2) |n, g>

so the + branch always carries the larger eigenvalue, for either sign of
the detuning.  (With this detuning convention the larger eigenvalue moves
to the qubit-excited component only for delta < 0; writing the + vector
with the cosine on |n-1, e> would describe the opposite sign convention.)
On the truncated space the lone state |N, e> decouples and is kept as an
exact eigenvector with its diagonal energy omega_f N + omega_s / 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import TruncationConfig, basis_index

_BRANCH_ALIASES = {"plus": "plus", "+": "plus", "minus": "minus", "-": "minus",
                   "ground": "ground", "g": "ground"}


class DegenerateLevelError(ValueError):
    """Mixing angle requested for an exactly degenerate uncoupled level."""


def _branch(name) -> str:
    try:
        return _BRANCH_ALIASES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown branch {name!r}; expected 'plus', 'minus' or 'ground'") from None


@dataclass(frozen=True)
class JCParams:
    """Field frequency, qubit frequency and coupling strength (angular units)."""

    omega_f: float
    omega_s: float
    kappa: float

    def __post_init__(self) -> None:
        if self.omega_f <= 0 or self.omega_s <= 0:
            raise ValueError("omega_f and omega_s must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not all(map(math.isfinite, (self.omega_f, self.omega_s, self.kappa,
                                       self.gamma_f, self.gamma_s))):
            raise ValueError("frequencies and the rates kappa/omega must be finite")

    @property
    def delta(self) -> float:
        return self.omega_f - self.omega_s

    @property
    def gamma_f(self) -> float:
        return self.kappa / self.omega_f

    @property
    def gamma_s(self) -> float:
        return self.kappa / self.omega_s

    @classmethod
    def from_rates(cls, gamma_f: float, gamma_s: float,
                   omega_f: float = 1.0) -> "JCParams":
        """Build parameters from the dimensionless rates kappa/omega_f,s."""
        if not (0 < gamma_f < math.inf and 0 < gamma_s < math.inf):
            raise ValueError("rates must be positive and finite")
        kappa = gamma_f * omega_f
        return cls(omega_f=omega_f, omega_s=kappa / gamma_s, kappa=kappa)


def mixing_angle(params: JCParams, n: int) -> float:
    """theta_n = atan2(kappa sqrt(n), delta), continuous through delta = 0.

    Lies in (0, pi) whenever kappa > 0 and equals pi/2 on resonance.  For
    kappa = 0 the angle degenerates to 0 or pi depending on the sign of
    the detuning; with delta = 0 as well the doublet is exactly degenerate
    and no angle exists.
    """
    if n < 1:
        raise ValueError(f"mixing angle needs n >= 1, got {n}")
    if params.kappa == 0.0 and params.delta == 0.0:
        raise DegenerateLevelError(
            f"level n = {n} is exactly degenerate (kappa = 0, delta = 0)")
    return math.atan2(params.kappa * math.sqrt(n), params.delta)


def eigenenergy(params: JCParams, n: int, branch) -> float:
    """Closed-form eigenvalue for |n, +->, or the |0, g> ground energy."""
    b = _branch(branch)
    if b == "ground":
        if n != 0:
            raise ValueError("the ground branch has n = 0")
        return -0.5 * params.omega_s
    if n < 1:
        raise ValueError(f"branch {b!r} needs n >= 1, got {n}")
    rabi = math.sqrt(params.delta ** 2 + params.kappa ** 2 * n)
    sign = 1.0 if b == "plus" else -1.0
    return params.omega_f * (n - 0.5) + 0.5 * sign * rabi


def dressed_vector(params: JCParams, n: int, branch,
                   trunc: TruncationConfig) -> np.ndarray:
    """Dressed eigenvector of the truncated Hamiltonian as a dense vector."""
    b = _branch(branch)
    v = np.zeros(trunc.dim, dtype=complex)
    if b == "ground":
        if n != 0:
            raise ValueError("the ground branch has n = 0")
        v[basis_index(0, "g", trunc)] = 1.0
        return v
    if not 1 <= n <= trunc.n_fock:
        raise ValueError(
            f"dressed level n = {n} outside the truncated range 1..{trunc.n_fock}")
    half = 0.5 * mixing_angle(params, n)
    ce, cg = math.sin(half), math.cos(half)
    if b == "minus":
        ce, cg = cg, -ce
    v[basis_index(n - 1, "e", trunc)] = ce
    v[basis_index(n, "g", trunc)] = cg
    return v


def hamiltonian_matrix(params: JCParams, trunc: TruncationConfig) -> np.ndarray:
    """Dense truncated Hamiltonian in the flattened product basis."""
    dim = trunc.dim
    h = np.zeros((dim, dim), dtype=complex)
    for n in range(trunc.n_fock + 1):
        h[basis_index(n, "g"), basis_index(n, "g")] = params.omega_f * n - 0.5 * params.omega_s
        h[basis_index(n, "e"), basis_index(n, "e")] = params.omega_f * n + 0.5 * params.omega_s
    for n in range(1, trunc.n_fock + 1):
        g = 0.5 * params.kappa * math.sqrt(n)
        h[basis_index(n - 1, "e"), basis_index(n, "g")] = g
        h[basis_index(n, "g"), basis_index(n - 1, "e")] = g
    return h


@dataclass(frozen=True)
class DressedBasis:
    """Full eigenbasis of the truncated Hamiltonian.

    ``vectors`` holds the eigenvectors as columns, ordered ground,
    (1,+), (1,-), ..., (N,+), (N,-), and finally the decoupled |N, e>.
    ``levels`` carries matching (branch, n) labels, the last one ("top", N).
    """

    vectors: np.ndarray
    energies: np.ndarray
    levels: tuple

    def index_of(self, branch: str, n: int) -> int:
        return self.levels.index((branch, n))


def dressed_basis(params: JCParams, trunc: TruncationConfig) -> DressedBasis:
    """Assemble all dressed vectors and energies, plus the |N, e> leftover."""
    n_max = trunc.n_fock
    cols = [dressed_vector(params, 0, "ground", trunc)]
    energies = [eigenenergy(params, 0, "ground")]
    levels = [("ground", 0)]
    for n in range(1, n_max + 1):
        for b in ("plus", "minus"):
            cols.append(dressed_vector(params, n, b, trunc))
            energies.append(eigenenergy(params, n, b))
            levels.append((b, n))
    top = np.zeros(trunc.dim, dtype=complex)
    top[basis_index(n_max, "e", trunc)] = 1.0
    cols.append(top)
    energies.append(params.omega_f * n_max + 0.5 * params.omega_s)
    levels.append(("top", n_max))
    return DressedBasis(vectors=np.column_stack(cols),
                        energies=np.array(energies, dtype=float),
                        levels=tuple(levels))


def evolution_operator(params: JCParams, t: float,
                       trunc: TruncationConfig) -> np.ndarray:
    """U_t = exp(-i H t) assembled spectrally from the dressed basis."""
    basis = dressed_basis(params, trunc)
    phases = np.exp(-1j * basis.energies * t)
    return (basis.vectors * phases) @ basis.vectors.conj().T
