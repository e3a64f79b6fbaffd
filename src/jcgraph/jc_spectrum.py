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

The block of level n sits on the neighbouring product indices 2n - 1
(|n-1, e>) and 2n (|n, g>), so ``DressedFrame`` holds the whole dressed
basis as two half-angle arrays and the energies, and U_t is diagonal in
it; ``spectrum_residuals`` checks it against H block by block.  The
level-by-level closed forms (mixing angle, eigenenergy, dressed vector)
are test oracles in ``tests/oracles.py``.  The dense
``hamiltonian_matrix``, ``dressed_basis`` and ``evolution_operator`` are
reference forms too, and no command calls them; they stay in the package
because perfbench's tracer wraps them by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import TruncationConfig, basis_index


class DegenerateLevelError(ValueError):
    """Mixing angle requested for an exactly degenerate uncoupled level."""


@dataclass(frozen=True)
class JCParams:
    """Field frequency, qubit frequency and coupling strength (angular units)."""

    omega_f: float
    omega_s: float
    kappa: float

    def __post_init__(self) -> None:
        # -0.0 equals 0.0 but flips the sign of the kappa = 0 frame's sines:
        # store +0.0 so equal parameters build equal frames
        object.__setattr__(self, "kappa", self.kappa + 0.0)
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
    def delta_f(self) -> float:
        """The detuning in units of omega_f, 1 - omega_s/omega_f."""
        return 1.0 - self.omega_s / self.omega_f

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


def _rescaled(params: JCParams) -> tuple:
    """(delta_f / s, gamma_f / s, s) for the power of two s <= max(|delta_f|, gamma_f) < 2s.

    The Rabi splitting s sqrt((e/s)^2 + (g/s)^2 n) cannot overflow before its
    last product, and dividing by s is exact, so no bit differs from
    sqrt(e^2 + g^2 n) where that form neither over- nor underflows.
    """
    e, g = params.delta_f, params.gamma_f
    scale = math.ldexp(1.0, math.frexp(max(abs(e), g))[1] - 1)
    return e / scale, g / scale, scale


def hamiltonian_matrix(params: JCParams, trunc: TruncationConfig) -> np.ndarray:
    """Dense truncated Hamiltonian in the flattened product basis.

    A reference form: ``spectrum_residuals`` reads the same entries block
    by block, and the tests compare the two.
    """
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
class DressedFrame:
    """The dressed eigenbasis as O(N) data: one 2x2 rotation per block.

    Block n = 1..N acts on the product indices (2n - 1, 2n), i.e. on
    |n-1, e> and |n, g>, which are also the dressed indices of (n, +) and
    (n, -); index 0 (|0, g>) and dim - 1 (|N, e>) are eigenvectors on their
    own.  ``cos``/``sin`` hold cos(theta_n/2) and sin(theta_n/2) for
    n = 1..N, ``energies`` all dim eigenvalues in dressed order.
    """

    cos: np.ndarray
    sin: np.ndarray
    energies: np.ndarray

    def rotate(self, a: np.ndarray) -> np.ndarray:
        """Change coordinates between the product and the dressed basis.

        Acts on axis 0 of a vector or matrix.  Every block rotation is a
        real symmetric reflection, so the map is its own inverse.
        """
        return self._rotate_in_place(np.array(a, dtype=complex))

    def _rotate_in_place(self, a: np.ndarray) -> np.ndarray:
        """``rotate`` into ``a`` itself, a complex array the caller owns."""
        c, s = self.cos, self.sin
        if a.ndim == 2:
            c, s = c[:, None], s[:, None]
        ae, ag = a[1:-1:2], a[2:-1:2]
        e, g = s * ae + c * ag, c * ae - s * ag
        ae[...] = e
        ag[...] = g
        return a

    def embed(self, idx, a: np.ndarray) -> np.ndarray:
        """sum_k a[k] |v_idx[k]> in the product basis, for dressed vectors v.

        ``a`` is a vector or a matrix (one column per result);
        ``embed(idx, np.eye(len(idx)))`` gives the vectors themselves.
        """
        a = np.asarray(a, dtype=complex)
        dressed = np.zeros((self.energies.size,) + a.shape[1:], dtype=complex)
        dressed[idx] = a
        return self._rotate_in_place(dressed)

    def block_entries(self, w: np.ndarray) -> tuple:
        """Diagonal and in-block off-diagonal of V diag(w) V+, in O(N).

        V holds the dressed eigenvectors as columns, ``w`` one weight per
        dressed index.  Block n gives s^2 w+ + c^2 w- at |n-1, e>,
        c^2 w+ + s^2 w- at |n, g> and sc(w+ - w-) at (2n - 1, 2n) and
        (2n, 2n - 1), returned for n = 1..N; indices 0 and dim - 1 keep
        their weights.  Every other entry is zero.
        """
        w = np.asarray(w, dtype=float)
        wp, wm = w[1:-1:2], w[2:-1:2]
        c2, s2 = self.cos ** 2, self.sin ** 2
        diag = w.copy()
        diag[1:-1:2] = s2 * wp + c2 * wm
        diag[2:-1:2] = c2 * wp + s2 * wm
        return diag, self.sin * self.cos * (wp - wm)


def dressed_frame(params: JCParams, trunc: TruncationConfig) -> DressedFrame:
    """Half-angle arrays and all energies of the truncated Hamiltonian, in O(N).

    Computed in units of omega_f, from delta_f = 1 - omega_s/omega_f and
    gamma_f = kappa/omega_f, with omega_f multiplied last: scaling the
    triple scales the energies without over- or underflowing the
    splitting, and at omega_f = 1 no bit differs from the raw-triple form.
    """
    if params.kappa == 0.0 and params.delta == 0.0:
        raise DegenerateLevelError(
            "level n = 1 is exactly degenerate (kappa = 0, delta = 0)")
    n_max = trunc.n_fock
    n = np.arange(1, n_max + 1)
    half = 0.5 * np.arctan2(params.gamma_f * np.sqrt(n), params.delta_f)
    e, g, scale = _rescaled(params)
    rabi = scale * np.sqrt(e ** 2 + g ** 2 * n)
    energies = np.empty(trunc.dim)
    energies[0] = -0.5 * params.omega_s
    energies[1:-1:2] = params.omega_f * ((n - 0.5) + 0.5 * rabi)
    energies[2:-1:2] = params.omega_f * ((n - 0.5) - 0.5 * rabi)
    energies[-1] = params.omega_f * n_max + 0.5 * params.omega_s
    return DressedFrame(cos=np.cos(half), sin=np.sin(half), energies=energies)


def spectrum_residuals(params: JCParams, frame: DressedFrame) -> tuple:
    """max_j |H v_j - E_j v_j| and max |V+ V - I| of a frame, in O(N).

    H is block diagonal and each dressed vector lives in one block, so a
    column's residual involves only its block's 2x2 entries:
    <n-1, e|H|n-1, e> = omega_f (n-1) + omega_s/2, <n, g|H|n, g> =
    omega_f n - omega_s/2 and the coupling kappa sqrt(n)/2.  The singletons
    |0, g> and |N, e> are compared with their diagonal entries.  Columns of
    different blocks share no support and the in-block cross term
    s c - c s is exactly 0, so V+ V - I reduces to c^2 + s^2 - 1 per block.
    """
    c, s, e = frame.cos, frame.sin, frame.energies
    n = np.arange(1, c.size + 1)
    h_e = params.omega_f * (n - 1) + 0.5 * params.omega_s
    h_g = params.omega_f * n - 0.5 * params.omega_s
    g = 0.5 * params.kappa * np.sqrt(n)
    ep, em = e[1:-1:2], e[2:-1:2]
    # (n, +) = s |n-1, e> + c |n, g>,  (n, -) = c |n-1, e> - s |n, g>
    plus = np.hypot(h_e * s + g * c - ep * s, g * s + h_g * c - ep * c)
    minus = np.hypot(h_e * c - g * s - em * c, g * c - h_g * s + em * s)
    singles = (abs(-0.5 * params.omega_s - e[0]),
               abs(params.omega_f * c.size + 0.5 * params.omega_s - e[-1]))
    eig = float(max(plus.max(), minus.max(), *singles))
    gram = float(np.abs(c * c + s * s - 1.0).max())
    return eig, gram


@dataclass(frozen=True)
class DressedBasis:
    """Full eigenbasis of the truncated Hamiltonian, as a dense reference.

    ``vectors`` holds the eigenvectors as columns, ordered ground,
    (1,+), (1,-), ..., (N,+), (N,-), and finally the decoupled |N, e>, so
    (n, +) sits in column 2n - 1 and (n, -) in column 2n.
    No command builds it: the tests compare ``DressedFrame`` against it.
    """

    vectors: np.ndarray
    energies: np.ndarray


def dressed_basis(params: JCParams, trunc: TruncationConfig) -> DressedBasis:
    """All dressed vectors and energies, plus the |N, e> leftover, as dense arrays.

    A reference form of ``dressed_frame`` for the tests; O(dim^2) memory.
    """
    frame = dressed_frame(params, trunc)
    return DressedBasis(vectors=frame.rotate(np.eye(trunc.dim, dtype=complex)),
                        energies=frame.energies)


def evolution_operator(params: JCParams, t: float,
                       trunc: TruncationConfig) -> np.ndarray:
    """Dense U_t = exp(-i H t) assembled spectrally; a reference for the tests."""
    basis = dressed_basis(params, trunc)
    phases = np.exp(-1j * basis.energies * t)
    return (basis.vectors * phases) @ basis.vectors.conj().T
