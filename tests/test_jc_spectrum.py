"""Tests for the dressed spectrum of the qubit-oscillator Hamiltonian.

Closed-form values are frozen from the two-level block diagonalization:
for n >= 1 the Hamiltonian couples |n-1, e> and |n, g> with strength
kappa sqrt(n) / 2 around the mean omega_f (n - 1/2), giving

    E_{n, +-} = omega_f (n - 1/2) +- sqrt(delta^2 + kappa^2 n) / 2.
"""
import math

import numpy as np
import pytest

from jcgraph.hilbert import TruncationConfig, basis_index
from jcgraph.jc_spectrum import (
    DegenerateLevelError,
    JCParams,
    dressed_basis,
    dressed_frame,
    dressed_index,
    dressed_vector,
    eigenenergy,
    evolution_operator,
    hamiltonian_matrix,
    mixing_angle,
)


def test_params_derived_quantities():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=0.5)
    assert p.delta == 1.0
    assert p.gamma_f == 0.25
    assert p.gamma_s == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(omega_f=0.0, omega_s=1.0, kappa=0.5)
    with pytest.raises(ValueError):
        JCParams(omega_f=1.0, omega_s=-1.0, kappa=0.5)
    with pytest.raises(ValueError):
        JCParams(omega_f=1.0, omega_s=1.0, kappa=-0.1)
    for bad in ((math.nan, 1.0, 0.5), (1.0, math.inf, 0.5), (1.0, 1.0, math.nan),
                (1e-310, 1.0, 1.0)):  # the last overflows gamma_f = kappa/omega_f
        with pytest.raises(ValueError):
            JCParams(*bad)
    for bad in ((math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)):
        with pytest.raises(ValueError):
            JCParams.from_rates(*bad)


def test_params_from_rates_roundtrip():
    p = JCParams.from_rates(0.3, 0.7, omega_f=2.0)
    assert abs(p.gamma_f - 0.3) < 1e-15
    assert abs(p.gamma_s - 0.7) < 1e-15
    assert p.omega_f == 2.0


def test_mixing_angle_quarter_pi():
    """delta = kappa sqrt(n) gives theta = pi / 4."""
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0 / math.sqrt(2.0))
    assert abs(mixing_angle(p, 2) - math.pi / 4) < 1e-14


def test_mixing_angle_resonant_is_half_pi():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.3)
    for n in (1, 2, 7):
        assert abs(mixing_angle(p, n) - math.pi / 2) < 1e-14


def test_mixing_angle_worked_value():
    # kappa = 1, delta = 1, n = 4: atan(2) = 1.1071487177940904
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0)
    assert abs(mixing_angle(p, 4) - 1.1071487177940904) < 1e-14


def test_mixing_angle_degenerate_and_bad_index():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.0)
    with pytest.raises(DegenerateLevelError):
        mixing_angle(p, 1)
    with pytest.raises(ValueError):
        mixing_angle(JCParams(2.0, 1.0, 1.0), 0)


def test_eigenenergy_frozen_values():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0)
    assert eigenenergy(p, 0, "ground") == -0.5
    assert abs(eigenenergy(p, 1, "plus") - (1.0 + 0.5 * math.sqrt(2))) < 1e-14
    assert abs(eigenenergy(p, 1, "minus") - (1.0 - 0.5 * math.sqrt(2))) < 1e-14
    assert abs(eigenenergy(p, 4, "plus") - (7.0 + 0.5 * math.sqrt(5))) < 1e-14
    assert abs(eigenenergy(p, 4, "minus") - (7.0 - 0.5 * math.sqrt(5))) < 1e-14


def test_eigenenergy_branch_aliases():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0)
    assert eigenenergy(p, 3, "+") == eigenenergy(p, 3, "plus")
    assert eigenenergy(p, 3, "-") == eigenenergy(p, 3, "minus")
    assert eigenenergy(p, 0, "g") == eigenenergy(p, 0, "ground")


def test_hamiltonian_matrix_structure():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=2.0)
    tr = TruncationConfig(4)
    h = hamiltonian_matrix(p, tr)
    np.testing.assert_allclose(h, h.conj().T, atol=0)
    # diagonal entries: omega_f n - omega_s / 2 for |n, g>, + for |n, e>
    assert h[basis_index(0, "g"), basis_index(0, "g")] == -0.5
    assert h[basis_index(0, "e"), basis_index(0, "e")] == 0.5
    assert h[basis_index(1, "g"), basis_index(1, "g")] == 1.5
    # coupling (kappa / 2) sqrt(n) between |n-1, e> and |n, g>
    assert h[basis_index(0, "e"), basis_index(1, "g")] == 1.0
    assert abs(h[basis_index(1, "e"), basis_index(2, "g")] - math.sqrt(2)) < 1e-15


def test_single_block_against_dense_diagonalization():
    """The n = 1 block [[0.5, 1], [1, 1.5]] has eigenvalues 1 -+ sqrt(5)/2."""
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=2.0)
    block = np.array([[0.5, 1.0], [1.0, 1.5]])
    vals = np.linalg.eigvalsh(block)
    assert abs(vals[1] - eigenenergy(p, 1, "plus")) < 1e-14
    assert abs(vals[0] - eigenenergy(p, 1, "minus")) < 1e-14


def test_full_spectrum_against_dense_diagonalization():
    p = JCParams(omega_f=1.3, omega_s=0.9, kappa=0.7)
    tr = TruncationConfig(25)
    h = hamiltonian_matrix(p, tr)
    basis = dressed_basis(p, tr)
    np.testing.assert_allclose(np.sort(basis.energies),
                               np.linalg.eigvalsh(h), atol=1e-11)


def test_dressed_vector_frozen_components():
    """delta = 1, kappa = 2, n = 1: theta = atan(2), components from sin/cos."""
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=2.0)
    tr = TruncationConfig(4)
    vp = dressed_vector(p, 1, "plus", tr)
    vm = dressed_vector(p, 1, "minus", tr)
    assert abs(vp[basis_index(0, "e")] - 0.5257311121191336) < 1e-12
    assert abs(vp[basis_index(1, "g")] - 0.8506508083520400) < 1e-12
    assert abs(vm[basis_index(0, "e")] - 0.8506508083520400) < 1e-12
    assert abs(vm[basis_index(1, "g")] + 0.5257311121191336) < 1e-12
    # only the two block components are populated
    assert np.count_nonzero(np.abs(vp) > 1e-15) == 2


def test_dressed_vectors_are_true_eigenvectors():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = JCParams(omega_f=rng.uniform(0.5, 3), omega_s=rng.uniform(0.5, 3),
                     kappa=rng.uniform(0.1, 2))
        tr = TruncationConfig(12)
        h = hamiltonian_matrix(p, tr)
        for n in (1, 5, 12):
            for br in ("plus", "minus"):
                v = dressed_vector(p, n, br, tr)
                e = eigenenergy(p, n, br)
                assert np.abs(h @ v - e * v).max() < 1e-12


def test_decoupled_limit_points_to_bare_states():
    # kappa = 0 with delta > 0: the upper state is the higher bare level
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=0.0)
    tr = TruncationConfig(4)
    vp = dressed_vector(p, 2, "plus", tr)
    vm = dressed_vector(p, 2, "minus", tr)
    # |n, g> sits at omega_f n - omega_s/2, above |n-1, e> when delta > 0
    assert abs(abs(vp[basis_index(2, "g")]) - 1.0) < 1e-14
    assert abs(abs(vm[basis_index(1, "e")]) - 1.0) < 1e-14
    assert eigenenergy(p, 2, "plus") > eigenenergy(p, 2, "minus")


def test_plus_branch_always_above_minus():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = JCParams(omega_f=rng.uniform(0.2, 4), omega_s=rng.uniform(0.2, 4),
                     kappa=rng.uniform(0.05, 3))
        n = int(rng.integers(1, 30))
        assert eigenenergy(p, n, "plus") > eigenenergy(p, n, "minus")


def test_dressed_basis_layout_and_top_state():
    p = JCParams(omega_f=2.0, omega_s=1.0, kappa=1.0)
    tr = TruncationConfig(6)
    basis = dressed_basis(p, tr)
    assert basis.vectors.shape == (tr.dim, tr.dim)
    # first column is the bare ground state
    np.testing.assert_allclose(basis.vectors[:, 0],
                               np.eye(tr.dim)[basis_index(0, "g")], atol=0)
    assert basis.energies[0] == -0.5
    # last column is the leftover |N, e> with energy omega_f N + omega_s / 2
    top = basis.vectors[:, -1]
    np.testing.assert_allclose(top, np.eye(tr.dim)[basis_index(6, "e")], atol=1e-14)
    assert abs(basis.energies[-1] - (2.0 * 6 + 0.5)) < 1e-14
    # interior columns alternate (n, +), (n, -)
    assert dressed_index("plus", 1) == 1
    assert dressed_index("minus", 1) == 2
    assert dressed_index("plus", 2) == 3
    # the aliases of eigenenergy name the same levels
    assert dressed_index("+", 3) == 5
    assert dressed_index("-", 3) == 6
    for bad in ("ground", "g", "up"):
        with pytest.raises(ValueError):
            dressed_index(bad, 3)


def test_dressed_basis_is_orthonormal():
    p = JCParams(omega_f=1.0, omega_s=0.8, kappa=0.9)
    tr = TruncationConfig(20)
    basis = dressed_basis(p, tr)
    gram = basis.vectors.conj().T @ basis.vectors
    assert np.abs(gram - np.eye(tr.dim)).max() < 1e-12


def test_evolution_operator_properties():
    p = JCParams(omega_f=1.0, omega_s=0.7, kappa=0.6)
    tr = TruncationConfig(10)
    u0 = evolution_operator(p, 0.0, tr)
    np.testing.assert_allclose(u0, np.eye(tr.dim), atol=1e-13)
    t = 2.3
    u = evolution_operator(p, t, tr)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(tr.dim), atol=1e-12)
    # eigenvectors pick up the exact phase
    basis = dressed_basis(p, tr)
    v = basis.vectors[:, 4]
    e = basis.energies[4]
    np.testing.assert_allclose(u @ v, np.exp(-1j * e * t) * v, atol=1e-12)


def test_evolution_composes_in_time():
    p = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.4)
    tr = TruncationConfig(8)
    u1 = evolution_operator(p, 0.9, tr)
    u2 = evolution_operator(p, 1.7, tr)
    u3 = evolution_operator(p, 2.6, tr)
    assert np.abs(u1 @ u2 - u3).max() < 1e-12


@pytest.mark.parametrize("omega_s, kappa", [(0.8, 0.7), (1.2, 0.7), (1.0, 0.7),
                                            (0.3, 5.0), (1.2, 0.0)])
def test_frame_at_unit_omega_f_is_the_raw_triple_formula(omega_s, kappa):
    """At omega_f = 1 the rates are the raw triple: no bit of the frame moves."""
    p = JCParams(1.0, omega_s, kappa)
    frame = dressed_frame(p, TruncationConfig(40))
    n = np.arange(1, 41)
    half = 0.5 * np.arctan2(p.kappa * np.sqrt(n), p.delta)
    rabi = np.sqrt(p.delta ** 2 + p.kappa ** 2 * n)
    assert frame.cos.tobytes() == np.cos(half).tobytes()
    assert frame.sin.tobytes() == np.sin(half).tobytes()
    assert frame.energies[1:-1:2].tobytes() == ((n - 0.5) + 0.5 * rabi).tobytes()
    assert frame.energies[2:-1:2].tobytes() == ((n - 0.5) - 0.5 * rabi).tobytes()
    for k in (1, 7, 40):
        assert mixing_angle(p, k) == 2.0 * float(half[k - 1])
        assert eigenenergy(p, k, "plus") == frame.energies[2 * k - 1]
        assert eigenenergy(p, k, "minus") == frame.energies[2 * k]


@pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e100, 1e200])
def test_frame_scales_with_the_triple(scale):
    """delta^2 and kappa^2 n over- or underflow at these scales; the rates do not.

    At 1e-170 the raw formula's Rabi splitting underflowed to 0, and at
    1e200 ``eigenenergy`` raised OverflowError.
    """
    ref, trunc = JCParams(1.0, 0.8, 0.7), TruncationConfig(30)
    p = JCParams(scale, 0.8 * scale, 0.7 * scale)
    base, frame = dressed_frame(ref, trunc), dressed_frame(p, trunc)
    np.testing.assert_allclose(frame.cos, base.cos, rtol=1e-14)
    np.testing.assert_allclose(frame.sin, base.sin, rtol=1e-14)
    np.testing.assert_allclose(frame.energies / scale, base.energies, rtol=1e-14)
    split = frame.energies[1] - frame.energies[2]
    assert split / scale == pytest.approx(math.sqrt(0.2 ** 2 + 0.7 ** 2), rel=1e-14)
    for k in (1, 30):
        for branch in ("plus", "minus"):
            assert eigenenergy(p, k, branch) / scale == pytest.approx(
                eigenenergy(ref, k, branch), rel=1e-14)
        assert mixing_angle(p, k) == pytest.approx(mixing_angle(ref, k), rel=1e-14)


@pytest.mark.parametrize("omega_s, kappa", [(1e200, 1.0), (1e300, 1e300), (1.0, 1e300),
                                            (1.7e308, 1e100)])
def test_rabi_splitting_cannot_overflow_at_large_rate_ratios(omega_s, kappa):
    """delta_f ** 2 or gamma_f ** 2 overflowed a Python float here (OverflowError);
    formed at a power-of-two scale, the splitting is the hypot of the rates."""
    p, n = JCParams(1.0, omega_s, kappa), np.arange(1, 21)
    frame = dressed_frame(p, TruncationConfig(20))
    rabi = np.hypot(p.delta_f, p.gamma_f * np.sqrt(n))
    np.testing.assert_allclose(frame.energies[1:-1:2], (n - 0.5) + 0.5 * rabi, rtol=1e-15)
    np.testing.assert_allclose(frame.energies[2:-1:2], (n - 0.5) - 0.5 * rabi, rtol=1e-15)
    for k in (1, 20):
        assert eigenenergy(p, k, "plus") == frame.energies[2 * k - 1]
        assert eigenenergy(p, k, "minus") == frame.energies[2 * k]


def test_signed_zero_coupling_builds_one_frame():
    """JCParams(.., 0.0) == JCParams(.., -0.0), so both must give the same frame."""
    plus, minus = JCParams(1.0, 1.2, 0.0), JCParams(1.0, 1.2, -0.0)
    assert plus == minus and math.copysign(1.0, minus.kappa) == 1.0
    trunc = TruncationConfig(10)
    a, b = dressed_frame(plus, trunc), dressed_frame(minus, trunc)
    assert a.sin.tobytes() == b.sin.tobytes() and (a.sin == 1.0).all()
