"""Tests for the shared Hilbert-space and quadrature utilities."""
import math

import numpy as np
import pytest

from jcgraph import hilbert
from jcgraph.hilbert import (
    QuadratureRule,
    TruncationConfig,
    ValidationError,
    basis_index,
    projector_onto,
)
from oracles import bohr_mean_diagonal, finite_time_mean, weights


def test_truncation_config_dim():
    assert TruncationConfig(n_fock=5).dim == 12
    assert TruncationConfig(n_fock=60).dim == 122


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(n_fock=1)
    assert TruncationConfig(n_fock=2).dim == 6  # the smallest cutoff


def test_basis_index_worked_values():
    """Flattened index is 2n + s with g before e."""
    assert basis_index(0, "g") == 0
    assert basis_index(0, "e") == 1
    assert basis_index(3, "g") == 6
    assert basis_index(3, "e") == 7


def test_basis_index_errors():
    with pytest.raises(IndexError):
        basis_index(-1, "g")
    with pytest.raises(IndexError):
        basis_index(0, "x")
    with pytest.raises(IndexError):  # a level is named, not numbered
        basis_index(3, 0)


def test_projector_from_orthonormal_columns():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))
    p = projector_onto([q[:, i] for i in range(3)])
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
    assert abs(np.trace(p).real - 3.0) < 1e-12


def test_projector_rejects_nonorthogonal():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.8, 0.6])
    with pytest.raises(ValidationError):
        projector_onto([v0, v1])


def test_projector_empty_with_dim():
    p = projector_onto([], dim=4)
    assert p.shape == (4, 4)
    assert np.abs(p).max() == 0.0


def test_bohr_mean_keeps_diagonal_only():
    h = np.array([0.0, 1.0, 2.5])
    m = np.arange(9.0).reshape(3, 3) + 1j
    out = bohr_mean_diagonal(h, m)
    np.testing.assert_allclose(np.diag(out), np.diag(m))
    assert np.abs(out - np.diag(np.diag(m))).max() == 0.0


def test_bohr_mean_requires_increasing_energies():
    m = np.eye(3)
    with pytest.raises(ValidationError):
        bohr_mean_diagonal(np.array([0.0, 2.0, 2.0]), m)
    with pytest.raises(ValidationError):
        bohr_mean_diagonal(np.array([0.0, 2.0, 1.0]), m)


def test_finite_time_mean_of_cosine():
    """Symmetric average of cos over [-T, T] is sin(T)/T."""
    out = finite_time_mean(np.cos, 3.0, 30001)
    assert abs(out - math.sin(3.0) / 3.0) < 1e-8


def test_finite_time_mean_matches_bohr_diagonal():
    # single-gap two-level case: off-diagonal decays as 1/T
    h = np.array([0.0, 1.0])
    m = np.array([[0.3, 0.7], [0.7, 0.4]], dtype=complex)
    exact = bohr_mean_diagonal(h, m)

    def f(t):
        ph = np.exp(-1j * h * t)
        return (ph[:, None] * ph.conj()[None, :]) * m

    e2 = np.abs(finite_time_mean(f, 2.0, 8001) - exact).max()
    e20 = np.abs(finite_time_mean(f, 20.0, 80001) - exact).max()
    # envelope sin(T)/T: T = 2 -> 0.4546..., T = 20 -> 0.04564...
    assert abs(e2 - abs(math.sin(2.0)) / 2.0 * 0.7) < 1e-6
    assert 5.0 < e2 / e20 < 20.0


def test_gauss_legendre_polynomial_exactness():
    rule = QuadratureRule.gauss_legendre(0.0, 1.0, 8)
    assert abs(weights(rule) @ rule.nodes ** 3 - 0.25) < 1e-14
    assert abs(weights(rule) @ rule.nodes ** 15 - 1.0 / 16) < 1e-14
    assert abs(weights(rule).sum() - 1.0) < 1e-14


def test_gauss_legendre_general_interval():
    rule = QuadratureRule.gauss_legendre(-1.0, 3.0, 12)
    assert abs(weights(rule) @ rule.nodes ** 2 - (27.0 + 1.0) / 3) < 1e-12


def test_gauss_laguerre_absorbs_exponential_weight():
    """Weights include e^-x, so plain monomials integrate to factorials."""
    rule = QuadratureRule.gauss_laguerre(30)
    assert abs(weights(rule) @ rule.nodes ** 3 - 6.0) < 1e-10
    assert abs(weights(rule) @ np.ones_like(rule.nodes) - 1.0) < 1e-12


def test_quadrature_nodes_interior():
    rule = QuadratureRule.gauss_legendre(0.0, 1.0, 50)
    assert rule.nodes.min() > 0.0
    assert rule.nodes.max() < 1.0


RULE_SIZES = [2, 8, 200, 400, 1000]


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_legendre_rule_is_gaussian(n):
    rule = QuadratureRule.gauss_legendre(0.0, 1.0, n)
    x, w = rule.nodes, weights(rule)
    assert np.isfinite(w).all() and (w > 0).all()
    assert (np.diff(x) > 0).all() and x[0] > 0.0 and x[-1] < 1.0
    ks = np.arange(2 * n)
    moments = (w * x ** ks[:, None]).sum(axis=1)
    assert np.abs(moments - 1.0 / (ks + 1)).max() < 1e-12


@pytest.mark.parametrize("n", RULE_SIZES)
def test_gauss_laguerre_rule_is_gaussian(n):
    rule = QuadratureRule.gauss_laguerre(n)
    x, w = rule.nodes, weights(rule)
    # w_i ~ e^{-x_i} is below the smallest double beyond x ~ 745
    assert np.isfinite(w).all() and (w >= 0).all() and (w[x < 700] > 0).all()
    assert (np.diff(x) > 0).all() and x[0] > 0.0
    assert abs(w.sum() - 1.0) < 1e-13
    # int e^{-x} x^k / k! = 1; from k ~ 570 on, part of that mass sits on
    # the weights that underflowed
    ks = np.arange(min(2 * n, 560))
    log_fact = np.array([math.lgamma(k + 1.0) for k in ks])
    pos = w > 0
    terms = np.log(w[pos]) + ks[:, None] * np.log(x[pos]) - log_fact[:, None]
    with np.errstate(under="ignore"):
        moments = np.exp(terms).sum(axis=1)
    assert np.abs(moments - 1.0).max() < 1e-11


def test_rules_share_read_only_cached_arrays():
    a, b = QuadratureRule.gauss_laguerre(8), QuadratureRule.gauss_laguerre(8)
    assert a.nodes is b.nodes and a.log_weights is b.log_weights
    ref = hilbert._legendre_rule(8)
    assert all(p is q for p, q in zip(ref, hilbert._legendre_rule(8)))
    for arr in (a.nodes, a.log_weights, *ref):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert abs(weights(QuadratureRule.gauss_legendre(0.0, 1.0, 8)).sum() - 1.0) < 1e-14
