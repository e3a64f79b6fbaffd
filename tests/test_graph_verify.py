"""Tests for Knill-Laflamme checks, identity membership and the channel."""
import math

import numpy as np
import pytest

from jcgraph.hilbert import TruncationConfig, ValidationError, basis_index
from jcgraph.jc_spectrum import JCParams, evolution_operator
from jcgraph.code_construction import decompose
from jcgraph.gk_states import builtin_family, jc_families, moment_diagonals, rule_nodes
from jcgraph.graph_verify import (
    CheckRecord,
    CodeLeakageError,
    InvalidDensityError,
    UnsupportedFamilyError,
    VerificationReport,
    channel_apply,
    dephasing_channel,
    fidelity,
    generator,
    knill_laflamme_check,
    leak_probe,
    projective_channel,
    transmit_demo,
    verify_identity_membership,
)
from oracles import embedding, q_operator, verify_anticlique

PARAMS = JCParams(omega_f=1.0, omega_s=1.0, kappa=0.5)
TRUNC = TruncationConfig(40)
UNI = builtin_family("uniform_moment")
CODE = decompose(PARAMS, 3, TRUNC)
FAMILIES = jc_families(CODE, UNI, UNI)


def code_state(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps /= np.linalg.norm(amps)
    return CODE.code_basis @ amps


def test_check_record_serialization():
    rec = CheckRecord(name="a", residual=1e-9, tolerance=1e-8, passed=True)
    d = rec.to_dict()
    assert d["pass"] is True
    assert d["alpha_re"] is None and d["alpha_im"] is None
    rec = CheckRecord(name="b", residual=0.0, tolerance=1e-8, passed=True,
                      alpha=0.5 - 0.25j)
    d = rec.to_dict()
    assert d["alpha_re"] == 0.5 and d["alpha_im"] == -0.25


def test_verification_report_aggregation():
    rep = VerificationReport()
    assert rep.overall_pass
    rep.add(CheckRecord("x", 1e-12, 1e-8, True))
    rep.add(CheckRecord("y", 0.5, 1e-8, False))
    assert not rep.overall_pass
    assert rep.max_residual() == 0.5
    d = rep.to_dict()
    assert [c["name"] for c in d["checks"]] == ["x", "y"]
    assert d["overall_pass"] is False


def test_generator_returns_exact_projectors():
    for j in (1, 2):
        for x in (0.0, 0.3, 0.8):
            g = generator(CODE, FAMILIES, j, x, 1.2)
            op = g.operator
            assert np.abs(op @ op - op).max() < 1e-12
            assert np.abs(op - op.conj().T).max() < 1e-12
            assert abs(np.trace(op).real - 1.0) < 1e-12
    g3 = generator(CODE, FAMILIES, 3, 0.1, 0.0)
    np.testing.assert_allclose(g3.operator, CODE.p3, atol=0)


def test_generator_covariance_under_evolution():
    """U_t P_x U_t+ equals the projector built at phase time t."""
    x, t = 0.4, 2.7
    p0 = generator(CODE, FAMILIES, 1, x, 0.0).operator
    pt = generator(CODE, FAMILIES, 1, x, t).operator
    u = evolution_operator(PARAMS, t, TRUNC)
    assert np.abs(u @ p0 @ u.conj().T - pt).max() < 1e-12


def test_generator_validation():
    with pytest.raises(ValueError):
        generator(CODE, FAMILIES, 0, 0.1, 0.0)
    with pytest.raises(ValueError):
        generator(CODE, FAMILIES, 4, 0.1, 0.0)


def test_q_operator_weights():
    """Q_x puts weight 1 on each ladder state and 1/(R tau1) on H3."""
    q = q_operator(0.5, FAMILIES, CODE)
    for spec in FAMILIES:
        g = generator(CODE, FAMILIES, 1 if spec.label == "J" else 2,
                      0.5, 0.0).operator
        # expectation in the normalized ladder state
        v = g[:, np.argmax(np.diag(g.real))]
        v = v / np.linalg.norm(v)
        assert abs((v.conj() @ q @ v).real - 1.0) < 1e-10
    w = CODE.h3_basis[:, 1]
    assert abs((w.conj() @ q @ w).real - 0.25) < 1e-12


def membership(families, rule):
    """verify_identity_membership on CODE with every ladder's diagonals under ``rule``."""
    diagonals = [moment_diagonals(spec.family, np.arange(spec.terms), rule)
                 for spec in families]
    return verify_identity_membership(CODE, families, rule, diagonals)


# exact for every moment of the longer (J) ladder
LADDER_RULE = UNI.moment_rule(rule_nodes(FAMILIES[0].terms))


def test_identity_membership_requires_matching_radii():
    fams = jc_families(CODE, UNI, builtin_family("factorial"))
    with pytest.raises(UnsupportedFamilyError, match="matching finite"):
        membership(fams, LADDER_RULE)


def test_identity_membership_residual_small():
    res = membership(FAMILIES, UNI.moment_rule(200))
    assert res < 1e-10


def test_identity_membership_excludes_decoupled_direction():
    idx = basis_index(TRUNC.n_fock, "e", TRUNC)
    # nothing in the graph touches |N, e>: every E diag(d) E+ term is zero there
    for basis in (embedding(FAMILIES[0]), embedding(FAMILIES[1]), CODE.h3_basis):
        assert np.abs(basis[idx]).max() == 0.0
    assert membership(FAMILIES, LADDER_RULE) < 1e-10


def test_identity_membership_node_convergence():
    """Halving an under-resolved node count worsens the residual > 2x."""
    r8 = membership(FAMILIES, UNI.moment_rule(8))
    r16 = membership(FAMILIES, UNI.moment_rule(16))
    assert r16 < r8 / 2.0


def test_knill_laflamme_alpha_values():
    dim = TRUNC.dim
    ops = [np.eye(dim, dtype=complex), CODE.p3,
           generator(CODE, FAMILIES, 1, 0.3, 0.5)]
    rep = knill_laflamme_check(CODE.p3, ops)
    assert rep.overall_pass
    assert abs(rep.checks[0].alpha - 1.0) < 1e-12
    assert abs(rep.checks[1].alpha - 1.0) < 1e-12
    assert abs(rep.checks[2].alpha) < 1e-12


def test_knill_laflamme_rejects_non_projector():
    with pytest.raises(ValidationError):
        knill_laflamme_check(np.diag([2.0, 0.0]), [np.eye(2)])


def test_knill_laflamme_detects_violations():
    # a generic Hermitian operator does not satisfy the condition
    rng = np.random.default_rng(23)
    a = rng.normal(size=(TRUNC.dim, TRUNC.dim))
    a = a + a.T
    rep = knill_laflamme_check(CODE.p3, [a])
    assert not rep.overall_pass
    assert rep.checks[0].residual > 1e-3


def test_verify_anticlique_full_projector():
    rng = np.random.default_rng(31)
    gens = []
    for _ in range(30):
        j = int(rng.integers(1, 4))
        x = float(rng.uniform(0.0, 0.9))
        t = float(rng.uniform(0.0, 12.0))
        gens.append(generator(CODE, FAMILIES, j, x, t))
    rep = verify_anticlique(CODE, gens)
    assert rep.overall_pass
    assert rep.max_residual() < 1e-12
    for rec, g in zip(rep.checks, gens):
        expected = 1.0 if g.j == 3 else 0.0
        assert abs(rec.alpha - expected) < 1e-12
        assert rec.name.startswith("generator[")


def test_verify_anticlique_linear_combinations():
    rng = np.random.default_rng(37)
    gens = [generator(CODE, FAMILIES, int(rng.integers(1, 4)),
                      float(rng.uniform(0, 0.9)), float(rng.uniform(0, 5)))
            for _ in range(10)]
    combos = []
    for _ in range(5):
        w = rng.normal(size=10)
        combos.append(sum(c * g.operator for c, g in zip(w, gens)))
    rep = verify_anticlique(CODE, combos)
    assert rep.overall_pass


def test_verify_anticlique_sub_projector():
    # any rank-2 sub-projector of H3 inherits the anticlique property
    sub = np.outer(CODE.h3_basis[:, 0], CODE.h3_basis[:, 0].conj()) \
        + np.outer(CODE.h3_basis[:, 2], CODE.h3_basis[:, 2].conj())
    gens = [generator(CODE, FAMILIES, j, 0.4, 1.0) for j in (1, 2, 3)]
    rep = verify_anticlique(CODE, gens, projector=sub)
    assert rep.overall_pass
    assert abs(rep.checks[2].alpha - 1.0) < 1e-12


def test_channel_validation():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    ch = projective_channel([p, q])
    assert len(ch.projectors) == 2
    with pytest.raises(ValidationError):
        projective_channel([p, p])  # does not sum to identity
    with pytest.raises(ValidationError):
        projective_channel([np.array([[0.5, 0.5], [0.5, 0.5]]) * 2, q])


def test_dephasing_channel_is_complete():
    ch = dephasing_channel(FAMILIES, 0.3, 1.1)
    assert len(ch.projectors) == 3
    total = sum(ch.projectors)
    assert np.abs(total - np.eye(TRUNC.dim)).max() < 1e-12


def test_channel_apply_matches_definition_and_preserves_trace():
    ch = dephasing_channel(FAMILIES, 0.3, 1.1)
    rng = np.random.default_rng(41)
    m = rng.normal(size=(TRUNC.dim, TRUNC.dim)) \
        + 1j * rng.normal(size=(TRUNC.dim, TRUNC.dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = channel_apply(ch, rho)
    direct = sum(p @ rho @ p for p in ch.projectors)
    assert np.abs(out - direct).max() == 0.0
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_channel_apply_rejects_bad_input():
    ch = dephasing_channel(FAMILIES, 0.3, 1.1)
    dim = TRUNC.dim
    with pytest.raises(InvalidDensityError):
        channel_apply(ch, np.eye(dim, dtype=complex))  # trace N, not 1
    bad = np.zeros((dim, dim), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(InvalidDensityError):
        channel_apply(ch, bad)  # not Hermitian
    neg = np.zeros((dim, dim), dtype=complex)
    neg[0, 0], neg[1, 1] = 1.5, -0.5
    with pytest.raises(InvalidDensityError):
        channel_apply(ch, neg)  # negative eigenvalue


def test_fidelity_pure_states():
    v = np.array([1.0, 0.0], dtype=complex)
    w = np.array([0.0, 1.0], dtype=complex)
    u = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rv, rw, ru = (np.outer(a, a.conj()) for a in (v, w, u))
    assert fidelity(rv, rv) == 1.0
    assert fidelity(rv, rw) == 0.0
    assert abs(fidelity(rv, ru) - 0.5) < 1e-14


def test_fidelity_commuting_mixed_states():
    """Diagonal case: F = (sum_i sqrt(p_i q_i))^2."""
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    expected = (math.sqrt(0.125) + math.sqrt(0.375)) ** 2
    assert abs(fidelity(rho, sigma) - expected) < 1e-12
    assert abs(expected - 0.9330127018922193) < 1e-15


def test_fidelity_mixed_vs_pure():
    rho = np.eye(2, dtype=complex) / 2.0
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert abs(fidelity(rho, sigma) - 0.5) < 1e-12


def test_code_states_are_channel_fixed_points():
    rng = np.random.default_rng(47)
    for seed in range(4):
        v = code_state(seed)
        rho = np.outer(v, v.conj())
        x = float(rng.uniform(0.0, 0.8))
        t = float(rng.uniform(0.0, 10.0))
        ch = dephasing_channel(FAMILIES, x, t)
        out = channel_apply(ch, rho)
        assert np.abs(out - rho).max() < 1e-12


def test_transmit_demo_perfect_fidelity():
    v = code_state(3)
    rho = np.outer(v, v.conj())
    fid = transmit_demo(CODE, FAMILIES, 0.45, 2.0, rho)
    assert fid >= 1.0 - 1e-12


def test_transmit_demo_rejects_leaky_input():
    v = code_state(3)
    w = np.zeros(TRUNC.dim, dtype=complex)
    w[basis_index(5, "g")] = 1.0
    mixed = (v + w) / np.linalg.norm(v + w)
    rho = np.outer(mixed, mixed.conj())
    with pytest.raises(CodeLeakageError) as err:
        transmit_demo(CODE, FAMILIES, 0.45, 2.0, rho)
    assert err.value.leakage > 0.1


def test_leak_probe_shows_fidelity_drop():
    x, t = 0.45, 2.0
    probe = leak_probe(CODE, FAMILIES, x, t)
    assert abs(np.vdot(probe, probe).real - 1.0) < 1e-12
    rho = np.outer(probe, probe.conj())
    ch = dephasing_channel(FAMILIES, x, t)
    fid = fidelity(rho, channel_apply(ch, rho))
    assert fid < 1.0 - 1e-3
    assert fid > 0.2
