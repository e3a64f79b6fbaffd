"""Acceptance suite: every primary claim verified at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and then
asserts, so the suite doubles as a human-readable report.
"""
import math
import time

import numpy as np

from jcgraph.hilbert import TruncationConfig
from jcgraph.jc_spectrum import JCParams, dressed_basis, hamiltonian_matrix
from jcgraph.code_construction import (
    decompose,
    minimal_k0,
    minimal_m0,
    minimal_m0_from_rates,
    resonant_rates,
    sweep_columns,
)
from jcgraph.gk_states import (
    builtin_family,
    jc_families,
    moment_diagonals,
    tail_safe_xmax,
    verify_resolution,
)
from jcgraph.graph_verify import (
    channel_apply,
    dephasing_channel,
    fidelity,
    generator,
    knill_laflamme_check,
    ladder_vector,
    leak_probe,
    verify_identity_membership,
)
from oracles import (bohr_mean_diagonal, eigenenergy, finite_time_mean, h3_basis,
                     rotate, stability_grid, verify_anticlique)

TWO_PI = 2.0 * math.pi
HAROCHE = JCParams(omega_f=TWO_PI * 51.1e9, omega_s=TWO_PI * 51.1e9,
                   kappa=TWO_PI * 47e3)
GENERIC = JCParams(omega_f=1.0, omega_s=0.8, kappa=0.7)
N60 = TruncationConfig(60)


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_benchmark_minimal_dimension():
    t0 = time.perf_counter()
    m0 = minimal_m0(HAROCHE)
    k0_star = minimal_k0(m0)
    d_min = k0_star - 1
    elapsed = time.perf_counter() - t0
    ok = m0 == 1 and k0_star == 3 and d_min == 2 and elapsed < 1.0
    _line(1, "benchmark minimal dimension", ok,
          f"M0={m0} K0*={k0_star} Dmin={d_min} in {elapsed:.3f}s")
    assert ok


def test_criterion_2_resonant_threshold_location():
    t0 = time.perf_counter()
    gamma_f, gamma_s = resonant_rates((0.5, 16.0), 1551)  # step 0.01
    d_min = sweep_columns(gamma_f, gamma_s)[2]
    jump = next(g for g, d in zip(gamma_f.tolist(), d_min.tolist()) if d >= 3)
    elapsed = time.perf_counter() - t0
    target = 2.0 * (2.0 + math.sqrt(3.0))
    ok = abs(jump - target) <= 0.01 + 1e-12 and elapsed < 5.0
    _line(2, "resonant threshold", ok,
          f"Dmin 2->3 at gamma={jump:.4f}, expected {target:.4f}, "
          f"{elapsed:.2f}s")
    assert ok


def test_criterion_3_resonant_extremality():
    t0 = time.perf_counter()
    grid = np.linspace(0.5, 16.0, 50)
    worst_excess = 0
    for gf in grid:
        resonant = minimal_m0_from_rates(float(gf), float(gf))
        column_max = max(minimal_m0_from_rates(float(gf), float(gs))
                         for gs in grid)
        worst_excess = max(worst_excess, column_max - resonant)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0 and elapsed < 10.0
    _line(3, "resonant extremality on 50x50 grid", ok,
          f"max column excess over resonant value = {worst_excess}, "
          f"{elapsed:.2f}s")
    assert ok


def test_criterion_4_spectrum_suite():
    rng = np.random.default_rng(101)
    sets = [JCParams(omega_f=float(rng.uniform(0.3, 3.0)),
                     omega_s=float(rng.uniform(0.3, 3.0)),
                     kappa=float(rng.uniform(0.05, 3.0))) for _ in range(18)]
    # decoupled and deep-strong edge cases round out the twenty
    sets.append(JCParams(omega_f=2.0, omega_s=1.0, kappa=0.0))
    sets.append(JCParams.from_rates(8.0, 8.0))
    worst_eig, worst_gram, min_j_gap = 0.0, 0.0, math.inf
    for p in sets:
        basis = dressed_basis(p, N60)
        h = hamiltonian_matrix(p, N60)
        res = np.linalg.norm(h @ basis.vectors - basis.vectors * basis.energies,
                             axis=0).max()
        gram = np.abs(basis.vectors.conj().T @ basis.vectors
                      - np.eye(N60.dim)).max()
        j_seq = np.array([eigenenergy(p, n, "plus")
                          for n in range(1, N60.n_fock + 1)])
        worst_eig = max(worst_eig, float(res))
        worst_gram = max(worst_gram, float(gram))
        min_j_gap = min(min_j_gap, float(np.diff(j_seq).min()))
    ok = worst_eig < 1e-10 and worst_gram < 1e-10 and min_j_gap > 0
    _line(4, "spectrum suite, 20 parameter sets at N=60", ok,
          f"max eigen residual {worst_eig:.2e}, max Gram deviation "
          f"{worst_gram:.2e}, min J gap {min_j_gap:.3e}")
    assert ok


def test_criterion_5_gk_property_suite():
    t0 = time.perf_counter()
    worst_moment, worst_resolution, worst_stability = 0.0, 0.0, 0.0
    ks = np.arange(41)
    for name in ("factorial", "uniform_moment"):
        fam = builtin_family(name)
        rule = fam.moment_rule(200)
        worst_moment = max(worst_moment,
                           float(np.abs(moment_diagonals(fam, ks, rule) - 1.0).max()))
        for spec in jc_families(decompose(HAROCHE, 3, N60), fam, fam):
            diagonals = moment_diagonals(fam, np.arange(spec.terms), rule)
            worst_resolution = max(worst_resolution, verify_resolution(spec, diagonals))
            xmax = tail_safe_xmax(fam, spec.terms - 1, budget=1e-12)
            fids = stability_grid(
                spec, np.linspace(0.0, xmax, 10),
                np.linspace(0.0, 10.0 / HAROCHE.omega_f, 10), N60)
            worst_stability = max(worst_stability, float((1.0 - fids).max()))
    elapsed = time.perf_counter() - t0
    ok = (worst_moment < 1e-8 and worst_resolution < 1e-6
          and worst_stability < 1e-9 and elapsed < 60.0)
    _line(5, "coherent-state suite, both families x both ladders", ok,
          f"moments {worst_moment:.2e}, resolution {worst_resolution:.2e}, "
          f"stability defect {worst_stability:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_6_identity_membership():
    t0 = time.perf_counter()
    uni = builtin_family("uniform_moment")
    code = decompose(GENERIC, 3, N60)
    families = jc_families(code, uni, uni)

    def membership(nodes):
        rule = uni.moment_rule(nodes)
        return verify_identity_membership(
            code, [moment_diagonals(uni, np.arange(spec.terms), rule) for spec in families])

    res200 = membership(200)
    res100 = membership(100)
    floor = 1e-10
    doubling_ok = (res200 < res100 / 2.0) or (res100 < floor and res200 < floor)
    # with deliberately under-resolved rules the factor-2 gain is visible
    res8 = membership(8)
    res16 = membership(16)
    res32 = membership(32)
    genuine = res16 < res8 / 2.0 and res32 < res16 / 2.0
    elapsed = time.perf_counter() - t0
    ok = res200 < 1e-6 and doubling_ok and genuine and elapsed < 60.0
    _line(6, "identity membership, uniform family R=1", ok,
          f"residual(200 nodes) {res200:.2e}, residual(100) {res100:.2e}, "
          f"under-resolved chain {res8:.1e}->{res16:.1e}->{res32:.1e}, "
          f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_anticlique():
    t0 = time.perf_counter()
    uni = builtin_family("uniform_moment")
    code = decompose(GENERIC, 3, N60)
    families = jc_families(code, uni, uni)
    rng = np.random.default_rng(103)
    gens = []
    for _ in range(100):
        j = int(rng.integers(1, 4))
        x = float(rng.uniform(0.0, 0.95))
        t = float(rng.uniform(0.0, 10.0))
        gens.append(generator(code, families, j, x, t))
    combos = []
    for _ in range(20):
        w = rng.normal(size=len(gens))
        combos.append(sum(c * g.operator for c, g in zip(w, gens)))
    identity = np.eye(N60.dim, dtype=complex)
    ops = gens + combos + [identity]

    report = verify_anticlique(code, ops, tol=1e-8)
    alpha_j12 = max((abs(rec.alpha) for rec, g in zip(report.checks, gens)
                     if g.j in (1, 2)), default=math.inf)
    alpha_id = abs(report.checks[-1].alpha - 1.0)

    sub_ok = True
    h3 = h3_basis(code)
    dim3 = h3.shape[1]
    for _ in range(5):
        r = int(rng.integers(2, dim3 + 1))
        w, _ = np.linalg.qr(rng.normal(size=(dim3, r))
                            + 1j * rng.normal(size=(dim3, r)))
        cols = h3 @ w
        sub = cols @ cols.conj().T
        sub_report = knill_laflamme_check(sub, ops, tol=1e-8)
        sub_ok = sub_ok and sub_report.overall_pass
    elapsed = time.perf_counter() - t0
    ok = (report.overall_pass and alpha_j12 < 1e-10 and alpha_id < 1e-10
          and sub_ok and elapsed < 60.0)
    _line(7, "anticlique, 100 generators + 20 combinations", ok,
          f"max residual {max(c.residual for c in report.checks):.2e}, "
          f"max |alpha| on ladders {alpha_j12:.1e}, |alpha(I)-1| {alpha_id:.1e}, "
          f"sub-projectors {'ok' if sub_ok else 'FAILED'}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_zero_error_transmission():
    t0 = time.perf_counter()
    uni = builtin_family("uniform_moment")
    code = decompose(GENERIC, 3, N60)
    families = jc_families(code, uni, uni)
    rng = np.random.default_rng(107)
    states = []
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        v = code.frame.embed(code.h3_indices[:-1], amps)
        states.append(np.outer(v, v.conj()))
    worst_fid, worst_trace, worst_leak_fid = 0.0, 0.0, 0.0
    for _ in range(10):
        t = float(rng.uniform(0.0, 10.0))
        x = float(rng.uniform(0.0, 0.9))
        channel = dephasing_channel(families, x, t)
        for rho in states:
            out = channel_apply(channel, rho)
            worst_trace = max(worst_trace, abs(float(np.trace(out).real) - 1.0))
            worst_fid = max(worst_fid, 1.0 - fidelity(rho, out))
        probe = rotate(code.frame, leak_probe(code, ladder_vector(families[0], x, t)))
        rho_l = np.outer(probe, probe.conj())
        worst_leak_fid = max(worst_leak_fid,
                             fidelity(rho_l, channel_apply(channel, rho_l)))
    elapsed = time.perf_counter() - t0
    ok = (worst_fid < 1e-8 and worst_trace < 1e-10
          and worst_leak_fid < 1.0 - 1e-3 and elapsed < 30.0)
    _line(8, "zero-error transmission, 20 states x 10 samples", ok,
          f"max fidelity defect {worst_fid:.2e}, max trace defect "
          f"{worst_trace:.2e}, leaked-state fidelity {worst_leak_fid:.3f}, "
          f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_oracle_cross_checks():
    # finite-time average versus the analytic Bohr mean
    p = JCParams(omega_f=1.0, omega_s=0.8, kappa=0.5)
    tr = TruncationConfig(10)
    energies = np.sort(dressed_basis(p, tr).energies)
    assert np.diff(energies).min() > 0.01  # no near-degeneracy to resolve
    rng = np.random.default_rng(109)
    m = rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))
    m /= np.abs(m).max()
    exact = bohr_mean_diagonal(energies, m)

    def f(y):
        ph = np.exp(-1j * energies * y)
        return (ph[:, None] * ph.conj()[None, :]) * m

    # sample step 0.5 stays under the 2 pi / bandwidth aliasing limit
    approx = finite_time_mean(f, 1e5, 400001)
    bohr_err = float(np.abs(approx - exact).max())

    # the two closed forms of the monotonicity threshold
    mismatches = 0
    for _ in range(1000):
        gf = float(rng.uniform(0.05, 16.0))
        gs = float(rng.uniform(0.05, 16.0))
        if minimal_m0(JCParams.from_rates(gf, gs)) != minimal_m0_from_rates(gf, gs):
            mismatches += 1
    ok = bohr_err < 1e-3 and mismatches == 0
    _line(9, "oracle cross-checks", ok,
          f"Bohr mean error at T=1e5: {bohr_err:.2e}, threshold form "
          f"mismatches: {mismatches}/1000")
    assert ok
