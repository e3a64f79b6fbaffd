"""Mutations of the library and the ``verify`` records that must catch them.

Each entry of ``MUTATIONS`` patches the library the way a fault would
(mutation analysis: DeMillo, Lipton and Sayward, Computer 11(4), 1978) and
names the records that must fail under it, no more and no fewer.  Every
mutation runs with both weight families
on both ladders at the default point 1 / 0.8 / 0.7 (k0 = 3, seed 7), at
N = 160 unless ``N_FOCK`` says otherwise, and the unmutated run must pass.
Every record a report can hold, the refusals of the cut and of the
channel's input included, fails under at least one mutation.

- ``log_weight`` + 1e-5 for k >= 500 (N = 2000): d_k - 1 is -1e-5 there,
  and the block weights c^2 ~ 1/2 halve it to a residual of 5.06e-6, over
  the resolution's 1e-6.  A shift of 1e-6 halves to 5e-7 and trips nothing.
  Identity membership reads the uniform_moment family, so only that
  family's shift reaches it.  The same shift from k >= 10 also reaches the
  21-node spot check ``gk.moments.*``, which reads k < 41.
- The family's second form of log int rho x^k dx, shifted the same way.
- ``log_rho`` + 1e-5: only the spot check's rule reads the density.
- One H3 index dropped from the cut: |0, g> keeps no weight, so the
  reconstructed identity reads 0 there (residual 1).
- A frame with c^2 + s^2 = 1 + 1e-9: ``spectrum.gram_identity`` reads 1e-9
  and both stability bounds 2e-9.  H3's columns other than |0, g> carry
  the stretch, so alpha(I) = 1 + 6.7e-10, and the channel certificate reads
  the code's trace off by 1e-9 at |1, ->.  Each column is still an
  eigenvector, so ``spectrum.eigen_residual`` passes.
- The same stretch, 1 + 1e-8, on blocks n >= 20 only: H3's blocks are
  intact, so the anticlique certificate reads the frame as exact.
  ``spectrum.gram_identity`` reads 1e-8 and both stability bounds 2e-8.
  The ladders' columns on those blocks are 5e-9 off unit norm, so the
  channel certificate refuses its input (``channel.input``).
- Frame energies x (1 + 1e-6): the eigen residual reads 1.6e-4, which the
  stability bound squares to 2.7e-6.
- Two S energies swapped (|50, -> and |51, ->): the S ladder decreases
  there, so the cut is refused (``gk.energy_order``).
- ``decompose`` reading max(3, M0) one too high: it refuses the minimal
  cut (``code.cut_constraint``), which ends the report.
- H3's last index swapped for the first J index, |1, +>: H3 meets J, so
  the anticlique reads 1 and |alpha| = 1 / k0, and |2, -> keeps no weight
  in the reconstructed identity (0.6).  The code indices are untouched.
- The H3 basis scaled by 1 + 1e-10, as the frame stretched on H3's blocks
  n < k0 only: ``spectrum.gram_identity`` reads 2e-10, alpha(I) =
  1 + 1.3e-10, and the code's trace is off by 2e-10.
- The leak probe scaled by 1 + 1e-9: its trace is 1 + 2e-9, which the
  channel refuses as input (``channel.input``).
- The S cut moved down one rung, onto |k0 - 1, ->, a vector of H3.
- J read on the - branch (``j_indices`` + 1): its rungs include H3's, so
  the anticlique fails with |alpha| = 1 / k0, the reconstructed identity
  misses the + branch, and J and S share dressed indices, which the
  channel refuses.
- S's first rung read as one more code index, in the channel's code only:
  the channel measures code states there, so ``channel.code_fidelity``
  reads 1.
- The leak probe not leaked: it passes the channel unchanged.

``UNDETECTED`` holds faults that no record reads, as strict xfails: the
day a record catches one, its test passes and fails the suite.
"""
import dataclasses
import json

import numpy as np
import pytest

from jcgraph import cli, code_construction, gk_states, graph_verify

N = 160
FAMILIES = ("factorial", "uniform_moment")
REFUSALS = {"gk.energy_order", "code.cut_constraint", "channel.input"}
STABILITY = {"gk.temporal_stability.J", "gk.temporal_stability.S"}


def _replace_family(monkeypatch, family, **forms):
    fam = gk_states.builtin_family(family)
    monkeypatch.setitem(gk_states._BUILTIN_FAMILIES, family,
                        dataclasses.replace(fam, **forms))


def _shift_family(monkeypatch, family, field, k_min):
    """Add 1e-5 to the family's ``field`` (a per-k or a per-table form) at k >= k_min."""
    form = getattr(gk_states.builtin_family(family), field)
    if field == "log_weight":
        def shifted(k):
            return form(k) + (1e-5 if k >= k_min else 0.0)
    else:
        def shifted(n):
            return form(n) + np.where(np.arange(n) >= k_min, 1e-5, 0.0)
    _replace_family(monkeypatch, family, **{field: shifted})


def _ladders(kind, family):
    return {f"gk.{kind}.J.{family}", f"gk.{kind}.S.{family}"}


def _shifted_moments(field, k_min):
    def mutate(monkeypatch, family):
        _shift_family(monkeypatch, family, field, k_min)
        membership = {"graph.identity_membership"} if family == "uniform_moment" else set()
        spot = _ladders("moments", family) if k_min < 41 else set()
        return _ladders("resolution", family) | membership | spot
    return mutate


def _shifted_log_rho(monkeypatch, family):
    log_rho = gk_states.builtin_family(family).log_rho
    _replace_family(monkeypatch, family, log_rho=lambda x: log_rho(x) + 1e-5)
    return _ladders("moments", family)


def _patch_code(monkeypatch, change):
    """Make every cut ``decompose`` returns ``change(code)``."""
    decompose = code_construction.decompose

    def changed(*args, **kwargs):
        return change(decompose(*args, **kwargs))
    monkeypatch.setattr(code_construction, "decompose", changed)


def _patch_frame(monkeypatch, change):
    """Make every dressed frame the run builds ``change(frame)``."""
    frame_of = code_construction.dressed_frame

    def changed(*args):
        return change(frame_of(*args))
    for module in (code_construction, cli):
        monkeypatch.setattr(module, "dressed_frame", changed)


def _drop_h3_index(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, h3_indices=code.h3_indices[1:]))
    return {"graph.identity_membership"}


def _stretch(frame, scale, blocks=slice(None)):
    """The frame with c and s scaled by ``scale`` on ``blocks`` (block n at n - 1)."""
    cos, sin = frame.cos.copy(), frame.sin.copy()
    cos[blocks] *= scale
    sin[blocks] *= scale
    return dataclasses.replace(frame, cos=cos, sin=sin)


def _frame_off_unit_norm(monkeypatch, family):
    _patch_frame(monkeypatch, lambda frame: _stretch(frame, np.sqrt(1.0 + 1e-9)))
    return {"spectrum.gram_identity", "graph.anticlique_alpha_identity",
            "channel.trace_preservation"} | STABILITY


def _frame_stretched_from_block_20(monkeypatch, family):
    _patch_frame(monkeypatch,
                 lambda frame: _stretch(frame, np.sqrt(1.0 + 1e-8), slice(19, None)))
    return {"spectrum.gram_identity", "channel.input"} | STABILITY


def _frame_energies_scaled(monkeypatch, family):
    _patch_frame(monkeypatch, lambda frame: dataclasses.replace(
        frame, energies=frame.energies * (1.0 + 1e-6)))
    return {"spectrum.eigen_residual"} | STABILITY


def _s_energies_swapped(monkeypatch, family):
    def swapped(frame):
        energies = frame.energies.copy()
        energies[[100, 102]] = energies[[102, 100]]  # |50, -> and |51, ->
        return dataclasses.replace(frame, energies=energies)
    _patch_frame(monkeypatch, swapped)
    return {"spectrum.eigen_residual", "gk.energy_order"}


def _cut_minimum_one_too_high(monkeypatch, family):
    """``decompose`` reads max(3, M0) one too high, so it refuses the minimal cut."""
    decompose = code_construction.decompose

    def raised(params, k0, trunc, m0):
        return decompose(params, k0, trunc, code_construction.minimal_k0(m0) + 1)
    monkeypatch.setattr(code_construction, "decompose", raised)
    return {"code.cut_constraint"}


def _h3_index_swapped_for_j_rung(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, h3_indices=np.append(code.h3_indices[:-1], code.j_indices[0])))
    return {"graph.identity_membership", "graph.anticlique", "graph.anticlique_alpha_zero"}


def _h3_basis_scaled(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, frame=_stretch(code.frame, 1.0 + 1e-10, slice(code.k0 - 1))))
    return {"spectrum.gram_identity", "graph.anticlique_alpha_identity",
            "channel.trace_preservation"}


def _leak_probe_scaled(monkeypatch, family):
    leak_probe = graph_verify.leak_probe

    def scaled(*args):
        return (1.0 + 1e-9) * leak_probe(*args)
    monkeypatch.setattr(graph_verify, "leak_probe", scaled)
    return {"channel.input"}


def _s_cut_moved_down(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, s_indices=np.concatenate([code.s_indices[:1] - 2, code.s_indices])))
    return {"graph.anticlique", "graph.anticlique_alpha_zero"}


def _j_on_minus_branch(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, j_indices=code.j_indices + 1))
    return {"graph.identity_membership", "graph.anticlique",
            "graph.anticlique_alpha_zero", "channel.input"}


def _code_index_on_s_rung(monkeypatch, family):
    channel = cli._channel

    def widened(code, families, x, t):
        # the channel's code reads S's first rung as one more code index
        h3 = code.h3_indices
        wider = dataclasses.replace(code, h3_indices=np.concatenate(
            [h3[:-1], code.s_indices[:1], h3[-1:]]))
        return channel(wider, families, x, t)
    monkeypatch.setattr(cli, "_channel", widened)
    return {"channel.code_fidelity"}


def _leak_probe_not_leaked(monkeypatch, family):
    def code_vector(code, a1):
        v = np.zeros(code.frame.energies.size, dtype=complex)
        v[code.h3_indices[0]] = 1.0
        return v
    monkeypatch.setattr(graph_verify, "leak_probe", code_vector)
    return {"channel.leak_control"}


MUTATIONS = {
    "log_weight+1e-5@k>=500": _shifted_moments("log_weight", 500),
    "log_moments+1e-5@k>=500": _shifted_moments("log_moments", 500),
    "log_weight+1e-5@k>=10": _shifted_moments("log_weight", 10),
    "log_rho+1e-5": _shifted_log_rho,
    "h3_index_dropped": _drop_h3_index,
    "frame_off_unit_norm": _frame_off_unit_norm,
    "frame_stretched@n>=20": _frame_stretched_from_block_20,
    "frame_energies*(1+1e-6)": _frame_energies_scaled,
    "s_energies_swapped": _s_energies_swapped,
    "cut_minimum_one_too_high": _cut_minimum_one_too_high,
    "h3_index_swapped_for_j_rung": _h3_index_swapped_for_j_rung,
    "h3_basis*(1+1e-10)": _h3_basis_scaled,
    "leak_probe*(1+1e-9)": _leak_probe_scaled,
    "s_cut_moved_down_one_rung": _s_cut_moved_down,
    "j_read_on_minus_branch": _j_on_minus_branch,
    "code_index_on_s_rung": _code_index_on_s_rung,
    "leak_probe_not_leaked": _leak_probe_not_leaked,
}
# a 160-rung ladder has no k >= 500
N_FOCK = {"log_weight+1e-5@k>=500": 2000, "log_moments+1e-5@k>=500": 2000}


def _phases_reversed(monkeypatch, family):
    """|x, t> built as |x, -t>: every record reads the spectrum, not the phases."""
    phases = gk_states._phases

    def reversed_(spec, y):
        return phases(spec, -np.asarray(y, dtype=float))
    for module in (gk_states, graph_verify):
        monkeypatch.setattr(module, "_phases", reversed_)


def _probabilities_skewed(monkeypatch, family):
    """p_k x (1 + 1e-3 k / K), which ``ladder_vector`` renormalizes: no record
    reads the amplitudes of a GK state."""
    probabilities = gk_states.WeightFamily.probabilities

    def skewed(self, x, k_max):
        return probabilities(self, x, k_max) * (1.0 + 1e-3 * np.arange(k_max + 1) / k_max)
    monkeypatch.setattr(gk_states.WeightFamily, "probabilities", skewed)


UNDETECTED = {
    "phases_reversed": _phases_reversed,
    "probabilities_skewed": _probabilities_skewed,
}


def _report(family, n_fock=N):
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 0.8, "kappa": 0.7,
                                  "n_fock": n_fock, "family1": family, "family2": family})
    return {c.name: c for c in cli.run_verification(cfg).checks}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_unmutated_run_passes(family):
    for n_fock in {N, *N_FOCK.values()}:
        report = _report(family, n_fock)
        assert all(c.passed for c in report.values())
        assert "graph.identity_membership" in report


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_each_mutation_fails_exactly_its_records(monkeypatch, mutation, family):
    expected = MUTATIONS[mutation](monkeypatch, family)
    report = _report(family, N_FOCK.get(mutation, N))
    assert {name for name, c in report.items() if not c.passed} == expected
    if mutation == "h3_index_dropped":
        assert report["graph.identity_membership"].residual == 1.0
    if mutation == "log_weight+1e-5@k>=500":
        for name in _ladders("resolution", family):
            assert report[name].residual == pytest.approx(5.06e-6, rel=1e-2)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_record_fails_under_some_mutation(family):
    caught = set()
    for mutate in MUTATIONS.values():
        with pytest.MonkeyPatch.context() as mp:
            caught |= mutate(mp, family)
    assert caught == set(_report(family)) | REFUSALS


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("fault", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason="no record reads it"))
    for name in UNDETECTED])
def test_an_undetected_fault_fails_a_record(monkeypatch, fault, family):
    UNDETECTED[fault](monkeypatch, family)
    assert not all(c.passed for c in _report(family).values())


@pytest.mark.parametrize("mutation, message", [
    ("frame_stretched@n>=20", "channel projector 0 is not idempotent: "),
    ("leak_probe*(1+1e-9)", "rho has trace 1.00000000"),
])
def test_a_channel_refusal_is_a_failed_check(monkeypatch, capsys, mutation, message):
    """The channel's refusal is the report's last record, ``channel.input``: the
    report is written with every earlier record, exit 1, the reason on stderr."""
    MUTATIONS[mutation](monkeypatch, "factorial")
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--n-fock", str(N), "--family1", "factorial", "--family2", "factorial"])
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert rc == 1
    names = [c["name"] for c in checks]
    # the 12 records before the channel's, then the refusal in place of its three
    assert (len(names), names[0]) == (13, "spectrum.eigen_residual")
    assert names[-2:] == ["graph.anticlique_alpha_identity", "channel.input"]
    refusal = checks[-1]
    assert (refusal["residual"], refusal["tolerance"], refusal["pass"]) == (1.0, 0.0, False)
    line = next(line for line in err.splitlines() if "channel.input" in line)
    assert line.startswith("check failed: channel.input: residual 1.000e+00")
    assert f"; {message}" in line and "Traceback" not in err
