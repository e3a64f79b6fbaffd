"""Mutations of the library and the ``verify`` records that must catch them.

Each entry of ``MUTATIONS`` patches the library the way a fault would
(mutation analysis: DeMillo, Lipton and Sayward, Computer 11(4), 1978) and
names the records that must fail under it, no more and no fewer, or the
error that must end the run.  Every mutation runs with both weight families
on both ladders at the default point 1 / 0.8 / 0.7 (k0 = 3, seed 7), at
N = 160 unless ``N_FOCK`` says otherwise, and the unmutated run must pass.
Every record a report can hold, the two refusals of the cut included, fails
under at least one mutation.

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
- A frame with c^2 + s^2 = 1 + 1e-9: ``spectrum.gram_identity`` fails, and
  ``decompose`` refuses its H3 basis (``code.cut_constraint``), which ends
  the report.  Each column is still an eigenvector, so
  ``spectrum.eigen_residual`` passes.
- The same stretch, 1 + 1e-8, on blocks n >= 20 only: the H3 basis is
  intact, so ``decompose`` accepts the frame.  Under factorial the sampled
  ladder vectors sit on those blocks and are 5e-9 off unit norm, and the
  channel refuses them (``ValidationError``).  Under uniform_moment they sit
  on the first rungs and pass; ``spectrum.gram_identity`` reads 1e-8 and
  both stability bounds 2e-8.
- Frame energies x (1 + 1e-6): the eigen residual reads 1.6e-4, which the
  stability bound squares to 2.7e-6.
- Two S energies swapped (|50, -> and |51, ->): the S ladder decreases
  there, so the cut is refused (``gk.energy_order``).
- The first code vector mixed with the first J rung at 3e-5: the J
  generator at the smallest sampled x reads |alpha| = 1.7e-10 (factorial)
  and 3.0e-10 (uniform_moment) through it, while the anticlique residual
  (at most 1.5e-9) and the code states' fidelity loss (at most 5e-10) stay
  within their tolerances.
- ``h3_basis`` scaled by 1 + 1e-10: alpha(I) = 1 + 2e-10, and each code
  state's trace is off by as much.  The code basis alone scaled by
  1 + 1e-9 gives code states off unit norm by 2e-9, which the channel
  refuses as input (``InvalidDensityError``).
- The S cut moved down one rung, onto |k0 - 1, ->, a vector of H3.
- The code basis, and only it, leaked 1e-3 onto the S rung that the first
  channel sample weighs most: that state loses 8.6e-8 (factorial) and
  4.9e-7 (uniform_moment) of fidelity.
- The leak probe not leaked: it passes the channel unchanged.

``UNDETECTED`` holds faults that no record reads, as strict xfails: the
day a record catches one, its test passes and fails the suite.
"""
import dataclasses

import numpy as np
import pytest

from jcgraph import cli, code_construction, gk_states, graph_verify
from jcgraph.graph_verify import InvalidDensityError
from jcgraph.hilbert import ValidationError

N = 160
FAMILIES = ("factorial", "uniform_moment")
REFUSALS = {"gk.energy_order", "code.cut_constraint"}
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


def _with_h3_basis(code, w):
    return dataclasses.replace(code, h3_basis=w, code_basis=w[:, :code.k0 - 1])


def _drop_h3_index(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, h3_indices=code.h3_indices[1:]))
    return {"graph.identity_membership"}


def _stretch(frame, scale, first_block=1):
    cos, sin = frame.cos.copy(), frame.sin.copy()
    cos[first_block - 1:] *= scale
    sin[first_block - 1:] *= scale
    return dataclasses.replace(frame, cos=cos, sin=sin)


def _frame_off_unit_norm(monkeypatch, family):
    _patch_frame(monkeypatch, lambda frame: _stretch(frame, np.sqrt(1.0 + 1e-9)))
    return {"spectrum.gram_identity", "code.cut_constraint"}


def _frame_stretched_from_block_20(monkeypatch, family):
    _patch_frame(monkeypatch, lambda frame: _stretch(frame, np.sqrt(1.0 + 1e-8), 20))
    if family == "factorial":
        return ValidationError
    return {"spectrum.gram_identity"} | STABILITY


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


def _code_vector_mixed_with_j_rung(monkeypatch, family):
    def mixed(code):
        w = code.h3_basis.copy()
        rung = code.frame.embed(code.j_indices[:1], np.eye(1))[:, 0]
        w[:, 0] = (w[:, 0] + 3e-5 * rung) / np.sqrt(1.0 + 9e-10)
        return _with_h3_basis(code, w)
    _patch_code(monkeypatch, mixed)
    return {"graph.anticlique_alpha_zero"}


def _h3_basis_scaled(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: _with_h3_basis(code, (1.0 + 1e-10) * code.h3_basis))
    return {"graph.anticlique_alpha_identity", "channel.trace_preservation"}


def _code_basis_scaled(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, code_basis=(1.0 + 1e-9) * code.code_basis))
    return InvalidDensityError


def _s_cut_moved_down(monkeypatch, family):
    _patch_code(monkeypatch, lambda code: dataclasses.replace(
        code, s_indices=np.concatenate([code.s_indices[:1] - 2, code.s_indices])))
    return {"graph.anticlique", "graph.anticlique_alpha_zero"}


def _code_leaked_onto_sampled_rung(monkeypatch, family):
    channel = cli._channel

    def leaked(code, families, amps, xs, ts):
        spec = families[1]
        k = int(spec.family.probabilities(xs[0], spec.terms - 1).argmax())
        basis = code.code_basis.copy()
        rung = code.frame.embed(spec.index[k:k + 1], np.eye(1))[:, 0]
        basis[:, 0] = (basis[:, 0] + 1e-3 * rung) / np.sqrt(1.0 + 1e-6)
        return channel(dataclasses.replace(code, code_basis=basis), families, amps, xs, ts)
    monkeypatch.setattr(cli, "_channel", leaked)
    return {"channel.code_fidelity"}


def _leak_probe_not_leaked(monkeypatch, family):
    monkeypatch.setattr(graph_verify, "leak_probe",
                        lambda code, families, x, t: code.code_basis[:, 0])
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
    "code_vector_mixed_with_j_rung@3e-5": _code_vector_mixed_with_j_rung,
    "h3_basis*(1+1e-10)": _h3_basis_scaled,
    "code_basis*(1+1e-9)": _code_basis_scaled,
    "s_cut_moved_down_one_rung": _s_cut_moved_down,
    "code_basis_leaked_onto_sampled_s_rung": _code_leaked_onto_sampled_rung,
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
    n_fock = N_FOCK.get(mutation, N)
    if isinstance(expected, type):
        with pytest.raises(expected):
            _report(family, n_fock)
        return
    report = _report(family, n_fock)
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
            expected = mutate(mp, family)
        caught |= expected if isinstance(expected, set) else set()
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
    ("code_basis*(1+1e-9)", "rho has trace 1.000000002"),
])
def test_a_channel_refusal_is_a_failed_check(monkeypatch, capsys, mutation, message):
    """The channel's refusal ends ``verify`` with exit 1 and one stderr line."""
    MUTATIONS[mutation](monkeypatch, "factorial")
    rc = cli.main(["verify", "--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7",
                   "--n-fock", str(N), "--family1", "factorial", "--family2", "factorial"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"check failed: {message}")
    assert "Traceback" not in err and err.count("\n") == 1
