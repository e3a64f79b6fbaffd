"""Mutations of the library and the ``verify`` records that must catch them.

Each entry of ``MUTATIONS`` patches the library the way a fault would
(mutation analysis: DeMillo, Lipton and Sayward, Computer 11(4), 1978) and
names the records that must fail under it, no more and no fewer.  Every
mutation runs with both weight families on both ladders at N = 2000, and
the unmutated run must pass.

- ``log_weight`` + 1e-5 for k >= 500: d_k - 1 is -1e-5 there, and the
  block weights c^2 ~ 1/2 halve it to a residual of 5.06e-6, over the
  resolution's 1e-6.  A shift of 1e-6 halves to 5e-7 and trips nothing.
  Identity membership reads the uniform_moment family, so only that
  family's shift reaches it.
- The family's second form of log int rho x^k dx, shifted the same way.
- One H3 index dropped from the cut: |0, g> keeps no weight, so the
  reconstructed identity reads 0 there (residual 1).
- A frame with c^2 + s^2 = 1 + 1e-9: ``spectrum.gram_identity`` fails, and
  ``decompose`` refuses its H3 basis (``code.cut_constraint``), which ends
  the report.  Each column is still an eigenvector, so
  ``spectrum.eigen_residual`` passes.
"""
import dataclasses

import numpy as np
import pytest

from jcgraph import cli, code_construction, gk_states

N = 2000
FAMILIES = ("factorial", "uniform_moment")


def _shift_family(monkeypatch, family, field):
    """Add 1e-5 to the family's ``field`` (a per-k or a per-table form) at k >= 500."""
    fam = gk_states.builtin_family(family)
    form = getattr(fam, field)
    if field == "log_weight":
        def shifted(k):
            return form(k) + (1e-5 if k >= 500 else 0.0)
    else:
        def shifted(n):
            return form(n) + np.where(np.arange(n) >= 500, 1e-5, 0.0)
    monkeypatch.setitem(gk_states._BUILTIN_FAMILIES, family,
                        dataclasses.replace(fam, **{field: shifted}))


def _resolution(family):
    return {f"gk.resolution.J.{family}", f"gk.resolution.S.{family}"}


def _shifted_moments(field):
    def mutate(monkeypatch, family):
        _shift_family(monkeypatch, family, field)
        membership = {"graph.identity_membership"} if family == "uniform_moment" else set()
        return _resolution(family) | membership
    return mutate


def _drop_h3_index(monkeypatch, family):
    decompose = code_construction.decompose

    def dropped(*args, **kwargs):
        code = decompose(*args, **kwargs)
        return dataclasses.replace(code, h3_indices=code.h3_indices[1:])
    monkeypatch.setattr(code_construction, "decompose", dropped)
    return {"graph.identity_membership"}


def _frame_off_unit_norm(monkeypatch, family):
    frame_of = code_construction.dressed_frame
    scale = np.sqrt(1.0 + 1e-9)

    def stretched(*args):
        frame = frame_of(*args)
        return dataclasses.replace(frame, cos=scale * frame.cos, sin=scale * frame.sin)
    for module in (code_construction, cli):
        monkeypatch.setattr(module, "dressed_frame", stretched)
    return {"spectrum.gram_identity", "code.cut_constraint"}


MUTATIONS = {
    "log_weight+1e-5@k>=500": _shifted_moments("log_weight"),
    "log_moments+1e-5@k>=500": _shifted_moments("log_moments"),
    "h3_index_dropped": _drop_h3_index,
    "frame_off_unit_norm": _frame_off_unit_norm,
}


def _report(family):
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 0.8, "kappa": 0.7,
                                  "n_fock": N, "family1": family, "family2": family})
    return {c.name: c for c in cli.run_verification(cfg).checks}


@pytest.mark.parametrize("family", FAMILIES)
def test_the_unmutated_run_passes(family):
    report = _report(family)
    assert all(c.passed for c in report.values())
    assert "graph.identity_membership" in report


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_each_mutation_fails_exactly_its_records(monkeypatch, mutation, family):
    expected = MUTATIONS[mutation](monkeypatch, family)
    report = _report(family)
    assert {name for name, c in report.items() if not c.passed} == expected
    if mutation == "h3_index_dropped":
        assert report["graph.identity_membership"].residual == 1.0
    if mutation.startswith("log_weight"):
        for name in _resolution(family):
            assert report[name].residual == pytest.approx(5.06e-6, rel=1e-2)
