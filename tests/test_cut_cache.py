"""``decompose`` keeps its last cuts per process.

A warm cache must answer exactly what a cold one computes, keep no error,
and hand out arrays that nobody can write to; the commands then build one
frame per operating point however often they run there.
"""
import dataclasses

import numpy as np
import pytest

from jcgraph import cli
from jcgraph import code_construction as cc
from jcgraph.code_construction import decompose
from jcgraph.hilbert import TruncationConfig
from jcgraph.jc_spectrum import JCParams

POINT = ["--omega-f", "1", "--omega-s", "0.8", "--kappa", "0.7"]
ARRAYS = ("h3_indices", "j_indices", "s_indices")


def _outcome(*args):
    """The cut's arrays as raw bytes with their dtype, or the error type.

    The dtype tells a cut at k0 = 3.0 from one at 3 and the bytes tell -0.0
    from 0.0, where == does not.
    """
    try:
        code = decompose(*args)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc)
    frame = code.frame
    return tuple(a.dtype.str + a.tobytes().hex()
                 for a in (frame.cos, frame.sin, frame.energies,
                           *(getattr(code, name) for name in ARRAYS)))


@pytest.mark.parametrize("first, second", [
    ((JCParams(1, 1.2, 0.0), 3, TruncationConfig(20)),
     (JCParams(1, 1.2, -0.0), 3, TruncationConfig(20))),
    ((JCParams(1, 0.8, 0.7), 3, TruncationConfig(20)),
     (JCParams(1, 0.8, 0.7), 3, TruncationConfig(np.int64(20)))),
    ((JCParams(1, 0.8, 0.7), 3, TruncationConfig(20)),
     (JCParams(1, 0.8, 0.7), 3.0, TruncationConfig(20))),
    ((JCParams(1, 0.8, 0.7), 3, TruncationConfig(20), 1),
     (JCParams(1, 0.8, 0.7), 3, TruncationConfig(20), 1.0)),
], ids=["kappa-signed-zero", "n_fock-numpy-int", "k0-float", "m0-float"])
def test_a_warm_cache_answers_what_a_cold_one_computes(first, second):
    """Equal keys give equal results: compare ``second`` cold and behind ``first``."""
    assert first == second and hash(first) == hash(second)
    cold = _outcome(*second)
    decompose.cache_clear()
    _outcome(*first)
    assert _outcome(*second) == cold


def test_a_float_cutoff_is_refused():
    """TruncationConfig(20.0) would equal TruncationConfig(20) but break the cut."""
    with pytest.raises(TypeError):
        TruncationConfig(20.0)
    assert type(TruncationConfig(np.int64(20)).n_fock) is int


def test_cached_cut_arrays_are_read_only():
    code = decompose(JCParams(1, 0.8, 0.7), 3, TruncationConfig(20))
    assert decompose(JCParams(1, 0.8, 0.7), 3, TruncationConfig(20)) is code
    frame = code.frame
    for a in (frame.cos, frame.sin, frame.energies,
              *(getattr(code, name) for name in ARRAYS)):
        with pytest.raises(ValueError):
            a[0] = a[0]


@pytest.mark.parametrize("args, error", [
    ((JCParams(1, 0.8, 0.7), 2, TruncationConfig(20)), cc.CutConstraintError),
    ((JCParams(1, 0.8, 0.7), 20, TruncationConfig(20)), cc.CutConstraintError),
    ((JCParams.from_rates(8, 8), 3, TruncationConfig(20)), cc.EnergyOrderError),
], ids=["below-three", "at-the-cutoff", "below-m0"])
def test_an_inadmissible_cut_raises_on_every_call(args, error):
    for _ in range(2):
        with pytest.raises(error):
            decompose(*args)
    assert decompose.cache_info().currsize == 0


def test_a_non_orthonormal_frame_is_cut_and_fails_its_records(monkeypatch):
    """``decompose`` holds no H3 basis to refuse: a frame with c doubled is cut
    and kept, and the report reads its H3 columns off unit norm instead."""
    frame = cc.dressed_frame

    def stretched(params, trunc):
        f = frame(params, trunc)
        return dataclasses.replace(f, cos=2.0 * f.cos)
    monkeypatch.setattr(cc, "dressed_frame", stretched)
    cfg = cli.resolve_run_config({"omega_f": 1.0, "omega_s": 0.8, "kappa": 0.7,
                                  "n_fock": 20})
    report = {c.name: c for c in cli.run_verification(cfg).checks}
    assert decompose.cache_info().currsize == 1
    assert "code.cut_constraint" not in report
    for name in ("spectrum.gram_identity", "graph.anticlique_alpha_identity"):
        assert not report[name].passed


def test_twenty_demos_at_one_point_build_one_frame(monkeypatch, capsys):
    built = []
    frame = cc.dressed_frame

    def counted(params, trunc):
        built.append(params)
        return frame(params, trunc)
    monkeypatch.setattr(cc, "dressed_frame", counted)
    for i in range(20):
        argv = ["demo", *POINT, "--n-fock", "120", "--x", str(0.04 * i),
                "--t", str(0.5 * i), "--seed", str(i)]
        rc = cli.main(argv + (["--allow-leak"] if i == 19 else []))
        assert rc == (1 if i == 19 else 0)
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["demo", *POINT, "--n-fock", "20"],
    ["demo", *POINT, "--n-fock", "20", "--state", "basis1", "--x", "0.3", "--t", "2.5"],
    ["demo", *POINT, "--n-fock", "20", "--state", "1,1j", "--x", "0.1"],
    ["demo", *POINT, "--n-fock", "20", "--allow-leak"],
    ["gk-dump", *POINT, "--n-fock", "20", "--which", "S", "--xs", "0,0.5"],
    ["verify", *POINT, "--n-fock", "30", "--family1", "factorial",
     "--family2", "factorial"],
    ["verify", "--omega-f", "1", "--omega-s", "1.2", "--kappa", "0.7", "--n-fock", "30"],
], ids=["demo-random", "demo-basis", "demo-amplitudes", "demo-leak", "gk-dump",
        "verify-factorial", "verify-uniform"])
def test_warm_and_cold_runs_print_the_same(argv, capsys):
    runs = []
    for _ in range(2):
        rc = cli.main(argv)
        runs.append((rc, *capsys.readouterr()))
    assert decompose.cache_info().hits >= 1
    assert runs[0] == runs[1]
