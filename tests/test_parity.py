"""Every command line of the parity corpus (``tests/parity/``) keeps its report,
by the rules of ``parity_corpus``."""
import numpy as np
import pytest

from parity_corpus import CASES, CORPUS, SEEDS, load, mismatches, run

SEEDED = [f"{base}-seed{seed}" for base in ("verify-factorial-n160-ws0.8",
                                            "verify-uniform_moment-n160-ws0.8")
          for seed in SEEDS]


def test_the_corpus_holds_every_case_and_nothing_else():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_keeps_its_corpus_report(name):
    want = load(name)
    assert want["argv"] == CASES[name]
    assert mismatches(want, run(want["argv"])) == []


@pytest.mark.parametrize("name", SEEDED)
def test_a_verify_report_reads_no_seed(name):
    """The corpus holds the same verify at other seeds, each byte for byte the
    report of the default seed."""
    seeded, default = load(name), load(name.rsplit("-seed", 1)[0])
    assert seeded["argv"] == default["argv"] + ["--seed", name.rsplit("-seed", 1)[1]]
    assert (seeded["exit"], seeded["stdout"]) == (default["exit"], default["stdout"])


@pytest.mark.parametrize("name", ["verify-factorial-n160-ws0.8",
                                  "verify-uniform_moment-n160-ws0.8", "verify-mixed-n160"])
def test_verify_builds_no_random_generator(monkeypatch, name):
    """verify draws nothing: with ``default_rng`` raising it prints the same report."""
    argv = load(name)["argv"]
    plain = run(argv)

    def refused(*args, **kwargs):
        raise AssertionError("verify built a random generator")
    monkeypatch.setattr(np.random, "default_rng", refused)
    assert run(argv) == plain and plain["exit"] == 0


@pytest.mark.parametrize("name", ["verify-factorial-n160-ws0.8", "demo-factorial-default"])
def test_out_writes_the_report_and_prints_nothing(tmp_path, name):
    """With ``--out FILE`` stdout is empty and FILE holds, byte for byte, what the
    same command prints without it, which keeps the corpus report."""
    argv, dest = load(name)["argv"], tmp_path / "report"
    written = run(argv + ["--out", str(dest)])
    assert (written["exit"], written["stdout"]) == (load(name)["exit"], "")
    plain = run(argv)
    assert dest.read_text() == plain["stdout"]
    assert mismatches(load(name), plain) == []
