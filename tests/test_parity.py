"""Every command line of the parity corpus (``tests/parity/``) keeps its report,
by the rules of ``parity_corpus``."""
import pytest

from parity_corpus import CASES, CORPUS, load, mismatches, run


def test_the_corpus_holds_every_case_and_nothing_else():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_keeps_its_corpus_report(name):
    want = load(name)
    assert want["argv"] == CASES[name]
    assert mismatches(want, run(want["argv"])) == []
