"""The temporal-stability grid, a test oracle for the closed-form bound.

`verify` reports the bound of ``gk_states.verify_temporal_stability``; the
tests check that this grid of fidelities lies under it.
"""
import numpy as np

from jcgraph.gk_states import tail_mass


def stability_grid(spec, xs, ts, trunc) -> np.ndarray:
    """The (len(xs), len(ts)) array of fidelities |<x, t| U_t |x, 0>|^2.

    Both states are read in dressed coordinates, on the ladder's indices:
    |x, t> has amplitudes sqrt(p_k(x)) e^{-i h_k t}, with h the ladder's
    ``energies``, and U_t |x, 0> has sqrt(p_k(x)) e^{-i E_k t}, with E the
    frame's energies at the same indices.  The frame's block rotation is
    orthogonal, so each fidelity is |sum_k p_k(x) e^{+i h_k t} e^{-i E_k t}|^2
    and the grid is one (len(xs), terms) @ (terms, len(ts)) product.  Every
    x's tail must be within ``trunc.tail_tol``, and all amplitudes come from
    one ``probabilities`` call.
    """
    xs = [float(x) for x in xs]
    ts = np.asarray(ts, dtype=float)
    ladder_phases = np.exp(-1j * np.outer(spec.energies, ts))
    frame_phases = np.exp(-1j * np.outer(spec.frame.energies[spec.index], ts))
    for x in xs:
        assert tail_mass(spec.family, x, spec.terms - 1) <= trunc.tail_tol
    p = spec.family.probabilities(xs, spec.terms - 1)
    return np.abs(p @ (ladder_phases.conj() * frame_phases)) ** 2
