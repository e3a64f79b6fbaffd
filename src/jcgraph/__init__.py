"""Zero-error codes for a qubit coupled to an oscillator.

The package builds the dressed spectrum of the Jaynes-Cummings model,
cuts the dressed basis into three invariant subspaces, attaches
generalized coherent states to the two infinite ladders, and verifies
numerically that the resulting operator graph admits the middle subspace
as an anticlique, i.e. as a code passing every error-correction identity
exactly.  All computations run on a truncated Fock space with certified
truncation-tail bounds.

The root re-exports the names of the README's library example and
``QuadratureRule`` and ``dressed_basis``; every other name is imported
from its own module.
"""
from .hilbert import QuadratureRule, TruncationConfig
from .jc_spectrum import JCParams, dressed_basis
from .code_construction import decompose, minimal_k0, minimal_m0
from .gk_states import builtin_family, jc_families, verify_resolution
from .graph_verify import anticlique_certificate

__version__ = "0.1.0"

__all__ = [
    "JCParams",
    "QuadratureRule",
    "TruncationConfig",
    "anticlique_certificate",
    "builtin_family",
    "decompose",
    "dressed_basis",
    "jc_families",
    "minimal_k0",
    "minimal_m0",
    "verify_resolution",
]
