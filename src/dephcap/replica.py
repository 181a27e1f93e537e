"""The names the benchmark reaches here by attribute; the logic is fock's.

bench/worker.py's tracer wraps gram_matrix (the solver calls it through
this module) and entropy_bruteforce_oracle; bench/test_bench.py calls
InputDistribution and shannon_entropy. The validation suite calls the
fock functions behind the two adapters directly, on stacks of inputs.
gram_matrix and InputDistribution are fock's own objects; the package
exports only InputDistribution.
"""

from __future__ import annotations

from . import fock
from .fock import DephasingParams, InputDistribution, gram_matrix


def entropy_bruteforce_oracle(p: InputDistribution, params: DephasingParams) -> float:
    """Entropy of the environment output for input p, in bits.

    fock.environment_entropy_bits takes it by one thin SVD of the environment
    table, independent of gram_matrix.
    """
    return fock.environment_entropy_bits(p.p, params)


def shannon_entropy(p: InputDistribution) -> float:
    """-sum p log2 p with 0 log 0 = 0, in bits: fock.shannon_bits."""
    return fock.shannon_bits(p.p)
