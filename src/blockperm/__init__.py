"""Exact computations with uniform block permutations.

The package covers the diagram monoid (composition, generators, inverse
structure, enumeration, the weak order), the graded Hopf algebra it spans
(shuffle product, breaking-point coproduct, antipode, self-duality pairing,
triangular bases), symmetric functions in non-commuting variables on the
power-sum basis, and exact tensor-power actions with their commutation and
rank checks.
"""

from blockperm.hopf import Element, TensorElement
from blockperm.monoid import UniformBlockPermutation
from blockperm.partitions import PartitionType, SetPartition
from blockperm.perms import Permutation

__version__ = "0.1.0"


def kernel_backend() -> str:
    """The composition kernel in use; the only one is "python"."""
    return "python"


__all__ = [
    "Element",
    "PartitionType",
    "Permutation",
    "SetPartition",
    "TensorElement",
    "UniformBlockPermutation",
    "kernel_backend",
    "__version__",
]
