"""costglue: cost-and-behavior verification via abstraction functions.

The library pairs concrete data structure implementations with abstract
models through explicit abstraction functions, tracks cost as a writer
effect, packages implementations under checked cost specifications, and
ships a differential property harness plus reference case studies
(batched queues, red-black tree sequences, comparison-counting sorts).
"""

from .cost import MAX_COST, Charged, Cost, ZERO, as_cost, bind, charge, erase, leq, ret
from .phase import (
    AbstractionFn,
    CoherenceError,
    EvaluationMode,
    GluedValue,
    abstract_equal,
    fracture,
    glue,
    spec_member,
)
from .sealing import (
    BoundViolation,
    Sealed,
    reseal,
    seal,
    seal_charge,
    seal_join,
    seal_return,
    sealed_beh_eq,
    unseal_abstract,
    unseal_concrete,
)

__all__ = [
    "MAX_COST",
    "Charged",
    "Cost",
    "ZERO",
    "as_cost",
    "bind",
    "charge",
    "erase",
    "leq",
    "ret",
    "AbstractionFn",
    "CoherenceError",
    "EvaluationMode",
    "GluedValue",
    "abstract_equal",
    "fracture",
    "glue",
    "spec_member",
    "BoundViolation",
    "Sealed",
    "reseal",
    "seal",
    "seal_charge",
    "seal_join",
    "seal_return",
    "sealed_beh_eq",
    "unseal_abstract",
    "unseal_concrete",
]

__version__ = "0.1.0"
