"""Sub-ensemble statistics for density operators.

Decomposes quantum states into symmetric-product terms over measurement
bases, builds joint quasi-probability tables with genuine marginals and
possibly negative entries, and ships a verified four-outcome entangled
two-qubit measurement whose exclusion pattern those negative entries explain.
"""

from .operators import (
    ATOL,
    PauliExpansion,
    almost_equal,
    fix_global_phase,
    is_projector,
    pauli_expand,
    pauli_matrix,
    pauli_strings,
    pauli_synthesize,
    projector_from_ket,
    symmetric_product,
)
from .scenario import (
    ContributionTable,
    EtaBasis,
    ParadoxReport,
    ScenarioConsistencyError,
    contribution_table,
    eta_basis,
    eta_projector,
    outcome_probability,
    verify_paradox,
)
from .states import (
    ProductPreparation,
    preparation_density,
    product_input,
    standard_ket,
)
from .subensemble import (
    JointQuasiDistribution,
    MeasurementBasis,
    SubensembleOperator,
    assignment_operator,
    basis_from_kets,
    decompose,
    mh_joint,
    named_basis,
    negativity,
    validate_density,
    x_basis,
    z_basis,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "ContributionTable",
    "EtaBasis",
    "JointQuasiDistribution",
    "MeasurementBasis",
    "ParadoxReport",
    "PauliExpansion",
    "ProductPreparation",
    "ScenarioConsistencyError",
    "SubensembleOperator",
    "almost_equal",
    "assignment_operator",
    "basis_from_kets",
    "contribution_table",
    "decompose",
    "eta_basis",
    "eta_projector",
    "fix_global_phase",
    "is_projector",
    "mh_joint",
    "named_basis",
    "negativity",
    "outcome_probability",
    "pauli_expand",
    "pauli_matrix",
    "pauli_strings",
    "pauli_synthesize",
    "preparation_density",
    "product_input",
    "projector_from_ket",
    "standard_ket",
    "symmetric_product",
    "validate_density",
    "verify_paradox",
    "x_basis",
    "z_basis",
]
