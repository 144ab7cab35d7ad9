"""Distance-based multiparticle-entanglement values and accessible lower bounds.

Exact closed forms for two reference families of N-qubit mixed states
(triple-correlation states and GHZ-diagonal states), brute-force oracles
verifying every formula, local-rotation optimisation of the accessible
bounds, and measurement-data ingestion with propagated uncertainty.
"""

from .errors import (
    CapacityError,
    EntboundError,
    ParameterError,
    SchemaError,
    StateValidityError,
    UnsupportedDistanceError,
)
from .qstate import (
    CorrelationTriple,
    DenseState,
    M3NState,
    StateFamily,
    build_state,
    m3n_density,
)
from .pauli import (
    CorrelationTensor,
    LocalRotation,
    correlation_tensor,
    correlation_triple,
    rotated_triple,
    so3_from_angles,
)
from .locc import (
    GHZBasisIndex,
    GHZDiagonalState,
    ghz_diagonalise,
)
from .measures import (
    DistanceKind,
    EntanglementReport,
    SeparabilityLevel,
    classical_distance,
    entanglement_m3n,
    genuine_from_overlap,
    genuine_ghz_diag,
    lower_bound_from_triple,
    octahedron_excess,
)
from .optimize import OptimisationOptions, optimise_ghz_overlap, optimise_triple

__version__ = "0.1.0"
from .estimate import (
    MeasurementRecord,
    TripleEstimate,
    bound_with_uncertainty,
    counts_to_triple,
    genuine_bound_with_uncertainty,
    ingest_correlation_file,
    simulate_measurements,
)
from .oracle import (
    OracleConfig,
    brute_min_biseparable_ghz,
    brute_min_over_octahedron,
)
