"""The public surface: what ``import entbound`` exports, and each module's ``__all__``."""

import importlib
import pkgutil
import types

import entbound

#: removing a name here is an API change; CHANGES.md lists each one removed
EXPORTS = {
    "CapacityError", "CorrelationTensor", "CorrelationTriple", "DenseState", "DistanceKind",
    "EntanglementReport", "EntboundError", "GHZBasisIndex", "GHZDiagonalState", "LocalRotation",
    "M3NState", "MeasurementRecord", "OptimisationOptions", "OracleConfig", "ParameterError",
    "SchemaError", "SeparabilityLevel", "StateFamily", "StateValidityError", "TripleEstimate",
    "UnsupportedDistanceError", "bound_with_uncertainty", "brute_min_biseparable_ghz",
    "brute_min_over_octahedron", "build_state", "classical_distance", "correlation_tensor",
    "correlation_triple", "counts_to_triple", "entanglement_m3n",
    "genuine_bound_with_uncertainty", "genuine_from_overlap", "genuine_ghz_diag",
    "ghz_diagonalise", "ingest_correlation_file", "lower_bound_from_triple", "m3n_density",
    "octahedron_excess", "optimise_ghz_overlap", "optimise_triple", "rotated_triple",
    "simulate_measurements", "so3_from_angles",
}


def test_exports_are_pinned_and_every_all_entry_resolves():
    exported = {
        name for name, value in vars(entbound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
    for info in pkgutil.iter_modules(entbound.__path__):
        module = importlib.import_module(f"entbound.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"entbound.{info.name}.__all__ names {missing}"
