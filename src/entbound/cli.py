"""Command-line front end.

Every subcommand prints machine-readable JSON on stdout (a human-readable
table with ``--pretty``) and exits 0. Input problems exit 2 with nothing on
stdout: usage and schema errors, unreadable input files, a JSON value of the
wrong type (a string, boolean or null where a number belongs), malformed
parameters, unphysical states or spectra, and sizes above a cap: the qubit
cap of a state, or the memory budget of a working set. The budget bounds a
state's correlation block (a correlation-sum ``optimise``: n >= 14 exits 2),
a search's starts, a GHZ spectrum file (eight copies of its array, about
what ``oracle`` holds: n >= 24 exits 2) and the ``state --dense`` export
(512 bytes an entry: n >= 11 exits 2). Other computation failures exit 1.
Output is byte-identical across runs with the same flags and seeds.

The argument parser is built once per process, on the first ``main`` call,
and every later call parses with the same object; it is shared and must not
be modified.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from importlib import resources

from .errors import (
    CapacityError,
    EntboundError,
    ParameterError,
    SchemaError,
    StateValidityError,
    _parse_json,
)
from .estimate import (
    TripleEstimate,
    _genuine_reports,
    bound_with_uncertainty,
    counts_to_triple,
    genuine_bound_with_uncertainty,
    ingest_correlation_file,
    simulate_measurements,
)
from .locc import GHZDiagonalState
from .measures import (
    DistanceKind,
    SeparabilityLevel,
    entanglement_m3n,
    genuine_ghz_diag,
    octahedron_excess,
)
from .optimize import (
    MAX_GRID_DENSITY,
    OptimisationOptions,
    optimise_ghz_overlap,
    optimise_triple,
)
from .oracle import (
    MAX_GRID_RESOLUTION,
    MAX_REFINE_ROUNDS,
    OracleConfig,
    brute_min_biseparable_ghz,
    brute_min_over_octahedron,
    oracle_report,
)
from .pauli import LocalRotation, correlation_tensor, correlation_triple
from .qstate import (
    CorrelationTriple,
    M3NState,
    StateFamily,
    build_state,
    load_state_spec,
)


#: the values ``_round_floats`` rewrites; anything else (integers, strings) is kept as is
_ROUNDED = (float, dict, list, tuple)


def _round_floats(obj, digits: int):
    """``obj`` with each finite float cut to ``digits`` significant digits.

    It recurses only into floats and containers, so an integer or a string
    (every count of a ``simulate`` record) costs no call.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return obj
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) if isinstance(v, _ROUNDED) else v
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) if isinstance(v, _ROUNDED) else v for v in obj]
    return obj


def _emit(obj, args) -> None:
    if not args.full_precision:
        obj = _round_floats(obj, 6)
    if args.pretty:
        rows = obj if isinstance(obj, list) else [obj]
        for row in rows:
            if isinstance(row, dict):
                for key in sorted(row):
                    print(f"{key:>18}: {row[key]}")
                print("-" * 40)
            else:
                print(row)
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_numbers(flag: str, text: str, count: int | None = 3, cast=float) -> list:
    """The comma-separated numbers given to ``flag``; malformed text is a schema error."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise SchemaError(f"{flag} wants {count} comma-separated numbers, got {text!r}")
    try:
        return [cast(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"{flag}: {exc}") from exc


def _parse_triple(text: str) -> CorrelationTriple:
    return CorrelationTriple.from_sequence(_parse_numbers("--c", text))


def _parse_level(args, n: int) -> SeparabilityLevel:
    if n < 2:  # checked first: a level's own checks would name M, not n
        raise ParameterError(f"qubit count must be >= 2, got {n}")
    if getattr(args, "partition", None):
        parts = _parse_numbers("--partition", args.partition, None, int)
        level = SeparabilityLevel(partition=tuple(parts))
    elif getattr(args, "level_m", None):
        level = SeparabilityLevel(m=args.level_m)
    else:
        level = SeparabilityLevel(m=n)
    level.check_for(n)
    return level


def _state_from_args(args):
    if getattr(args, "state_file", None):
        family, n = load_state_spec(args.state_file)
    else:
        if not args.family or args.n is None:
            raise SchemaError("give --family and --n, or --state-file")
        params = _parse_json(args.params, "--params") if args.params else {}
        family = StateFamily.from_json_dict({"family": args.family, "params": params})
        n = args.n
    return build_state(family, n), family, n


def _rotation_from_args(args, n: int):
    if getattr(args, "angles", None):
        parts = _parse_numbers("--angles", args.angles, None)
        if len(parts) == 3:
            return LocalRotation.from_shared(parts)
        if len(parts) == 3 * n:
            return LocalRotation.from_per_qubit(
                [parts[3 * k : 3 * k + 3] for k in range(n)]
            )
        raise SchemaError(f"--angles wants 3 or 3n numbers, got {len(parts)}")
    return None


def _opts_from_args(args) -> OptimisationOptions:
    return OptimisationOptions(
        mode="per_qubit" if args.mode == "per-qubit" else "shared",
        restarts=args.restarts,
        grid_density=args.grid,
        seed=args.seed,
    )


# -- subcommand implementations ---------------------------------------------------

def _cmd_state(args) -> None:
    state, family, n = _state_from_args(args)
    triple = correlation_triple(state)
    out = {
        "family": family.tag,
        "n": n,
        "c": list(triple.as_array()),
        "purity": state.purity(),
    }
    if args.dense:
        out["rho"] = state.export_row_major()
    _emit(out, args)


def _cmd_triple(args) -> None:
    state, _, n = _state_from_args(args)
    triple = correlation_triple(state, _rotation_from_args(args, n))
    _emit({"n": n, "c": list(triple.as_array())}, args)


def _cmd_bound(args) -> None:
    if args.file:
        est = ingest_correlation_file(args.file)
        n = est.n if args.n is None else args.n
        if n is None:
            raise SchemaError("the correlation file carries no n; pass --n")
    else:
        if args.c is None or args.n is None:
            raise SchemaError("give --n and --c, or --file")
        sigma = _parse_numbers("--sigma", args.sigma) if args.sigma else (0.0, 0.0, 0.0)
        est = TripleEstimate(_parse_triple(args.c), sigma, n=args.n)
        n = args.n
    level = _parse_level(args, n)
    kind = DistanceKind.parse(args.distance)
    report = bound_with_uncertainty(est, n, level, kind, seed=args.seed)
    out = report.to_json_dict()
    out["n"] = n
    out["h"] = octahedron_excess(est.c)
    _emit(out, args)


def _cmd_genuine(args) -> None:
    kind = DistanceKind.parse(args.distance)
    if args.spectrum_file:
        spec = GHZDiagonalState.from_file(args.spectrum_file)
        report = genuine_ghz_diag(spec, kind)
        out = report.to_json_dict()
        out["n"] = spec.n
        out["p_max"] = spec.p_max
    else:
        if args.pmax is None:
            raise SchemaError("give --pmax or --spectrum-file")
        report = genuine_bound_with_uncertainty(
            args.pmax, args.sigma_p, kind, seed=args.seed
        )
        out = report.to_json_dict()
        out["p_max"] = args.pmax
    _emit(out, args)


def _cmd_optimise(args) -> None:
    opts = _opts_from_args(args)
    state, family, n = _state_from_args(args)
    if args.objective == "overlap":
        rot, idx, p_max = optimise_ghz_overlap(state, opts)
        out = {
            "objective": "ghz_overlap",
            "n": n,
            "p_max": p_max,
            "index": idx.key,
            "angles": [list(a) for a in rot.angles],
            "shared": rot.shared,
        }
    else:
        tensor = correlation_tensor(state)
        rot, triple, objective = optimise_triple(tensor, opts)
        out = {
            "objective": "correlation_sum",
            "n": n,
            "sum_abs_c": objective,
            "c": list(triple.as_array()),
            "angles": [list(a) for a in rot.angles],
            "shared": rot.shared,
        }
    _emit(out, args)


def _cmd_oracle(args) -> None:
    cfg = OracleConfig(grid_resolution=args.resolution, refine_rounds=args.rounds)
    kind = DistanceKind.parse(args.distance)
    if args.spectrum_file:
        spec = GHZDiagonalState.from_file(args.spectrum_file)
        report = genuine_ghz_diag(spec, kind)
        oracle_value = brute_min_biseparable_ghz(spec, kind)
        out = oracle_report(report.value, oracle_value, cfg)
    else:
        if args.c is None or args.n is None:
            raise SchemaError("give --n and --c, or --spectrum-file")
        state = M3NState(args.n, _parse_triple(args.c))
        level = _parse_level(args, args.n)
        if level.is_trivial(args.n):
            # the octahedron oracle minimises over fully separable states only
            raise ParameterError(
                f"every triple-correlation state is separable at this level for n={args.n}, "
                "so there is nothing to check"
            )
        report = entanglement_m3n(state, level, kind)
        oracle_value = brute_min_over_octahedron(state, kind, cfg)
        out = oracle_report(report.value, oracle_value, cfg)
    _emit(out, args)


def _cmd_simulate(args) -> None:
    state, family, n = _state_from_args(args)
    rot = _rotation_from_args(args, n)
    records = simulate_measurements(state, rot, args.shots, args.seed)
    est = counts_to_triple(records)
    out = {
        "n": n,
        "shots": args.shots,
        "seed": args.seed,
        "estimate": est.to_json_dict(),
        # a simulated record's counts are already in sorted-outcome order
        "records": [{"axis": rec.axis, "counts": rec.counts} for rec in records],
    }
    _emit(out, args)


@functools.cache
def _load_table_data() -> dict:
    """The published Table IV rows, parsed once per process; callers only read them."""
    with resources.files("entbound.data").joinpath("table_iv.json").open() as fh:
        return json.load(fh)


def _cmd_reproduce(args) -> None:
    data = _load_table_data()
    if args.table == "table-iv-a":
        rows = []
        for row in data["global_partial"]:
            est = TripleEstimate(
                CorrelationTriple.from_sequence(row["c"]),
                tuple(row["sigma"]),
                n=row["n"],
            )
            level = SeparabilityLevel(m=row["n"])
            report = bound_with_uncertainty(
                est, row["n"], level, DistanceKind.TRACE, seed=args.seed
            )
            rows.append(
                {
                    "state": row["state"],
                    "n": row["n"],
                    "c": row["c"],
                    "sum_abs_c": est.c.abs_sum,
                    "trace_bound": report.value,
                    "uncertainty": report.uncertainty,
                }
            )
        _emit(rows, args)
        return
    rows = []
    columns = (
        DistanceKind.RELATIVE_ENTROPY,
        DistanceKind.TRACE,
        DistanceKind.INFIDELITY,
        DistanceKind.SQUARED_BURES,
    )
    for row in data["genuine"]:
        pct, err = row["fidelity_pct"]
        p = pct / 100.0
        sig = (err or 0.0) / 100.0
        entry = {"state": row["state"], "n": row["n"], "p_max": p}
        # one bootstrap draw per row serves all four columns
        for report in _genuine_reports(p, sig, columns, args.seed):
            entry[report.distance.value] = report.value
            entry[report.distance.value + "_unc"] = report.uncertainty
        rows.append(entry)
    _emit(rows, args)


# -- parser ------------------------------------------------------------------------

def _add_state_source(p) -> None:
    p.add_argument("--family", help="state family tag (ghz, w, dicke, ...)")
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--params", help="family parameters as a JSON object")
    p.add_argument("--state-file", help="state-specification JSON file")


def _add_common(p) -> None:
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.add_argument(
        "--full-precision",
        action="store_true",
        help="print shortest round-trip decimals instead of 6 significant digits",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``entbound`` argument parser, built on the first call only.

    Every call returns the same parser, shared by all ``main`` calls in the
    process, so callers must not modify it (no ``add_argument`` or
    ``set_defaults``). Its defaults are immutable, so parses share no state.
    """
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Multiparticle-entanglement values and accessible lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="build a named state and report its triple")
    _add_state_source(p)
    p.add_argument("--dense", action="store_true", help="include the dense matrix")
    _add_common(p)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("triple", help="canonical or rotated correlation triple")
    _add_state_source(p)
    p.add_argument("--angles", help="rotation angles: 3 (shared) or 3n numbers")
    _add_common(p)
    p.set_defaults(func=_cmd_triple)

    p = sub.add_parser("bound", help="lower bound from a correlation triple")
    p.add_argument("--n", type=int)
    p.add_argument("--c", help="triple c1,c2,c3")
    p.add_argument("--sigma", help="standard errors s1,s2,s3")
    p.add_argument("--file", help="correlation-data JSON or CSV file")
    p.add_argument("--distance", default="trace")
    p.add_argument("--M", dest="level_m", type=int, help="separability level M")
    p.add_argument("--partition", help="comma-separated part sizes, e.g. 2,2")
    _add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("genuine", help="genuine-entanglement value or bound")
    p.add_argument("--pmax", type=float, help="largest GHZ overlap")
    p.add_argument("--sigma-p", type=float, default=0.0, dest="sigma_p")
    p.add_argument("--spectrum-file", help="GHZ-spectrum JSON file")
    p.add_argument("--distance", default="trace")
    _add_common(p)
    p.set_defaults(func=_cmd_genuine)

    p = sub.add_parser("optimise", help="optimise the accessible bound over rotations")
    _add_state_source(p)
    p.add_argument("--objective", choices=["triple", "overlap"], default="triple")
    p.add_argument("--mode", choices=["shared", "per-qubit"], default="shared")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--grid", type=int, default=12,
                   help=f"angle grid density, 2..{MAX_GRID_DENSITY}")
    _add_common(p)
    p.set_defaults(func=_cmd_optimise)

    p = sub.add_parser("oracle", help="brute-force check of a closed formula")
    p.add_argument("--n", type=int)
    p.add_argument("--c", help="triple c1,c2,c3")
    p.add_argument("--spectrum-file", help="GHZ-spectrum JSON file")
    p.add_argument("--distance", default="trace")
    p.add_argument("--M", dest="level_m", type=int)
    p.add_argument("--partition")
    p.add_argument("--resolution", type=int, default=40,
                   help=f"octahedron grid resolution, 4..{MAX_GRID_RESOLUTION} (odd n; even n "
                        "takes an exact certified step)")
    p.add_argument("--rounds", type=int, default=3,
                   help="refinement rounds around the minimum of each face that holds the "
                        f"least coarse value, 0..{MAX_REFINE_ROUNDS} (odd n; even n takes an "
                        "exact certified step)")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reproduce", help="recompute the published table rows")
    p.add_argument("table", choices=["table-iv-a", "table-iv-b"])
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("simulate", help="simulate the three-setting protocol")
    _add_state_source(p)
    p.add_argument("--angles", help="rotation angles: 3 (shared) or 3n numbers")
    p.add_argument("--shots", type=int, default=10000)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


#: flags taking a comma-separated number list, which may start with a minus sign
_NUMBER_LIST_FLAGS = ("--c", "--sigma", "--angles")


def _attach_number_lists(argv) -> list:
    """Rewrite "--c -0.3,0.2,0.1" as "--c=-0.3,0.2,0.1".

    argparse reads a value that starts with "-" and is not a single negative
    number as an option, so a negative-led list needs the "=" form.
    """
    out = []
    for token in argv:
        if out and out[-1] in _NUMBER_LIST_FLAGS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_number_lists(argv))
        if [] in vars(args).values():
            # Python < 3.12 reads "--pmax=--" as an empty list, not as the value "--"
            parser.error("an option value may not be '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        args.func(args)
    except (SchemaError, ParameterError, StateValidityError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EntboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        # an input file that is missing, a directory, unreadable or not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
