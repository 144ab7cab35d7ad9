"""Case catalogs for the four benchmark workloads, and the seeded pick of cases.

Each workload is a fixed catalog of CLI cases grouped into strata. A stratum
holds variants of one command at one size whose costs are close, so a run
(the same number of variants from every stratum, in a seeded order) costs
about the same for every seed while its inputs still change with the seed.
The catalog is drawn once from ``CATALOG_SEED`` and stored, with the outputs
of every case, by ``record.py``; a run picks its cases from the stored catalog.

Input pitfalls the generators avoid on purpose (both are CLI defects left for
a later change): a negative first triple component must be passed as
``--c=-0.3,...`` because ``--c -0.3,...`` exits 2 with "expected one
argument", and GHZ spectra are written in the mapping form ``{"001+": p}``
because a list-valued ``"p"`` ends in an uncaught ``AttributeError``.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

WORKLOADS = ("data-bounds", "state-scan", "rotation-search", "oracle-check")

CATALOG_SEED = 1507_01600

#: cheap case per workload, run in fresh interpreters for ``setup_s``
PROBES = {
    "data-bounds": ["genuine", "--pmax", "0.9", "--full-precision"],
    "state-scan": ["state", "--family", "ghz", "--n", "6", "--full-precision"],
    "rotation-search": [
        "triple", "--family", "w", "--n", "4", "--angles", "0.3,0.2,0.1", "--full-precision",
    ],
    "oracle-check": [
        "oracle", "--n", "3", "--c=0.5,-0.5,0.5", "--resolution", "16", "--full-precision",
    ],
}

DISTANCES = ("relative_entropy", "trace", "infidelity", "squared_bures", "squared_hellinger")
#: accepted aliases, so the parser's alias table is exercised too
DISTANCE_ALIASES = ("re", "tr", "f", "bures", "hellinger")
SMOOTH_DISTANCES = ("relative_entropy", "infidelity", "squared_bures", "squared_hellinger")
PURE_FAMILIES = ("ghz", "w", "dicke", "cluster_linear", "cluster_rect")
MIXED_FAMILIES = ("m3n", "white_noise_mix", "wei", "smolin")
SIMULATE_SHOTS = 10_000

# Excluded sizes: n >= 11 in state-scan (one n=12 correlation_triple takes
# 11 s and one n=11 simulate 10 s); per-qubit overlap search at n >= 4 (7.7 s
# per case at n=4 with the default restarts, 2.6-10 s with one restart,
# depending on the state); sparse GHZ spectra just above p_max = 1/2 in
# oracle-check (10-36 s per smooth-distance oracle).

#: n=4 triples whose octahedron oracle misses the closed form by more than the
#: oracle's 1e-6 tolerance at the reference commit (1.1e-4 for this one, at the
#: CLI's default resolution 40 and at 60); kept so the miss stays visible
KNOWN_ORACLE_MISSES = {"squared_bures": [-0.511822, 0.935388, -0.447535]}


def _num(x: float) -> str:
    """Six-decimal text for a CLI number; the value checked is the value parsed."""
    return repr(round(float(x), 6) + 0.0)


def _join(values) -> str:
    return ",".join(_num(v) for v in values)


def tetra_margin(c, n: int) -> float:
    """Smallest spectral expression of an even-n triple (>= 0 inside the tetrahedron)."""
    e = (-1) ** (n // 2)
    return min(
        1 + s * c[0] + s * e * (-1) ** p * c[1] + (-1) ** p * c[2]
        for s in (1, -1)
        for p in (0, 1)
    )


def in_domain(c, n: int, margin: float = 1e-6) -> bool:
    """Physical region: the tetrahedron for even n, the unit ball for odd n."""
    if n % 2 == 0:
        return tetra_margin(c, n) >= margin
    return sum(x * x for x in c) <= 1 - margin


def excess(c) -> float:
    return 0.5 * (sum(abs(x) for x in c) - 1)


def _triple(rng, n: int, *, min_excess: float | None = None) -> list:
    """A rounded triple inside the physical region, optionally entangled."""
    while True:
        if n % 2 == 0:
            e = (-1) ** (n // 2)
            verts = np.array([[1, e, 1], [-1, -e, 1], [1, -e, -1], [-1, e, -1]], dtype=float)
            c = rng.dirichlet(np.full(4, 0.5)) @ verts
        else:
            v = rng.standard_normal(3)
            c = v / np.linalg.norm(v) * rng.uniform(0.3, 1.0) ** (1 / 3)
        c = [round(float(x), 6) + 0.0 for x in c]
        if in_domain(c, n) and (min_excess is None or excess(c) >= min_excess):
            return c


def _partition(rng, n: int, *, trivial: bool) -> list:
    """Random part sizes summing to n; nontrivial ones have >= 2 odd parts."""
    while True:
        k = int(rng.integers(2, min(n, 5) + 1))
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist())
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        odd = sum(p % 2 for p in parts)
        if (odd <= 1) == trivial:
            return parts


def _level_args(rng, n: int) -> list:
    """A nontrivial separability level: global, an explicit M, or a partition."""
    kind = int(rng.integers(3))
    if kind == 0:
        return []
    if kind == 1:
        return ["--M", str(int(rng.integers(math.ceil(n / 2) + 1, n + 1)))]
    return ["--partition", ",".join(map(str, _partition(rng, n, trivial=False)))]


def _sigma(rng, lo: float, hi: float) -> list:
    return [round(float(s), 6) for s in rng.uniform(lo, hi, size=3)]


def _distance(rng, n: int) -> str:
    if n % 2:
        return str(rng.choice(["trace", "tr"]))
    return str(rng.choice(DISTANCES + DISTANCE_ALIASES))


def _spectrum(rng, n: int, p_max: float, support: int | None) -> dict:
    """GHZ spectrum in mapping form: p_max on a random key, the rest spread.

    ``support`` is the number of other nonzero entries (None: white noise on
    every entry). Entries are full-precision floats whose sum is 1 to within
    rounding, far inside the parser's tolerance.
    """
    keys = [format(i, f"0{n}b") + s for i in range(2 ** (n - 1)) for s in "+-"]
    top = int(rng.integers(len(keys)))
    others = [k for j, k in enumerate(keys) if j != top]
    if support is None:
        q = (p_max - 1 / 2**n) / (1 - 1 / 2**n)
        p = {k: (1 - q) / 2**n for k in keys}
        p[keys[top]] = q + (1 - q) / 2**n
    else:
        picked = rng.choice(len(others), size=support, replace=False)
        rest = rng.dirichlet(np.ones(support)) * (1 - p_max)
        p = {keys[top]: p_max}
        p.update({others[int(j)]: float(w) for j, w in zip(picked, rest)})
    return {"n": n, "p": {k: float(v) for k, v in sorted(p.items())}}


def _family_params(rng, family: str, n: int, symmetric: bool) -> dict | None:
    if family == "dicke":
        return {"k": int(rng.integers(1, n))}
    if family == "cluster_rect":
        rows = int(rng.choice([d for d in range(2, n // 2 + 1) if n % d == 0]))
        return {"rows": rows, "cols": n // rows}
    if family == "white_noise_mix":
        inners = ["ghz", "w", "dicke"] + ([] if symmetric else ["cluster_linear"])
        inner = str(rng.choice(inners))
        spec = {"family": inner}
        if inner == "dicke":
            spec["params"] = {"k": int(rng.integers(1, n))}
        return {"inner": spec, "q": round(float(rng.uniform(0.05, 0.95)), 6)}
    if family == "m3n":
        return {"c": _triple(rng, n)}
    if family == "wei":
        return {"x": round(float(rng.uniform(0.05, 0.95)), 6)}
    return None


def _state_args(rng, family: str, n: int, *, symmetric: bool = False) -> list:
    """Flags naming a state; ``symmetric`` keeps mixtures permutation-invariant."""
    args = ["--family", family, "--n", str(n)]
    params = _family_params(rng, family, n, symmetric)
    if params is not None:
        args += ["--params", json.dumps(params, sort_keys=True, separators=(",", ":"))]
    return args


def _angles(rng, qubits: int) -> str:
    """``qubits`` angle triples (theta in [0, pi], psi and phi in [0, 2 pi))."""
    triples = [(rng.uniform(0, math.pi), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
               for _ in range(qubits)]
    return _join([a for t in triples for a in t])


def _seed_args(rng) -> list:
    return ["--seed", str(int(rng.integers(1_000_000)))]


# -- workloads ---------------------------------------------------------------------

def _data_bounds(rng, v: int) -> dict:
    """Strata of the experimentalist path: closed forms, estimates, file input."""
    def even_n():
        return int(rng.choice(range(4, 21, 2)))

    def odd_n():
        return int(rng.choice(range(3, 20, 2)))

    def bound(n, sigma, level=None, distance=None):
        args = ["bound", "--n", str(n), "--c=" + _join(_triple(rng, n))]
        if sigma is not None:
            args += ["--sigma", _join(sigma)]
        args += _level_args(rng, n) if level is None else level
        args += ["--distance", distance or _distance(rng, n)]
        return args + _seed_args(rng), n

    def genuine(p, sigma):
        args = ["genuine", "--pmax", _num(p)]
        if sigma is not None:
            args += ["--sigma-p", _num(sigma)]
        return args + ["--distance", str(rng.choice(DISTANCES))] + _seed_args(rng)

    strata = {}
    strata["bound-even"] = bound(even_n(), _sigma(rng, 0.001, 0.01))
    strata["bound-even-kink"] = bound(even_n(), _sigma(rng, 0.03, 0.15))
    strata["bound-odd"] = bound(odd_n(), _sigma(rng, 0.001, 0.01))
    strata["bound-odd-kink"] = bound(odd_n(), _sigma(rng, 0.03, 0.15))
    n = int(rng.integers(3, 21))
    strata["bound-exact"] = bound(n, None)
    n = int(rng.integers(3, 21))
    trivial = (
        ["--M", str(int(rng.integers(2, math.ceil(n / 2) + 1)))]
        if v % 2
        else ["--partition", ",".join(map(str, _partition(rng, n, trivial=True)))]
    )
    strata["bound-trivial-level"] = bound(n, _sigma(rng, 0.0, 0.05), level=trivial)
    strata["genuine"] = (genuine(rng.uniform(0.56, 0.94), rng.uniform(0.001, 0.01)), None)
    p = rng.uniform(0.45, 0.55) if v % 2 else rng.uniform(0.97, 1.0)
    strata["genuine-kink"] = (genuine(p, rng.uniform(0.01, 0.03)), None)
    strata["genuine-exact"] = (genuine(rng.uniform(0.0, 1.0), None), None)
    strata["reproduce-table-iv-a"] = (["reproduce", "table-iv-a", "--seed", str(v)], None)
    strata["reproduce-table-iv-b"] = (["reproduce", "table-iv-b", "--seed", str(v)], None)

    entries = {k: {"argv": a, "n": n_} for k, (a, n_) in strata.items()}

    n = int(rng.integers(3, 21))
    c, sigma = _triple(rng, n), _sigma(rng, 0.0, 0.05)
    doc = json.dumps({"n": n, "c": c, "sigma": sigma})
    entries["bound-file-json"] = {
        "argv": ["bound", "--file", "{work}/corr.json", "--distance", _distance(rng, n)]
        + _seed_args(rng),
        "n": n,
        "files": {"corr.json": doc},
    }
    n = int(rng.integers(3, 21))
    c, sigma = _triple(rng, n), _sigma(rng, 0.0, 0.05)
    csv_text = "n,c1,c2,c3,s1,s2,s3\n" + ",".join([str(n)] + [_num(x) for x in c + sigma]) + "\n"
    entries["bound-file-csv"] = {
        "argv": ["bound", "--file", "{work}/corr.csv", "--distance", _distance(rng, n)]
        + _seed_args(rng),
        "n": n,
        "files": {"corr.csv": csv_text},
    }
    n = int(rng.integers(3, 11))
    support = None if v % 3 == 0 else int(rng.integers(1, min(6, 2**n - 1) + 1))
    spec = _spectrum(rng, n, rng.uniform(0.3, 0.99), support)
    entries["genuine-spectrum-file"] = {
        "argv": ["genuine", "--spectrum-file", "{work}/spectrum.json", "--distance",
                 str(rng.choice(DISTANCES))],
        "n": n,
        "files": {"spectrum.json": json.dumps(spec)},
    }

    # deliberately invalid input: every one is a usage or schema problem (exit 2)
    n = int(rng.integers(4, 21))
    c = _join(_triple(rng, n))
    invalid = [
        ["bound", "--n", str(n), "--c=" + c.rsplit(",", 1)[0]],
        ["bound", "--n", str(n), "--c=" + c, "--distance", "euclid"],
        ["bound", "--n", str(n), "--c=" + c, "--M", str(n + 1 + v % 3)],
        ["bound", "--n", str(n), "--c=" + c, "--partition", f"{n},1"],
        ["bound", "--n", "four", "--c=" + c],
        ["genuine", "--distance", "trace"],
        ["genuine", "--pmax", _num(1 + rng.uniform(0.01, 1))],
        ["genuine", "--pmax", "0.7", "--sigma-p", _num(-rng.uniform(0.01, 0.1))],
    ][v % 8]
    entries["invalid-input"] = {"argv": invalid, "n": n, "check": "error"}
    return entries


def _state_scan(rng, v: int) -> dict:
    """Build named states and read them: state, triple and simulate at n = 6, 8, 10."""
    # n = 6 strata draw their family by seed; n = 8 and 10 keep one case each
    # (every family appears once), so the slow strata cost the same every run
    families = {
        ("pure", 6): ("w", "dicke", "cluster_linear"), ("pure", 8): ("cluster_rect",),
        ("pure", 10): ("ghz",), ("mixed", 6): ("wei", "smolin", "m3n"),
        ("mixed", 8): ("white_noise_mix",), ("mixed", 10): ("m3n",),
    }
    entries = {}
    for n in (6, 8, 10):
        for kind in ("pure", "mixed"):
            choices = families[kind, n]
            state = _state_args(rng, choices[v % len(choices)], n)
            single = len(choices) == 1
            entries[f"state-{kind}-n{n}"] = {"argv": ["state"] + state, "n": n, "single": single}
            entries[f"triple-{kind}-n{n}"] = {"argv": ["triple"] + state, "n": n,
                                              "single": single}
            sim = ["simulate"] + state + ["--shots", str(SIMULATE_SHOTS)] + _seed_args(rng)
            exact = ["triple"] + state
            if v % 2 or n == 8:
                angles = _angles(rng, 1)
                sim += ["--angles", angles]
                exact += ["--angles", angles]
            entries[f"simulate-{kind}-n{n}"] = {
                "argv": sim, "n": n, "check": "simulate", "exact_argv": exact,
                "single": single,
            }
    return entries


def _rotation_search(rng, v: int) -> dict:
    """Rotation optimisation: many small contractions and Nelder-Mead steps."""
    symmetric = ("ghz", "w", "dicke", "m3n", "wei", "smolin", "white_noise_mix")
    entries = {}
    for i, n in enumerate((4, 6, 8)):
        family = symmetric[(v + 3 * i) % len(symmetric)]
        entries[f"optimise-shared-n{n}"] = {
            "argv": ["optimise"] + _state_args(rng, family, n, symmetric=True) + _seed_args(rng),
            "n": n, "check": "optimise", "single": True,
        }
    for i, n in enumerate((6, 8)):
        family = ("cluster_linear", "cluster_rect")[(v + i) % 2]
        entries[f"optimise-per-qubit-n{n}"] = {
            "argv": ["optimise"] + _state_args(rng, family, n)
            + ["--mode", "per-qubit"] + _seed_args(rng),
            "n": n, "check": "optimise", "single": True,
        }
    overlap_families = ("ghz", "w", "dicke", "white_noise_mix")
    for i, n in enumerate((4, 6)):
        family = overlap_families[(v + 3 * i) % len(overlap_families)]
        entries[f"overlap-shared-n{n}"] = {
            "argv": ["optimise"] + _state_args(rng, family, n)
            + ["--objective", "overlap"] + _seed_args(rng),
            "n": n, "check": "optimise", "single": True,
        }
    # per-qubit overlap search costs 0.3-3 s per case at n=3 depending on the
    # state, so each inner family gets a stratum of its own
    for inner in ("ghz", "w"):
        params = {"inner": {"family": inner}, "q": round(float(rng.uniform(0.6, 0.95)), 6)}
        entries[f"overlap-per-qubit-n3-{inner}"] = {
            "argv": ["optimise", "--family", "white_noise_mix", "--n", "3",
                     "--params", json.dumps(params, sort_keys=True, separators=(",", ":")),
                     "--objective", "overlap", "--mode", "per-qubit", "--restarts", "1"]
            + _seed_args(rng),
            "n": 3, "check": "optimise", "single": True,
        }
    n = (4, 6, 8)[v % 3]
    family = (PURE_FAMILIES + MIXED_FAMILIES)[v % 9]
    angles = _angles(rng, 1 if v % 2 else n)
    entries["triple-angles"] = {
        "argv": ["triple"] + _state_args(rng, family, n) + ["--angles", angles], "n": n,
    }
    return entries


def _oracle_check(rng, v: int) -> dict:
    """Brute-force oracles over octahedron grids and GHZ spectra."""
    entries = {}
    for n, resolution in ((3, 40), (5, 24)):
        entries[f"octahedron-n{n}"] = {
            "argv": ["oracle", "--n", str(n), "--c=" + _join(_triple(rng, n, min_excess=0.05)),
                     "--resolution", str(resolution)],
            "n": n, "check": "oracle", "single": n == 5,
        }
    for distance in DISTANCES:
        c = _triple(rng, 4, min_excess=0.05)
        if v == 0 and distance in KNOWN_ORACLE_MISSES:
            c = KNOWN_ORACLE_MISSES[distance]
        entries[f"octahedron-n4-{distance}"] = {
            "argv": ["oracle", "--n", "4", "--c=" + _join(c), "--distance", distance],
            "n": 4, "check": "oracle", "single": True,
        }
    n = (3, 4, 5)[v % 3]
    entries["spectrum-trace"] = {
        "argv": ["oracle", "--spectrum-file", "{work}/spectrum-trace.json", "--distance", "trace"],
        "n": n, "check": "oracle",
        "files": {"spectrum-trace.json": json.dumps(
            _spectrum(rng, n, rng.uniform(0.6, 0.95), int(rng.integers(1, 2**n - 1)))
        )},
    }
    for n in (3, 4, 5):
        name = f"spectrum-n{n}.json"
        # white-noise and one-entry spectra with p_max well above 1/2 converge
        # in well under a second; see the exclusion note at the top
        support = None if (v + n) % 2 else 1
        spec = _spectrum(rng, n, rng.uniform(0.7, 0.9), support)
        entries[f"spectrum-n{n}-smooth"] = {
            "argv": ["oracle", "--spectrum-file", "{work}/" + name,
                     "--distance", SMOOTH_DISTANCES[(v + n) % 4]],
            "n": n, "check": "oracle", "files": {name: json.dumps(spec)}, "single": True,
        }
    return entries


#: workload -> (generator, variants per stratum, variants one run measures).
#: A run measures a seeded pick of variants from every stratum, several times
#: over (see run.planned_passes). data-bounds cases cost milliseconds, so a run
#: takes them all; the slow workloads take one variant per stratum, so that a
#: run can repeat its cases and report medians. Strata whose generator marks
#: them ``single`` (cases of a tenth of a second or more) keep only variant 0:
#: their cost depends on the input, so drawing it by seed would move a run's
#: throughput with the seed. The seed then varies the cheap strata and the order.
_GENERATORS = {
    "data-bounds": (_data_bounds, 40, 40),
    "state-scan": (_state_scan, 3, 1),
    "rotation-search": (_rotation_search, 3, 1),
    "oracle-check": (_oracle_check, 3, 1),
}


def build_catalog(workload: str) -> list[dict]:
    """Every case of a workload: ``variants`` per stratum, drawn from CATALOG_SEED."""
    make, variants, _ = _GENERATORS[workload]
    rng = np.random.default_rng([CATALOG_SEED, WORKLOADS.index(workload)])
    catalog = []
    for v in range(variants):
        for stratum, entry in make(rng, v).items():
            if entry.pop("single", False) and v > 0:
                continue
            entry = {"id": f"{stratum}/{v}", "stratum": stratum, "check": "exact", **entry}
            argv = entry["argv"] + ["--full-precision"]
            if "files" in entry:
                # one directory holds every input file of the catalog
                files = {f"{stratum}-{v}-{name}": text for name, text in entry["files"].items()}
                for name in entry["files"]:
                    argv = [a.replace("{work}/" + name, f"{{work}}/{stratum}-{v}-{name}")
                            for a in argv]
                entry["files"] = files
            entry["argv"] = argv
            catalog.append(entry)
    return catalog


def strata(catalog: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for entry in catalog:
        out.setdefault(entry["stratum"], []).append(entry)
    return out


def select(by_stratum: dict, workload: str, seed: int) -> list[dict]:
    """The cases one run measures: a seeded pick of variants from every stratum."""
    keep = _GENERATORS[workload][2]
    picked = []
    for name in sorted(by_stratum):
        variants = list(by_stratum[name])
        random.Random(f"{workload}:{seed}:{name}").shuffle(variants)
        picked.extend(variants[:keep])
    return picked


def shuffled(selected: list[dict], workload: str, seed: int, index: int) -> list[dict]:
    """Pass ``index`` of a run: the selected cases in a seeded order."""
    order = list(selected)
    random.Random(f"{workload}:{seed}:pass{index}").shuffle(order)
    return order
