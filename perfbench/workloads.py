"""The four benchmark workloads: pinned inputs, jobs and reference checks.

Every workload is a closed loop with one client: a pass runs its jobs one
after another, each job a call into the package's public entry points.
The instance lists are copied from the tables in ``supercomin.verify`` and
pinned here, so an edit to the bundled suite does not change the workload.

A job returns an *answer*, a JSON-able value that ``check`` compares with
the reference pinned in ``references.json`` (or, for the oracle goldens,
with ``tests/golden/*.json``).  The seed only shuffles job order on
``sweep``, ``table`` and ``crosscheck``; on ``queries`` it also draws the
queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
REFERENCES = HERE / "references.json"

WORKLOADS = ("sweep", "table", "crosscheck", "queries")

# -- pinned instance lists (copied from supercomin/verify.py) --------------

# oracle runs: the seven golden instances, named as their golden files
# are, plus the four largest exhaustive sweeps
ORACLE_GOLDEN = (
    ("osp1", {"n": 1}), ("sl", {"m": 2, "n": 1}), ("p", {"n": 2}),
    ("psl", {"n": 2}), ("W", {"n": 3}), ("S", {"n": 3}), ("H", {"n": 5}),
)
ORACLE_PINNED = (
    ("H", {"n": 6}), ("osp", {"m": 6, "n": 2}), ("sl", {"m": 3, "n": 2}),
    ("p", {"n": 3}),
)
LAW_INSTANCES = (("sl", (2, 1)), ("p", (2,)), ("p", (3,)), ("W", (3,)))

EXPECTED_ORBITS = (
    ("sl", (2, 1)), ("sl", (3, 2)), ("psl", (2,)), ("psl", (3,)),
    ("osp", (3, 2)), ("osp", (5, 2)), ("osp", (1, 2)), ("osp", (1, 4)),
    ("osp", (4, 2)), ("osp", (6, 2)), ("osp", (2, 2)), ("osp", (2, 4)),
    ("D21a", ()), ("F4", ()), ("G3", ()), ("psq", (3,)), ("psq", (4,)),
    ("p", (2,)), ("p", (3,)), ("W", (2,)), ("W", (3,)),
    ("S", (3,)), ("S", (4,)), ("Sprime", (4,)), ("H", (5,)), ("H", (6,)),
)

BRACKET_SWEEP = (
    ("gl", (2, 2)), ("gl", (3, 3)), ("psq", (3,)), ("p", (2,)), ("p", (3,)),
    ("W", (3,)), ("S", (3,)), ("S", (4,)), ("Sprime", (4,)),
    ("H", (5,)), ("H", (6,)),
)
CROSSCHECK_INSTANCES = (("psq", (3,)), ("p", (2,)), ("p", (3,)), ("W", (3,)),
                        ("H", (5,)), ("S", (3,)), ("psl", (2,)))

# point queries: symmetric and nonsymmetric systems with 15 to 42 roots
QUERY_POOL = (
    ("sl", (3, 2)), ("osp", (6, 2)), ("p", (3,)), ("W", (3,)), ("S", (3,)),
    ("S", (4,)), ("psl", (3,)), ("H", (6,)), ("F4", ()), ("G3", ()),
)
QUERIES_PER_INSTANCE = 40
MENU_SIZE = 32          # pinned functionals per pool instance
MENU_RANGE = 2          # functional entries lie in [-MENU_RANGE, MENU_RANGE]


def tag(family, params):
    return f"{family}({','.join(str(x) for x in params)})"


def _argv(command, family, named):
    argv = [command, "--family", family]
    for k, v in named.items():
        argv += [f"--{k}", str(v)]
    return argv


def _classify_named(family, params):
    if family in ("sl", "osp"):
        return {"m": params[0], "n": params[1]}
    return {"n": params[0]} if params else {}


def digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_cli(argv):
    """``supercomin`` CLI in-process: (exit code, stdout text)."""
    from supercomin.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# -- set-up ---------------------------------------------------------------


def instances(workload):
    """Every (family, params) whose root system the workload builds."""
    from supercomin.rootsys import normalize_family

    if workload == "sweep":
        named = [(f, tuple(n.values())) for f, n in ORACLE_GOLDEN + ORACLE_PINNED]
        out = [normalize_family(f, p) for f, p in named] + list(LAW_INSTANCES)
    elif workload == "table":
        out = list(EXPECTED_ORBITS)
    elif workload == "crosscheck":
        out = [i for i in BRACKET_SWEEP if i[0] != "gl"] + [("psl", (3,))] \
            + list(CROSSCHECK_INSTANCES)
    elif workload == "queries":
        out = list(QUERY_POOL)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return list(dict.fromkeys(out))


def setup(workload):
    """Build every root system the workload uses (and, for ``crosscheck``,
    every realization); returns the state the jobs run against."""
    import supercomin  # noqa: F401  (the import is part of set-up)
    from supercomin.rootsys import build_root_system

    warnings.filterwarnings("ignore", message="p\\(2\\)")
    systems = {key: build_root_system(*key) for key in instances(workload)}
    state = {"systems": systems}
    if workload == "crosscheck":
        from supercomin.realize import realize, realize_for

        state["realizations"] = {key: realize_for(rs) for key, rs in systems.items()}
        for key in BRACKET_SWEEP:
            if key[0] == "gl":
                state["realizations"][key] = realize(*key)
    return state


# -- jobs -----------------------------------------------------------------


def _oracle_job(family, named):
    def job(state):
        code, text = run_cli(_argv("oracle", family, named))
        return {"code": code, "stdout": text}
    return job


def _law_job(family, params):
    def job(state):
        from supercomin import weyl
        from supercomin.parabolic import enumerate_parabolics, levi_decompositions
        from supercomin.properties import (even_factor_index_sets,
                                           restriction_compatible,
                                           sums_laws_hold,
                                           weyl_invariance_holds)
        from supercomin.rootsys import build_root_system

        rs = build_root_system(family, params)
        gens = weyl.generators(rs, "auto")
        factors = even_factor_index_sets(rs)
        laws = restr = winv = True
        subsets = 0
        for s in enumerate_parabolics(rs, "exhaustive"):
            subsets += 1
            for d in levi_decompositions(s):
                laws = laws and sums_laws_hold(d)
                for idx in factors.values():
                    restr = restr and restriction_compatible(d, idx)
            winv = winv and weyl_invariance_holds(rs, s.bits, gens)
        return {"subsets": subsets, "laws": laws, "restriction": restr,
                "weyl": winv}
    return job


def _classify_job(family, params):
    def job(state):
        code, text = run_cli(_argv("classify", family,
                                   _classify_named(family, params)))
        orbits = json.loads(text)["orbit_count"] if code in (0, 1) else None
        return {"code": code, "orbit_count": orbits, "sha256": digest(text)}
    return job


def _bracket_sweep_job(family, params):
    def job(state):
        from supercomin.rootsys import is_zero_weight, wadd
        from supercomin.verify import bracket_rule_disagreements

        rz = state["realizations"][(family, params)]
        if family == "gl":
            bad = []
            for a in range(len(rz.weights)):
                for b in range(a, len(rz.weights)):
                    s = wadd(rz.weights[a], rz.weights[b])
                    if is_zero_weight(s):
                        continue
                    if (rz.index_of(s) is not None) != rz.bracket_nonzero(a, b):
                        bad.append([a, b])
        else:
            rs = state["systems"][(family, params)]
            bad = [list(p) for p in bracket_rule_disagreements(rs, rz)]
        return {"disagreements": len(bad), "pairs": digest(bad)}
    return job


def _psl_pinned_job(state):
    from supercomin.verify import bracket_rule_disagreements

    rs = state["systems"][("psl", (3,))]
    rz = state["realizations"][("psl", (3,))]
    a = rs.parse_root("e1-d1")
    b = rs.parse_root("e2-d2")
    pinned = ((not rz.bracket_nonzero(a, b)) and rs.projected_sum_in_delta(a, b)
              and rs.ambient_sum(a, b).kind == "not_root")
    return {"pinned_pair": pinned,
            "disagreements": len(bracket_rule_disagreements(rs, rz))}


def _verdict_crosscheck_job(family, params):
    def job(state):
        from supercomin.cominuscule import bracket_cominuscule, is_cominuscule
        from supercomin.parabolic import enumerate_parabolics

        rs = state["systems"][(family, params)]
        rz = state["realizations"][(family, params)]
        bad = total = 0
        for s in enumerate_parabolics(rs, "exhaustive"):
            total += 1
            if is_cominuscule(s).is_cominuscule != bracket_cominuscule(s, rz):
                bad += 1
        return {"disagree": bad, "subsets": total}
    return job


def job_list(workload):
    """[(name, job)] in canonical order; job(state) returns the answer."""
    jobs = []
    if workload == "sweep":
        for family, named in ORACLE_GOLDEN + ORACLE_PINNED:
            jobs.append((f"oracle {tag(family, named.values())}",
                         _oracle_job(family, named)))
        for family, params in LAW_INSTANCES:
            jobs.append((f"laws {tag(family, params)}", _law_job(family, params)))
    elif workload == "table":
        for family, params in EXPECTED_ORBITS:
            jobs.append((f"classify {tag(family, params)}",
                         _classify_job(family, params)))
    elif workload == "crosscheck":
        for family, params in BRACKET_SWEEP:
            jobs.append((f"bracket-rule {tag(family, params)}",
                         _bracket_sweep_job(family, params)))
        jobs.append(("psl(3,3) pinned pair", _psl_pinned_job))
        for family, params in CROSSCHECK_INSTANCES:
            jobs.append((f"verdict-crosscheck {tag(family, params)}",
                         _verdict_crosscheck_job(family, params)))
    else:
        raise ValueError(f"{workload!r} has no fixed job list")
    return jobs


# -- queries ----------------------------------------------------------------


def principal_bits(rs, lam):
    """P(lam) = {roots with lam >= 0} as a bitmask, in exact arithmetic."""
    bits = 0
    for i, r in enumerate(rs.roots):
        if sum(Fraction(c) * Fraction(x) for c, x in zip(lam, r.weight)) >= 0:
            bits |= 1 << i
    return bits


def query_answer(rs, bits):
    """The four point queries on one subset, as a JSON-able answer."""
    from supercomin.cominuscule import is_cominuscule
    from supercomin.parabolic import (RootSubset, levi_decompositions,
                                      parabolic_status, principality_witness)

    subset = RootSubset(rs, bits)
    status = parabolic_status(subset)
    witness = principality_witness(subset)
    decs = levi_decompositions(subset)
    verdict = is_cominuscule(subset)
    w = verdict.witness
    return {
        "status": status,
        "witness": list(witness) if witness is not None else None,
        "levi": [[d.levi_bits, d.nilradical_bits] for d in decs],
        "cominuscule": verdict.is_cominuscule,
        "verdict_levi": [w.levi_bits, w.nilradical_bits] if w else None,
        "flags": list(verdict.abelian_flags),
    }


def query_invariants(rs, lam, bits, answer):
    """Facts every answer must satisfy, independent of the references:
    P(lam) is parabolic, the witness induces P, and the decomposition
    induced by lam is one of the Levi decompositions."""
    if answer["status"] != "parabolic" or answer["witness"] is None:
        return False
    if principal_bits(rs, answer["witness"]) != bits:
        return False
    levi = nil = 0
    for i, r in enumerate(rs.roots):
        v = sum(Fraction(c) * Fraction(x) for c, x in zip(lam, r.weight))
        if v == 0:
            levi |= 1 << i
        elif v > 0:
            nil |= 1 << i
    return [levi, nil] in answer["levi"]


def draw_queries(seed, menu):
    """QUERIES_PER_INSTANCE draws per pool instance from its pinned menu of
    functionals, in a seeded order: [(instance key, menu index)]."""
    rng = random.Random(seed)
    draws = []
    for family, params in QUERY_POOL:
        n = len(menu[tag(family, params)])
        draws += [((family, params), rng.randrange(n))
                  for _ in range(QUERIES_PER_INSTANCE)]
    rng.shuffle(draws)
    return draws


# -- references -------------------------------------------------------------


def load_references():
    return json.loads(REFERENCES.read_text())


def golden_text(family, named):
    name = family + "_" + "_".join(str(v) for v in named.values()) + ".json"
    return (GOLDEN / name).read_text()


def expected_answers(workload, refs):
    """{job name: reference answer} for a fixed job list."""
    if workload == "sweep":
        out = {}
        for family, named in ORACLE_GOLDEN:
            out[f"oracle {tag(family, named.values())}"] = {
                "code": 0, "stdout": golden_text(family, named)}
        for name, ref in refs["sweep"].items():
            out[name] = ref
        return out
    return dict(refs[workload])
