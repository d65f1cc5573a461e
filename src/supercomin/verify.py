"""The bundled verification suite: classification statements at desk scale.

``run_paper_suite`` executes every check the package promises -- orbit
counts and table matching per family instance, principality and unique
Levi decompositions, bracket-rule equivalence against the realized
superbracket, agreement of the two independent parabolic generators (the
exhaustive lift stream and the face search), decomposition laws,
restriction compatibility, Weyl invariance, and the W(n) extension pattern
-- and reports one named pass/fail line per check.  The face search serves
those agreement checks only: ``oracle_counts`` reads the lift stream alone
and counts principality once per orbit of the classification group.

The suite reports what the computation finds, under check names that carry
the stated classification values.  Where a stated value does not hold at a
small rank (the F(4), W(2) and p(2) counts and the S(n)/S'(n) pair rule on
removed-root sums), the check fails honestly and its detail gives the value
found.  Two groups of checks fail for another reason.  The S'(4) count and
table checks: the program accepts the functional (0,0,0,1), which is not
traceless and so no functional on the Cartan subalgebra of S'(4).  Over
traceless functionals no principal parabolic subset of S'(4) is
cominuscule, as stated.  The psl(2|2) principality checks: they search
sets of whole root classes, which form a root system of type B2 and are
all principal, while the distinguished Borel subalgebra meets each (0|2)
root space in a line and is a non-principal parabolic subalgebra, as
stated.
"""

from __future__ import annotations

import warnings

from . import weyl
from .classify import (enumerate_cominuscule_orbits, expected_entries,
                       restriction_extension_check)
from .cominuscule import crosscheck_bracket, is_cominuscule, pair_forbidden
from .parabolic import (LeviDecomposition, RootSubset, _face_masks,
                        enumerate_parabolics, levi_decompositions,
                        principality_witness)
from .properties import (even_factor_index_sets, restriction_compatible,
                         sums_laws_hold, weyl_invariance_holds)
from .realize import realize, realize_for
from .rootsys import build_root_system, is_zero_weight, wadd

SCHEMA_VERSION = "1"

# (family, params, expected orbit count) -- the classification statements
EXPECTED_ORBITS = (
    ("sl", (2, 1), 4), ("sl", (3, 2), 10),
    ("psl", (2,), 1), ("psl", (3,), 14),
    ("osp", (3, 2), 1), ("osp", (5, 2), 1),
    ("osp", (1, 2), 0), ("osp", (1, 4), 0),
    ("osp", (4, 2), 3), ("osp", (6, 2), 3),
    ("osp", (2, 2), 4), ("osp", (2, 4), 4),
    ("D21a", (), 1), ("F4", (), 0), ("G3", (), 0),
    ("psq", (3,), 2), ("psq", (4,), 3),
    ("p", (2,), 4), ("p", (3,), 5),
    ("W", (2,), 3), ("W", (3,), 4),
    ("S", (3,), 4), ("S", (4,), 5), ("Sprime", (4,), 0),
    ("H", (5,), 1), ("H", (6,), 1),
)

# instance lists for the secondary suites
BRACKET_SWEEP = (
    ("gl", (2, 2)), ("gl", (3, 3)), ("psq", (3,)), ("p", (2,)), ("p", (3,)),
    ("W", (3,)), ("S", (3,)), ("S", (4,)), ("Sprime", (4,)),
    ("H", (5,)), ("H", (6,)),
)

AGREEMENT_INSTANCES = (
    ("sl", (2, 1)), ("sl", (1, 2)), ("sl", (2, 3)), ("sl", (3, 2)),
    ("osp", (3, 2)), ("osp", (5, 2)), ("osp", (1, 2)), ("osp", (1, 4)),
    ("osp", (4, 2)), ("osp", (6, 2)), ("osp", (2, 2)), ("osp", (2, 4)),
    ("D21a", ()),
)

LAW_INSTANCES = (("sl", (2, 1)), ("p", (2,)), ("p", (3,)), ("W", (3,)))

CROSSCHECK_INSTANCES = (("psq", (3,)), ("p", (2,)), ("p", (3,)), ("W", (3,)),
                        ("H", (5,)), ("S", (3,)), ("psl", (2,)))

# instances too large for a full oracle sweep: the verdict crosscheck runs
# over the transcribed table representatives and every found cominuscule set
CROSSCHECK_REPRESENTATIVES = (("S", (4,)), ("Sprime", (4,)), ("psl", (3,)),
                              ("H", (6,)))

REALIZED_AUDITS = (("sl", (2, 1)), ("psl", (2,)), ("psl", (3,)), ("psq", (3,)),
                   ("psq", (4,)), ("p", (2,)), ("p", (3,)), ("W", (3,)),
                   ("S", (3,)), ("S", (4,)), ("Sprime", (4,)),
                   ("H", (5,)), ("H", (6,)))

# the families ``run_paper_suite(only=...)`` selects checks by
SUITE_FAMILIES = tuple(sorted({f for f, _, _ in EXPECTED_ORBITS} | {"gl"}))


def _tag(family, params):
    return f"{family}({','.join(str(x) for x in params)})"


def bracket_rule_disagreements(rs, rz):
    """Pairs where the stated root-sum rule and the superbracket differ.

    Pairs a, b with b = -a (class level) are outside the rules' scope and
    are skipped.
    """
    bad = []
    for a in range(len(rs)):
        for b in range(a, len(rs)):
            if rs.neg[a] == b:
                continue
            rule = pair_forbidden(rs, a, b, literal=True)
            if rule != rz.bracket_nonzero(a, b):
                bad.append((rs.root_str(a), rs.root_str(b)))
    return bad


def run_paper_suite(only=None):
    """Execute the full suite; returns a deterministic report dict."""
    checks = []

    def want(family):
        return only is None or family in only

    def chk(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    warnings.filterwarnings("ignore", message="p\\(2\\)")

    reports = {}
    for family, params, expected in EXPECTED_ORBITS:
        if not want(family):
            continue
        rep = enumerate_cominuscule_orbits(family, params)
        reports[(family, params)] = rep
        t = _tag(family, params)
        chk(f"orbit-count {t} == {expected}", rep.orbit_count == expected,
            f"found {rep.orbit_count}")
        chk(f"representatives-match {t}", rep.matches_expected,
            f"unmatched found={len(rep.unmatched_found)} "
            f"expected={rep.unmatched_expected}")
        chk(f"unique-levi {t}", rep.all_unique_levi,
            f"max decompositions {max((o.decomposition_count for o in rep.orbits), default=1)}")
        chk(f"principality {t}", rep.all_principal)
        mod_bad = [c["entry"] for c in rep.entry_checks
                   if c["module_verdict"] not in
                   ("match", "support_match_multiplicity_note")]
        chk(f"module-weights {t}", not mod_bad, f"mismatched entries {mod_bad}")

    # nonuniqueness exhibit in p(2): two Levi decompositions, L = {} and {2e2}
    if want("p"):
        rs = build_root_system("p", (2,))
        bits = sum(1 << rs.parse_root(s) for s in ("e1-e2", "e1+e2", "2e1", "2e2"))
        verdict = is_cominuscule(RootSubset(rs, bits))
        levis = sorted(sorted(d.levi.root_strings())
                       for d in verdict.decompositions)
        chk("nonuniqueness p(2): two decompositions of a non-cominuscule set",
            levis == [[], ["2e2"]] and not verdict.is_cominuscule,
            f"levis {levis}")

    # psl(2|2): some parabolic subset admits no witness functional
    if want("psl"):
        counts = oracle_counts("psl", (2,))
        chk("nonprincipal parabolic subsets exist in psl(2|2)",
            counts["non_principal"] > 0, f"{counts['non_principal']} found")
        chk("principal stream strictly inside exhaustive for psl(2|2)",
            counts["principal"] < counts["parabolic"],
            f"{counts['principal']} principal of {counts['parabolic']}")

    # bracket-rule equivalence sweeps
    for family, params in BRACKET_SWEEP:
        if not want(family):
            continue
        t = _tag(family, params)
        if family == "gl":
            rz = realize("gl", params)
            bad = []
            for a in range(len(rz.weights)):
                for b in range(a, len(rz.weights)):
                    s = wadd(rz.weights[a], rz.weights[b])
                    if is_zero_weight(s):
                        continue
                    if (rz.index_of(s) is not None) != rz.bracket_nonzero(a, b):
                        bad.append((a, b))
        else:
            rs = build_root_system(family, params)
            bad = bracket_rule_disagreements(rs, realize_for(rs))
        chk(f"bracket-rule-equivalence {t}", not bad,
            f"{len(bad)} disagreeing pairs" + (f", e.g. {bad[0]}" if bad else ""))

    if want("psl"):
        rs = build_root_system("psl", (3,))
        rz = realize_for(rs)
        a = rs.parse_root("e1-d1")
        b = rs.parse_root("e2-d2")
        chk("psl(3|3) pinned pair: bracket zero, projected sum a root",
            (not rz.bracket_nonzero(a, b)) and rs.projected_sum_in_delta(a, b)
            and rs.ambient_sum(a, b).kind == "not_root")
        bad = bracket_rule_disagreements(rs, rz)
        chk("bracket-rule-equivalence psl(3,3)", not bad, f"{len(bad)} pairs")

    # crosscheck: root-rule verdict vs bracket verdict over whole oracles
    for family, params in CROSSCHECK_INSTANCES:
        if not want(family):
            continue
        rs = build_root_system(family, params)
        rz = realize_for(rs)
        subsets = list(enumerate_parabolics(rs, "exhaustive"))
        bad = sum(not crosscheck_bracket(s, rz) for s in subsets)
        chk(f"verdict-crosscheck {_tag(family, params)}", bad == 0,
            f"{bad} of {len(subsets)} parabolic subsets disagree")

    for family, params in CROSSCHECK_REPRESENTATIVES:
        if not want(family):
            continue
        rs = build_root_system(family, params)
        rz = realize_for(rs)
        table = [e.bits for e in expected_entries(rs)]
        if family == "Sprime":
            # S'(n) has no table entries; borrow the S(n) sets (same roots)
            rs_s = build_root_system("S", params)
            table = [e.bits for e in expected_entries(rs_s)]
        sample = {bits: RootSubset(rs, bits) for bits in table}
        sample.update((s.bits, s) for s in reports[(family, params)].subsets)
        # a subset that is not parabolic is cominuscule by neither verdict
        bad = sum(not crosscheck_bracket(s, rz) for s in sample.values())
        chk(f"verdict-crosscheck-representatives {_tag(family, params)}",
            bad == 0, f"{bad} of {len(sample)} sampled sets disagree")

    # the lift stream against the face search, whose values are the
    # principal subsets (regular Kac-Moody range, where every parabolic is)
    for family, params in AGREEMENT_INSTANCES:
        if not want(family):
            continue
        rs = build_root_system(family, params)
        ex = [s.bits for s in enumerate_parabolics(rs, "exhaustive")]
        pr = _face_masks(rs)
        chk(f"exhaustive==principal {_tag(family, params)}", ex == pr,
            f"{len(ex)} vs {len(pr)}")

    # decomposition laws, restriction, Weyl invariance over small oracles
    for family, params in LAW_INSTANCES:
        if not want(family):
            continue
        rs = build_root_system(family, params)
        gens = weyl.generators(rs, "auto")
        factors = even_factor_index_sets(rs)
        laws = restr = winv = True
        for s in enumerate_parabolics(rs, "exhaustive"):
            for d in levi_decompositions(s):
                laws = laws and sums_laws_hold(d)
                for idx in factors.values():
                    restr = restr and restriction_compatible(d, idx)
            winv = winv and weyl_invariance_holds(rs, s, gens)
        t = _tag(family, params)
        chk(f"decomposition-laws {t}", laws)
        chk(f"restriction-compatibility {t}", restr)
        chk(f"weyl-invariance {t}", winv)

    # restriction of classification representatives to even factors
    for (family, params), rep in sorted(reports.items()):
        rs = build_root_system(family, params)
        factors = even_factor_index_sets(rs)
        ok = True
        for o in rep.orbits:
            witness = LeviDecomposition(o.representative, o.levi_bits, o.nil_bits)
            for idx in factors.values():
                ok = ok and restriction_compatible(witness, idx)
        chk(f"even-part-restriction {_tag(family, params)}", ok)

    # W(n) extension pattern
    if want("W"):
        for n in (3, 4):
            for r in restriction_extension_check(n):
                chk(f"W({n}) {r['check']}", r["ok"], r["detail"])

    # realization audits
    for family, params in REALIZED_AUDITS:
        if not want(family):
            continue
        rz = realize_for(build_root_system(family, params))
        rep = rz.verify_root_decomposition()
        chk(f"realization-audit {_tag(family, params)}", rep["ok"],
            f"dim {rep['dimension_total']}/{rep['dimension_expected']}")

    if want("S") or want("Sprime"):
        a = realize_for(build_root_system("S", (4,)))
        b = realize_for(build_root_system("Sprime", (4,)))
        same = all(a.space_dims(i) == b.space_dims(i)
                   for i in range(len(a.weights)))
        chk("S'(4) filtration dims equal S(4) dims", same)

    failed = [c["name"] for c in checks if not c["ok"]]
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "paper",
        "only": sorted(only) if only else None,
        "checks": checks,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "failed_names": failed,
        "ok": not failed,
    }


def oracle_counts(family, params):
    """Exhaustive parabolic/cominuscule/principal counts for one instance.

    ``cominuscule`` is counted per subset.  ``principal`` is counted per
    orbit of the classification group (``weyl.generators``): g.P(lam) =
    P(g.lam), and the group fixes the functional constraints, so an orbit
    is principal exactly when its canonical representative has a
    ``principality_witness``, and it adds its size to the count.

    The exhaustive stream is bounded by the node budget
    ``kernel.NODE_CAP`` alone, as the system is by ``rootsys.ROOT_CAP``:
    an instance either finishes or raises ``CapExceeded``.
    """
    rs = build_root_system(family, params)
    subsets = {s.bits: s for s in enumerate_parabolics(rs, "exhaustive")}
    n_com = sum(1 for s in subsets.values() if is_cominuscule(s).is_cominuscule)
    partition = weyl.orbit_partition(rs, list(subsets), weyl.generators(rs))
    n_principal = sum(len(members) for can, members in partition.items()
                      if principality_witness(subsets[can]) is not None)
    return {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "params": list(params),
        "roots": len(rs),
        "parabolic": len(subsets),
        "principal": n_principal,
        "non_principal": len(subsets) - n_principal,
        "cominuscule": n_com,
    }
