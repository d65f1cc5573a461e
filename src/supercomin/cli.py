"""Command-line front end: classify / verify / oracle.

Exit codes: 0 all checks passed, 1 a comparison failed, 2 invalid input or
a cap was exceeded.  Output is deterministic: no timestamps, no floats,
witnesses printed with cleared denominators; repeated runs produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .classify import enumerate_cominuscule_orbits
from .rootsys import (FAMILIES, _OSP_ALIASES, CapExceeded, ParameterError,
                      build_root_system)
from .verify import (SCHEMA_VERSION, SUITE_FAMILIES, oracle_counts,
                     run_paper_suite)

# the families, each osp alias right after osp
FAMILY_CHOICES = [name for f in FAMILIES
                  for name in ((f,) + _OSP_ALIASES if f == "osp" else (f,))]


def _params_from_args(family, args):
    if family in ("sl", "osp_odd", "osp_even"):
        if args.m is None or args.n is None:
            raise ParameterError(f"family {family} needs --m and --n")
        return (args.m, args.n)
    if family == "osp":
        if args.m is None or args.n is None:
            raise ParameterError("family osp needs --m (=M) and --n (=N, even)")
        return (args.m, args.n)
    takes = () if family in ("D21a", "F4", "G3") else ("n",)
    extra = [f"--{p}" for p in ("m", "n")
             if p not in takes and getattr(args, p) is not None]
    if extra:
        raise ParameterError(
            f"family {family} does not take {' or '.join(extra)}")
    if not takes:
        return ()
    if args.n is None:
        raise ParameterError(f"family {family} needs --n")
    return (args.n,)


def _report_json(rep):
    rs = build_root_system(rep.family, rep.params)
    orbits = []
    for o in rep.orbits:
        orbits.append({
            "representative": o.representative.root_strings(),
            "principal_witness": list(o.witness_functional) if o.witness_functional else None,
            "levi": {
                "roots": [rs.root_str(i) for i in range(len(rs))
                          if (o.levi_bits >> i) & 1],
            },
            "nilradical": {
                "weights": [[rs.root_str(i), rs.roots[i].even_dim,
                             rs.roots[i].odd_dim]
                            for i in range(len(rs)) if (o.nil_bits >> i) & 1],
                "module_claim": next(
                    (c["module_claim"] for c in rep.entry_checks
                     if c["entry"] == o.matched_entry), None),
                "verdict": o.module_verdict,
            },
            "matched_entry": o.matched_entry,
            "levi_decompositions": o.decomposition_count,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "family": rep.family,
        "params": list(rep.params),
        "group": rep.group,
        "method": rep.method,
        "orbit_count": rep.orbit_count,
        "orbits": orbits,
        "checks": {
            "matches_expected_table": rep.matches_expected,
            "expected_entries": rep.expected_names,
            "unmatched_expected": rep.unmatched_expected,
            "all_principal": rep.all_principal,
            "all_unique_levi": rep.all_unique_levi,
            "module_verdicts": {c["entry"]: c["module_verdict"]
                                for c in rep.entry_checks},
        },
    }


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if getattr(args, "format", "json") == "table":
        text = _as_table(payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(
                f"cannot write --out {args.out}: {exc.strerror}") from exc
    sys.stdout.write(text)


def _as_table(payload):
    lines = []
    if "orbits" in payload:
        lines.append(f"{payload['family']}{tuple(payload['params'])}: "
                     f"{payload['orbit_count']} orbits [{payload['method']}]")
        for o in payload["orbits"]:
            lines.append(f"  {o['matched_entry'] or '??'}: "
                         f"{' '.join(o['representative'])}")
            lines.append(f"    witness {o['principal_witness']}  "
                         f"module {o['nilradical']['verdict']}")
        for k, v in payload["checks"].items():
            if not isinstance(v, dict):
                lines.append(f"  check {k}: {v}")
    elif "checks" in payload:
        for c in payload["checks"]:
            lines.append(f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}"
                         + (f"  [{c['detail']}]" if c["detail"] else ""))
        lines.append(f"passed {payload['passed']}  failed {payload['failed']}")
    else:
        for k, v in payload.items():
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> int:
    params = _params_from_args(args.family, args)
    rep = enumerate_cominuscule_orbits(args.family, params)
    _emit(_report_json(rep), args)
    ok = rep.matches_expected and rep.all_principal and rep.all_unique_levi
    return 0 if ok else 1


def cmd_verify(args) -> int:
    only = set(args.only) if args.only else None
    rep = run_paper_suite(only=only)
    _emit(rep, args)
    if rep["failed"]:
        sys.stderr.write(f"{rep['failed']} checks failed: "
                         + ", ".join(rep["failed_names"]) + "\n")
    return 0 if rep["ok"] else 1


def cmd_oracle(args) -> int:
    params = _params_from_args(args.family, args)
    counts = oracle_counts(args.family, params)
    _emit(counts, args)
    return 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="supercomin",
        description="Root systems and the abelian-nilradical classification "
                    "of parabolic subsets for simple Lie superalgebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--out")

    def instance(p):
        p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        output(p)

    p = sub.add_parser("classify", help="classify cominuscule orbits of one instance")
    instance(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("--suite", choices=["paper"], default="paper")
    p.add_argument("--only", nargs="+", metavar="FAMILY",
                   choices=SUITE_FAMILIES)
    output(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive counts for one instance")
    instance(p)
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    warnings.filterwarnings("ignore", message="p\\(2\\)")
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ParameterError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
