"""Regenerate ``references.json`` from the package as it is now.

    PYTHONPATH=src python3 perfbench/make_references.py

The references pin what the package answers at the commit that defines the
benchmark, documented disagreements with the paper included (F(4), S'(4),
W(2) and p(2) orbit counts; 6, 28 and 32 rule/bracket disagreements in
S(3), S(4) and S'(4); one S(3) verdict crosscheck failure).  A later change
that alters any answer fails the benchmark's check until the change is
reviewed and this file is regenerated in its own commit.  The oracle
goldens are read from ``tests/golden`` and are not copied here.
"""

from __future__ import annotations

import json
import random

import workloads


def menu_for(rs, label):
    """MENU_SIZE distinct small integer functionals with P(lam) proper."""
    rng = random.Random(f"menu {label}")
    full = (1 << len(rs)) - 1
    dim = len(rs.basis)
    seen, out = set(), []
    while len(out) < workloads.MENU_SIZE:
        lam = tuple(rng.randint(-workloads.MENU_RANGE, workloads.MENU_RANGE)
                    for _ in range(dim))
        if lam in seen:
            continue
        seen.add(lam)
        bits = workloads.principal_bits(rs, lam)
        if bits == full:
            continue
        answer = workloads.query_answer(rs, bits)
        assert workloads.query_invariants(rs, lam, bits, answer), (label, lam)
        out.append([list(lam), workloads.digest(answer)])
    return out


def main():
    refs = {}
    golden = {f"oracle {workloads.tag(f, n.values())}"
              for f, n in workloads.ORACLE_GOLDEN}
    for workload in ("sweep", "table", "crosscheck"):
        state = workloads.setup(workload)
        refs[workload] = {name: job(state)
                          for name, job in workloads.job_list(workload)
                          if name not in golden}
    state = workloads.setup("queries")
    menu = {}
    for key, rs in state["systems"].items():
        if rs.functional_constraints():
            raise SystemExit(f"{key} constrains its functionals; "
                             "leave it out of the query pool")
        menu[workloads.tag(*key)] = menu_for(rs, workloads.tag(*key))
    refs["queries"] = {"menu": menu}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                    + "\n")


if __name__ == "__main__":
    main()
