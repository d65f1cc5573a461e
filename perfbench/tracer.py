"""Spans and counters around the package's layers, installed from outside.

``Tracer.install()`` wraps the public functions of each module and rebinds
every module attribute that refers to them, because ``from .parabolic
import levi_decompositions`` copies the binding into ``classify``,
``cominuscule``, ``verify`` and ``properties``.  Nothing under ``src/``
changes.

Entry points record a span (id, name, start, end, parent).  Hot leaf
methods (``IncrementalFM.add``, ``bracket_nonzero``, ``ambient_sum``,
``wadd`` and the other sum lookups) are aggregated as counts and self time
only.  A generator entry point (``enumerate_parabolics``) is timed per
``next()``, so its span covers only the time spent inside it; ``_iter_lifts``
is consumed inside ``parabolic_status``, ``levi_decompositions`` and
``_exhaustive_masks`` and is timed through them.

Each wrapper adds its inclusive time to its parent's child time, so a
layer's self time is its time minus that of its children, and the self
times of all layers plus ``bench.self_s`` add up to the traced ``run_s``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# per-layer metrics, in the order they are reported; see NOTES.md for the
# end-to-end metric and workload each one should move
PER_LAYER = (
    ("rootsys.build_calls", "count"), ("rootsys.build_distinct", "count"),
    ("rootsys.build_s", "s"), ("rootsys.sum_calls", "count"),
    ("rootsys.wadd_calls", "count"), ("rootsys.sum_s", "s"),
    ("kernel.calls", "count"), ("kernel.closed_masks", "count"),
    ("kernel.s", "s"),
    ("parabolic.closure_rows_calls", "count"),
    ("parabolic.closure_rows_reuse", "ratio"),
    ("parabolic.closure_rows_s", "s"),
    ("parabolic.status_calls", "count"), ("parabolic.status_s", "s"),
    ("parabolic.exhaustive_subsets", "count"),
    ("parabolic.lift_filter_ratio", "ratio"),
    ("parabolic.exhaustive_s", "s"),
    ("parabolic.face_subsets", "count"), ("parabolic.faces_s", "s"),
    ("parabolic.enumerate_s", "s"),
    ("parabolic.levi_calls", "count"),
    ("parabolic.levi_decompositions", "count"), ("parabolic.levi_s", "s"),
    ("parabolic.witness_calls", "count"), ("parabolic.witness_found", "count"),
    ("parabolic.witness_s", "s"),
    ("feasible.witness_calls", "count"), ("feasible.witness_rows", "count"),
    ("feasible.witness_s", "s"),
    ("feasible.fm_add_calls", "count"), ("feasible.fm_add_alive_ratio", "ratio"),
    ("feasible.fm_rows", "count"), ("feasible.fm_clones", "count"),
    ("feasible.fm_add_s", "s"), ("feasible.fm_clone_s", "s"),
    ("cominuscule.verdict_calls", "count"), ("cominuscule.verdict_true", "count"),
    ("cominuscule.verdict_s", "s"),
    ("cominuscule.pair_rule_calls", "count"), ("cominuscule.pair_rule_s", "s"),
    ("cominuscule.bracket_verdict_calls", "count"),
    ("cominuscule.bracket_verdict_s", "s"),
    ("weyl.orbit_calls", "count"), ("weyl.orbit_elements", "count"),
    ("weyl.root_permutation_calls", "count"), ("weyl.s", "s"),
    ("realize.build_calls", "count"), ("realize.build_s", "s"),
    ("realize.bracket_calls", "count"), ("realize.bracket_distinct", "count"),
    ("realize.bracket_true", "count"), ("realize.element_brackets", "count"),
    ("realize.bracket_s", "s"),
    ("classify.self_s", "s"), ("classify.expected_entries_s", "s"),
    ("properties.self_s", "s"), ("verify.self_s", "s"), ("cli.self_s", "s"),
    ("bench.self_s", "s"), ("trace.run_s", "s"), ("trace.spans", "count"),
)

# what set-up builds, counted while set-up runs under the tracer
SETUP_LAYER = (
    ("setup.rootsys_build_calls", "count"), ("setup.rootsys_build_s", "s"),
    ("setup.realize_build_calls", "count"), ("setup.realize_build_s", "s"),
)

TIME_METRICS = tuple(name for name, unit in PER_LAYER + SETUP_LAYER
                     if unit == "s")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self._patches = []
        self.frames = []       # per open call: [child time]
        self.open_spans = [0]  # ids of the open spans; 0 is the root
        self.spans = []        # (id, name, start, end, parent)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.origin = self.clock()

    def reset(self):
        """Start a new pass: clear spans, counters and self times in place
        (the installed wrappers hold these containers)."""
        self.frames.clear()
        del self.open_spans[1:]
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()
        self.distinct.clear()
        self.origin = self.clock()

    # -- wrappers -----------------------------------------------------------

    def _call(self, fn, bucket, span, after):
        frames, open_spans, clock = self.frames, self.open_spans, self.clock
        self_s, spans = self.self_s, self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans) + 1
                parent = open_spans[-1]
                open_spans.append(sid)
                spans.append(None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dt = t1 - t0
                self_s[bucket] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if span:
                    open_spans.pop()
                    spans[sid - 1] = (sid, bucket, t0 - self.origin,
                                      t1 - self.origin, parent)
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, fn, bucket):
        """Wrap a generator function; each next() is one span."""
        step = self._call(next, bucket, True, None)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def proxy():
                while True:
                    try:
                        item = step(inner)
                    except StopIteration:
                        return
                    yield item
            return proxy()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapped):
        for name, mod in list(sys.modules.items()):
            if name != "supercomin" and not name.startswith("supercomin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def _method(self, cls, attr, wrapped):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self):
        # by module path: the package re-exports functions named like
        # their modules (``supercomin.realize`` is a function there)
        (cli, classify, cominuscule, feasible, kernel, matrixrep, parabolic,
         properties, realize, rootsys, superder, verify, weyl) = (
            importlib.import_module(f"supercomin.{name}") for name in (
                "cli", "classify", "cominuscule", "feasible", "kernel",
                "matrixrep", "parabolic", "properties", "realize", "rootsys",
                "superder", "verify", "weyl"))

        functions = [
            # (module, name, self-time bucket, record a span, after-hook)
            (rootsys, "build_root_system", "rootsys.build_s", True, _after_build),
            (rootsys, "wadd", "rootsys.sum_s", False, _count("rootsys.wadd_calls")),
            (kernel, "enumerate_closed", "kernel.s", True, _after_kernel),
            (parabolic, "closure_rows", "parabolic.closure_rows_s", True,
             _after_closure_rows),
            (parabolic, "parabolic_status", "parabolic.status_s", True,
             _count("parabolic.status_calls")),
            (parabolic, "_exhaustive_masks", "parabolic.exhaustive_s", True,
             _after_len("parabolic.exhaustive_subsets")),
            (parabolic, "_face_masks", "parabolic.faces_s", True,
             _after_len("parabolic.face_subsets")),
            (parabolic, "levi_decompositions", "parabolic.levi_s", True,
             _after_levi),
            (parabolic, "principality_witness", "parabolic.witness_s", True,
             _after_witness),
            (feasible, "feasible_witness", "feasible.witness_s", True,
             _after_feasible_witness),
            (cominuscule, "is_cominuscule", "cominuscule.verdict_s", True,
             _after_verdict),
            (cominuscule, "pair_forbidden", "cominuscule.pair_rule_s", False,
             _count("cominuscule.pair_rule_calls")),
            (cominuscule, "bracket_cominuscule", "cominuscule.bracket_verdict_s",
             True, _count("cominuscule.bracket_verdict_calls")),
            (weyl, "generators", "weyl.s", True, None),
            (weyl, "orbit", "weyl.s", True, _after_orbit),
            (weyl, "canonical_rep", "weyl.s", True, None),
            (weyl, "orbit_partition", "weyl.s", True, None),
            (weyl, "act", "weyl.s", False, None),
            (weyl, "root_permutation", "weyl.s", False,
             _count("weyl.root_permutation_calls")),
            (realize, "realize", "realize.build_s", True,
             _count("realize.build_calls")),
            (realize, "realize_for", "realize.build_s", True,
             _count("realize.build_calls")),
            (classify, "enumerate_cominuscule_orbits", "classify.self_s", True, None),
            (classify, "cominuscule_subsets", "classify.self_s", True, None),
            (classify, "expected_entries", "classify.expected_entries_s", True, None),
            (properties, "sums_laws_hold", "properties.self_s", True, None),
            (properties, "even_factor_index_sets", "properties.self_s", True, None),
            (properties, "restriction_compatible", "properties.self_s", True, None),
            (properties, "weyl_invariance_holds", "properties.self_s", True, None),
            (verify, "oracle_counts", "verify.self_s", True, None),
            (verify, "bracket_rule_disagreements", "verify.self_s", True, None),
            (cli, "main", "cli.self_s", True, None),
        ]
        for mod, name, bucket, span, after in functions:
            original = getattr(mod, name)
            self._rebind(original, self._call(original, bucket, span, after))
        enum = parabolic.enumerate_parabolics
        self._rebind(enum, self._generator(enum, "parabolic.enumerate_s"))

        methods = [
            (rootsys.RootSystem, "ambient_sum", "rootsys.sum_s",
             _count("rootsys.sum_calls")),
            (rootsys.RootSystem, "pair_targets", "rootsys.sum_s",
             _count("rootsys.sum_calls")),
            (rootsys.SymmetrizedSystem, "sum_target", "rootsys.sum_s",
             _count("rootsys.sum_calls")),
            (feasible.IncrementalFM, "clone", "feasible.fm_clone_s",
             _count("feasible.fm_clones")),
            (realize.Realization, "bracket_nonzero", "realize.bracket_s",
             _after_bracket),
            (superder.SuperDerivation, "bracket", "realize.bracket_s",
             _count("realize.element_brackets")),
            (matrixrep.MatrixSuperElement, "bracket", "realize.bracket_s",
             _count("realize.element_brackets")),
        ]
        for cls, attr, bucket, after in methods:
            self._method(cls, attr, self._call(cls.__dict__[attr], bucket,
                                               False, after))
        self._method(feasible.IncrementalFM, "add", self._fm_add(
            feasible.IncrementalFM.add))

    def _fm_add(self, fn):
        """IncrementalFM.add, counting the growth of ``seen`` per call."""
        counts = self.counts

        def measured(fm, row):
            before = len(fm.seen)
            alive = fn(fm, row)
            counts["feasible.fm_rows"] += len(fm.seen) - before
            counts["feasible.fm_add_alive"] += bool(alive)
            return alive

        return self._call(measured, "feasible.fm_add_s", False,
                          _count("feasible.fm_add_calls"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, run_s):
        """Per-layer metrics of the pass that just ended (``run_s`` long)."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {name: float(self.self_s.get(name, 0.0)) if unit == "s"
               else c.get(name, 0) for name, unit in PER_LAYER}
        out["rootsys.build_distinct"] = len(self.distinct["rootsys.build"])
        out["parabolic.closure_rows_reuse"] = ratio(
            len(self.distinct["parabolic.closure_rows"]),
            c["parabolic.closure_rows_calls"])
        out["parabolic.lift_filter_ratio"] = ratio(
            c["parabolic.exhaustive_subsets"], c["kernel.closed_masks"])
        out["feasible.fm_add_alive_ratio"] = ratio(
            c["feasible.fm_add_alive"], c["feasible.fm_add_calls"])
        out["realize.bracket_distinct"] = len(self.distinct["realize.bracket"])
        layers = sum(self.self_s.values())
        out["bench.self_s"] = run_s - layers
        out["trace.run_s"] = run_s
        out["trace.spans"] = len(self.spans)
        return out

    def setup_metrics(self):
        """The builds counted since the tracer was installed, read right
        after set-up."""
        return {
            "setup.rootsys_build_calls": self.counts["rootsys.build_calls"],
            "setup.rootsys_build_s": self.self_s["rootsys.build_s"],
            "setup.realize_build_calls": self.counts["realize.build_calls"],
            "setup.realize_build_s": self.self_s["realize.build_s"],
        }

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- after-hooks: (tracer, call args, result) -------------------------------


def _count(key):
    def hook(tr, args, result):
        tr.counts[key] += 1
    return hook


def _after_len(key):
    def hook(tr, args, result):
        tr.counts[key] += len(result)
    return hook


def _after_build(tr, args, rs):
    tr.counts["rootsys.build_calls"] += 1
    tr.distinct["rootsys.build"].add((rs.family, rs.params))


def _after_kernel(tr, args, masks):
    tr.counts["kernel.calls"] += 1
    tr.counts["kernel.closed_masks"] += len(masks)


def _after_closure_rows(tr, args, rows):
    rs = args[0]
    tr.counts["parabolic.closure_rows_calls"] += 1
    tr.distinct["parabolic.closure_rows"].add((rs.family, rs.params))


def _after_levi(tr, args, decs):
    tr.counts["parabolic.levi_calls"] += 1
    tr.counts["parabolic.levi_decompositions"] += len(decs)


def _after_witness(tr, args, witness):
    tr.counts["parabolic.witness_calls"] += 1
    tr.counts["parabolic.witness_found"] += witness is not None


def _after_feasible_witness(tr, args, x):
    tr.counts["feasible.witness_calls"] += 1
    tr.counts["feasible.witness_rows"] += len(args[0])


def _after_verdict(tr, args, verdict):
    tr.counts["cominuscule.verdict_calls"] += 1
    tr.counts["cominuscule.verdict_true"] += verdict.is_cominuscule


def _after_orbit(tr, args, seen):
    tr.counts["weyl.orbit_calls"] += 1
    tr.counts["weyl.orbit_elements"] += len(seen)


def _after_bracket(tr, args, nonzero):
    rz, a, b = args
    tr.counts["realize.bracket_calls"] += 1
    tr.counts["realize.bracket_true"] += nonzero
    tr.distinct["realize.bracket"].add((id(rz), min(a, b), max(a, b)))
