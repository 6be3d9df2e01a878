"""Span and counter recorder, and the harness that wraps catend from outside.

A traced run rebinds every public function of every ``catend`` module, in
every ``catend`` module namespace that holds it (modules import each other's
functions by name), and wraps the public methods of ``QuantaleInstance``,
``FinSetFragment``, ``FinCategory`` and ``Report``.  No file of the package
changes, and nothing is installed unless a traced run asks for it.

Per wrapped name the recorder keeps calls, self time and inclusive time
(counted once per outermost call, so recursion is not double counted), the
same for a few named groups, and counters taken from arguments and results at
the same boundaries.  Spans (id, parent id, name, start, end, op) are kept in
memory for the layer-boundary functions and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "cocompletion", "config", "core", "ends", "errors", "finset",
           "limits", "quantale", "report", "smcc", "transport")
CLASSES = (("quantale", "QuantaleInstance"), ("finset", "FinSetFragment"),
           ("core", "FinCategory"), ("report", "Report"))

AMBIENT = ("hom", "compose", "identity", "tensor_arr", "curry", "uncurry", "ev",
           "left_unitor", "left_unitor_inv", "right_unitor", "right_unitor_inv",
           "associator", "associator_inv", "symmetry")
FINSET_AMBIENT = AMBIENT + ("tensor_obj", "exp_obj", "elements", "element_index",
                            "make_arrow", "apply", "arrow_label", "objects",
                            "is_identity", "inverse")
GROUPS = {
    "core.lookup": {"FinCategory.arrow_ids", "FinCategory.hom_ids", "FinCategory.iso_pairs"},
    "quantale.build": {f"quantale.{f}" for f in (
        "quantale_from_tables", "godel_chain", "lukasiewicz_chain", "drastic_chain",
        "product_quantale", "powerset_quantale", "heyting_from_lattice",
        "standard_quantales")},
    "quantale.ambient": {f"QuantaleInstance.{m}" for m in AMBIENT},
    "finset.ambient": {f"FinSetFragment.{m}" for m in FINSET_AMBIENT},
    "limits.mono_scan": {"limits.mono_violation", "limits.jointly_monic_violation"},
    "cli.load": {f"cli.{f}" for f in (
        "load_document", "quantale_from_doc", "finset_from_doc", "fincat_from_doc",
        "instance_from_doc", "diagram_from_doc")},
    "cli.command": {f"cli.cmd_{c}" for c in (
        "validate", "laws", "limit", "colimit", "end", "colimit_via_ends")},
}
# Spans are kept for these layer boundaries; every other wrapped name (the
# per-arrow ambient methods and combinators) is aggregated only, which keeps
# memory bounded on runs with millions of calls.
SPAN_NAMES = {
    "core.build_category", "core.category_violations", "core.poset_category",
    "core.discrete_category", "limits.limit_brute", "limits.enumerate_cones",
    "limits.colimit_brute", "limits.refine_weak_initial", "limits.mono_violation",
    "limits.jointly_monic_violation", "limits.limiting_violations", "ends.end_of",
    "ends.subdivision", "ends.wedge_violations", "ends.end_universal_violations",
    "transport.skeletonize", "transport.transport_limit", "smcc.law_suite",
    "smcc.cocone_element", "cocompletion.colimit_via_ends",
    "cocompletion.synthesize_cocone", "cocompletion.mediate_weakly",
    "cocompletion.end_via_cogenerator", "FinSetFragment.limit_data",
    "Report.emit", "cli.main",
} | GROUPS["quantale.build"] | GROUPS["cli.load"] | GROUPS["cli.command"]
SPAN_CAP = 200_000
CHECK_PREFIXES = ("synthesis", "mediate", "element", "cocones", "initial", "colimit",
                  "end2", "end", "smcc", "residuation", "limit", "functor", "bifunctor")


CALLS, SELF, INCL, DEPTH = range(4)


class Recorder:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op = "setup"
        self.paused = 0
        self._cells: dict[str, list] = {}   # name or group -> [calls, self, incl, depth]
        self._stack: list[list] = []        # per active call: [child seconds, span id]
        self._next_id = 0

    def _cell(self, key: str) -> list:
        return self._cells.setdefault(key, [0, 0.0, 0.0, 0])

    def _field(self, i: int) -> defaultdict:
        out = defaultdict(int if i == CALLS else float)
        out.update({k: c[i] for k, c in self._cells.items()})
        return out

    @property
    def calls(self) -> defaultdict:
        return self._field(CALLS)

    @property
    def self_s(self) -> defaultdict:
        return self._field(SELF)

    @property
    def incl_s(self) -> defaultdict:
        """Inclusive time, counted once per outermost call of the name or group."""
        return self._field(INCL)

    def wrap(self, name: str, fn, hook=None):
        cell = self._cell(name)
        groups = [self._cell(g) for g, members in GROUPS.items() if name in members]
        keep = name in SPAN_NAMES
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            stack = rec._stack
            parent = stack[-1][1] if stack else -1
            sid = parent
            if keep:
                sid = rec._next_id
                rec._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            cell[DEPTH] += 1
            for g in groups:
                g[DEPTH] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                cell[CALLS] += 1
                cell[SELF] += dur - frame[0]
                cell[DEPTH] -= 1
                if not cell[DEPTH]:
                    cell[INCL] += dur
                for g in groups:
                    g[DEPTH] -= 1
                    if not g[DEPTH]:
                        g[INCL] += dur
                if keep:
                    if len(rec.spans) < SPAN_CAP:
                        rec.spans.append((sid, parent, name, t0, t1, rec.op))
                    else:
                        rec.spans_dropped += 1
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        traced.__bench_original__ = fn
        return traced

    def count_checks(self, entries) -> None:
        for check, passed in entries:
            self.counts["report.checks"] += 1
            if not passed:
                self.counts["report.checks_failed"] += 1
            prefix = check.split(".", 1)[0]
            if prefix in CHECK_PREFIXES:
                self.counts[f"report.checks.{prefix}"] += 1

    def stats(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "counts": dict(self.counts)}

    def merge(self, stats: dict, spans: list, op: str) -> None:
        """Add a child process's stats and spans (a traced CLI call)."""
        for i, field in ((CALLS, "calls"), (SELF, "self_s"), (INCL, "incl_s")):
            for k, v in stats[field].items():
                self._cell(k)[i] += v
        self.counts.update(stats["counts"])
        base = self._next_id
        for sid, parent, name, t0, t1, _ in spans:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((base + sid, base + parent if parent >= 0 else -1,
                                   name, t0, t1, op))
            else:
                self.spans_dropped += 1
        self._next_id = base + max((s[0] for s in spans), default=-1) + 1


# ---------------------------------------------------------------------------
# Counters read at the wrapped boundaries


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _law_scan(rec, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "arrows"))
    rec.counts["core.law_scan_arrows"] += n
    rec.counts["core.law_scan_pairs"] += n * n
    rec.counts["core.composition_entries"] += len(_arg(args, kwargs, 2, "composition"))


def _limit_path(rec, args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    rec.paused += 1
    try:
        enumerable = A.objects() is not None
    finally:
        rec.paused -= 1
    path = "enum" if enumerable and not A.posetal else ("thin" if enumerable else "data")
    rec.counts[f"limits.limit_{path}_calls"] += 1


def _cones(rec, args, kwargs, result):
    rec.counts["limits.cones_enumerated"] += len(result)


def _subdivision(rec, args, kwargs, result):
    rec.counts["ends.subdivision_nodes"] += len(result.shape.objects)


def _skeleton(rec, args, kwargs, result):
    rec.counts["transport.nodes_removed"] += (len(result.d1.shape.objects)
                                              - len(result.d2.shape.objects))


def _wedges(rec, args, kwargs, result):
    for c in result.checks:
        if c.check == "end2.universal" and c.tag.startswith("wedges="):
            rec.counts["cocompletion.cogen_wedges_replayed"] += int(c.tag.split("=", 1)[1])


def _law_cases(rec, args, kwargs, result):
    for e in result:
        if e.tag.startswith("cases="):
            rec.counts["smcc.law_cases"] += int(e.tag.split("=", 1)[1])


def _hom_arrows(rec, args, kwargs, result):
    rec.counts["finset.hom_arrows"] += len(result)


HOOKS = {
    "core.category_violations": _law_scan,
    "limits.limit_brute": _limit_path,
    "limits.enumerate_cones": _cones,
    "ends.subdivision": _subdivision,
    "transport.skeletonize": _skeleton,
    "cocompletion.end_via_cogenerator": _wedges,
    "smcc.law_suite": _law_cases,
    "FinSetFragment.hom": _hom_arrows,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


class Harness:
    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def install(self, only=None) -> None:
        """Wrap every public function and method, or only the names in ``only``."""
        mods = {n: importlib.import_module(f"catend.{n}") for n in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and (only is None or name in only)):
                    wrapped[obj] = self.rec.wrap(name, obj, HOOKS.get(name))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj, True))
        for short, clsname in CLASSES:
            cls = getattr(mods[short], clsname)
            for attr in dir(cls):
                raw = inspect.getattr_static(cls, attr)
                name = f"{clsname}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(raw)
                        or (only is not None and name not in only)):
                    continue
                self._undo.append((cls, attr, raw, attr in vars(cls)))
                setattr(cls, attr, self.rec.wrap(name, raw, HOOKS.get(name)))

    def uninstall(self) -> None:
        for target, attr, original, own in reversed(self._undo):
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._undo.clear()


def wrapped_names() -> list[str]:
    """Every catend function or method currently replaced by a wrapper."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"catend.{short}")
        out += [f"{short}.{a}" for a, o in vars(mod).items()
                if hasattr(o, "__bench_original__")]
    for short, clsname in CLASSES:
        cls = getattr(importlib.import_module(f"catend.{short}"), clsname)
        out += [f"{clsname}.{a}" for a, o in vars(cls).items()
                if hasattr(o, "__bench_original__")]
    return out


# ---------------------------------------------------------------------------
# CLI start-up, measured from outside


def _median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")


def startup_costs(root, env, repeats: int = 5) -> dict:
    """Interpreter start (``-c pass``) and ``import catend.cli`` (``-X importtime``).

    Returns medians in ms and the per-module self/cumulative split of the
    median import run.
    """
    interp = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        interp.append((time.perf_counter() - t) * 1000)
    runs = []
    for _ in range(repeats):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import catend.cli"],
                           cwd=root, env=env, check=True, stderr=subprocess.PIPE, text=True)
        split = {m.group(3): {"self_us": int(m.group(1)), "cumulative_us": int(m.group(2))}
                 for m in map(IMPORT_LINE.search, p.stderr.splitlines()) if m}
        runs.append((split["catend.cli"]["cumulative_us"] / 1000, split))
    runs.sort(key=lambda r: r[0])
    import_ms, split = runs[len(runs) // 2]
    return {"interpreter_ms": _median(interp), "import_ms": import_ms,
            "import_split": {k: v for k, v in split.items() if k.startswith("catend")}}


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(rec: Recorder, startup: dict, overhead_ratio: float) -> dict:
    c, calls, self_s, incl = rec.counts, rec.calls, rec.self_s, rec.incl_s

    def ms(v):
        return ("ms", v * 1000)

    def n(v):
        return ("count", v)

    def group_calls(g):
        return sum(calls[m] for m in GROUPS[g])

    pairs = c["core.law_scan_pairs"]
    m = {
        "core.build_category_calls": n(calls["core.build_category"]),
        "core.law_scan_ms": ms(self_s["core.category_violations"]),
        "core.law_scan_arrows": n(c["core.law_scan_arrows"]),
        "core.law_scan_pairs": n(pairs),
        "core.composable_pair_share": ("ratio", c["core.composition_entries"] / pairs
                                       if pairs else 0.0),
        "core.lookup_calls": n(group_calls("core.lookup")),
        "core.lookup_ms": ms(incl["core.lookup"]),
        "quantale.build_calls": n(calls["quantale.quantale_from_tables"]),
        "quantale.build_ms": ms(incl["quantale.build"]),
        "quantale.ambient_calls": n(group_calls("quantale.ambient")),
        "quantale.ambient_ms": ms(incl["quantale.ambient"]),
        "finset.hom_calls": n(calls["FinSetFragment.hom"]),
        "finset.hom_arrows": n(c["finset.hom_arrows"]),
        "finset.ambient_ms": ms(incl["finset.ambient"]),
        "finset.limit_data_ms": ms(incl["FinSetFragment.limit_data"]),
        "smcc.law_suite_ms": ms(incl["smcc.law_suite"]),
        "smcc.law_cases": n(c["smcc.law_cases"]),
        "smcc.cocone_element_calls": n(calls["smcc.cocone_element"]),
        "smcc.cocone_element_ms": ms(incl["smcc.cocone_element"]),
        "limits.limit_thin_calls": n(c["limits.limit_thin_calls"]),
        "limits.limit_enum_calls": n(c["limits.limit_enum_calls"]),
        "limits.limit_data_calls": n(c["limits.limit_data_calls"]),
        "limits.limit_brute_ms": ms(incl["limits.limit_brute"]),
        "limits.mediator_calls": n(calls["limits.mediator"]),
        "limits.mediator_ms": ms(incl["limits.mediator"]),
        "limits.cones_enumerated": n(c["limits.cones_enumerated"]),
        "limits.enumerate_cones_ms": ms(incl["limits.enumerate_cones"]),
        "limits.mono_scan_ms": ms(incl["limits.mono_scan"]),
        "limits.refine_ms": ms(incl["limits.refine_weak_initial"]),
        "limits.colimit_brute_ms": ms(incl["limits.colimit_brute"]),
        "ends.end_of_calls": n(calls["ends.end_of"]),
        "ends.end_of_ms": ms(incl["ends.end_of"]),
        "ends.subdivision_nodes": n(c["ends.subdivision_nodes"]),
        "ends.subdivision_ms": ms(incl["ends.subdivision"]),
        "ends.wedge_check_calls": n(calls["ends.wedge_violations"]),
        "ends.wedge_check_ms": ms(incl["ends.wedge_violations"]),
        "ends.domain_arrows_calls": n(calls["ends.domain_arrows"]),
        "transport.skeletonize_ms": ms(incl["transport.skeletonize"]),
        "transport.transport_limit_ms": ms(incl["transport.transport_limit"]),
        "transport.nodes_removed": n(c["transport.nodes_removed"]),
        "cocompletion.synthesize_ms": ms(self_s["cocompletion.synthesize_cocone"]),
        "cocompletion.mediate_weakly_calls": n(calls["cocompletion.mediate_weakly"]),
        "cocompletion.mediate_weakly_ms": ms(incl["cocompletion.mediate_weakly"]),
        "cocompletion.cogen_end_ms": ms(incl["cocompletion.end_via_cogenerator"]),
        "cocompletion.cogen_wedges_replayed": n(c["cocompletion.cogen_wedges_replayed"]),
        "report.checks": n(c["report.checks"]),
        "report.checks_failed": n(c["report.checks_failed"]),
    }
    for p in CHECK_PREFIXES:
        m[f"report.checks.{p}"] = n(c[f"report.checks.{p}"])
    m["report.emit_ms"] = ms(incl["Report.emit"])
    m["cli.interpreter_ms"] = ("ms", startup["interpreter_ms"])
    m["cli.import_ms"] = ("ms", startup["import_ms"])
    m["cli.load_ms"] = ms(incl["cli.load"])
    m["cli.command_ms"] = ms(max(0.0, incl["cli.command"] - incl["cli.load"]))
    m["trace.overhead_ratio"] = ("ratio", overhead_ratio)
    return m
