"""The four benchmark workloads.

Each workload turns a seed into inputs during ``setup``; its ``ops`` are one
*round*, a fixed list of ops that the runner repeats.  An op prepares its
inputs untimed, makes one timed call into catend, and hands the result to an
oracle from ``oracles``.  catend only ever sees the generated inputs.

Catend functions are always looked up as module attributes at call time
(``cocompletion.colimit_via_ends``), so that a traced run, which rebinds those
attributes, sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden" / "cli.json"
EX = "docs/examples"


@dataclass
class Op:
    label: str
    prepare: Callable[[], Callable[[], object]]   # untimed; returns the timed call
    check: Callable[[object], str | None]          # untimed oracle
    checks_of: Callable[[object], list[tuple[str, bool]]]


class Workload:
    """Inputs made from a seed by ``setup``; ``ops`` is one round.

    The runner reads the clock only after every ``block`` ops (after the
    whole round when ``block`` is None), so a run measures whole blocks.
    """

    name = ""
    block: int | None = None
    subprocess_ops = False    # ops run catend in child processes
    ops: list[Op]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _entries(checks) -> list[tuple[str, bool]]:
    return [(c.check, c.passed) for c in checks]


def _fixed(call):
    return lambda: call


# ---------------------------------------------------------------------------
# Shapes and diagrams (the benchmark's own; tests/helpers.py is not used)


def _closure(elems, pairs) -> set[tuple[str, str]]:
    rel = set(pairs) | {(x, x) for x in elems}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


# (objects, generating order pairs); the closure is the shape's preorder
SHAPES = [
    ([], []),
    (["s0"], []),
    (["s0", "s1"], []),
    (["s0", "s1", "s2", "s3"], []),
    (["s0", "s1"], [("s0", "s1")]),
    (["s0", "s1", "s2"], [("s0", "s1"), ("s1", "s2")]),
    (["s0", "s1", "s2"], [("s0", "s1"), ("s0", "s2")]),          # span
    (["s0", "s1", "s2"], [("s0", "s2"), ("s1", "s2")]),          # cospan
    (["s0", "s0b", "s1"], [("s0", "s0b"), ("s0b", "s0"), ("s0", "s1")]),
    (["s0", "s0b", "s1", "s1b", "s2"],
     [("s0", "s0b"), ("s0b", "s0"), ("s1", "s1b"), ("s1b", "s1"),
      ("s0", "s1"), ("s1", "s2")]),
]
# the cospan s0 -> s2 <- s1, used for every scaling instance
SCALING_SHAPE = 7


@dataclass
class Shape:
    cat: object          # catend FinCategory
    leq: set             # the benchmark's own preorder on the objects


def build_shapes(core) -> list[Shape]:
    out = []
    for objs, pairs in SHAPES:
        leq = _closure(objs, pairs)
        cat = core.discrete_category(objs) if not pairs else core.poset_category(objs, leq)
        out.append(Shape(cat, leq))
    return out


def monotone_diagram(core, q, shape: Shape, seeds: dict):
    """Label each object with the join of the seed values at or below it."""
    ob = {i: oracles.join_oracle(q, [seeds[j] for j in shape.cat.objects
                                     if (j, i) in shape.leq])
          for i in shape.cat.objects}
    ar = {}
    for a in shape.cat.arrow_ids():
        hs = q.hom(ob[shape.cat.src(a)], ob[shape.cat.tgt(a)])
        if not hs:
            raise ValueError(f"generator produced a non-monotone labeling at {a}")
        ar[a] = hs[0]
    return core.FunctorData(source=shape.cat, target=q, ob=ob, ar=ar)


# ---------------------------------------------------------------------------
# sweep: many small colimits on the standard battery


class Sweep(Workload):
    name = "sweep"
    # The 620 ops are ordered in ten blocks of 62: block b gives quantale k
    # the shape (k + b) mod 10, so every block holds each instance once and
    # each shape six or seven times.  Runs stop at block boundaries and so
    # measure nearly the same mix whatever their length.
    block = 62

    def setup(self, seed: int) -> None:
        from catend import cocompletion, core, quantale
        self.cocompletion = cocompletion
        rng = random.Random(seed)
        qs = quantale.standard_quantales(max_size=16)
        shapes = build_shapes(core)
        grid = {}
        for k, q in enumerate(qs):
            for j, shape in enumerate(shapes):
                seeds = {i: rng.choice(q.elements) for i in shape.cat.objects}
                d = monotone_diagram(core, q, shape, seeds)
                want = oracles.join_oracle(q, list(d.ob.values()))
                grid[k, j] = self._op(f"{q.name}/shape{j}", q, d, want)
        self.ops = [grid[k, (k + b) % len(shapes)]
                    for b in range(len(shapes)) for k in range(len(qs))]

    def _op(self, label, q, d, want) -> Op:
        call = lambda: self.cocompletion.colimit_via_ends(q, d, cross_check=False)
        return Op(label, _fixed(call), lambda R: oracles.check_colimit(R, want),
                  lambda R: _entries(R.checks))


# ---------------------------------------------------------------------------
# scaling: a few large constructions on both end routes


KLEIN4 = {("e", "e"): "e", ("e", "x"): "x", ("e", "y"): "y", ("e", "z"): "z",
          ("x", "x"): "e", ("x", "y"): "z", ("x", "z"): "y",
          ("y", "y"): "e", ("y", "z"): "x", ("z", "z"): "e"}


def _symmetric(table: dict) -> dict:
    out = dict(table)
    out.update({(b, a): c for (a, b), c in table.items()})
    return out


class Scaling(Workload):
    name = "scaling"
    # In a thin instance the end's cost depends on the diagram only through
    # its join, and the synthesis replay grows with the number of diagram
    # objects.  So each instance gets a fixed join (the middle of a chain, a
    # small subset of a powerset) and a fixed shape, and the seed varies
    # the labels below that join: every seed asks for the same amount of work.
    # Nine ops a round: with an odd count the median latency falls inside one
    # op's samples rather than between two ops of very different cost.
    ROUTES = (("godel16", ("direct", "cogenerator")),
              ("godel24", ("direct", "cogenerator")),
              ("godel32", ("direct", "cogenerator")),
              ("pw-v4", ("direct", "cogenerator")),
              ("pw5", ("cogenerator",)))

    def setup(self, seed: int) -> None:
        from catend import cocompletion, core, quantale
        self.cocompletion = cocompletion
        rng = random.Random(seed)
        z5 = [f"g{i}" for i in range(5)]
        insts = {f"godel{n}": quantale.godel_chain(n) for n in (16, 24, 32)}
        insts["pw-v4"] = quantale.powerset_quantale("pw-v4", ["e", "x", "y", "z"],
                                                     _symmetric(KLEIN4), "e")
        insts["pw5"] = quantale.powerset_quantale(
            "pw5", z5, {(a, b): f"g{(i + j) % 5}" for i, a in enumerate(z5)
                        for j, b in enumerate(z5)}, "g0")
        targets = {f"godel{n}": f"c{n // 2:02d}" for n in (16, 24, 32)}
        targets["pw-v4"] = "{e,x}"
        targets["pw5"] = "{g0,g1}"
        shapes = build_shapes(core)
        self.ops = []
        for name, routes in self.ROUTES:
            q, top = insts[name], targets[name]
            shape = shapes[SCALING_SHAPE]
            below = [c for c in q.elements if q.leq_check(c, top)]
            seeds = {i: rng.choice(below) for i in shape.cat.objects}
            seeds[rng.choice(shape.cat.objects)] = top
            d = monotone_diagram(core, q, shape, seeds)
            want = oracles.join_oracle(q, list(d.ob.values()))
            for route in routes:
                self.ops.append(self._op(f"{name}/{route}", q, d, route, want))

    def _op(self, label, q, d, route, want) -> Op:
        call = lambda: self.cocompletion.colimit_via_ends(q, d, cross_check=True,
                                                          end_route=route)
        return Op(label, _fixed(call), lambda R: oracles.check_colimit(R, want),
                  lambda R: _entries(R.checks))


# ---------------------------------------------------------------------------
# laws: law suites and finite-set cocone packagings


LAW_CORE = {"smcc.swap_involution", "smcc.unit_name_swap", "smcc.swap_precompose",
            "smcc.swap_postcompose", "smcc.symmetry_involution",
            "smcc.symmetry_unitors"}
LAW_SETS = {"A": ("a0",), "B": ("b0", "b1"), "C": ("c0", "c1", "c2")}
PACK_SETS = {"S0": ("a0", "a1"), "S1": ("b0",), "D": ("x", "y")}
PACKAGINGS = 60


def _check_laws(entries) -> str | None:
    missing = LAW_CORE - {e.check for e in entries}
    if missing:
        return f"law suite lacks {sorted(missing)}"
    return oracles.check_entries(entries)


class Laws(Workload):
    name = "laws"

    def setup(self, seed: int) -> None:
        from catend import core, finset, limits, quantale, smcc
        self.core, self.finset, self.limits, self.smcc = core, finset, limits, smcc
        rng = random.Random(seed)
        self.ops = []
        for q in quantale.standard_quantales(max_size=16):
            self.ops.append(self._law_op(q, rng.randrange(1 << 30)))
        self.ops.append(self._finset_law_op(rng.randrange(1 << 30)))
        for n in range(PACKAGINGS):
            self.ops.append(self._packaging_op(n, rng))

    def _law_op(self, q, law_seed) -> Op:
        call = lambda: self.smcc.law_suite(q, budget=200, seed=law_seed)
        return Op(f"laws/{q.name}", _fixed(call), _check_laws, _entries)

    def _finset_law_op(self, law_seed) -> Op:
        def prepare():
            ws = self.finset.FinSetFragment(LAW_SETS)
            return lambda: self.smcc.law_suite(ws, objects=["A", "B", "C", "I"],
                                               budget=1000, seed=law_seed)
        return Op("laws/finset", prepare, _check_laws, _entries)

    def _packaging_op(self, n: int, rng: random.Random) -> Op:
        """A seeded cocone on finite sets, packaged as an element of the limit."""
        core, sets = self.core, PACK_SETS

        def table_map(src, tgt, images):
            return core.Arrow(src, tgt, tuple(images))

        def random_map(src, tgt):
            return table_map(src, tgt, [rng.choice(sets[tgt]) for _ in sets[src]])

        if n % 4 == 3:
            u = "D"
            chain = core.poset_category(["i", "j"], {("i", "j"), ("i", "i"), ("j", "j")})
            f = random_map("S0", "S1")
            ej = random_map("S1", "D")
            ej_f = table_map("S0", "D", [oracles.fn_table(ej, sets["S1"])[v] for v in f.data])
            shape, ob, edges = chain, {"i": "S0", "j": "S1"}, {"j": ej, "i": ej_f}
            arrows = {"le:i:i": table_map("S0", "S0", sets["S0"]),
                      "le:j:j": table_map("S1", "S1", sets["S1"]), "le:i:j": f}
        else:
            u = "D" if n % 2 == 0 else "S1"
            while True:
                chosen = [rng.choice(sorted(sets)) for _ in range(rng.randint(1, 3))]
                # keep the exponential over the product vertex enumerable
                bound = 1
                for s in chosen:
                    bound *= len(sets[u]) ** len(sets[s])
                if len(sets[u]) ** bound <= 32768:
                    break
            names = [f"n{k}" for k in range(len(chosen))]
            shape = core.discrete_category(names)
            ob = dict(zip(names, chosen))
            arrows = {f"id:{m}": table_map(s, s, sets[s]) for m, s in ob.items()}
            edges = {m: random_map(s, u) for m, s in ob.items()}

        def prepare():
            ws = self.finset.FinSetFragment(sets)
            d = core.FunctorData(source=shape, target=ws, ob=ob, ar=arrows)
            delta = self.limits.Cocone(d, u, edges)

            def call():
                lim = self.limits.limit_brute(ws, self.smcc.exp_diagram(ws, d, u))
                elt, checks = self.smcc.cocone_element(ws, delta, lim)
                return delta, lim, elt, checks, ws.elements(lim.vertex)
            return call

        def check(res):
            delta, lim, elt, checks, lim_elems = res
            return (oracles.check_entries(checks)
                    or oracles.check_cocone_element(dict(sets, I=("*",)), delta, lim,
                                                    elt, lim_elems))

        return Op(f"packaging/{n}", prepare, check, lambda res: _entries(res[3]))


# ---------------------------------------------------------------------------
# cli: catend commands on docs/examples, one subprocess at a time


END_SPECS = ("identity", "constant", "tensor", "exp-from", "double-dual")
END_INSTANCES = ("heyting3.json", "lukasiewicz3.json")
ROUTES = ("direct", "cogenerator")


def fixed_cli_commands() -> list[list[str]]:
    h3, l3, fs = f"{EX}/heyting3.json", f"{EX}/lukasiewicz3.json", f"{EX}/finset-small.json"
    cmds = [["validate", f"{EX}/pair-shape.json"], ["validate", h3], ["validate", fs],
            ["validate", f"{EX}/diagram-a0.json"],
            ["laws", h3], ["laws", l3, "--extended"], ["laws", fs],
            ["limit", h3, f"{EX}/diagram-a0.json"],
            ["limit", fs, f"{EX}/diagram-finset-pair.json"],
            ["colimit", h3, f"{EX}/diagram-chain.json"],
            ["colimit", l3, f"{EX}/diagram-half.json"]]
    for route in ROUTES:
        cmds.append(["end", h3, "--diagram", f"{EX}/diagram-a0.json", "--via", route])
        for inst, diag in ((h3, "diagram-a0.json"), (l3, "diagram-half.json")):
            cmds.append(["colimit-via-ends", inst, f"{EX}/{diag}", "--cross-check",
                         "--end-route", route])
    return cmds


def _elements(inst: str) -> list[str]:
    with open(ROOT / EX / inst, encoding="utf-8") as fh:
        return [str(e) for e in json.load(fh)["elements"]]


def end_command(spec: str, inst: str, element: str, route: str) -> list[str]:
    functor = spec if spec == "identity" else f"{spec}:{element}"
    return ["end", f"{EX}/{inst}", "--functor", functor, "--via", route]


def all_cli_commands() -> list[list[str]]:
    """Every command a seed can choose; the golden file covers exactly these."""
    cmds = fixed_cli_commands()
    for inst in END_INSTANCES:
        for spec in END_SPECS:
            for e in (["-"] if spec == "identity" else _elements(inst)):
                for route in ROUTES:
                    cmds.append(end_command(spec, inst, e, route))
    return [c + ["--json", "--verbose"] for c in cmds]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


class Cli(Workload):
    name = "cli"
    subprocess_ops = True
    shim = None    # set by a traced run: callable(argv) -> (exit, stdout)
    # largest ru_maxrss of a catend child, read per child so that the runner's
    # own children (the set-up probes) do not count
    child_rss_kb = 0

    def setup(self, seed: int) -> None:
        import catend.cli  # noqa: F401  (the checkout's package must import)
        rng = random.Random(seed)
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        cmds = [c + ["--json", "--verbose"] for c in fixed_cli_commands()]
        for spec in END_SPECS:
            inst = rng.choice(END_INSTANCES)
            e = "-" if spec == "identity" else rng.choice(_elements(inst))
            for route in ROUTES:
                cmds.append(end_command(spec, inst, e, route) + ["--json", "--verbose"])
        rng.shuffle(cmds)
        self.ops = [self._op(argv) for argv in cmds]

    def run_catend(self, argv: list[str]) -> tuple[int, str]:
        if self.shim is not None:
            return self.shim(argv)
        with subprocess.Popen([sys.executable, "-m", "catend.cli", *argv], cwd=ROOT,
                              env=cli_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as p:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return p.returncode, out

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def _op(self, argv: list[str]) -> Op:
        golden = self.golden[cli_key(argv)]
        call = lambda: self.run_catend(argv)
        return Op(cli_key(argv[:2]), _fixed(call),
                  lambda res: oracles.check_cli(golden, *res),
                  lambda res: oracles.cli_checks(res[1]))


WORKLOADS = {w.name: w for w in (Sweep, Scaling, Laws, Cli)}
