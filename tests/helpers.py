"""Shared oracles and generators for the test suite.

Oracles recompute order-theoretic facts directly from the raw relation by
scanning, independently of the tables the engine derives, so agreement is
meaningful.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from catend.core import (Arrow, Diagram, FinCategory, FunctorData,
                         build_category, discrete_category, free_diagram,
                         poset_category)
from catend.ends import Bifunctor, domain_arrows
from catend.errors import NoInitial
from catend.limits import Cocone
from catend.report import CheckEntry


# ---------------------------------------------------------------------------
# Order oracles (leq-scan only; never use the instance's meet/join tables)


def lower_bounds(q, xs):
    return [c for c in q.elements if all(q.leq_check(c, x) for x in xs)]


def upper_bounds(q, xs):
    return [c for c in q.elements if all(q.leq_check(x, c) for x in xs)]


def meet_oracle(q, xs):
    lows = lower_bounds(q, xs)
    out = [c for c in lows if all(q.leq_check(d, c) for d in lows)]
    assert len(out) == 1, f"{q.name}: no greatest lower bound for {xs}"
    return out[0]


def join_oracle(q, xs):
    ups = upper_bounds(q, xs)
    out = [c for c in ups if all(q.leq_check(c, d) for d in ups)]
    assert len(out) == 1, f"{q.name}: no least upper bound for {xs}"
    return out[0]


def res_oracle(q, y, z):
    """Greatest x with x . y <= z, scanning the raw tensor table."""
    sat = [x for x in q.elements if q.leq_check(q.tensor_obj(x, y), z)]
    out = [x for x in sat if all(q.leq_check(c, x) for c in sat)]
    assert len(out) == 1, f"{q.name}: residual of ({y}, {z}) has no greatest witness"
    return out[0]


# ---------------------------------------------------------------------------
# Category-law oracle (nested loops over every ordered pair and triple)


def category_violations_oracle(objects: Iterable[str],
                               arrows: Mapping[str, tuple[str, str]],
                               composition: Mapping[tuple[str, str], str],
                               identities: Mapping[str, str]) -> list[str]:
    """Every violated category law, by the all-pairs scan ``core.category_violations``
    must agree with, message for message and in the same order."""
    objs = list(objects)
    out: list[str] = []
    obj_set = set(objs)
    if len(obj_set) != len(objs):
        out.append("duplicate object ids")
    for a, (s, t) in sorted(arrows.items()):
        if s not in obj_set:
            out.append(f"arrow {a} has unknown src {s}")
        if t not in obj_set:
            out.append(f"arrow {a} has unknown tgt {t}")
    for x in sorted(obj_set):
        i = identities.get(x)
        if i is None:
            out.append(f"missing identity for object {x}")
        elif i not in arrows:
            out.append(f"identity of {x} names unknown arrow {i}")
        elif arrows[i] != (x, x):
            out.append(f"identity {i} of {x} is not an endo-arrow of {x}")
    stray = [k for k in composition if k[0] not in arrows or k[1] not in arrows]
    out.extend(f"composition entry ({g}, {f}) names an unknown arrow"
               for g, f in sorted(stray))
    if out:
        return out  # referential integrity first; later scans assume it

    src = {a: st[0] for a, st in arrows.items()}
    tgt = {a: st[1] for a, st in arrows.items()}
    # composition must cover exactly the composable pairs, with correct endpoints
    for g in sorted(arrows):
        for f in sorted(arrows):
            composable = tgt[f] == src[g]
            entry = composition.get((g, f))
            if composable and entry is None:
                out.append(f"composition gap ({g}, {f})")
            elif not composable and entry is not None:
                out.append(f"composition entry for non-composable pair ({g}, {f})")
            elif composable:
                if entry not in arrows:
                    out.append(f"composite ({g}, {f}) names unknown arrow {entry}")
                elif (src[entry], tgt[entry]) != (src[f], tgt[g]):
                    out.append(f"composite {entry} of ({g}, {f}) has endpoints "
                               f"{src[entry]}->{tgt[entry]}, expected {src[f]}->{tgt[g]}")
    if out:
        return out

    for f in sorted(arrows):
        if composition[(identities[tgt[f]], f)] != f:
            out.append(f"identity law fails: id_{tgt[f]} after {f} != {f}")
        if composition[(f, identities[src[f]])] != f:
            out.append(f"identity law fails: {f} after id_{src[f]} != {f}")
    for h in sorted(arrows):
        for g in sorted(arrows):
            if tgt[g] != src[h]:
                continue
            for f in sorted(arrows):
                if tgt[f] != src[g]:
                    continue
                if composition[(h, composition[(g, f)])] != composition[(composition[(h, g)], f)]:
                    out.append(f"non-associative triple (h={h}, g={g}, f={f})")
    return out


# ---------------------------------------------------------------------------
# Wedge-layer oracles: the subdivision and the wedge scan as they were before
# the leg table, re-deriving both bifunctor actions per arrow.


def subdivision_oracle(B: Bifunctor) -> Diagram:
    """One node per object, one per arrow, two legs per arrow node."""
    A = B.ambient
    arrows = domain_arrows(B)
    arrows_by_label = {A.arrow_label(f): f for f in arrows}
    assert len(arrows_by_label) == len(arrows)
    ob = {f"ob:{x}": B.ob(x, x) for x in B.objects}
    legs: dict[str, tuple[str, str, Arrow]] = {}
    for k, f in arrows_by_label.items():
        ob[f"ar:{k}"] = B.ob(f.src, f.tgt)
        legs[f"s:{k}"] = (f"ob:{f.src}", f"ar:{k}", B.cov(f.src, f))
        legs[f"t:{k}"] = (f"ob:{f.tgt}", f"ar:{k}", B.contra(f, f.tgt))
    return free_diagram(A, ob, legs)


def wedge_violations_oracle(B: Bifunctor, projections: Mapping[str, Arrow]) -> list[str]:
    """The defining squares: both routes to B(X, Y) agree for every f: X -> Y."""
    A = B.ambient
    out = []
    for x in B.objects:
        p = projections.get(x)
        if p is None or p.tgt != B.ob(x, x):
            out.append(f"projection at {x} missing or mistyped")
    if out:
        return out
    srcs = {projections[x].src for x in B.objects}
    if len(srcs) > 1:
        return [f"projections have several sources: {sorted(srcs)}"]
    for f in domain_arrows(B):
        if A.is_identity(f):
            continue
        lhs = A.compose(B.cov(f.src, f), projections[f.src])
        rhs = A.compose(B.contra(f, f.tgt), projections[f.tgt])
        if lhs != rhs:
            out.append(f"wedge square fails at {A.arrow_label(f)}: "
                       f"{A.arrow_label(lhs)} != {A.arrow_label(rhs)}")
    return out


# ---------------------------------------------------------------------------
# Initial objects and law-suite case counts, by exhaustion over the tables


def initial_object(cat: FinCategory) -> str:
    """Lexicographically first strict initial object, by exhaustive hom counts."""
    for x in cat.objects:
        if all(len(cat.hom_ids(x, y)) == 1 for y in cat.objects):
            return x
    raise NoInitial(f"no initial object among {list(cat.objects)}")


def law_case_count(entries: list[CheckEntry]) -> int:
    total = 0
    for e in entries:
        if e.tag.startswith("cases="):
            total += int(e.tag.split("=", 1)[1])
    return total


# ---------------------------------------------------------------------------
# Shape and diagram generators


def preorder_category(elements, pairs) -> FinCategory:
    """poset_category on the transitive-reflexive closure; pairs may include cycles."""
    elems = sorted(set(elements))
    rel = {(a, b) for a, b in pairs} | {(x, x) for x in elems}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in elems:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return poset_category(elems, rel)


def shape_pool() -> list[FinCategory]:
    """Small shapes (<= 5 objects), including preorders with duplicate objects."""
    return [
        discrete_category([]),
        discrete_category(["s0"]),
        discrete_category(["s0", "s1"]),
        discrete_category(["s0", "s1", "s2", "s3"]),
        preorder_category(["s0", "s1"], [("s0", "s1")]),
        preorder_category(["s0", "s1", "s2"], [("s0", "s1"), ("s1", "s2")]),
        preorder_category(["s0", "s1", "s2"], [("s0", "s1"), ("s0", "s2")]),
        preorder_category(["s0", "s1", "s2", "s3"],
                          [("s0", "s2"), ("s1", "s2"), ("s0", "s3"), ("s1", "s3")]),
        # two isomorphic copies of one node: exercises skeletonization
        preorder_category(["s0", "s0b", "s1"],
                          [("s0", "s0b"), ("s0b", "s0"), ("s0", "s1")]),
        preorder_category(["s0", "s0b", "s1", "s1b", "s2"],
                          [("s0", "s0b"), ("s0b", "s0"),
                           ("s1", "s1b"), ("s1b", "s1"),
                           ("s0", "s1"), ("s1", "s2")]),
    ]


def monotone_diagram(q, shape: FinCategory, rng: random.Random) -> Diagram:
    """Random labeling made monotone by joining over each object's ancestors."""
    seed_val = {i: rng.choice(list(q.elements)) for i in shape.objects}
    ob = {}
    for i in shape.objects:
        below = [seed_val[j] for j in shape.objects if shape.hom_ids(j, i)]
        ob[i] = join_oracle(q, below)
    ar = {}
    for a in shape.arrow_ids():
        hs = q.hom(ob[shape.src(a)], ob[shape.tgt(a)])
        assert hs, "generator produced a non-monotone labeling"
        ar[a] = hs[0]
    return FunctorData(source=shape, target=q, ob=ob, ar=ar)


def thin_diagram(q, shape: FinCategory, ob: dict) -> Diagram:
    """Diagram over a thin instance from an explicit monotone labeling."""
    ar = {}
    for a in shape.arrow_ids():
        hs = q.hom(ob[shape.src(a)], ob[shape.tgt(a)])
        assert hs, f"labeling not monotone along {a}"
        ar[a] = hs[0]
    return FunctorData(source=shape, target=q, ob=dict(ob), ar=ar)


def thin_cocone(q, d: Diagram, vertex: str) -> Cocone:
    edges = {i: q.hom(d.ob[i], vertex)[0] for i in d.shape.objects}
    return Cocone(d, vertex, edges)


# ---------------------------------------------------------------------------
# FinSet pointwise oracle


def fn_table(A, f: Arrow) -> dict:
    return {e: A.apply(f, e) for e in A.elements(f.src)}


def compose_tables(g_table: dict, f_table: dict) -> dict:
    return {e: g_table[v] for e, v in f_table.items()}


# ---------------------------------------------------------------------------
# A non-posetal category where the initial-object refinement does real work:
# e = u . r is a split idempotent on w, and v equalizes {id, e}.


def split_idempotent_category() -> FinCategory:
    arrows = {"id:w": ("w", "w"), "id:v": ("v", "v"), "e": ("w", "w"),
              "u": ("v", "w"), "r": ("w", "v")}
    identities = {"w": "id:w", "v": "id:v"}
    composition = {
        ("id:w", "id:w"): "id:w", ("id:v", "id:v"): "id:v",
        ("e", "id:w"): "e", ("id:w", "e"): "e", ("e", "e"): "e",
        ("u", "id:v"): "u", ("id:w", "u"): "u", ("e", "u"): "u",
        ("r", "id:w"): "r", ("id:v", "r"): "r", ("r", "e"): "r",
        ("u", "r"): "e", ("r", "u"): "id:v",
    }
    return build_category(["w", "v"], arrows, composition, identities)


def involution_category() -> FinCategory:
    """A single object carrying a non-identity involution.

    hom(w, w) = {id, s} with s . s = id; the equalizer of {id, s} does not
    exist (no cone at all), so the refinement must report the missing limit.
    """
    arrows = {"id:w": ("w", "w"), "s": ("w", "w")}
    identities = {"w": "id:w"}
    composition = {("id:w", "id:w"): "id:w", ("s", "id:w"): "s",
                   ("id:w", "s"): "s", ("s", "s"): "id:w"}
    return build_category(["w"], arrows, composition, identities)
