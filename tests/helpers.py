"""Shared oracles and generators for the test suite.

Oracles recompute order-theoretic facts directly from the raw relation by
scanning, independently of the tables the engine derives, so agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Sequence

from catend.core import (Arrow, Diagram, FinCatAmbient, FinCategory,
                         FunctorData, build_category, discrete_category,
                         fin_functor, free_diagram, free_shape,
                         functor_violations, poset_category)
from catend.ends import Bifunctor, EndCone, domain_arrows, extend_wedge, wedge_violations
from catend.errors import (CatendError, NoResiduation, NotALattice, NotAWedge,
                           TensorNotMonotone, ValidationFailure)
from catend.limits import Cocone, Cone, mediator
from catend.quantale import QuantaleInstance, chain_leq, quantale_from_tables
from catend.report import CheckEntry
from catend.transport import DiagramEquivalence


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
# Quantale construction oracle: the name-level scans as they were before the
# bitmask tables, each bound found by scanning a candidate list per pair.


def quantale_from_tables_oracle(name: str, elements: Sequence[str],
                                leq_pairs: Iterable[tuple[str, str]],
                                tensor: Mapping[tuple[str, str], str],
                                unit: str) -> QuantaleInstance:
    """Validate poset, lattice, tensor, and residuation; raise with all violations.

    ``quantale.quantale_from_tables`` must agree with this scan on every
    input: the same error class and violation list, or the same instance.

    ``leq_pairs`` is the full order relation (reflexive pairs may be omitted);
    the residuation is always recomputed from the tensor, never supplied.
    """
    elems = tuple(sorted(dict.fromkeys(elements)))
    if len(elems) != len(list(elements)):
        raise NotALattice(name, ["duplicate element names"])
    eset = set(elems)
    leq = {(a, b) for a, b in leq_pairs}
    leq |= {(x, x) for x in elems}

    bad = [f"order mentions unknown element in ({a}, {b})"
           for a, b in sorted(leq) if a not in eset or b not in eset]
    if bad:
        raise NotALattice(name, bad)
    for a, b in sorted(leq):
        if (b, a) in leq and a != b:
            bad.append(f"antisymmetry fails on ({a}, {b})")
    for a, b in sorted(leq):
        for c in elems:
            if (b, c) in leq and (a, c) not in leq:
                bad.append(f"transitivity fails: {a} <= {b} <= {c} but not {a} <= {c}")
    if bad:
        raise NotALattice(name, bad)

    meet = _meet_table_oracle(elems, leq)
    for a in elems:
        for b in elems:
            if (a, b) not in meet:
                bad.append(f"no meet for ({a}, {b})")
            if _least_oracle(leq, [c for c in elems if (a, c) in leq and (b, c) in leq]) is None:
                bad.append(f"no join for ({a}, {b})")
    if bad:
        raise NotALattice(name, bad)
    # with every pairwise meet and join present, only the empty order lacks these
    top, bottom = _greatest_oracle(leq, elems), _least_oracle(leq, elems)
    if top is None or bottom is None:
        raise NotALattice(name, ["no top element"])

    if unit not in eset:
        raise TensorNotMonotone(name, [f"unit {unit} is not an element"])
    for a in elems:
        for b in elems:
            v = tensor.get((a, b))
            if v is None:
                bad.append(f"tensor undefined on ({a}, {b})")
            elif v not in eset:
                bad.append(f"tensor({a}, {b}) = {v} is not an element")
    if bad:
        raise TensorNotMonotone(name, bad)
    for a in elems:
        if tensor[(a, unit)] != a:
            bad.append(f"unit law fails: {a} . {unit} = {tensor[(a, unit)]}")
        for b in elems:
            if tensor[(a, b)] != tensor[(b, a)]:
                bad.append(f"commutativity fails on ({a}, {b})")
            for c in elems:
                if tensor[(tensor[(a, b)], c)] != tensor[(a, tensor[(b, c)])]:
                    bad.append(f"associativity fails on ({a}, {b}, {c})")
    for a, b in sorted(leq):
        for c in elems:
            if (tensor[(a, c)], tensor[(b, c)]) not in leq:
                bad.append(f"monotonicity fails: {a} <= {b} but not {a}.{c} <= {b}.{c}")
    if bad:
        raise TensorNotMonotone(name, bad)

    res: dict[tuple[str, str], str] = {}
    for y in elems:
        for z in elems:
            r = _greatest_oracle(leq, [x for x in elems if (tensor[(x, y)], z) in leq])
            if r is None:
                bad.append(f"no residual for ({y}, {z}): "
                           f"{{x : x.{y} <= {z}}} has no greatest element")
            else:
                res[(y, z)] = r
    if bad:
        raise NoResiduation(name, bad)
    for x in elems:
        for y in elems:
            for z in elems:
                if ((tensor[(x, y)], z) in leq) != ((x, res[(y, z)]) in leq):
                    bad.append(f"adjunction fails on ({x}, {y}, {z})")
    if bad:
        raise NoResiduation(name, bad)

    return QuantaleInstance(name, elems, frozenset(leq), dict(tensor), unit,
                            res, top, bottom)


def _greatest_oracle(leq, xs: Sequence[str]) -> str | None:
    """The element of xs above all of xs, or None if there is none."""
    for m in xs:
        if all((x, m) in leq for x in xs):
            return m
    return None


def _least_oracle(leq, xs: Sequence[str]) -> str | None:
    """The element of xs below all of xs, or None if there is none."""
    for m in xs:
        if all((m, x) in leq for x in xs):
            return m
    return None


def _meet_table_oracle(elements: Sequence[str], leq) -> dict[tuple[str, str], str]:
    """Greatest lower bound of each pair that has one; pairs without one are absent."""
    table = {}
    for a in elements:
        for b in elements:
            m = _greatest_oracle(leq, [c for c in elements if (c, a) in leq and (c, b) in leq])
            if m is not None:
                table[(a, b)] = m
    return table


def heyting_from_lattice(name: str, elements: Sequence[str],
                         leq_pairs: Iterable[tuple[str, str]]) -> QuantaleInstance:
    """Meet as tensor, top as unit, through the engine constructor; residuation
    exists iff the lattice allows it.  An order without a top is no lattice,
    and the constructor rejects it before it reads the unit."""
    leq = set(leq_pairs) | {(x, x) for x in elements}
    return quantale_from_tables(name, elements, leq, _meet_table_oracle(elements, leq),
                                _greatest_oracle(leq, elements))


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
    # a key that is no object is reported last, so it hides no later finding
    ghosts = [f"identity given for unknown object {k}" for k in sorted(identities)
              if k not in obj_set]
    stray = [k for k in composition if k[0] not in arrows or k[1] not in arrows]
    out.extend(f"composition entry ({g}, {f}) names an unknown arrow"
               for g, f in sorted(stray))
    if out:
        return out + ghosts  # referential integrity first; later scans assume it

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
        return out + ghosts

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
    return out + ghosts


def hom_ids_oracle(cat: FinCategory, a: str, b: str) -> list[str]:
    """Sorted ids of the arrows a -> b, by a scan over every arrow: the
    ``FinCategory.hom_ids`` that the per-(src, tgt) index replaced."""
    return sorted(i for i, (s, t) in cat.arrows.items() if s == a and t == b)


def composable_pairs_oracle(arrows: Mapping[str, tuple[str, str]]) -> list[tuple[str, str]]:
    """Every (g, f) with tgt(f) = src(g), by the all-pairs scan over the ids."""
    return [(g, f) for g, (gs, _) in arrows.items()
            for f, (_, ft) in arrows.items() if ft == gs]


def composable_arrow_pairs_oracle(arrows: Sequence[Arrow]) -> list[tuple[Arrow, Arrow]]:
    """Every (f, g) with f.tgt = g.src, by the all-pairs scan over the arrows."""
    return [(f, g) for f in arrows for g in arrows if f.tgt == g.src]


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


def wedge_to_cone(B: Bifunctor, sd: Diagram, family: Mapping[str, Arrow]) -> Cone:
    """Extend a wedge to a cone over the subdivision diagram, checking the squares."""
    bad = wedge_violations(B, family)
    if bad:
        raise NotAWedge("; ".join(bad))
    return extend_wedge(B, sd, family)


def wedge_mediator(E: EndCone, family: Mapping[str, Arrow]) -> Arrow:
    """The unique arrow through which a wedge factors, via its cone."""
    return mediator(E.limiting, wedge_to_cone(E.bifunctor, E.limiting.cone.diagram, family))


# ---------------------------------------------------------------------------
# Cone-enumeration oracle: every cone as found before the per-value hom reads,
# one hom-set per shape node and one sort over all cones; the triangles are
# checked here, not by ``limits.cone_violations``.


def enumerate_cones_oracle(A, d: Diagram) -> list[Cone]:
    """Every cone over d, in an ambient that lists its objects."""
    shape_objs = list(d.shape.objects)
    out = []
    for v in sorted(A.objects()):
        homs = [A.hom(v, d.ob[i]) for i in shape_objs]
        if any(not h for h in homs):
            continue
        for combo in itertools.product(*homs):
            edges = dict(zip(shape_objs, combo))
            if all(A.compose(d.ar[a], edges[i]) == edges[j]
                   for a, (i, j) in d.shape.arrows.items()):
                out.append(Cone(d, v, edges))
    out.sort(key=lambda c: (c.vertex, tuple(A.arrow_label(c.edges[i]) for i in shape_objs)))
    return out


# ---------------------------------------------------------------------------
# Diagram equivalences: fixtures and the validator the transport tests use


def equivalence_violations(E: DiagramEquivalence) -> list[str]:
    """Every broken piece of equivalence data: functor types and laws, gamma
    typed, invertible and natural, unit and counit invertible and natural."""
    A = E.d1.target
    I1, I2 = E.d1.shape, E.d2.shape
    out: list[str] = []
    if E.forward.source != I1:
        out.append("forward functor is not defined on the first shape")
    if E.backward.source != I2:
        out.append("backward functor is not defined on the second shape")
    if not (isinstance(E.forward.target, FinCatAmbient) and E.forward.target.cat == I2):
        out.append("forward functor does not land in the second shape")
    if not (isinstance(E.backward.target, FinCatAmbient) and E.backward.target.cat == I1):
        out.append("backward functor does not land in the first shape")
    if out:
        return out
    out.extend(f"forward: {v}" for v in functor_violations(E.forward))
    out.extend(f"backward: {v}" for v in functor_violations(E.backward))
    if out:
        return out

    for i in I1.objects:
        g = E.gamma.get(i)
        want_src = E.d2.ob[E.forward.ob[i]]
        want_tgt = E.d1.ob[i]
        if g is None or g.src != want_src or g.tgt != want_tgt:
            out.append(f"gamma[{i}] missing or not {want_src} -> {want_tgt}")
        elif A.inverse(g) is None:
            out.append(f"gamma[{i}] is not invertible")
    if not out:
        for a in I1.arrow_ids():
            i, i2 = I1.src(a), I1.tgt(a)
            lhs = A.compose(E.d1.ar[a], E.gamma[i])
            rhs = A.compose(E.gamma[i2], E.d2.ar[E.forward.ar[a].data])
            if lhs != rhs:
                out.append(f"gamma not natural at shape arrow {a}")

    out.extend(_unit_violations("counit", I2, E.counit, E.backward, E.forward))
    out.extend(_unit_violations("unit", I1, E.unit, E.forward, E.backward))
    return out


def _unit_violations(name: str, cat: FinCategory, unit: Mapping[str, str],
                     there: FunctorData, back: FunctorData) -> list[str]:
    """``unit[x]`` must be an invertible ``back(there(x)) -> x``, natural in x.

    Naturality is checked only once every component is present and typed.
    """
    out: list[str] = []
    typed = True
    for x in cat.objects:
        aid = unit.get(x)
        want_src = back.ob[there.ob[x]]
        if aid is None or aid not in cat.arrows or cat.arrows[aid] != (want_src, x):
            out.append(f"{name}[{x}] missing or not {want_src} -> {x}")
            typed = False
        elif not any(f == aid for f, _ in cat.iso_pairs(want_src, x)):
            out.append(f"{name}[{x}] is not invertible")
    if typed:
        for a in cat.arrow_ids():
            x, y = cat.src(a), cat.tgt(a)
            round_trip = back.ar[there.ar[a].data].data
            if cat.compose_ids(a, unit[x]) != cat.compose_ids(unit[y], round_trip):
                out.append(f"{name} not natural at shape arrow {a}")
    return out


def validate_equivalence(E: DiagramEquivalence) -> DiagramEquivalence:
    bad = equivalence_violations(E)
    if bad:
        raise ValidationFailure("diagram equivalence", bad)
    return E


def identity_equivalence(d: Diagram) -> DiagramEquivalence:
    shape = d.shape
    ident = {a: a for a in shape.arrow_ids()}
    obid = {x: x for x in shape.objects}
    f = fin_functor(shape, shape, obid, ident)
    return DiagramEquivalence(
        d1=d, d2=d, forward=f, backward=f,
        gamma={i: d.target.identity(d.ob[i]) for i in shape.objects},
        counit={j: shape.id_of(j) for j in shape.objects},
        unit={i: shape.id_of(i) for i in shape.objects})


def relabel_equivalence(d: Diagram) -> DiagramEquivalence:
    """Equivalence onto an isomorphic copy of the shape with cells renamed r:<id>."""
    shape = d.shape
    ob_map = {x: f"r:{x}" for x in shape.objects}
    ar_map = {a: f"r:{a}" for a in shape.arrow_ids()}
    arrows = {ar_map[a]: (ob_map[s], ob_map[t]) for a, (s, t) in shape.arrows.items()}
    composition = {(ar_map[g], ar_map[f]): ar_map[r]
                   for (g, f), r in shape.composition.items()}
    identities = {ob_map[x]: ar_map[i] for x, i in shape.identities.items()}
    shape2 = build_category(list(ob_map.values()), arrows, composition, identities)
    d2 = Diagram(source=shape2, target=d.target,
                 ob={ob_map[x]: d.ob[x] for x in shape.objects},
                 ar={ar_map[a]: d.ar[a] for a in shape.arrow_ids()})
    fwd = fin_functor(shape, shape2, ob_map, ar_map)
    bwd = fin_functor(shape2, shape,
                      {v: k for k, v in ob_map.items()},
                      {v: k for k, v in ar_map.items()})
    return DiagramEquivalence(
        d1=d, d2=d2, forward=fwd, backward=bwd,
        gamma={i: d.target.identity(d.ob[i]) for i in shape.objects},
        counit={j: shape2.id_of(j) for j in shape2.objects},
        unit={i: shape.id_of(i) for i in shape.objects})



# ---------------------------------------------------------------------------
# Initial objects and law-suite case counts, by exhaustion over the tables


class NoInitial(CatendError):
    pass


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
# Instance, shape and diagram generators


def heyting3():
    """The three-element chain 0 < a < 1 with meet as tensor."""
    return heyting_from_lattice("heyting3", ["0", "a", "1"], chain_leq(["0", "a", "1"]))


def parallel_pair_category() -> FinCategory:
    """Two objects i, j with a parallel pair f0, f1: i -> j."""
    return free_shape(["i", "j"], {"f0": ("i", "j"), "f1": ("i", "j")}, {})


def span_category() -> FinCategory:
    """Three objects with legs i -> k and i -> l (the two-target span shape)."""
    return free_shape(["i", "k", "l"], {"f": ("i", "k"), "g": ("i", "l")}, {})


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


def clique_category(k: int, m: int = 1) -> FinCategory:
    """A connected groupoid on k objects with m parallel isos per ordered pair.

    Arrow ``c<a>>c<b>:<j>`` stands for the j-th power of a generator of Z/m
    followed by the chosen iso c<a> -> c<b>, so (b>c:j) after (a>b:i) is
    a>c:(i+j) mod m, and a>a:0 is the identity of c<a>.  With m = 1 there is
    one iso per ordered pair, like the spans glued over the product node in
    ``end_via_cogenerator``; with m >= 2 every composite has parallel rivals.
    """
    objs = [f"c{i}" for i in range(k)]
    name = lambda a, b, j: f"{a}>{b}:{j}"
    arrows = {name(a, b, j): (a, b) for a in objs for b in objs for j in range(m)}
    composition = {(name(b, c, j), name(a, b, i)): name(a, c, (i + j) % m)
                   for a in objs for b in objs for c in objs
                   for i in range(m) for j in range(m)}
    return build_category(objs, arrows, composition, {a: name(a, a, 0) for a in objs})


def forked_ambient() -> FinCatAmbient:
    """Objects i, j, k with g0, g1: k -> i, f: i -> j and h = f.g0 = f.g1: k -> j.

    Over the object i there are two cones at k, one per parallel arrow.
    """
    arrows = {"id:i": ("i", "i"), "id:j": ("j", "j"), "id:k": ("k", "k"),
              "g0": ("k", "i"), "g1": ("k", "i"), "f": ("i", "j"), "h": ("k", "j")}
    identities = {x: f"id:{x}" for x in "ijk"}
    composition = {("f", "g0"): "h", ("f", "g1"): "h"}
    for a, (s, t) in arrows.items():
        composition[(a, identities[s])] = a
        composition[(identities[t], a)] = a
    return FinCatAmbient(build_category("ijk", arrows, composition, identities))


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
