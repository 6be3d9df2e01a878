"""Cones, limits, and initial objects by exhaustive search over enumerable ambients.

Limits are found by enumerating every cone and scanning for the terminal one,
or taken from the ambient's ``limit_data`` when it lists no objects.  The
witness cone carries an optional fast mediation closure supplied by ambients
(or transports) that know a direct construction.  Universality is replayed
by one rule, ``factorization_violations``, against ``competing_cones``: every
cone when the ambient lists its objects, none otherwise, so a ``limit_data``
answer is trusted, not replayed.  Each replay reads the ambient off its subject.
Colimits are limits of the opposite diagram in the opposite ambient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .core import (Ambient, Arrow, Diagram, FinCatAmbient, FinCategory,
                   free_diagram, opposite_diagram)
from .errors import (InternalCheckFailure, MissingLimit, NoLimit,
                     NonEnumerableAmbient, NotACone)
from .report import CheckEntry, verdict


@dataclass(frozen=True)
class Cone:
    """edges[i]: vertex -> d(i), one per shape object, commuting with d."""

    diagram: Diagram
    vertex: str
    edges: Mapping[str, Arrow]


@dataclass(frozen=True)
class Cocone:
    """edges[i]: d(i) -> vertex, one per shape object, commuting with d."""

    diagram: Diagram
    vertex: str
    edges: Mapping[str, Arrow]


def cone_violations(c: Cone) -> list[str]:
    d = c.diagram
    A = d.target
    out: list[str] = []
    for i in d.shape.objects:
        e = c.edges.get(i)
        if e is None:
            out.append(f"no edge at {i}")
        elif e.src != c.vertex or e.tgt != d.ob[i]:
            out.append(f"edge at {i} is {e!r}, expected {c.vertex}->{d.ob[i]}")
    if out:
        return out
    compose, ar, edges = A.compose, d.ar, c.edges
    failing = [a for a, (i, j) in d.shape.arrows.items()
               if compose(ar[a], edges[i]) != edges[j]]
    return [f"triangle at shape arrow {a} does not commute" for a in sorted(failing)]


def cocone_violations(c: Cocone) -> list[str]:
    d = c.diagram
    A = d.target
    out: list[str] = []
    for i in d.shape.objects:
        e = c.edges.get(i)
        if e is None:
            out.append(f"no edge at {i}")
        elif e.src != d.ob[i] or e.tgt != c.vertex:
            out.append(f"edge at {i} is {e!r}, expected {d.ob[i]}->{c.vertex}")
    if out:
        return out
    for a in d.shape.arrow_ids():
        i, j = d.shape.src(a), d.shape.tgt(a)
        if A.compose(c.edges[j], d.ar[a]) != c.edges[i]:
            out.append(f"triangle at shape arrow {a} does not commute")
    return out


@dataclass(frozen=True)
class LimitingCone:
    cone: Cone
    mediate: Callable[[Cone], Arrow] | None = field(default=None, compare=False)

    @property
    def vertex(self) -> str:
        return self.cone.vertex

    @property
    def edges(self) -> Mapping[str, Arrow]:
        return self.cone.edges


def _cone_key(c: Cone):
    label = c.diagram.target.arrow_label
    return (c.vertex, tuple(label(c.edges[i]) for i in c.diagram.shape.objects))


def enumerate_cones(d: Diagram) -> list[Cone]:
    """Every cone over d, in its target, which must list its objects.

    Cones come vertex by vertex in sorted order, each vertex's sorted by
    ``_cone_key``; each hom-set out of a vertex is read once per distinct
    node value, however many shape nodes share it.
    """
    A = d.target
    shape_objs = list(d.shape.objects)
    values = [d.ob[i] for i in shape_objs]
    out = []
    for v in sorted(A.objects()):
        hom = {t: A.hom(v, t) for t in dict.fromkeys(values)}
        if not all(hom.values()):
            continue
        found = []
        for combo in itertools.product(*(hom[t] for t in values)):
            c = Cone(d, v, dict(zip(shape_objs, combo)))
            if not cone_violations(c):
                found.append(c)
        if len(found) > 1:  # a sort would still compute the one key
            found.sort(key=_cone_key)
        out += found
    return out


def mediators_into(target: Cone, c: Cone) -> list[Arrow]:
    """All arrows c.vertex -> target.vertex commuting with both edge families."""
    A = target.diagram.target
    shape_objs = target.diagram.shape.objects
    compose, legs, edges = A.compose, target.edges, c.edges
    return [m for m in A.hom(c.vertex, target.vertex)
            if all(compose(legs[i], m) == edges[i] for i in shape_objs)]


def mediator(L: LimitingCone, c: Cone) -> Arrow:
    """The unique factorization of cone c through the limiting cone L."""
    A = L.cone.diagram.target
    bad = cone_violations(c)
    if bad:
        raise NotACone("; ".join(bad))
    if L.mediate is not None:
        m = L.mediate(c)
        if m.src != c.vertex or m.tgt != L.vertex:
            raise InternalCheckFailure(f"mediation produced {m!r}, expected {c.vertex}->{L.vertex}")
        for i in c.diagram.shape.objects:
            if A.compose(L.edges[i], m) != c.edges[i]:
                raise InternalCheckFailure(f"mediation does not commute at {i}")
        return m
    ms = mediators_into(L.cone, c)
    if len(ms) != 1:
        raise InternalCheckFailure(
            f"{len(ms)} mediators from cone at {c.vertex} into claimed limit at {L.vertex}")
    return ms[0]


def competing_cones(d: Diagram) -> list[Cone] | None:
    """Every cone over d that a limiting cone must factor uniquely; None when
    d's target lists no objects, so universality cannot be replayed."""
    return enumerate_cones(d) if d.target.objects() is not None else None


def factorizations(L: LimitingCone) -> list[tuple[Cone, list[Arrow]]] | None:
    """Each cone ``competing_cones`` gives over L's diagram, with its mediators
    into L's cone; None when there are no competitors to replay."""
    cones = competing_cones(L.cone.diagram)
    return None if cones is None else [(c, mediators_into(L.cone, c)) for c in cones]


def factorization_violations(L: LimitingCone,
                             found: list[tuple[Cone, list[Arrow]]]) -> list[str]:
    """The universal property on ``factorizations``: every competitor factors
    exactly once, and L's own mediation, if any, gives that factorization."""
    out = []
    for c, ms in found:
        if len(ms) != 1:
            out.append(f"cone at {c.vertex} has {len(ms)} factorizations")
        elif L.mediate is not None and L.mediate(c) != ms[0]:
            out.append(f"mediation of the cone at {c.vertex} is not its factorization")
    return out


def limiting_violations(L: LimitingCone) -> list[str] | None:
    """Universal-property check against ``competing_cones``: an empty list
    means limiting on the nose, None that there were no competitors to replay."""
    bad = cone_violations(L.cone)
    if bad:
        return [f"not a cone: {v}" for v in bad]
    found = factorizations(L)
    return None if found is None else factorization_violations(L, found)


def _limit_thin(A: Ambient, d: Diagram) -> LimitingCone:
    """In a thin ambient a cone is a lower bound, so the limit is the greatest one."""
    targets = sorted({d.ob[i] for i in d.shape.objects})
    cands = [v for v in sorted(A.objects())
             if all(A.hom(v, t) for t in targets)]
    if cands:
        # climb to the first candidate of the top class, then check it is on top
        top = cands[0]
        for v in cands[1:]:
            if A.hom(top, v) and not A.hom(v, top):
                top = v
        if all(A.hom(c, top) for c in cands):
            edges = {i: A.hom(top, d.ob[i])[0] for i in d.shape.objects}
            return LimitingCone(cone=Cone(d, top, edges))
    raise NoLimit(f"no greatest lower bound for {targets}")


def limit_brute(A: Ambient, d: Diagram) -> LimitingCone:
    """Terminal cone by exhaustion, or the ambient's own construction.

    ``A`` must be the diagram's own ambient: the construction reads ``A`` and
    the cone replays read ``d.target``, so any other is an engine fault.
    """
    if A is not d.target:
        raise InternalCheckFailure(f"limit asked in {A!r} of a diagram into {d.target!r}")
    if A.objects() is None:
        data = A.limit_data(d)
        if data is None:
            raise NonEnumerableAmbient("ambient provides no limit construction for this diagram")
        return data
    if A.posetal:
        return _limit_thin(A, d)
    cones = enumerate_cones(d)
    for cand in cones:
        if all(len(mediators_into(cand, c)) == 1 for c in cones):
            return LimitingCone(cone=cand)
    raise NoLimit(f"no terminal cone among {len(cones)} cones "
                  f"over diagram with shape objects {list(d.shape.objects)}")


# -- colimits via the opposite ambient --------------------------------------


def colimit_brute(d: Diagram) -> LimitingCone:
    """Colimit of d as the limit of the opposite diagram in the opposite ambient.

    The returned cone lives over ``opposite_diagram(d)``: its vertex is the
    colimit vertex, and its edges are opposite arrows ``vertex -> d(i)``, the
    colimit legs ``d(i) -> vertex`` read backwards.
    """
    dop = opposite_diagram(d)
    return limit_brute(dop.target, dop)


# -- initial objects and the weak-initial refinement ------------------------


def weak_initiality_violations(cat: FinCategory, w: str) -> list[str]:
    return [f"no arrow {w} -> {y}" for y in cat.objects if not cat.hom_ids(w, y)]


@dataclass(frozen=True)
class InitialRefinement:
    """Initial object carved out of a weakly initial one by equalizing its endos."""

    vertex: str
    inclusion: Arrow      # vertex -> weak_vertex, the joint-equalizer leg
    retraction: Arrow     # weak_vertex -> vertex with retraction . inclusion = id
    checks: tuple[CheckEntry, ...]


def refine_weak_initial(cat: FinCategory, w: str) -> InitialRefinement:
    """Joint equalizer of all endos of a weakly initial object is initial.

    The refinement needs the ambient to have the one limit it asks for;
    MissingLimit is raised if the joint equalizer does not exist.
    """
    checks: list[CheckEntry] = []
    A = FinCatAmbient(cat)
    missing = weak_initiality_violations(cat, w)
    if missing:
        checks.append(CheckEntry("initial.weakly_initial", tag=w, passed=False,
                                 witness=missing[0]))
        return InitialRefinement(w, A.identity(w), A.identity(w), tuple(checks))
    checks.append(CheckEntry("initial.weakly_initial", tag=w))

    endos = A.hom(w, w)
    # the shape a => b with one parallel arrow per endo of w
    d = free_diagram(A, {"a": w, "b": w}, {f"par:{s.data}": ("a", "b", s) for s in endos})
    try:
        L = limit_brute(A, d)
    except NoLimit as exc:
        raise MissingLimit(f"joint equalizer of endos of {w} does not exist: {exc}") from exc
    v = L.vertex
    u = L.edges["a"]
    # hom(w, w) holds the identity, so a cone over d equalizes every endo
    checks.append(verdict("initial.equalizes_endos", cone_violations(L.cone), tag=v))

    # any arrow w -> v retracts the inclusion: u is mono and u.(t.u) = u;
    # hom(w, v) is not empty, since w is weakly initial
    ts = A.hom(w, v)
    r = next((t for t in ts if A.compose(t, u) == A.identity(v)), None)
    checks.append(CheckEntry("initial.retraction", tag=v, passed=r is not None,
                             witness="" if r is not None else
                             f"no arrow among {[t.data for t in ts]} retracts the equalizer leg"))
    if r is None:
        r = ts[0]

    init_ok = all(len(cat.hom_ids(v, y)) == 1 for y in cat.objects)
    witness = ""
    if not init_ok:
        bad = [y for y in cat.objects if len(cat.hom_ids(v, y)) != 1][0]
        witness = f"hom({v}, {bad}) has {len(cat.hom_ids(v, bad))} arrows"
    checks.append(CheckEntry("initial.unique_arrows", tag=v, passed=init_ok, witness=witness))
    return InitialRefinement(v, u, r, tuple(checks))


# -- mono certificates -------------------------------------------------------


def jointly_monic_violation(A: Ambient, arrows: Sequence[Arrow],
                            domains: Sequence[str]) -> str | None:
    """First counterexample to joint left-cancellation for a same-source family.

    An arrow m is monic exactly when the one-arrow family [m] is jointly monic.
    """
    if not arrows:
        return "empty family is not jointly monic over a nontrivial ambient"
    src = arrows[0].src
    for c in domains:
        cands = list(A.hom(c, src))
        for f in cands:
            for g in cands:
                if f != g and all(A.compose(m, f) == A.compose(m, g) for m in arrows):
                    return f"{A.arrow_label(f)} and {A.arrow_label(g)} agree under every leg (domain {c})"
    return None
