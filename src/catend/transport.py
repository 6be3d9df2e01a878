"""Transporting limits across equivalences of diagrams.

An equivalence packages back-and-forth shape functors with invertible
comparison data: unit and counit isos inside the shapes, and an ambient
natural iso between the transported diagram and the target one.  A limiting
cone over one diagram then yields a limiting cone over the other with the
very same vertex.  The transported cone and its pulled-back mediation are
re-verified by ``limits.factorization_violations`` against every competing
cone, not taken on faith; where there are none, as in an ambient that lists
no objects, nothing is replayed.  The one equivalence the engine builds is
the skeletonization of a diagram's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Arrow, Diagram, FinCategory, FunctorData, build_category, fin_functor
from .limits import (Cone, LimitingCone, cone_violations, factorization_violations,
                     factorizations, mediator)
from .report import CheckEntry, verdict


@dataclass(frozen=True)
class DiagramEquivalence:
    """Equivalence data carrying d1 over to d2.

    forward: shape(d1) -> shape(d2);  backward: shape(d2) -> shape(d1).
    gamma[i]: ambient iso d2(forward(i)) -> d1(i), natural in i.
    counit[j]: invertible shape(d2)-arrow forward(backward(j)) -> j, natural.
    unit[i]: invertible shape(d1)-arrow backward(forward(i)) -> i, natural.
    """

    d1: Diagram
    d2: Diagram
    forward: FunctorData
    backward: FunctorData
    gamma: Mapping[str, Arrow]
    counit: Mapping[str, str]
    unit: Mapping[str, str]


def pointwise_iso(E: DiagramEquivalence) -> dict[str, Arrow]:
    """delta[j]: d1(backward(j)) -> d2(j), assembled from counit and gamma."""
    A = E.d1.target
    out = {}
    for j in E.d2.shape.objects:
        i = E.backward.ob[j]
        out[j] = A.compose(E.d2.ar[E.counit[j]], A.inverse(E.gamma[i]))
    return out


def pointwise_naturality_violations(E: DiagramEquivalence,
                                    delta: Mapping[str, Arrow]) -> list[str]:
    A = E.d1.target
    out = []
    for a in E.d2.shape.arrow_ids():
        j, j2 = E.d2.shape.src(a), E.d2.shape.tgt(a)
        lhs = A.compose(E.d2.ar[a], delta[j])
        rhs = A.compose(delta[j2], E.d1.ar[E.backward.ar[a].data])
        if lhs != rhs:
            out.append(f"pointwise iso not natural at shape arrow {a}")
    return out


def transport_limit(E: DiagramEquivalence,
                    L1: LimitingCone) -> tuple[LimitingCone, list[CheckEntry]]:
    """Limiting cone over d2 with the same vertex as L1, fully re-verified."""
    A = E.d1.target
    checks: list[CheckEntry] = []
    delta = pointwise_iso(E)
    checks.append(verdict("transport.pointwise_natural",
                          pointwise_naturality_violations(E, delta)))

    edges2 = {j: A.compose(delta[j], L1.edges[E.backward.ob[j]])
              for j in E.d2.shape.objects}
    cone2 = Cone(E.d2, L1.vertex, edges2)
    checks.append(verdict("transport.cone_commutes", cone_violations(cone2)))

    def mediate(c: Cone) -> Arrow:
        edges1 = {i: A.compose(E.gamma[i], c.edges[E.forward.ob[i]])
                  for i in E.d1.shape.objects}
        return mediator(L1, Cone(E.d1, c.vertex, edges1))

    L2 = LimitingCone(cone=cone2, mediate=mediate)

    found = factorizations(L2)
    if found is not None:
        checks.append(verdict("transport.universal", factorization_violations(L2, found)))
    return L2, checks


def reverse_equivalence(E: DiagramEquivalence) -> DiagramEquivalence:
    """The same equivalence read from d2 to d1."""
    delta = pointwise_iso(E)
    return DiagramEquivalence(d1=E.d2, d2=E.d1,
                              forward=E.backward, backward=E.forward,
                              gamma=delta, counit=dict(E.unit), unit=dict(E.counit))


# ---------------------------------------------------------------------------
# Skeletonization


def iso_classes(cat: FinCategory) -> dict[str, str]:
    """Map each object to the lexicographically least object isomorphic to it."""
    rep: dict[str, str] = {}
    for x in cat.objects:
        if x in rep:
            continue
        cls = [y for y in cat.objects if cat.iso_pairs(x, y)]
        r = min(cls)
        for y in cls:
            rep[y] = r
    return rep


def skeletonize(d: Diagram) -> DiagramEquivalence:
    """Equivalence from d onto its restriction to iso-class representatives.

    Chosen isos to the representatives are identities on the representatives
    themselves, so the counit is the identity and naturality is strict there.
    """
    shape = d.shape
    rep = iso_classes(shape)
    reps = sorted(set(rep.values()))
    # chosen iso u[x]: x -> rep(x) with inverse; identity on representatives
    u: dict[str, str] = {}
    u_inv: dict[str, str] = {}
    for x in shape.objects:
        if x == rep[x]:
            u[x] = u_inv[x] = shape.id_of(x)
        else:
            u[x], u_inv[x] = shape.iso_pairs(x, rep[x])[0]

    sub_arrows = {a: st for a, st in shape.arrows.items()
                  if st[0] in reps and st[1] in reps}
    sub_comp = {(g, f): r for (g, f), r in shape.composition.items()
                if g in sub_arrows and f in sub_arrows}
    sub_ids = {x: shape.identities[x] for x in reps}
    skeletal = build_category(reps, sub_arrows, sub_comp, sub_ids)
    d2 = Diagram(source=skeletal, target=d.target,
                 ob={x: d.ob[x] for x in reps},
                 ar={a: d.ar[a] for a in skeletal.arrow_ids()})

    fwd_ob = {x: rep[x] for x in shape.objects}
    fwd_ar = {}
    for a in shape.arrow_ids():
        x, y = shape.src(a), shape.tgt(a)
        fwd_ar[a] = shape.compose_ids(u[y], shape.compose_ids(a, u_inv[x]))
    fwd = fin_functor(shape, skeletal, fwd_ob, fwd_ar)
    bwd = fin_functor(skeletal, shape,
                      {x: x for x in reps},
                      {a: a for a in skeletal.arrow_ids()})
    return DiagramEquivalence(
        d1=d, d2=d2, forward=fwd, backward=bwd,
        gamma={i: d.ar[u_inv[i]] for i in shape.objects},
        counit={j: skeletal.id_of(j) for j in reps},
        unit={i: u_inv[i] for i in shape.objects})
