"""Colimit synthesis: cocones assembled from ends of exponential bifunctors.

The pipeline: send each object X of a closed instance to the limit of the
exponential diagram of d at X, form the bifunctor (X, Y) |-> Y^(that limit),
and take its end.  Swapped limit projections give a cocone on the end vertex;
packaging any competing cocone as an element lets the end vertex map to it,
so the vertex is weakly initial among cocones.  In a posetal instance the
cocone category is materialized outright and the weak initial object is
refined to an initial one by equalizing its endos.  Every step is replayed
as explicit arrow equations; nothing is concluded from the construction
alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import (Ambient, Arrow, Diagram, FinCategory, build_category,
                   composable_arrow_pairs, composable_pairs, diagram_on_elements,
                   free_diagram, poset_category)
from .ends import (Bifunctor, EndCone, end_of, extend_wedge, subdivision,
                   wedge_violations)
from .errors import InputError, InternalCheckFailure, NonEnumerableAmbient, NotAWedge
from .limits import (Cocone, Cone, InitialRefinement, LimitingCone, cocone_violations,
                     colimit_brute, competing_cones, jointly_monic_violation,
                     limit_brute, mediator, mediators_into, refine_weak_initial)
from .report import CheckEntry, equation, summarize, verdict
from .smcc import (SmccInstance, cocone_element, ev_at, exp_contra, exp_cov,
                   exp_diagram, swap_arg)
from .transport import reverse_equivalence, skeletonize, transport_limit


# ---------------------------------------------------------------------------
# Endofunctors


@dataclass(frozen=True)
class Endofunctor:
    ambient: Ambient = field(compare=False)
    name: str = ""
    ob: Callable[[str], str] = field(compare=False, default=None)
    ar: Callable[[Arrow], Arrow] = field(compare=False, default=None)


# composable pairs drawn for the composition law when there are more
LAW_PAIR_SAMPLE = 400


def endofunctor_violations(F, objects) -> list[str]:
    A = F.ambient
    out: list[str] = []
    arrows = [f for x in objects for y in objects for f in A.hom(x, y)]
    for x in objects:
        if F.ar(A.identity(x)) != A.identity(F.ob(x)):
            out.append(f"identity not preserved at {x}")
    for f in arrows:
        img = F.ar(f)
        if (img.src, img.tgt) != (F.ob(f.src), F.ob(f.tgt)):
            out.append(f"image of {A.arrow_label(f)} is {img!r}, expected "
                       f"{F.ob(f.src)}->{F.ob(f.tgt)}")
    pairs = composable_arrow_pairs(arrows)
    if len(pairs) > LAW_PAIR_SAMPLE:
        pairs = random.Random(0).sample(pairs, LAW_PAIR_SAMPLE)
    for f, g in pairs:
        if F.ar(A.compose(g, f)) != A.compose(F.ar(g), F.ar(f)):
            out.append(f"composition not preserved on ({A.arrow_label(g)}, {A.arrow_label(f)})")
    return out


def identity_endofunctor(A: Ambient) -> Endofunctor:
    return Endofunctor(A, "identity", ob=lambda x: x, ar=lambda f: f)


def constant_endofunctor(A: Ambient, c: str) -> Endofunctor:
    return Endofunctor(A, f"const[{c}]", ob=lambda x: c, ar=lambda f: A.identity(c))


def tensor_endofunctor(A: SmccInstance, c: str) -> Endofunctor:
    return Endofunctor(A, f"tensor[{c}]",
                       ob=lambda x: A.tensor_obj(x, c),
                       ar=lambda f: A.tensor_arr(f, A.identity(c)))


def exp_from_endofunctor(A: SmccInstance, c: str) -> Endofunctor:
    """X |-> X^c, covariant."""
    return Endofunctor(A, f"expfrom[{c}]",
                       ob=lambda x: A.exp_obj(c, x),
                       ar=lambda f: exp_cov(A, f, c))


def double_dual_endofunctor(A: SmccInstance, c: str) -> Endofunctor:
    """X |-> c^(c^X), covariant through two contravariant steps."""
    return Endofunctor(A, f"dualdual[{c}]",
                       ob=lambda x: A.exp_obj(A.exp_obj(x, c), c),
                       ar=lambda f: exp_contra(A, exp_contra(A, f, c), c))


class LimExpEndofunctor:
    """X |-> vertex of the limit of the exponential diagram of d at X."""

    def __init__(self, A: SmccInstance, d: Diagram):
        self.ambient = A
        self.diagram = d
        self.name = "limexp"
        self._lims: dict[str, LimitingCone] = {}
        self._ars: dict[Arrow, Arrow] = {}

    def limit_at(self, x: str) -> LimitingCone:
        if x not in self._lims:
            self._lims[x] = limit_brute(self.ambient, exp_diagram(self.ambient, self.diagram, x))
        return self._lims[x]

    def ob(self, x: str) -> str:
        return self.limit_at(x).vertex

    def ar(self, f: Arrow) -> Arrow:
        A = self.ambient
        if f not in self._ars:
            d = self.diagram
            src_lim = self.limit_at(f.src)
            tgt_lim = self.limit_at(f.tgt)
            edges = {i: A.compose(exp_cov(A, f, d.ob[i]), src_lim.edges[i])
                     for i in d.shape.objects}
            self._ars[f] = mediator(tgt_lim, Cone(tgt_lim.cone.diagram,
                                                  src_lim.vertex, edges))
        return self._ars[f]


def endo_exp_bifunctor(A: SmccInstance, F, objects: list[str]) -> Bifunctor:
    """B(X, Y) = Y^(F X): contravariant through F, covariant in Y."""
    return Bifunctor(ambient=A, name=f"exp[{F.name}]",
                     objects=tuple(objects),
                     ob=lambda x, y: A.exp_obj(F.ob(x), y),
                     contra=lambda f, z: exp_contra(A, F.ar(f), z),
                     cov=lambda x, g: exp_cov(A, g, F.ob(x)))


# ---------------------------------------------------------------------------
# The synthesized cocone on the end vertex


@dataclass(frozen=True)
class ColimitSynthesis:
    diagram: Diagram
    functor: LimExpEndofunctor = field(compare=False)
    end: EndCone = field(compare=False)
    cocone: Cocone = field(compare=False)
    checks: tuple[CheckEntry, ...] = ()


def synthesize_cocone(A: SmccInstance, d: Diagram, objects: list[str] | None = None,
                      end_route: str = "direct") -> ColimitSynthesis:
    """Cocone on the end of (X, Y) |-> Y^(Lim of d-exponentials at X)."""
    universe = list(objects) if objects is not None else A.objects()
    if universe is None:
        raise NonEnumerableAmbient("colimit synthesis needs an object enumeration")
    F = LimExpEndofunctor(A, d)
    B = endo_exp_bifunctor(A, F, universe)
    E, checks = end_by_route(B, end_route)

    edges: dict[str, Arrow] = {}
    fams: dict[str, dict[str, Arrow]] = {}
    for i in d.shape.objects:
        fams[i] = fam = {X: swap_arg(A, F.limit_at(X).edges[i], d.ob[i], X) for X in universe}
        bad = wedge_violations(B, fam)
        checks.append(verdict("synthesis.wedge_square", bad, tag=i))
        if bad:
            raise NotAWedge("; ".join(bad))
        edges[i] = mediator(E.limiting, extend_wedge(B, E.limiting.cone.diagram, fam))
        for X in universe:
            checks.append(equation(A, "synthesis.end_leg", f"{i},{X}",
                                   A.compose(E.projections[X], edges[i]), fam[X]))

    for a in d.shape.arrow_ids():
        if d.shape.is_identity_id(a):
            continue
        i, j = d.shape.src(a), d.shape.tgt(a)
        tri = [equation(A, "synthesis.swap_triangle", f"{a},{X}",
                        A.compose(fams[j][X], d.ar[a]), fams[i][X])
               for X in universe]
        checks.append(summarize(tri, "synthesis.swap_triangle", tag=a))
        checks.append(equation(A, "synthesis.cocone_triangle", a,
                               A.compose(edges[j], d.ar[a]), edges[i]))

    cocone = Cocone(d, E.vertex, edges)
    checks.append(verdict("synthesis.cocone", cocone_violations(cocone)))
    return ColimitSynthesis(diagram=d, functor=F, end=E,
                            cocone=cocone, checks=tuple(checks))


def mediate_weakly(A: SmccInstance, S: ColimitSynthesis,
                   delta: Cocone) -> tuple[Arrow, list[CheckEntry]]:
    """Arrow from the synthesized vertex to any cocone's vertex, with replay.

    The cocone is packaged as an element of the limit at its own vertex;
    evaluating the end projection there gives the mediating arrow, and the
    replay checks confirm it commutes with both cocones.
    """
    X = delta.vertex
    if X not in S.end.bifunctor.objects:
        raise InputError(f"cocone vertex {X} is outside the synthesis universe")
    bad = cocone_violations(delta)
    if bad:
        raise InputError(f"not a cocone: {bad[0]}")
    lim = S.functor.limit_at(X)
    elt, checks = cocone_element(A, delta, lim)
    psi = A.compose(ev_at(A, elt, X), S.end.projections[X])
    for i in S.diagram.shape.objects:
        checks.append(equation(A, "mediate.psi_triangle", i,
                               A.compose(psi, S.cocone.edges[i]), delta.edges[i]))
    return psi, checks


# ---------------------------------------------------------------------------
# Ends through a cogenerating family


@dataclass(frozen=True)
class CogeneratorEnd:
    end: EndCone
    product: str
    spans: Mapping[str, tuple[str, Arrow, Arrow]]  # X -> (span vertex, leg to B(P, P), leg to B(X, X))
    checks: tuple[CheckEntry, ...]


def _span_diagram(B: Bifunctor, X: str, P: str) -> Diagram:
    """Span binding X's component to the product component over each X -> P."""
    A = B.ambient
    ob = {"pfp": B.ob(P, P), "xfx": B.ob(X, X)}
    legs: dict[str, tuple[str, str, Arrow]] = {}
    for phi in A.hom(X, P):
        k = A.arrow_label(phi)
        ob[f"mid:{k}"] = B.ob(X, P)
        legs[f"p2m:{k}"] = ("pfp", f"mid:{k}", B.contra(phi, P))
        legs[f"x2m:{k}"] = ("xfx", f"mid:{k}", B.cov(X, phi))
    return free_diagram(A, ob, legs)


def end_via_cogenerator(B: Bifunctor) -> CogeneratorEnd:
    """End of B through products over a cogenerating family.

    Builds, for each X, the span limit binding X's component to the product
    component; glues the span vertices over the product node along every iso
    compatible with the gluing legs; skeletonizes that diagram, takes the
    small limit, and transports it back.  Monomorphy of the gluing legs is
    certified by cancellation scans, and the result is checked to be a
    universal wedge by replaying factorization and uniqueness against every
    cone over the subdivision that ``competing_cones`` returns.
    """
    A = B.ambient
    universe = list(B.objects)
    family = A.cogenerating_family
    if family is None:
        raise InputError("ambient does not declare a cogenerating family")
    checks: list[CheckEntry] = []

    P_lim = limit_brute(A, diagram_on_elements(A, family))
    P = P_lim.vertex
    if P not in universe:
        raise InputError(f"product {P} of the cogenerating family is outside the universe")
    t_obj = B.ob(P, P)

    span_lims = {X: limit_brute(A, _span_diagram(B, X, P)) for X in universe}
    spans = {X: (L.vertex, L.edges["pfp"], L.edges["xfx"]) for X, L in span_lims.items()}

    mono_entries = []
    domains = sorted(set(universe) | {v for v, _, _ in spans.values()} | {t_obj})
    for X in universe:
        v, m, n = spans[X]
        w = jointly_monic_violation(A, [m], domains=domains)
        mono_entries.append(CheckEntry("end2.cogen_leg_monic", tag=X,
                                       passed=w is None, witness=w or ""))
        w2 = jointly_monic_violation(A, [m, n], domains=domains)
        mono_entries.append(CheckEntry("end2.span_legs_jointly_monic", tag=X,
                                       passed=w2 is None, witness=w2 or ""))
    checks.append(summarize(mono_entries, "end2.mono_certificates",
                            tag=f"objects={len(universe)}"))

    # glue the spans over the product node along every leg-compatible iso
    node_of = {X: f"M:{X}" for X in universe}
    objs = ["T"] + [node_of[X] for X in universe]
    arrows: dict[str, tuple[str, str]] = {}
    identities: dict[str, str] = {}
    images: dict[str, Arrow] = {}
    values = {"T": t_obj, **{node_of[X]: spans[X][0] for X in universe}}
    for n in objs:
        arrows[f"id:{n}"] = (n, n)
        identities[n] = f"id:{n}"
        images[f"id:{n}"] = A.identity(values[n])
    for X in universe:
        aid = f"m:{X}"
        arrows[aid] = (node_of[X], "T")
        images[aid] = spans[X][1]
    riso: dict[tuple[str, str], list[Arrow]] = {}
    for X in universe:
        for Y in universe:
            vx, mx, _ = spans[X]
            vy, my, _ = spans[Y]
            found = []
            for r in A.hom(vx, vy):
                if A.compose(my, r) != mx or A.inverse(r) is None:
                    continue
                if X == Y and A.is_identity(r):
                    continue
                found.append(r)
            riso[(X, Y)] = found
            for r in found:
                arrows[f"r:{X}:{Y}:{A.arrow_label(r)}"] = (node_of[X], node_of[Y])
                images[f"r:{X}:{Y}:{A.arrow_label(r)}"] = r

    arrow_by_sig = {(st[0], st[1], A.arrow_label(images[a])): a
                    for a, st in arrows.items()}
    composition: dict[tuple[str, str], str] = {}
    for g, f in composable_pairs(arrows):
        img = A.compose(images[g], images[f])
        key = (arrows[f][0], arrows[g][1], A.arrow_label(img))
        if key not in arrow_by_sig:
            raise InternalCheckFailure(f"gluing diagram not closed under composition "
                                      f"({g} after {f})")
        composition[(g, f)] = arrow_by_sig[key]
    shape = build_category(objs, arrows, composition, identities)
    mdiag = Diagram(source=shape, target=A, ob=values, ar=images)

    eqv = skeletonize(mdiag)
    small = limit_brute(A, eqv.d2)
    L_M, t_checks = transport_limit(reverse_equivalence(eqv), small)
    checks.append(summarize(list(t_checks), "end2.skeleton_transport",
                            tag=f"nodes={len(objs)}->{len(eqv.d2.shape.objects)}"))

    sd_full = subdivision(B)
    proj = {X: A.compose(spans[X][2], L_M.edges[node_of[X]]) for X in universe}
    bad = wedge_violations(B, proj)
    checks.append(verdict("end2.wedge", bad, tag=L_M.vertex))
    if bad:
        raise NotAWedge("; ".join(bad))

    def lift(c: Cone) -> tuple[Arrow, CheckEntry]:
        xi_p = c.edges[f"ob:{P}"]
        thetas: dict[str, Arrow] = {}
        for X in universe:
            sd = span_lims[X].cone.diagram
            edges = {"pfp": xi_p, "xfx": c.edges[f"ob:{X}"]}
            for a in sd.shape.arrow_ids():
                if a.startswith("p2m:"):
                    edges[sd.shape.tgt(a)] = A.compose(sd.ar[a], xi_p)
            thetas[X] = mediator(span_lims[X], Cone(sd, c.vertex, edges))
        coh = []
        for (X, Y), rs in riso.items():
            for r in rs:
                ok = A.compose(r, thetas[X]) == thetas[Y]
                coh.append(CheckEntry("end2.lifting_coherent", tag=f"{X},{Y}", passed=ok,
                                      witness="" if ok else A.arrow_label(r)))
        coherent = summarize(coh, "end2.lifting_coherent", tag=c.vertex)
        m_edges = {node_of[X]: thetas[X] for X in universe}
        m_edges["T"] = xi_p
        h = mediator(L_M, Cone(mdiag, c.vertex, m_edges))
        return h, coherent

    end_cone = extend_wedge(B, sd_full, proj)
    cones = competing_cones(A, sd_full)
    if cones is not None:
        replay: list[CheckEntry] = []
        for c in cones:
            h, coherent = lift(c)
            replay.append(coherent)
            ms = mediators_into(A, end_cone, c)
            replay.append(CheckEntry("end2.factorization", tag=c.vertex, passed=h in ms,
                                     witness="" if h in ms else "lifted arrow misses a component"))
            replay.append(CheckEntry("end2.uniqueness", tag=c.vertex, passed=len(ms) == 1,
                                     witness="" if len(ms) == 1 else f"{len(ms)} factorizations"))
        checks.append(summarize(replay, "end2.universal", tag=f"wedges={len(replay) // 3}"))

    def mediate(c: Cone) -> Arrow:
        h, _ = lift(c)
        return h

    end = EndCone(bifunctor=B,
                  limiting=LimitingCone(cone=end_cone, mediate=mediate))
    return CogeneratorEnd(end=end, product=P, spans=spans, checks=tuple(checks))


def end_by_route(B: Bifunctor, route: str) -> tuple[EndCone, list[CheckEntry]]:
    """End of B by the named route, and that route's own checks: none for the
    subdivision limit, the certificates and replays of the cogenerating family."""
    if route == "direct":
        return end_of(B), []
    if route == "cogenerator":
        cg = end_via_cogenerator(B)
        return cg.end, list(cg.checks)
    raise InputError(f"unknown end route {route!r}")


def route_agreement(E: EndCone, route: str) -> list[CheckEntry]:
    """Run the end route other than ``route``, the one E came from, on
    E's bifunctor, and compare.

    Returns the other route's own checks followed by ``end.route_agreement``.
    """
    # an unknown route passes through, for end_by_route to reject
    other = {"direct": "cogenerator", "cogenerator": "direct"}.get(route, route)
    other_end, checks = end_by_route(E.bifunctor, other)
    ok = other_end.vertex == E.vertex
    checks.append(CheckEntry("end.route_agreement", tag=E.vertex, passed=ok,
                             witness="" if ok else f"other route sits at {other_end.vertex}"))
    return checks


# ---------------------------------------------------------------------------
# Posetal colimits, end to end


@dataclass(frozen=True)
class ColimitViaEnds:
    synthesis: ColimitSynthesis
    cocone_category: FinCategory
    refinement: InitialRefinement
    cocone: Cocone
    checks: tuple[CheckEntry, ...]

    @property
    def vertex(self) -> str:
        return self.cocone.vertex


def colimit_via_ends(A: SmccInstance, d: Diagram, cross_check: bool = True,
                     end_route: str = "direct") -> ColimitViaEnds:
    """Colimit of a posetal diagram, synthesized and then refined to initial.

    The end vertex carries the synthesized cocone; the cocone category is
    materialized as a finite poset category, weak initiality is witnessed by
    mediating to every cocone, and the joint equalizer of the vertex's endos
    is the initial cocone, i.e. the colimit.
    """
    if not A.posetal:
        raise InputError("materializing the cocone category needs a posetal ambient")
    S = synthesize_cocone(A, d, end_route=end_route)
    checks = list(S.checks)
    D = S.cocone.vertex

    # the cocone on each upper bound u, its legs the one arrows d(i) -> u
    homs = {u: {i: A.hom(d.ob[i], u) for i in d.shape.objects} for u in sorted(A.objects())}
    bounds = {u: Cocone(d, u, {i: hs[0] for i, hs in legs.items()})
              for u, legs in homs.items() if all(legs.values())}
    cc = poset_category(bounds, {(u, v) for u in bounds for v in bounds if A.hom(u, v)})
    checks.append(CheckEntry("cocones.vertex_present", tag=D, passed=D in bounds,
                             witness="" if D in bounds else "synthesized vertex is not a bound"))
    if D not in bounds:
        raise InternalCheckFailure("synthesized vertex does not bound the diagram")

    weak = []
    for u, delta in bounds.items():
        psi, mchecks = mediate_weakly(A, S, delta)
        weak.extend(mchecks)
        ok = (psi.src, psi.tgt) == (D, u)
        weak.append(CheckEntry("cocones.mediated", tag=u, passed=ok,
                               witness="" if ok else f"mediator is {psi!r}"))
    checks.append(summarize(weak, "cocones.weakly_initial", tag=f"bounds={len(bounds)}"))

    ref = refine_weak_initial(cc, D)
    checks.extend(ref.checks)
    final = bounds[ref.vertex]
    checks.append(verdict("colimit.cocone", cocone_violations(final), tag=ref.vertex))

    if cross_check:
        CB = colimit_brute(d)
        checks.append(CheckEntry("colimit.matches_brute", tag=ref.vertex,
                                 passed=CB.vertex == ref.vertex,
                                 witness="" if CB.vertex == ref.vertex else
                                 f"brute colimit sits at {CB.vertex}"))
    return ColimitViaEnds(synthesis=S, cocone_category=cc, refinement=ref,
                          cocone=final, checks=tuple(checks))
