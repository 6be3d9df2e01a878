"""Ends of bifunctors, computed as limits over a subdivision diagram.

A bifunctor is contravariant in its first argument and covariant in the
second, with an explicit object enumeration so the wedge conditions range
over a definite arrow family.  The subdivision shape has one node per
enumerated object (valued at the diagonal) and one per arrow between them
(valued off-diagonal), with two legs per arrow node; a cone over it is
exactly a wedge, so its limit is the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

from .core import Ambient, Arrow, Diagram, free_diagram
from .limits import Cone, LimitingCone, limit_brute, limiting_violations
from .errors import NotAWedge


@dataclass(frozen=True)
class Bifunctor:
    """B(-,-) on an ambient, contravariant left, covariant right."""

    ambient: Ambient = field(compare=False)
    name: str = ""
    objects: tuple[str, ...] = ()
    ob: Callable[[str, str], str] = field(compare=False, default=None)
    contra: Callable[[Arrow, str], Arrow] = field(compare=False, default=None)
    cov: Callable[[str, Arrow], Arrow] = field(compare=False, default=None)

    @cached_property
    def legs(self) -> tuple[tuple[Arrow, Arrow, Arrow], ...]:
        """(f, cov(f.src, f), contra(f, f.tgt)) for each domain arrow, in order.

        The subdivision, the wedge scan and the cone extension all read these
        two actions, so each is derived once per bifunctor.
        """
        return tuple((f, self.cov(f.src, f), self.contra(f, f.tgt))
                     for f in domain_arrows(self))


def domain_arrows(B: Bifunctor) -> list[Arrow]:
    """Every ambient arrow between enumerated objects, identities included."""
    out = []
    for x in B.objects:
        for y in B.objects:
            out.extend(B.ambient.hom(x, y))
    out.sort(key=B.ambient.arrow_label)
    return out


# cases drawn per quantifier of a bifunctor law when it has more
LAW_SAMPLE = 200


def bifunctor_violations(B: Bifunctor) -> list[str]:
    """Functoriality in each argument plus the interchange square."""
    A = B.ambient
    out: list[str] = []
    arrows = domain_arrows(B)
    rng = random.Random(0)

    def cut(items):
        return items if len(items) <= LAW_SAMPLE else rng.sample(items, LAW_SAMPLE)

    for x in B.objects:
        for z in B.objects:
            idx = A.identity(x)
            if B.contra(idx, z) != A.identity(B.ob(x, z)):
                out.append(f"contra does not preserve identity at ({x}, {z})")
            if B.cov(z, idx) != A.identity(B.ob(z, x)):
                out.append(f"cov does not preserve identity at ({z}, {x})")

    pairs = [(f, g) for f in arrows for g in arrows if f.tgt == g.src]
    for f, g in cut(pairs):
        gf = A.compose(g, f)
        for z in cut(list(B.objects)):
            lhs = B.contra(gf, z)
            rhs = A.compose(B.contra(f, z), B.contra(g, z))
            if lhs != rhs:
                out.append(f"contra not functorial on ({A.arrow_label(g)} . {A.arrow_label(f)}, {z})")
            lhs = B.cov(z, gf)
            rhs = A.compose(B.cov(z, g), B.cov(z, f))
            if lhs != rhs:
                out.append(f"cov not functorial on ({z}, {A.arrow_label(g)} . {A.arrow_label(f)})")

    squares = [(f, g) for f in arrows for g in arrows]
    for f, g in cut(squares):
        lhs = A.compose(B.contra(f, g.tgt), B.cov(f.tgt, g))
        rhs = A.compose(B.cov(f.src, g), B.contra(f, g.src))
        if lhs != rhs:
            out.append(f"interchange fails on ({A.arrow_label(f)}, {A.arrow_label(g)})")
    return out


def subdivision(B: Bifunctor) -> Diagram:
    """One node per object, one per arrow, two legs per arrow node."""
    A = B.ambient
    ob = {f"ob:{x}": B.ob(x, x) for x in B.objects}
    legs: dict[str, tuple[str, str, Arrow]] = {}
    for f, cov, contra in B.legs:
        k = A.arrow_label(f)
        assert f"ar:{k}" not in ob
        ob[f"ar:{k}"] = B.ob(f.src, f.tgt)
        legs[f"s:{k}"] = (f"ob:{f.src}", f"ar:{k}", cov)
        legs[f"t:{k}"] = (f"ob:{f.tgt}", f"ar:{k}", contra)
    return free_diagram(A, ob, legs)


@dataclass(frozen=True)
class EndCone:
    """Limiting cone over a subdivision diagram, read as a universal wedge."""

    bifunctor: Bifunctor
    limiting: LimitingCone

    @property
    def vertex(self) -> str:
        return self.limiting.vertex

    @cached_property
    def projections(self) -> dict[str, Arrow]:
        return {x: self.limiting.edges[f"ob:{x}"] for x in self.bifunctor.objects}


def end_of(B: Bifunctor) -> EndCone:
    return EndCone(bifunctor=B, limiting=limit_brute(B.ambient, subdivision(B)))


def wedge_violations(B: Bifunctor, projections: Mapping[str, Arrow]) -> list[str]:
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
    for f, cov, contra in B.legs:
        if A.is_identity(f):
            continue
        lhs = A.compose(cov, projections[f.src])
        rhs = A.compose(contra, projections[f.tgt])
        if lhs != rhs:
            out.append(f"wedge square fails at {A.arrow_label(f)}: "
                       f"{A.arrow_label(lhs)} != {A.arrow_label(rhs)}")
    return out


def extend_wedge(B: Bifunctor, sd: Diagram, family: Mapping[str, Arrow]) -> Cone:
    """The cone over the subdivision diagram of a family that passed ``wedge_violations``."""
    A = B.ambient
    if not B.objects:
        raise NotAWedge("empty object family")
    edges = {f"ob:{x}": family[x] for x in B.objects}
    for f, cov, _ in B.legs:
        edges[f"ar:{A.arrow_label(f)}"] = A.compose(cov, family[f.src])
    return Cone(sd, family[B.objects[0]].src, edges)


def end_universal_violations(E: EndCone) -> list[str]:
    """Exhaustive check that the end cone is limiting (enumerable ambients)."""
    out = wedge_violations(E.bifunctor, E.projections)
    out.extend(limiting_violations(E.bifunctor.ambient, E.limiting))
    return out
