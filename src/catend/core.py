"""Finitely-presented categories, functors, diagrams, and the ambient-category interface.

Object and arrow ids are plain strings.  Arrow equality is equality of the
``(src, tgt, data)`` triple, so every construction must produce arrows in
canonical form.  All enumerations are sorted to keep brute-force searches
deterministic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import TypeMismatch, ValidationFailure


@dataclass(frozen=True)
class Arrow:
    """An ambient-category arrow with exact, hashable equality.

    ``data`` is the canonical payload: ``None`` for posetal order witnesses,
    the arrow id in a finitely-presented ambient, an image tuple for set maps.
    """

    src: str
    tgt: str
    data: object = None

    def __eq__(self, other):
        # an ambient that interns its arrows (a quantale) passes on identity
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.src, self.tgt, self.data) == (other.src, other.tgt, other.data)

    def __repr__(self) -> str:  # keep failure witnesses readable
        if self.data is None:
            return f"{self.src}->{self.tgt}"
        return f"{self.src}->{self.tgt}[{self.data!r}]"


# ---------------------------------------------------------------------------
# Finitely-presented categories


@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category given by explicit tables.

    ``arrows`` maps arrow id to (src, tgt); ``composition`` maps the
    composable pair (g, f) with tgt(f) = src(g) to the id of g after f;
    ``identities`` maps each object to its identity arrow id.
    """

    objects: tuple[str, ...]
    arrows: Mapping[str, tuple[str, str]]
    composition: Mapping[tuple[str, str], str]
    identities: Mapping[str, str]

    def src(self, a: str) -> str:
        return self.arrows[a][0]

    def tgt(self, a: str) -> str:
        return self.arrows[a][1]

    def id_of(self, x: str) -> str:
        return self.identities[x]

    def is_identity_id(self, a: str) -> bool:
        return self.identities.get(self.src(a)) == a and self.src(a) == self.tgt(a)

    def compose_ids(self, g: str, f: str) -> str:
        if self.tgt(f) != self.src(g):
            raise TypeMismatch(f"cannot compose {g} after {f}: tgt({f})={self.tgt(f)} != src({g})={self.src(g)}")
        try:
            return self.composition[(g, f)]
        except KeyError as exc:
            raise TypeMismatch(f"composition gap ({g}, {f})") from exc

    def arrow_ids(self) -> list[str]:
        return sorted(self.arrows)

    @cached_property
    def _hom_index(self) -> dict[tuple[str, str], list[str]]:
        """Sorted arrow ids per (src, tgt), built on the first hom-set read."""
        index: dict[tuple[str, str], list[str]] = {}
        for a in sorted(self.arrows):
            index.setdefault(self.arrows[a], []).append(a)
        return index

    def hom_ids(self, a: str, b: str) -> list[str]:
        return list(self._hom_index.get((a, b), ()))

    def iso_pairs(self, a: str, b: str) -> list[tuple[str, str]]:
        """All (f, f_inv) with f: a -> b invertible."""
        pairs = []
        for f in self.hom_ids(a, b):
            for g in self.hom_ids(b, a):
                if self.composition.get((g, f)) == self.id_of(a) and self.composition.get((f, g)) == self.id_of(b):
                    pairs.append((f, g))
        return pairs


def category_violations(objects: Iterable[str],
                        arrows: Mapping[str, tuple[str, str]],
                        composition: Mapping[tuple[str, str], str],
                        identities: Mapping[str, str]) -> list[str]:
    """Every violated category law, each naming its witnesses."""
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
    # arrows into each object, sorted: the only f that compose after a g from x
    incoming: dict[str, list[str]] = {x: [] for x in obj_set}
    for a in sorted(arrows):
        incoming[tgt[a]].append(a)
    # composition must cover exactly the composable pairs, with correct endpoints;
    # findings are sorted by (g, f) to keep the order of an all-pairs scan.
    # Each composable entry is read once, into col(g): f -> g after f.
    found = [(g, f, f"composition entry for non-composable pair ({g}, {f})")
             for g, f in composition if tgt[f] != src[g]]
    cols: dict[str, dict[str, str]] = {}
    for g in arrows:
        col = cols[g] = {}
        for f in incoming[src[g]]:
            entry = col[f] = composition.get((g, f))
            if entry is None:
                found.append((g, f, f"composition gap ({g}, {f})"))
            elif entry not in arrows:
                found.append((g, f, f"composite ({g}, {f}) names unknown arrow {entry}"))
            elif (src[entry], tgt[entry]) != (src[f], tgt[g]):
                found.append((g, f, f"composite {entry} of ({g}, {f}) has endpoints "
                                    f"{src[entry]}->{tgt[entry]}, expected {src[f]}->{tgt[g]}"))
    out.extend(message for _, _, message in sorted(found))
    if out:
        return out + ghosts

    for f in sorted(arrows):
        if cols[identities[tgt[f]]][f] != f:
            out.append(f"identity law fails: id_{tgt[f]} after {f} != {f}")
        if cols[f][identities[src[f]]] != f:
            out.append(f"identity law fails: {f} after id_{src[f]} != {f}")
    # Once both identity laws hold, every triple with an identity associates:
    # id(gf) = gf = (id g)f, h(id f) = hf = (h id)f and h(g id) = hg = (hg)id.
    # So the scan drops the objects' identities from h, g and f; if a law fails,
    # it keeps them.  Only arrows checked above count: a stray key of
    # ``identities`` may name any arrow.
    idents = set() if out else {identities[x] for x in obj_set}
    heads = [a for a in sorted(arrows) if a not in idents]
    scan: dict[str, list[str]] = {x: [] for x in obj_set}
    for a in heads:
        scan[tgt[a]].append(a)
    # h(gf) = (hg)f for every f at once: h applied to row(g) must equal row(hg),
    # where row(g) lists g after f over the scanned f into src(g), built on
    # first use.
    rows: dict[str, list[str]] = {}

    def row(g: str) -> list[str]:
        if g not in rows:
            rows[g] = list(map(cols[g].__getitem__, scan[src[g]]))
        return rows[g]

    for h in heads:
        if not scan[src[h]]:
            continue
        after_h = cols[h]
        for g in scan[src[h]]:
            lhs, rhs = list(map(after_h.__getitem__, row(g))), row(after_h[g])
            if lhs != rhs:
                out.extend(f"non-associative triple (h={h}, g={g}, f={f})"
                           for f, x, y in zip(scan[src[g]], lhs, rhs) if x != y)
    return out + ghosts


def build_category(objects: Iterable[str],
                   arrows: Mapping[str, tuple[str, str]],
                   composition: Mapping[tuple[str, str], str],
                   identities: Mapping[str, str]) -> FinCategory:
    """Validate the tables and return the category, or raise with all violations."""
    violations = category_violations(objects, arrows, composition, identities)
    if violations:
        raise ValidationFailure("category", violations)
    return FinCategory(
        objects=tuple(sorted(objects)),
        arrows=dict(arrows),
        composition=dict(composition),
        identities=dict(identities),
    )


def opposite(cat: FinCategory) -> FinCategory:
    """Reverse all arrows; same ids, composition transposed.  An involution."""
    arrows = {a: (t, s) for a, (s, t) in cat.arrows.items()}
    composition = {(f, g): r for (g, f), r in cat.composition.items()}
    return FinCategory(objects=cat.objects, arrows=arrows,
                       composition=composition, identities=dict(cat.identities))


# -- small builders used across the engine ----------------------------------


def composable_pairs(arrows: Mapping[str, tuple[str, str]]) -> list[tuple[str, str]]:
    """Every (g, f) with tgt(f) = src(g), in the order of the all-pairs scan
    ``for g in arrows for f in arrows``, through an index of arrows by target."""
    into: dict[str, list[str]] = {}
    for f, (_, t) in arrows.items():
        into.setdefault(t, []).append(f)
    return [(g, f) for g, (s, _) in arrows.items() for f in into.get(s, ())]


def composable_arrow_pairs(arrows: Sequence[Arrow]) -> list[tuple[Arrow, Arrow]]:
    """Every (f, g) with f.tgt = g.src, in the order of the all-pairs scan
    ``for f in arrows for g in arrows``, through an index of arrows by source."""
    out_of: dict[str, list[Arrow]] = {}
    for g in arrows:
        out_of.setdefault(g.src, []).append(g)
    return [(f, g) for f in arrows for g in out_of.get(f.tgt, ())]


def free_shape(objects: Iterable[str], arrows: Mapping[str, tuple[str, str]],
               composites: Mapping[tuple[str, str], str]) -> FinCategory:
    """Shape on ``objects`` with identities ``id:<x>``, the given arrows, and
    ``composites`` mapping composable pairs (g, f) of them to g after f.

    Identity composites are filled in; a composable pair that ``composites``
    leaves out is a composition gap that ``build_category`` rejects.
    """
    objs = list(objects)
    identities = {x: f"id:{x}" for x in objs}
    shape_arrows = {i: (x, x) for x, i in identities.items()}
    shape_arrows.update(arrows)
    composition: dict[tuple[str, str], str] = {}
    for a, (s, t) in shape_arrows.items():
        composition[(a, identities[s])] = a
        composition.setdefault((identities[t], a), a)
    composition.update(composites)
    return build_category(objs, shape_arrows, composition, identities)


def discrete_category(objects: Iterable[str]) -> FinCategory:
    return free_shape(sorted(set(objects)), {}, {})


def poset_category(elements: Iterable[str], leq: set[tuple[str, str]]) -> FinCategory:
    """Category of a finite poset; arrow ``le:a:b`` whenever a <= b."""
    objs = sorted(set(elements))
    arrows = {f"le:{a}:{b}": (a, b) for (a, b) in leq}
    for x in objs:
        arrows.setdefault(f"le:{x}:{x}", (x, x))
    identities = {x: f"le:{x}:{x}" for x in objs}
    composition = {(g, f): f"le:{arrows[f][0]}:{arrows[g][1]}"
                   for g, f in composable_pairs(arrows)}
    return build_category(objs, arrows, composition, identities)


# ---------------------------------------------------------------------------
# Ambient categories


class Ambient(ABC):
    """A category with decidable arrow equality, possibly object-enumerable.

    ``objects()`` returns None when the ambient is not object-enumerable
    (the set-workspace fragment); every other method is total.  ``hom``
    returns a read-only sequence, built lazily in finite sets: callers may
    only read it.
    """

    posetal: bool = False

    @abstractmethod
    def objects(self) -> list[str] | None: ...

    @abstractmethod
    def hom(self, a: str, b: str) -> Sequence[Arrow]: ...

    @abstractmethod
    def identity(self, x: str) -> Arrow: ...

    @abstractmethod
    def compose(self, g: Arrow, f: Arrow) -> Arrow: ...

    @abstractmethod
    def arrow_label(self, f: Arrow) -> str:
        """Deterministic printable id, unique among the ambient's arrows."""

    def is_identity(self, f: Arrow) -> bool:
        return f.src == f.tgt and f == self.identity(f.src)

    def inverse(self, f: Arrow) -> Arrow | None:
        """Two-sided inverse found by hom-set scan, or None."""
        for g in self.hom(f.tgt, f.src):
            if self.compose(g, f) == self.identity(f.src) and self.compose(f, g) == self.identity(f.tgt):
                return g
        return None

    def limit_data(self, diagram: "FunctorData"):
        """Hook for ambients with a direct limit construction; see finset."""
        return None


class FinCatAmbient(Ambient):
    """A validated FinCategory viewed as an ambient category."""

    def __init__(self, cat: FinCategory):
        self.cat = cat

    def objects(self):
        return list(self.cat.objects)

    def hom(self, a, b):
        # the category's hom index, not ``hom_ids``, which the ``core.lookup``
        # trace counts as a category lookup
        return [Arrow(a, b, i) for i in self.cat._hom_index.get((a, b), ())]

    def identity(self, x):
        try:
            return Arrow(x, x, self.cat.identities[x])
        except KeyError as exc:
            raise TypeMismatch(f"unknown object {x}") from exc

    def compose(self, g, f):
        return Arrow(f.src, g.tgt, self.cat.compose_ids(g.data, f.data))

    def arrow_label(self, f):
        return str(f.data)


class OppositeAmbient(Ambient):
    """Formal dual of an enumerable ambient; arrows keep their payloads."""

    def __init__(self, base: Ambient):
        self.base = base
        self.posetal = base.posetal

    @staticmethod
    def rev(f: Arrow) -> Arrow:
        return Arrow(f.tgt, f.src, f.data)

    def objects(self):
        return self.base.objects()

    def hom(self, a, b):
        return [self.rev(f) for f in self.base.hom(b, a)]

    def identity(self, x):
        return self.rev(self.base.identity(x))

    def compose(self, g, f):
        return self.rev(self.base.compose(self.rev(f), self.rev(g)))

    def arrow_label(self, f):
        return self.base.arrow_label(self.rev(f))


# ---------------------------------------------------------------------------
# Functors and diagrams


@dataclass(frozen=True)
class FunctorData:
    """A functor from a finite shape into an ambient category.

    ``ob`` maps shape objects to ambient objects, ``ar`` maps shape arrow
    ids to ambient arrows.  A Diagram is exactly such a functor.
    """

    source: FinCategory
    target: Ambient = field(compare=False)
    ob: Mapping[str, str] = field(default_factory=dict)
    ar: Mapping[str, Arrow] = field(default_factory=dict)

    @property
    def shape(self) -> FinCategory:
        return self.source


Diagram = FunctorData


def functor_violations(F: FunctorData) -> list[str]:
    """Exhaustive functor-law scan; each violation names the offending arrows."""
    cat, amb = F.source, F.target
    out: list[str] = []
    for x in cat.objects:
        if x not in F.ob:
            out.append(f"object {x} has no image")
    for a in cat.arrow_ids():
        if a not in F.ar:
            out.append(f"arrow {a} has no image")
    if out:
        return out
    for a in cat.arrow_ids():
        img = F.ar[a]
        if img.src != F.ob[cat.src(a)] or img.tgt != F.ob[cat.tgt(a)]:
            out.append(f"arrow {a}: image {img!r} does not match object images "
                       f"{F.ob[cat.src(a)]}->{F.ob[cat.tgt(a)]}")
    if out:
        return out
    for x in cat.objects:
        if F.ar[cat.id_of(x)] != amb.identity(F.ob[x]):
            out.append(f"identity of {x} not preserved")
    for (g, f), r in cat.composition.items():
        if F.ar[r] != amb.compose(F.ar[g], F.ar[f]):
            out.append(f"composition not preserved on pair (g={g}, f={f})")
    return out


def fin_functor(source: FinCategory, target: FinCategory,
                ob: Mapping[str, str], ar_ids: Mapping[str, str]) -> FunctorData:
    """Functor data between finite shapes, with arrow images given by id.

    Like ``FunctorData`` itself it checks no law; see ``functor_violations``.
    """
    amb = FinCatAmbient(target)
    ar = {a: Arrow(target.src(i), target.tgt(i), i) for a, i in ar_ids.items()}
    return FunctorData(source=source, target=amb, ob=dict(ob), ar=ar)


def free_diagram(ambient: Ambient, ob: Mapping[str, str],
                 arrows: Mapping[str, tuple[str, str, Arrow]]) -> Diagram:
    """Diagram on ``free_shape``: node x goes to ``ob[x]`` and its identity to
    the ambient identity there; ``arrows`` maps id to (src, tgt, image).

    A composable pair (g, f) of given arrows composes to the given arrow or node
    identity with f's source, g's target and image g . f, else it is a gap.
    Nodes and arrows keep their insertion order.  Like ``FunctorData`` itself
    it checks no functor law; see ``functor_violations``.
    """
    legs = {a: (s, t) for a, (s, t, _) in arrows.items()}
    ids = {x: f"id:{x}" for x in ob}  # the identities free_shape gives the nodes
    ar = {ids[x]: ambient.identity(y) for x, y in ob.items()}
    ar.update((a, img) for a, (_, _, img) in arrows.items())
    composites: dict[tuple[str, str], str] = {}
    by_image = None  # (src, tgt, image) -> arrow, built on the first composable pair
    for g, f in composable_pairs(legs):
        if by_image is None:
            by_image = {(x, x, ar[i]): i for x, i in ids.items()}
            by_image.update(((s, t, ar[a]), a) for a, (s, t) in legs.items())
        a = by_image.get((legs[f][0], legs[g][1], ambient.compose(ar[g], ar[f])))
        if a is not None:
            composites[(g, f)] = a
    shape = free_shape(ob, legs, composites)
    return FunctorData(source=shape, target=ambient, ob=dict(ob), ar=ar)


def diagram_on_elements(ambient: Ambient, elements: Iterable[str]) -> Diagram:
    """Discrete diagram picking out the given ambient objects."""
    ob = {f"n{k}": e for k, e in enumerate(elements)}
    return free_diagram(ambient, dict(sorted(ob.items())), {})


def opposite_diagram(d: Diagram) -> Diagram:
    """The same functor viewed C^op-wards: reversed shape, reversed arrows."""
    amb = OppositeAmbient(d.target)
    return FunctorData(source=opposite(d.shape), target=amb,
                       ob=dict(d.ob),
                       ar={a: OppositeAmbient.rev(f) for a, f in d.ar.items()})
