"""Finite commutative quantales as posetal closed instances.

A quantale here is a finite lattice with a commutative, monotone, unital
tensor whose residual exists for every pair.  Construction validates every
law against the raw tables and always recomputes the residuation; input
documents never carry one.  Hom-sets have at most one arrow, so the closed
structure is a matter of which arrows exist.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import Callable, Iterable, Mapping, Sequence

from .core import Arrow
from .errors import NoResiduation, NotALattice, TensorNotMonotone, TypeMismatch
from .smcc import SmccInstance


class QuantaleInstance(SmccInstance):
    """Validated quantale; use quantale_from_tables to build one."""

    posetal = True

    def __init__(self, name: str, elements: tuple[str, ...], leq: frozenset,
                 tensor: Mapping[tuple[str, str], str], unit: str,
                 res: Mapping[tuple[str, str], str], top: str, bottom: str):
        self.name = name
        self.elements = elements
        self._tensor = tensor
        self._unit = unit
        self._res = res
        self.top = top
        self.bottom = bottom
        self.cogenerators = "all"
        # the order, as its arrows: hom-sets have at most one, built once and shared
        self._arrows = {(a, b): Arrow(a, b) for a, b in leq}

    def __repr__(self) -> str:
        return f"QuantaleInstance({self.name}, {len(self.elements)} elements)"

    def with_cogenerators(self, mode: str) -> "QuantaleInstance":
        if mode not in ("all", "empty"):
            raise TypeMismatch(f"unknown cogenerator mode {mode!r}")
        q = copy.copy(self)  # shares the validated tables and the arrows
        q.cogenerators = mode
        return q

    @property
    def cogenerating_family(self) -> list[str]:
        return list(self.elements) if self.cogenerators == "all" else []

    # -- order --------------------------------------------------------------

    def leq_check(self, a: str, b: str) -> bool:
        return (a, b) in self._arrows

    # -- ambient ------------------------------------------------------------
    # The hot operations below read the tables with ``get`` and make one probe
    # of ``_arrows``; only a miss takes the checked chain, which raises.

    def _arr(self, a: str, b: str) -> Arrow:
        f = self._arrows.get((a, b))
        if f is None:
            raise TypeMismatch(f"{self.name}: no arrow {a} -> {b} ({a} <= {b} fails)")
        return f

    def objects(self):
        return list(self.elements)

    def hom(self, a, b):
        f = self._arrows.get((a, b))
        return [] if f is None else [f]

    def identity(self, x):
        f = self._arrows.get((x, x))
        if f is None:
            raise TypeMismatch(f"{self.name}: unknown element {x}")
        return f

    def compose(self, g, f):
        if f.tgt != g.src:
            raise TypeMismatch(f"cannot compose {g!r} after {f!r}")
        return self._arrows.get((f.src, g.tgt)) or self._arr(f.src, g.tgt)

    def arrow_label(self, f):
        return f"{f.src}<={f.tgt}"

    # -- closed structure ---------------------------------------------------

    @property
    def unit(self) -> str:
        return self._unit

    def tensor_obj(self, x, y):
        try:
            return self._tensor[(x, y)]
        except KeyError as exc:
            raise TypeMismatch(f"{self.name}: tensor undefined on ({x}, {y})") from exc

    def tensor_arr(self, f, g):
        h = self._arrows.get((self._tensor.get((f.src, g.src)), self._tensor.get((f.tgt, g.tgt))))
        return h or self._arr(self.tensor_obj(f.src, g.src), self.tensor_obj(f.tgt, g.tgt))

    def associator(self, x, y, z):
        return self._arr(self.tensor_obj(self.tensor_obj(x, y), z),
                         self.tensor_obj(x, self.tensor_obj(y, z)))

    def left_unitor(self, x):
        return self._arr(self.tensor_obj(self._unit, x), x)

    def right_unitor(self, x):
        return self._arr(self.tensor_obj(x, self._unit), x)

    def right_unitor_inv(self, x):
        return self._arr(x, self.tensor_obj(x, self._unit))

    def symmetry(self, x, y):
        h = self._arrows.get((self._tensor.get((x, y)), self._tensor.get((y, x))))
        return h or self._arr(self.tensor_obj(x, y), self.tensor_obj(y, x))

    def exp_obj(self, y, z):
        try:
            return self._res[(y, z)]
        except KeyError as exc:
            raise TypeMismatch(f"{self.name}: residual undefined on ({y}, {z})") from exc

    def curry(self, f, x, y):
        h = self._arrows.get((x, self._res.get((y, f.tgt))))
        if h is not None and f.src == self._tensor.get((x, y)):
            return h
        if f.src != self.tensor_obj(x, y):
            raise TypeMismatch(f"curry: {f!r} does not start at {x} . {y}")
        return self._arr(x, self.exp_obj(y, f.tgt))

    def uncurry(self, g, y, z):
        if g.tgt != self.exp_obj(y, z):
            raise TypeMismatch(f"uncurry: {g!r} does not end at {z}^{y}")
        return self._arr(self.tensor_obj(g.src, y), z)

    def ev(self, y, z):
        h = self._arrows.get((self._tensor.get((self._res.get((y, z)), y)), z))
        return h or self._arr(self.tensor_obj(self.exp_obj(y, z), y), z)


# ---------------------------------------------------------------------------
# Construction and validation


def quantale_from_tables(name: str, elements: Sequence[str],
                         leq_pairs: Iterable[tuple[str, str]],
                         tensor: Mapping[tuple[str, str], str], unit: str) -> QuantaleInstance:
    """Validate poset, lattice, tensor, and residuation; raise with all violations.

    ``leq_pairs`` is the full order relation (reflexive pairs may be omitted);
    the residuation is always recomputed from the tensor, never supplied.
    Every stage reads the order as ``up``/``down`` bitmasks of element indices
    and the tensor as an index matrix; only associativity always visits every
    triple.
    """
    elems = tuple(sorted(dict.fromkeys(elements)))
    if len(elems) != len(list(elements)):
        raise NotALattice(name, ["duplicate element names"])
    index = {x: i for i, x in enumerate(elems)}
    leq = {(a, b) for a, b in leq_pairs}
    leq |= {(x, x) for x in elems}

    bad = [f"order mentions unknown element in ({a}, {b})"
           for a, b in sorted(leq) if a not in index or b not in index]
    if bad:
        raise NotALattice(name, bad)
    n, full = len(elems), (1 << len(elems)) - 1
    up, down = _order_masks(index, leq)
    pairs = [(i, j) for i in range(n) for j in _bits(up[i])]  # sorted(leq), as indices
    bad = [f"antisymmetry fails on ({elems[i]}, {elems[j]})"
           for i, j in pairs if i != j and up[j] >> i & 1]
    bad += [f"transitivity fails: {elems[i]} <= {elems[j]} <= {elems[k]} "
            f"but not {elems[i]} <= {elems[k]}" for i, j in pairs for k in _bits(up[j] & ~up[i])]
    if bad:
        raise NotALattice(name, bad)

    # a partial order from here on: each set of bounds is a down-set (up-set),
    # which has a greatest (least) element m exactly when it is down[m] (up[m])
    greatest = {m: i for i, m in enumerate(down)}
    least = {m: i for i, m in enumerate(up)}
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if down[i] & down[j] not in greatest:
                bad.append(f"no meet for ({a}, {b})")
            if up[i] & up[j] not in least:
                bad.append(f"no join for ({a}, {b})")
    if bad:
        raise NotALattice(name, bad)
    # with every pairwise meet and join present, only the empty order lacks these
    if not elems:
        raise NotALattice(name, ["no top element"])
    top, bottom = elems[greatest[full]], elems[least[full]]

    if unit not in index:
        raise TensorNotMonotone(name, [f"unit {unit} is not an element"])
    for a in elems:
        for b in elems:
            v = tensor.get((a, b))
            if v is None:
                bad.append(f"tensor undefined on ({a}, {b})")
            elif v not in index:
                bad.append(f"tensor({a}, {b}) = {v} is not an element")
    if bad:
        raise TensorNotMonotone(name, bad)
    T = [[index[tensor[(a, b)]] for b in elems] for a in elems]
    u = index[unit]
    for i, a in enumerate(elems):
        if T[i][u] != i:
            bad.append(f"unit law fails: {a} . {unit} = {elems[T[i][u]]}")
        for j, b in enumerate(elems):
            if T[i][j] != T[j][i]:
                bad.append(f"commutativity fails on ({a}, {b})")
            ab_c, a_bc = T[T[i][j]], [T[i][v] for v in T[j]]  # over c, in order
            if ab_c != a_bc:
                bad += [f"associativity fails on ({a}, {b}, {c})"
                        for c, l, r in zip(elems, ab_c, a_bc) if l != r]
    bad += [f"monotonicity fails: {elems[i]} <= {elems[j]} but not "
            f"{elems[i]}.{c} <= {elems[j]}.{c}"
            for i, j in pairs for c, l, r in zip(elems, T[i], T[j]) if not up[l] >> r & 1]
    if bad:
        raise TensorNotMonotone(name, bad)

    # monotone in x, so {x : x.y <= z} is a down-set; y => z is its greatest
    # element.  T is symmetric, so row y of T holds x.y for every x.
    R = [[greatest.get(sum(xs for v, xs in xs_by_value.items() if down[k] >> v & 1))
          for k in range(n)] for xs_by_value in map(_preimage, T)]
    bad = [f"no residual for ({y}, {z}): {{x : x.{y} <= {z}}} has no greatest element"
           for y, row in zip(elems, R) for z, r in zip(elems, row) if r is None]
    if bad:
        raise NoResiduation(name, bad)
    # replayed from T, R and up alone: per (x, y), the z with x.y <= z against
    # the z with x <= y => z
    zs_by_value = [_preimage(row) for row in R]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            below = sum(zs for r, zs in zs_by_value[j].items() if up[i] >> r & 1)
            bad += [f"adjunction fails on ({x}, {y}, {elems[k]})"
                    for k in _bits(up[T[i][j]] ^ below)]
    if bad:
        raise NoResiduation(name, bad)

    res = {(y, z): elems[r] for y, row in zip(elems, R) for z, r in zip(elems, row)}
    return QuantaleInstance(name, elems, frozenset(leq), dict(tensor), unit,
                            res, top, bottom)


def _order_masks(index: Mapping[str, int], leq) -> tuple[list[int], list[int]]:
    """Bit j of up[i] and bit i of down[j] are set when a <= b for a, b with
    index i, j; pairs naming anything outside index are ignored."""
    up, down = [0] * len(index), [0] * len(index)
    for a, b in leq:
        if a in index and b in index:
            up[index[a]] |= 1 << index[b]
            down[index[b]] |= 1 << index[a]
    return up, down


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _preimage(row: Sequence[int]) -> dict[int, int]:
    """Each value in row -> the mask of the positions holding it."""
    out: dict[int, int] = {}
    for k, v in enumerate(row):
        out[v] = out.get(v, 0) | 1 << k
    return out


# ---------------------------------------------------------------------------
# Generators


def chain_leq(names_in_order: Sequence[str]) -> set[tuple[str, str]]:
    return {(names_in_order[i], names_in_order[j])
            for i in range(len(names_in_order)) for j in range(i, len(names_in_order))}


def _table(names: Sequence[str], op: Callable[[int, int], int]) -> dict[tuple[str, str], str]:
    """The operation table of op, an operation on the indices of names."""
    return {(a, b): names[op(i, j)] for i, a in enumerate(names) for j, b in enumerate(names)}


def _chain(name: str, names: Sequence[str], op: Callable[[int, int], int]) -> QuantaleInstance:
    """The chain names[0] < names[1] < ... with tensor op on indices and the top as unit."""
    return quantale_from_tables(name, names, chain_leq(names), _table(names, op), names[-1])


def godel_chain(n: int) -> QuantaleInstance:
    """n-element chain with meet (= min) as tensor."""
    assert n >= 2
    return _chain(f"godel{n}", [f"c{i:02d}" for i in range(n)], min)


def _ratio(p: int, q: int) -> str:
    """p/q in lowest terms, written as ``str(fractions.Fraction(p, q))`` writes it."""
    g = math.gcd(p, q)
    return f"{p // g}" if g == q else f"{p // g}/{q // g}"


def lukasiewicz_chain(n: int) -> QuantaleInstance:
    """n equally spaced truth values with x . y = max(0, x + y - 1)."""
    assert n >= 2
    return _chain(f"lukasiewicz{n}", [_ratio(i, n - 1) for i in range(n)],
                  lambda i, j: max(0, i + j - (n - 1)))


def drastic_chain(n: int) -> QuantaleInstance:
    """n-element chain where x . y collapses to bottom unless an argument is top."""
    assert n >= 2
    return _chain(f"drastic{n}", [f"c{i:02d}" for i in range(n)],
                  lambda i, j: j if i == n - 1 else i if j == n - 1 else 0)


def product_quantale(q1: QuantaleInstance, q2: QuantaleInstance,
                     name: str | None = None) -> QuantaleInstance:
    name = name or f"{q1.name}x{q2.name}"
    pair = lambda a, b: f"({a},{b})"
    elems = [pair(a, b) for a in q1.elements for b in q2.elements]
    leq = {(pair(a, b), pair(c, d))
           for a in q1.elements for b in q2.elements
           for c in q1.elements for d in q2.elements
           if q1.leq_check(a, c) and q2.leq_check(b, d)}
    tensor = {(pair(a, b), pair(c, d)): pair(q1.tensor_obj(a, c), q2.tensor_obj(b, d))
              for a in q1.elements for b in q2.elements
              for c in q1.elements for d in q2.elements}
    return quantale_from_tables(name, elems, leq, tensor, pair(q1.unit, q2.unit))


def powerset_quantale(name: str, monoid_elements: Sequence[str],
                      op: Mapping[tuple[str, str], str],
                      monoid_unit: str) -> QuantaleInstance:
    """Subsets of a finite commutative monoid under inclusion and setwise product."""
    base = sorted(monoid_elements)
    subsets = []
    for mask in range(1 << len(base)):
        subsets.append(frozenset(base[i] for i in range(len(base)) if mask >> i & 1))
    label = lambda s: "{" + ",".join(sorted(s)) + "}"
    elems = [label(s) for s in subsets]
    leq = {(label(s), label(t)) for s in subsets for t in subsets if s <= t}
    tensor = {}
    for s in subsets:
        for t in subsets:
            tensor[(label(s), label(t))] = label(frozenset(op[(a, b)] for a in s for b in t))
    return quantale_from_tables(name, elems, leq, tensor,
                                label(frozenset([monoid_unit])))


def cyclic_monoid(n: int) -> tuple[list[str], dict, str]:
    elems = [f"g{i}" for i in range(n)]
    return elems, _table(elems, lambda i, j: (i + j) % n), "g0"


_STANDARD_CACHE: dict[int, list[QuantaleInstance]] = {}


def standard_quantales(max_size: int = 16) -> list[QuantaleInstance]:
    """A fixed battery of small quantales spanning several construction styles."""
    if max_size in _STANDARD_CACHE:
        return list(_STANDARD_CACHE[max_size])
    g = {n: godel_chain(n) for n in range(2, 10)}
    l = {n: lukasiewicz_chain(n) for n in range(2, 10)}
    dr = {n: drastic_chain(n) for n in range(3, 11)}
    b2 = g[2]
    out = [*g.values(), *l.values(), *dr.values()]
    out += [product_quantale(b2, g[n]) for n in (3, 4, 5, 6, 7, 8, 2)]
    cube8 = product_quantale(b2, product_quantale(b2, b2), name="cube8")
    out += [cube8, product_quantale(b2, cube8, name="cube16")]
    out += [product_quantale(a, b) for a, b in (
        (g[3], g[3]), (g[3], g[4]), (g[3], g[5]), (g[4], g[4]),
        (l[3], b2), (l[3], l[3]), (l[4], b2), (l[3], g[3]), (l[4], l[4]), (l[5], b2),
        (l[4], g[3]), (l[5], g[3]), (l[3], g[4]), (l[3], g[5]),
        (dr[3], b2), (dr[3], g[3]), (dr[3], dr[3]), (l[3], dr[3]), (dr[4], b2), (dr[4], g[3]))]

    monoids = [(f"pw-z{n}", *cyclic_monoid(n)) for n in (1, 2, 3, 4)]
    # the Klein group is Z2 x Z2: xor on the indices of e, x, y, z
    monoids += [(mname, names, _table(names, op), unit) for mname, names, op, unit in (
        ("pw-v4", ["e", "x", "y", "z"], operator.xor, "e"),
        ("pw-min3", ["m0", "m1", "m2"], min, "m2"),
        ("pw-and", ["0", "1"], min, "1"),
        ("pw-or", ["0", "1"], max, "0"),
        ("pw-mod4", ["0", "1", "2", "3"], lambda i, j: i * j % 4, "1"))]
    out += [powerset_quantale(*m) for m in monoids]

    out = [q for q in out if len(q.elements) <= max_size]
    _STANDARD_CACHE[max_size] = out
    return list(out)
