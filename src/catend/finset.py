"""Finite sets and tabulated functions as a cartesian closed instance.

Objects are registered by name: a few base sets plus whatever products,
exponentials, and limit sets get built on demand.  An arrow stores the image
of each source element in the source's canonical order, so arrow equality is
function equality.  The object class is open-ended, so ``objects()`` is None
and limits come from the constraint solver in ``limit_data`` instead of cone
enumeration.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Sequence
from itertools import chain, product
from typing import Iterable, Mapping

from .config import SizeCaps
from .core import Arrow, Diagram
from .errors import InputError, TypeMismatch, WorkspaceBlowup
from .limits import Cone, LimitingCone
from .smcc import SmccInstance

UNIT = "I"


def _digits(k: int, base: int, width: int) -> list[int]:
    """The ``width`` base-``base`` digits of ``k``, most significant first."""
    out = [0] * width
    for p in reversed(range(width)):
        k, out[p] = divmod(k, base)
    return out


class HomView(Sequence):
    """The maps a -> b in ``itertools.product`` order, built only when read.

    Map ``i`` sends the source's k-th element to the target element at the
    k-th base-|b| digit of ``i``, most significant first, so sampling by
    index draws the same arrows as sampling the materialized list.
    """

    def __init__(self, a: str, b: str, arity: int, tgt: tuple[str, ...]):
        self.a, self.b, self.arity, self.tgt = a, b, arity, tgt

    def __len__(self) -> int:
        return len(self.tgt) ** self.arity

    def __getitem__(self, i: int | slice) -> Arrow | list[Arrow]:
        """Indexed and sliced as the list of the maps would be."""
        n = len(self)
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(n))]
        k = operator.index(i)  # a TypeError for a non-integer, as from a list
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"hom({self.a}, {self.b}) has no map {i}")
        return Arrow(self.a, self.b,
                     tuple(self.tgt[d] for d in _digits(k, len(self.tgt), self.arity)))

    def __iter__(self):
        return (Arrow(self.a, self.b, t) for t in product(self.tgt, repeat=self.arity))


class FinSetFragment(SmccInstance):
    """Cartesian closed: tensor is product, internal hom is the function set."""

    posetal = False

    def __init__(self, sets: Mapping[str, Iterable[str]], caps: SizeCaps | None = None):
        self.caps = caps or SizeCaps()
        self._elems: dict[str, tuple[str, ...]] = {UNIT: ("*",)}
        self._index: dict[str, dict[str, int]] = {UNIT: {"*": 0}}
        for name, elems in sorted(sets.items()):
            if name == UNIT:
                raise InputError(f"set name {UNIT!r} is reserved for the unit")
            self._register(name, tuple(sorted(dict.fromkeys(elems))))

    # -- object registry -----------------------------------------------------

    def _register(self, name: str, elems: tuple[str, ...]) -> str:
        if len(elems) > self.caps.finset_exp_max:
            raise WorkspaceBlowup(f"set {name} would have {len(elems)} elements "
                                  f"(cap {self.caps.finset_exp_max})")
        if name in self._elems:
            assert self._elems[name] == elems
            return name
        self._elems[name] = elems
        self._index[name] = {e: i for i, e in enumerate(elems)}
        return name

    def elements(self, x: str) -> tuple[str, ...]:
        try:
            return self._elems[x]
        except KeyError as exc:
            raise TypeMismatch(f"unknown set {x}") from exc

    def make_arrow(self, src: str, tgt: str, mapping: Mapping[str, str]) -> Arrow:
        tgt_elems = set(self.elements(tgt))
        data = []
        for e in self.elements(src):
            v = mapping.get(e)
            if v is None or v not in tgt_elems:
                raise TypeMismatch(f"mapping sends {e!r} to {v!r}, not an element of {tgt}")
            data.append(v)
        return Arrow(src, tgt, tuple(data))

    def apply(self, f: Arrow, e: str) -> str:
        return f.data[self._index[f.src][e]]

    # -- ambient -------------------------------------------------------------

    def objects(self):
        return None

    def hom(self, a, b):
        src, tgt = self.elements(a), self.elements(b)
        if len(src) and len(tgt) ** len(src) > self.caps.finset_exp_max:
            raise WorkspaceBlowup(f"hom({a}, {b}) has {len(tgt)}^{len(src)} maps "
                                  f"(cap {self.caps.finset_exp_max})")
        return HomView(a, b, len(src), tgt)

    def identity(self, x):
        return Arrow(x, x, self.elements(x))

    def compose(self, g, f):
        if f.tgt != g.src:
            raise TypeMismatch(f"cannot compose {g!r} after {f!r}")
        idx = self._index[g.src]
        return Arrow(f.src, g.tgt, tuple(g.data[idx[e]] for e in f.data))

    def arrow_label(self, f):
        idx = self._index[f.tgt]
        return f"{f.src}->{f.tgt}[" + ",".join(str(idx[e]) for e in f.data) + "]"

    # -- closed structure ----------------------------------------------------

    @property
    def unit(self) -> str:
        return UNIT

    def tensor_obj(self, x, y):
        name = f"({x}*{y})"
        if name not in self._elems:
            ex, ey = self.elements(x), self.elements(y)
            if len(ex) * len(ey) > self.caps.finset_exp_max:
                raise WorkspaceBlowup(f"product {name} would have {len(ex) * len(ey)} elements")
            elems = tuple(f"({a},{b})" for a in ex for b in ey)
            self._register(name, elems)
        return name

    def tensor_arr(self, f, g):
        src = self.tensor_obj(f.src, g.src)
        tgt = self.tensor_obj(f.tgt, g.tgt)
        fi, gi = self._index[f.tgt], self._index[g.tgt]
        wt = len(self.elements(g.tgt))
        tgt_elems = self.elements(tgt)
        data = []
        for i in range(len(self.elements(f.src))):
            for j in range(len(self.elements(g.src))):
                data.append(tgt_elems[fi[f.data[i]] * wt + gi[g.data[j]]])
        return Arrow(src, tgt, tuple(data))

    def associator(self, x, y, z):
        src = self.tensor_obj(self.tensor_obj(x, y), z)
        tgt = self.tensor_obj(x, self.tensor_obj(y, z))
        return Arrow(src, tgt, self.elements(tgt))  # same index order on both sides

    def left_unitor(self, x):
        return Arrow(self.tensor_obj(UNIT, x), x, self.elements(x))

    def right_unitor(self, x):
        return Arrow(self.tensor_obj(x, UNIT), x, self.elements(x))

    def right_unitor_inv(self, x):
        return Arrow(x, self.tensor_obj(x, UNIT), self.elements(self.tensor_obj(x, UNIT)))

    def symmetry(self, x, y):
        src = self.tensor_obj(x, y)
        tgt = self.tensor_obj(y, x)
        nx, ny = len(self.elements(x)), len(self.elements(y))
        tgt_elems = self.elements(tgt)
        data = tuple(tgt_elems[j * nx + i] for i in range(nx) for j in range(ny))
        return Arrow(src, tgt, data)

    # Element k of z^y is the map y -> z whose image indices are the base-|z|
    # digits of k, most significant first, the order HomView numbers maps in.
    def exp_obj(self, y, z):
        name = f"({z}^{y})"
        if name not in self._elems:
            ey, ez = self.elements(y), self.elements(z)
            count = len(ez) ** len(ey) if ey else 1
            if count > self.caps.finset_exp_max:
                raise WorkspaceBlowup(f"exponential {name} would have {count} elements")
            elems = tuple("f(" + ",".join(map(str, t)) + ")"
                          for t in product(range(len(ez)), repeat=len(ey)))
            self._register(name, elems)
        return name

    def curry(self, f, x, y):
        src = self.tensor_obj(x, y)
        if f.src != src:
            raise TypeMismatch(f"curry: {f!r} does not start at {src}")
        e = self.exp_obj(y, f.tgt)
        zi = self._index[f.tgt]
        ny = len(self.elements(y))
        e_elems = self.elements(e)
        data = []
        for i in range(len(self.elements(x))):
            k = 0
            for v in f.data[i * ny:(i + 1) * ny]:
                k = k * len(zi) + zi[v]
            data.append(e_elems[k])
        return Arrow(x, e, tuple(data))

    def uncurry(self, g, y, z):
        e = self.exp_obj(y, z)
        if g.tgt != e:
            raise TypeMismatch(f"uncurry: {g!r} does not end at {e}")
        ei = self._index[e]
        ez = self.elements(z)
        ny = len(self.elements(y))
        data = tuple(ez[d] for v in g.data for d in _digits(ei[v], len(ez), ny))
        return Arrow(self.tensor_obj(g.src, y), z, data)

    def ev(self, y, z):
        e = self.exp_obj(y, z)
        data = tuple(chain.from_iterable(product(self.elements(z), repeat=len(self.elements(y)))))
        return Arrow(self.tensor_obj(e, y), z, data)

    # -- limits by constraint propagation ------------------------------------

    def limit_data(self, diagram: Diagram) -> LimitingCone:
        shape = diagram.shape
        nodes = list(shape.objects)
        node_elems = {n: self.elements(diagram.ob[n]) for n in nodes}
        constraints = []  # (arrow, src node, tgt node)
        for a in shape.arrow_ids():
            if shape.is_identity_id(a):
                continue
            constraints.append((diagram.ar[a], shape.src(a), shape.tgt(a)))

        solutions: list[dict[str, str]] = []
        assign: dict[str, str] = {}

        def candidates(n: str) -> list[str]:
            cand = list(node_elems[n])
            for f, s, t in constraints:
                if s == n and t == n:
                    cand = [v for v in cand if self.apply(f, v) == v]
                elif s == n and t in assign:
                    cand = [v for v in cand if self.apply(f, v) == assign[t]]
                elif t == n and s in assign:
                    img = self.apply(f, assign[s])
                    cand = [v for v in cand if v == img]
            return cand

        def extend() -> None:
            if len(assign) == len(nodes):
                solutions.append(dict(assign))
                if len(solutions) > self.caps.finset_exp_max:
                    raise WorkspaceBlowup("limit has too many elements")
                return
            best, best_c = None, None
            for n in nodes:
                if n in assign:
                    continue
                c = candidates(n)
                if best is None or len(c) < len(best_c):
                    best, best_c = n, c
                if not c:
                    break
            for v in best_c:
                assign[best] = v
                extend()
                del assign[best]

        extend()
        solutions.sort(key=lambda s: tuple(self._index[diagram.ob[n]][s[n]] for n in nodes))

        digest = hashlib.sha1()
        digest.update(repr(sorted((n, diagram.ob[n]) for n in nodes)).encode())
        digest.update(repr(sorted((a, diagram.ar[a].src, diagram.ar[a].tgt, diagram.ar[a].data)
                                  for a in shape.arrow_ids())).encode())
        name = f"lim:{digest.hexdigest()[:12]}"
        elems = tuple(f"t{i}" for i in range(len(solutions)))
        self._register(name, elems)
        sol_index = {tuple(s[n] for n in nodes): i for i, s in enumerate(solutions)}

        edges = {n: Arrow(name, diagram.ob[n], tuple(s[n] for s in solutions))
                 for n in nodes}
        cone = Cone(diagram, name, edges)

        def mediate(c: Cone) -> Arrow:
            data = []
            for p in range(len(self.elements(c.vertex))):
                fam = tuple(c.edges[n].data[p] for n in nodes)
                data.append(elems[sol_index[fam]])
            return Arrow(c.vertex, name, tuple(data))

        return LimitingCone(cone=cone, mediate=mediate)
