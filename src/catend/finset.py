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
import itertools
from collections.abc import Sequence
from typing import Iterable, Mapping

from .config import SizeCaps
from .core import Arrow, Diagram
from .errors import InputError, TypeMismatch, WorkspaceBlowup
from .limits import Cone, LimitingCone
from .smcc import SmccInstance

UNIT = "I"


class HomView(Sequence):
    """The maps a -> b in ``itertools.product`` order, built only when read.

    Map ``i`` sends the source's k-th element to the target element at the
    k-th mixed-radix digit of ``i``, most significant first, so sampling by
    index draws the same arrows as sampling the materialized list.
    """

    def __init__(self, a: str, b: str, arity: int, tgt: tuple[str, ...]):
        self.a, self.b, self.arity, self.tgt = a, b, arity, tgt

    def __len__(self) -> int:
        return len(self.tgt) ** self.arity

    def __getitem__(self, i: int) -> Arrow:
        if not 0 <= i < len(self):
            raise IndexError(f"hom({self.a}, {self.b}) has no map {i}")
        image = []
        for _ in range(self.arity):
            i, r = divmod(i, len(self.tgt))
            image.append(self.tgt[r])
        return Arrow(self.a, self.b, tuple(reversed(image)))

    def __iter__(self):
        return (Arrow(self.a, self.b, t)
                for t in itertools.product(self.tgt, repeat=self.arity))


class FinSetFragment(SmccInstance):
    """Cartesian closed: tensor is product, internal hom is the function set."""

    posetal = False

    def __init__(self, sets: Mapping[str, Iterable[str]], caps: SizeCaps | None = None):
        self.caps = caps or SizeCaps()
        self._elems: dict[str, tuple[str, ...]] = {UNIT: ("*",)}
        self._index: dict[str, dict[str, int]] = {UNIT: {"*": 0}}
        # structural decomposition of derived exponential objects
        self._exp: dict[str, tuple[str, str, list[tuple[int, ...]], dict[tuple[int, ...], int]]] = {}
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

    def exp_obj(self, y, z):
        name = f"({z}^{y})"
        if name not in self._elems:
            ey, ez = self.elements(y), self.elements(z)
            count = len(ez) ** len(ey) if ey else 1
            if count > self.caps.finset_exp_max:
                raise WorkspaceBlowup(f"exponential {name} would have {count} elements")
            tuples = [t for t in itertools.product(range(len(ez)), repeat=len(ey))]
            elems = tuple("f(" + ",".join(map(str, t)) + ")" for t in tuples)
            self._register(name, elems)
            self._exp[name] = (y, z, tuples, {t: i for i, t in enumerate(tuples)})
        return name

    def curry(self, f, x, y):
        src = self.tensor_obj(x, y)
        if f.src != src:
            raise TypeMismatch(f"curry: {f!r} does not start at {src}")
        e = self.exp_obj(y, f.tgt)
        _, _, _, tup_index = self._exp[e]
        zi = self._index[f.tgt]
        ny = len(self.elements(y))
        e_elems = self.elements(e)
        data = []
        for i in range(len(self.elements(x))):
            t = tuple(zi[f.data[i * ny + p]] for p in range(ny))
            data.append(e_elems[tup_index[t]])
        return Arrow(x, e, tuple(data))

    def uncurry(self, g, y, z):
        e = self.exp_obj(y, z)
        if g.tgt != e:
            raise TypeMismatch(f"uncurry: {g!r} does not end at {e}")
        _, _, tuples, _ = self._exp[e]
        ei = self._index[e]
        ez = self.elements(z)
        ny = len(self.elements(y))
        data = []
        for i in range(len(self.elements(g.src))):
            t = tuples[ei[g.data[i]]]
            for p in range(ny):
                data.append(ez[t[p]])
        assert len(data) == len(self.elements(g.src)) * ny
        return Arrow(self.tensor_obj(g.src, y), z, tuple(data))

    def ev(self, y, z):
        e = self.exp_obj(y, z)
        _, _, tuples, _ = self._exp[e]
        ez = self.elements(z)
        ny = len(self.elements(y))
        data = tuple(ez[tuples[k][p]] for k in range(len(tuples)) for p in range(ny))
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
