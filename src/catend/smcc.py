"""Symmetric monoidal closed structure and the combinators derived from it.

An instance supplies tensor, unit, exponentials, currying, and evaluation;
everything else (contravariant/covariant exponential actions, the swap of a
curried arrow, unit-exponential isomorphisms, names of identities, evaluation
at an element, the element attached to a cocone) is derived here and holds in
any instance.  ``law_suite`` checks the derived identities by exhaustion or
seeded sampling and reports one summarized entry per law.
"""

from __future__ import annotations

import itertools
import random
from abc import abstractmethod
from collections.abc import Sequence

from .core import Ambient, Arrow, Diagram, opposite
from .errors import InputError, TypeMismatch
from .limits import Cocone, Cone, LimitingCone, mediator
from .report import CheckEntry, equation, summarize


class SmccInstance(Ambient):
    """Ambient category with chosen symmetric monoidal closed structure."""

    @property
    @abstractmethod
    def unit(self) -> str: ...

    @abstractmethod
    def tensor_obj(self, x: str, y: str) -> str: ...

    @abstractmethod
    def tensor_arr(self, f: Arrow, g: Arrow) -> Arrow: ...

    @abstractmethod
    def associator(self, x: str, y: str, z: str) -> Arrow:
        """(x . y) . z -> x . (y . z)"""

    @abstractmethod
    def left_unitor(self, x: str) -> Arrow:
        """I . x -> x"""

    @abstractmethod
    def right_unitor(self, x: str) -> Arrow:
        """x . I -> x"""

    @abstractmethod
    def right_unitor_inv(self, x: str) -> Arrow: ...

    @abstractmethod
    def symmetry(self, x: str, y: str) -> Arrow:
        """x . y -> y . x"""

    @abstractmethod
    def exp_obj(self, y: str, z: str) -> str:
        """The internal hom z^y."""

    @abstractmethod
    def curry(self, f: Arrow, x: str, y: str) -> Arrow:
        """Transpose f: x . y -> z into x -> z^y."""

    @abstractmethod
    def uncurry(self, g: Arrow, y: str, z: str) -> Arrow:
        """Transpose g: x -> z^y into x . y -> z."""

    @abstractmethod
    def ev(self, y: str, z: str) -> Arrow:
        """Evaluation z^y . y -> z."""

    @property
    def cogenerating_family(self) -> list[str] | None:
        """Objects of a small cogenerating family, or None when none is declared."""
        return None


# ---------------------------------------------------------------------------
# Derived combinators


def exp_contra(A: SmccInstance, f: Arrow, z: str) -> Arrow:
    """f: y -> y' acts contravariantly: z^y' -> z^y."""
    e = A.exp_obj(f.tgt, z)
    inner = A.compose(A.ev(f.tgt, z), A.tensor_arr(A.identity(e), f))
    return A.curry(inner, e, f.src)


def exp_cov(A: SmccInstance, g: Arrow, y: str) -> Arrow:
    """g: z -> z' acts covariantly: z^y -> z'^y."""
    e = A.exp_obj(y, g.src)
    return A.curry(A.compose(g, A.ev(y, g.src)), e, y)


def swap_arg(A: SmccInstance, f: Arrow, y: str, z: str) -> Arrow:
    """f: x -> z^y becomes y -> z^x by re-currying through the symmetry."""
    x = f.src
    inner = A.compose(A.ev(y, z),
                      A.compose(A.tensor_arr(f, A.identity(y)), A.symmetry(y, x)))
    return A.curry(inner, y, x)


def unit_exp_iso(A: SmccInstance, x: str) -> Arrow:
    """x -> x^I, the name of the right unitor."""
    return A.curry(A.right_unitor(x), x, A.unit)


def unit_exp_iso_inv(A: SmccInstance, x: str) -> Arrow:
    """x^I -> x, evaluation at the unit."""
    e = A.exp_obj(A.unit, x)
    return A.compose(A.ev(A.unit, x), A.right_unitor_inv(e))


def identity_name(A: SmccInstance, x: str) -> Arrow:
    """I -> x^x, the name of the identity on x."""
    return A.curry(A.left_unitor(x), A.unit, x)


def ev_at(A: SmccInstance, e: Arrow, y: str) -> Arrow:
    """Evaluation y^x -> y at an element e: I -> x."""
    return A.compose(unit_exp_iso_inv(A, y), exp_contra(A, e, y))


def exp_diagram(A: SmccInstance, d: Diagram, x: str) -> Diagram:
    """The diagram i |-> x^{d(i)} on the opposite shape, with contravariant edges."""
    shape = opposite(d.shape)
    ob = {i: A.exp_obj(d.ob[i], x) for i in shape.objects}
    ar = {a: exp_contra(A, d.ar[a], x) for a in shape.arrow_ids()}
    return Diagram(source=shape, target=A, ob=ob, ar=ar)


# ---------------------------------------------------------------------------
# The element of a cocone


def cocone_element(A: SmccInstance, delta: Cocone,
                   lim: LimitingCone) -> tuple[Arrow, list[CheckEntry]]:
    """Package a cocone delta: d => x as an element I -> Lim x^d.

    ``lim`` must be a limiting cone over ``exp_diagram(A, delta.diagram, x)``.
    The returned checks replay, step by step, the identity

        ev_at(element) . swap_arg(projection_i) = delta_i

    for every shape object i.
    """
    d = delta.diagram
    x = delta.vertex
    ed = lim.cone.diagram
    xx = A.exp_obj(x, x)
    legs = {i: exp_contra(A, delta.edges[i], x) for i in d.shape.objects}
    med = mediator(lim, Cone(ed, xx, legs))
    eta = identity_name(A, x)
    elt = A.compose(med, eta)

    checks: list[CheckEntry] = []
    iota = unit_exp_iso(A, x)
    iota_inv = unit_exp_iso_inv(A, x)
    swap_eta = swap_arg(A, eta, x, x)
    checks.append(equation(A, "element.name_swap", x, swap_eta, iota))
    evx = ev_at(A, elt, x)
    for i in d.shape.objects:
        pi = lim.edges[i]
        di = delta.edges[i]
        spi = swap_arg(A, pi, d.ob[i], x)
        pelt = A.compose(pi, elt)
        checks.append(equation(A, "element.leg_factorization", i,
                               pelt, A.compose(legs[i], eta)))
        checks.append(equation(A, "element.swap_precompose", i,
                               A.compose(exp_contra(A, elt, x), spi),
                               swap_arg(A, pelt, d.ob[i], x)))
        checks.append(equation(A, "element.swap_postfactor", i,
                               swap_arg(A, A.compose(legs[i], eta), d.ob[i], x),
                               A.compose(swap_eta, di)))
        checks.append(equation(A, "element.unit_iso_cancel", i,
                               A.compose(iota_inv, A.compose(swap_eta, di)), di))
        checks.append(equation(A, "element.eval_equation", i, A.compose(evx, spi), di))
    return elt, checks


# ---------------------------------------------------------------------------
# Law suite


# arrows drawn per hom-set when a law quantifies over arrows
HOM_SAMPLE = 3


def _draw_tuples(rng: random.Random, objs: Sequence[str], k: int,
                 count: int) -> list[tuple[str, ...]]:
    """``count`` tuples of ``k`` objects, each drawn as ``rng.choice(objs)`` draws.

    ``choice`` reads ``getrandbits`` of the length's bit count until the value
    falls below the length; the same reads leave ``rng`` in the same state.
    """
    n = len(objs)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(count * k):
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        draws.append(objs[r])
    return list(zip(*[iter(draws)] * k))  # consecutive runs of k draws


def law_suite(A: SmccInstance, objects: list[str] | None = None,
              budget: int = 1000, extended: bool = False,
              seed: int = 0) -> list[CheckEntry]:
    """Check the derived identities; one summarized entry per law.

    Exhaustive when the case space fits the per-law budget, otherwise a
    seeded sample.  Each entry's tag records how many cases ran.
    """
    objs = A.objects()
    if objs is None:
        objs = list(objects or [])
    if not objs:
        raise InputError("law suite needs object samples for a non-enumerable ambient")
    objs = sorted(objs)
    singles = [(x,) for x in objs]
    rng = random.Random(seed)

    def tuples(k: int) -> list[tuple[str, ...]]:
        if len(objs) ** k <= budget:
            return list(itertools.product(objs, repeat=k))
        return _draw_tuples(rng, objs, k, budget)

    def sample(h: Sequence[Arrow]) -> Sequence[Arrow]:
        return h if len(h) <= HOM_SAMPLE else rng.sample(h, HOM_SAMPLE)

    def differ(lhs: Arrow, rhs: Arrow) -> str:
        return f"{A.arrow_label(lhs)} != {A.arrow_label(rhs)}"

    def run(law: str, cases, *forms, witness=differ) -> CheckEntry:
        """One summarized entry for ``law`` over at most ``budget`` cases.

        Each form ``(body, *homs)`` runs on every object tuple of ``cases``:
        each ``hom(*objects)`` returns a hom-set sampled for the tuple (the
        second anew for each arrow of the first), and ``body(*objects,
        *arrows)`` returns the law's two sides.  At the budget the next case
        is still drawn, since the laws after this one read the same ``rng``.
        """
        n, failed = 0, []
        # each form as (body, first hom, second hom), None for a hom it lacks
        forms = [(body, *homs, None, None)[:3] for body, *homs in forms]
        for t in cases:
            for body, first, second in forms:
                for head in [(*t, g) for g in sample(first(*t))] if first else [t]:
                    for args in [(*head, f) for f in sample(second(*t))] if second else [head]:
                        if n >= budget:
                            return summarize(failed, law, tag=f"cases={n}")
                        n += 1
                        try:
                            lhs, rhs = body(*args)
                            if lhs is not rhs and lhs != rhs:
                                failed.append(CheckEntry(law, passed=False,
                                                         witness=witness(lhs, rhs)))
                        except TypeMismatch as exc:
                            failed.append(CheckEntry(law, passed=False,
                                                     witness=f"missing arrow: {exc}"))
        return summarize(failed, law, tag=f"cases={n}")

    entries = [
        run("smcc.symmetry_involution", tuples(2),
            (lambda x, y: (A.compose(A.symmetry(y, x), A.symmetry(x, y)),
                           A.identity(A.tensor_obj(x, y))),)),
        run("smcc.symmetry_unitors", singles,
            (lambda x: (A.compose(A.left_unitor(x), A.symmetry(x, A.unit)),
                        A.right_unitor(x)),)),
        run("smcc.unit_iso_inverse", singles,
            (lambda x: (A.compose(unit_exp_iso_inv(A, x), unit_exp_iso(A, x)),
                        A.identity(x)),),
            (lambda x: (A.compose(unit_exp_iso(A, x), unit_exp_iso_inv(A, x)),
                        A.identity(A.exp_obj(A.unit, x))),)),
        run("smcc.unit_name_swap", singles,
            (lambda x: (swap_arg(A, identity_name(A, x), x, x), unit_exp_iso(A, x)),)),
        run("smcc.swap_involution", tuples(3),
            (lambda x, y, z, f: (swap_arg(A, swap_arg(A, f, y, z), x, z), f),
             lambda x, y, z: A.hom(x, A.exp_obj(y, z)))),
        run("smcc.swap_precompose", tuples(4),
            (lambda w, v, y, z, g, f: (swap_arg(A, A.compose(g, f), y, z),
                                       A.compose(exp_contra(A, f, z), swap_arg(A, g, y, z))),
             lambda w, v, y, z: A.hom(v, A.exp_obj(y, z)),
             lambda w, v, y, z: A.hom(w, v))),
        run("smcc.swap_postcompose", tuples(4),
            (lambda x, y, z, t, f, g: (A.compose(exp_cov(A, g, x), swap_arg(A, f, y, z)),
                                       swap_arg(A, A.compose(exp_cov(A, g, y), f), y, t)),
             lambda x, y, z, t: A.hom(x, A.exp_obj(y, z)),
             lambda x, y, z, t: A.hom(z, t))),
        run("smcc.curry_uncurry", tuples(3),
            (lambda x, y, z, f: (A.uncurry(A.curry(f, x, y), y, z), f),
             lambda x, y, z: A.hom(A.tensor_obj(x, y), z)),
            (lambda x, y, z, g: (A.curry(A.uncurry(g, y, z), x, y), g),
             lambda x, y, z: A.hom(x, A.exp_obj(y, z)))),
        run("smcc.eval_curry", tuples(3),
            (lambda x, y, z, f: (A.compose(A.ev(y, z),
                                           A.tensor_arr(A.curry(f, x, y), A.identity(y))), f),
             lambda x, y, z: A.hom(A.tensor_obj(x, y), z))),
        run("smcc.curry_natural", tuples(4),
            (lambda w, x, y, z, f, h: (
                A.curry(A.compose(f, A.tensor_arr(h, A.identity(y))), w, y),
                A.compose(A.curry(f, x, y), h)),
             lambda w, x, y, z: A.hom(A.tensor_obj(x, y), z),
             lambda w, x, y, z: A.hom(w, x))),
    ]

    if A.posetal:
        entries.append(run(
            "residuation.adjunction", tuples(3),
            (lambda x, y, z: (bool(A.hom(A.tensor_obj(x, y), z)),
                              bool(A.hom(x, A.exp_obj(y, z)))),),
            witness=lambda lhs, rhs: f"tensor-below={lhs} but exp-above={rhs}"))

    if extended:
        entries += [
            run("smcc.pentagon", tuples(4),
                (lambda w, x, y, z: (
                    A.compose(A.associator(w, x, A.tensor_obj(y, z)),
                              A.associator(A.tensor_obj(w, x), y, z)),
                    A.compose(A.tensor_arr(A.identity(w), A.associator(x, y, z)),
                              A.compose(A.associator(w, A.tensor_obj(x, y), z),
                                        A.tensor_arr(A.associator(w, x, y), A.identity(z))))),)),
            run("smcc.hexagon", tuples(3),
                (lambda x, y, z: (
                    A.compose(A.associator(y, z, x),
                              A.compose(A.symmetry(x, A.tensor_obj(y, z)),
                                        A.associator(x, y, z))),
                    A.compose(A.tensor_arr(A.identity(y), A.symmetry(x, z)),
                              A.compose(A.associator(y, x, z),
                                        A.tensor_arr(A.symmetry(x, y), A.identity(z))))),)),
            run("smcc.triangle", tuples(2),
                (lambda x, y: (A.compose(A.tensor_arr(A.identity(x), A.left_unitor(y)),
                                         A.associator(x, A.unit, y)),
                               A.tensor_arr(A.right_unitor(x), A.identity(y))),)),
        ]
    return entries
