import pytest

from catend.core import Arrow, diagram_on_elements
from catend.errors import InputError
from catend.finset import FinSetFragment
from catend.limits import Cocone, limit_brute
from catend.quantale import godel_chain, lukasiewicz_chain, powerset_quantale
from catend.smcc import (cocone_element, ev_at, exp_contra, exp_cov,
                         exp_diagram, identity_name, law_suite, swap_arg,
                         unit_exp_iso, unit_exp_iso_inv)

from helpers import heyting3, law_case_count, thin_cocone


def two_sets():
    return FinSetFragment({"P": ["p0", "p1"], "Q": ["q0", "q1"]})


# ---------------------------------------------------------------------------
# Law suites


def test_quantale_law_suites_pass():
    z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    for q in (heyting3(), lukasiewicz_chain(3), godel_chain(4),
              powerset_quantale("pz2", ["e", "g"], z2, "e")):
        entries = law_suite(q, extended=True)
        assert entries
        for e in entries:
            assert e.passed, (q.name, e.check, e.witness)
        assert any(e.check == "residuation.adjunction" for e in entries)


class LoggedSets(FinSetFragment):
    """Finite sets that log the arguments of every compose and curry call."""

    def __init__(self, sets):
        super().__init__(sets)
        self.log = []

    def compose(self, g, f):
        self.log.append(("compose", g, f))
        return super().compose(g, f)

    def curry(self, f, x, y):
        self.log.append(("curry", f, x, y))
        return super().curry(f, x, y)


class ListedSets(LoggedSets):
    """The same, with every hom-set materialized as a list."""

    def hom(self, a, b):
        return list(super().hom(a, b))


def test_finset_law_suite_draws_the_same_arrows_from_lazy_and_listed_homs():
    sets = {"A": ["a0"], "B": ["b0", "b1"], "C": ["c0", "c1", "c2"]}
    lazy, listed = LoggedSets(sets), ListedSets(sets)
    runs = [law_suite(ws, objects=["A", "B", "C", "I"], budget=300,
                      extended=True, seed=101) for ws in (lazy, listed)]
    assert runs[0] == runs[1]
    assert law_case_count(runs[0]) > 1000
    assert any(op == "curry" for op, *_ in lazy.log)
    assert lazy.log == listed.log


def test_finset_law_suite_sampled():
    A = two_sets()
    entries = law_suite(A, objects=["P", "Q", "I"], budget=40,
                        extended=True, seed=7)
    for e in entries:
        assert e.passed, (e.check, e.witness)
    assert law_case_count(entries) > 100
    # sets are not posetal, so no residuation entry
    assert all(e.check != "residuation.adjunction" for e in entries)


def test_law_suite_needs_objects_for_sets():
    with pytest.raises(InputError):
        law_suite(two_sets())


# ---------------------------------------------------------------------------
# Hand-computed combinator values on set maps


def test_unit_exp_iso_elementwise():
    A = two_sets()
    iota = unit_exp_iso(A, "P")
    # k-th element goes to the name of the constant function at it
    for k, e in enumerate(A.elements("P")):
        assert A.apply(iota, e) == f"f({k})"
    back = unit_exp_iso_inv(A, "P")
    assert A.compose(back, iota) == A.identity("P")
    assert A.compose(iota, back) == A.identity(A.exp_obj("I", "P"))


def test_identity_name_names_identity():
    A = two_sets()
    eta = identity_name(A, "P")
    assert eta.src == "I"
    assert A.apply(eta, "*") == "f(0,1)"
    assert A.uncurry(eta, "P", "P") == A.left_unitor("P")


def test_ev_at_is_pointwise_evaluation():
    A = two_sets()
    x, y = "P", "Q"
    ev = A.ev(x, y)
    for pt in A.elements(x):
        e = A.make_arrow("I", x, {"*": pt})
        at = ev_at(A, e, y)
        assert at.src == A.exp_obj(x, y) and at.tgt == y
        for h in A.elements(A.exp_obj(x, y)):
            assert A.apply(at, h) == A.apply(ev, f"({h},{pt})")


def test_exp_actions_are_pre_and_postcomposition():
    A = two_sets()
    f = A.make_arrow("P", "Q", {"p0": "q1", "p1": "q1"})
    g = A.make_arrow("Q", "P", {"q0": "p1", "q1": "p0"})
    evq = A.ev("Q", "Q")
    evp = A.ev("P", "Q")
    cf = exp_contra(A, f, "Q")     # Q^Q -> Q^P, h |-> h . f
    for h in A.elements(A.exp_obj("Q", "Q")):
        for p in A.elements("P"):
            assert (A.apply(evp, f"({A.apply(cf, h)},{p})")
                    == A.apply(evq, f"({h},{A.apply(f, p)})"))
    vg = exp_cov(A, g, "Q")        # Q^Q -> P^Q, h |-> g . h
    evqp = A.ev("Q", "P")
    for h in A.elements(A.exp_obj("Q", "Q")):
        for q in A.elements("Q"):
            assert (A.apply(evqp, f"({A.apply(vg, h)},{q})")
                    == A.apply(g, A.apply(evq, f"({h},{q})")))


def test_swap_transposes_application():
    A = two_sets()
    x, y, z = "P", "Q", "P"
    evyz = A.ev(y, z)
    evxz = A.ev(x, z)
    for f in A.hom(x, A.exp_obj(y, z)):
        s = swap_arg(A, f, y, z)
        assert s.src == y and s.tgt == A.exp_obj(x, z)
        for a in A.elements(x):
            for b in A.elements(y):
                assert (A.apply(evyz, f"({A.apply(f, a)},{b})")
                        == A.apply(evxz, f"({A.apply(s, b)},{a})"))


def test_swap_is_an_involution_exhaustively():
    A = two_sets()
    for f in A.hom("P", A.exp_obj("P", "Q")):
        assert swap_arg(A, swap_arg(A, f, "P", "Q"), "P", "Q") == f


# ---------------------------------------------------------------------------
# The element of a cocone


def test_cocone_element_selects_components():
    A = FinSetFragment({"S0": ["a0"], "S1": ["b0"], "D": ["a", "b"]})
    d = diagram_on_elements(A, ["S0", "S1"])
    delta = Cocone(d, "D", {"n0": A.make_arrow("S0", "D", {"a0": "a"}),
                            "n1": A.make_arrow("S1", "D", {"b0": "b"})})
    lim = limit_brute(A, exp_diagram(A, d, "D"))
    elt, checks = cocone_element(A, delta, lim)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    # the element picks out exactly the pair of cocone legs
    t = A.apply(elt, "*")
    assert A.apply(lim.edges["n0"], t) == "f(0)"   # a0 |-> a
    assert A.apply(lim.edges["n1"], t) == "f(1)"   # b0 |-> b
    for i in d.shape.objects:
        got = A.compose(ev_at(A, elt, "D"),
                        swap_arg(A, lim.edges[i], d.ob[i], "D"))
        assert got == delta.edges[i]


def test_cocone_element_on_a_quantale():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    delta = thin_cocone(q, d, "a")
    lim = limit_brute(q, exp_diagram(q, d, "a"))
    assert lim.cone.vertex == "1"   # meet of a=>a and 0=>a
    elt, checks = cocone_element(q, delta, lim)
    assert elt.src == q.unit
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# Fault injection: a broken instance is reported, not accepted


class BrokenCurry(FinSetFragment):
    """Transpose mangled by a swap of the first two exponential elements."""

    def curry(self, f, x, y):
        g = super().curry(f, x, y)
        elems = self.elements(g.tgt)
        if len(elems) < 2:
            return g
        flip = {elems[0]: elems[1], elems[1]: elems[0]}
        return Arrow(g.src, g.tgt, tuple(flip.get(v, v) for v in g.data))


def test_broken_transpose_is_detected():
    A = BrokenCurry({"P": ["p0", "p1"]})
    entries = law_suite(A, objects=["P", "I"], budget=30, seed=1)
    bad = [e for e in entries if e.check == "smcc.curry_uncurry"]
    assert bad and not bad[0].passed
    assert bad[0].witness


def test_broken_residuation_is_detected():
    q = heyting3()
    q.exp_obj = q.tensor_obj   # implication replaced by the tensor
    entries = law_suite(q)
    res = [e for e in entries if e.check == "residuation.adjunction"]
    assert res and not res[0].passed
    assert any(not e.passed for e in entries)
