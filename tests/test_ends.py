import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catend.cli import endofunctor_from_spec
from catend.core import Arrow, composable_arrow_pairs
from catend.cocompletion import (LimExpEndofunctor, endo_exp_bifunctor,
                                 identity_endofunctor)
from catend.ends import (Bifunctor, bifunctor_violations, domain_arrows,
                         end_of, end_universal_violations, subdivision,
                         wedge_violations)
from catend.errors import NonEnumerableAmbient, NotAWedge
from catend.finset import FinSetFragment
from catend.quantale import (lukasiewicz_chain, quantale_from_tables,
                             standard_quantales)
from catend.smcc import exp_contra, exp_cov

from helpers import (composable_arrow_pairs_oracle, heyting3, monotone_diagram,
                     shape_pool, subdivision_oracle, wedge_mediator, wedge_to_cone,
                     wedge_violations_oracle)


def hom_bifunctor(A, objects=None):
    """B(X, Y) = Y^X: the exponential bifunctor of the identity endofunctor."""
    objs = objects if objects is not None else A.objects()
    return endo_exp_bifunctor(A, identity_endofunctor(A), objs)


# ---------------------------------------------------------------------------
# Subdivision shape


def test_subdivision_counts_for_three_chain():
    q = heyting3()
    B = hom_bifunctor(q)
    arrows = domain_arrows(B)
    assert len(arrows) == 6          # 3 identities + 0<=a, 0<=1, a<=1
    sd = subdivision(B)
    obs = [n for n in sd.shape.objects if n.startswith("ob:")]
    ars = [n for n in sd.shape.objects if n.startswith("ar:")]
    assert len(obs) == 3 and len(ars) == 6
    legs = [a for a in sd.shape.arrow_ids()
            if a.startswith("s:") or a.startswith("t:")]
    assert len(legs) == 12           # two per arrow node
    # leg values are the two exponential actions
    for a in legs:
        f = sd.ar[a]
        assert f.src == sd.ob[sd.shape.src(a)]
        assert f.tgt == sd.ob[sd.shape.tgt(a)]


# ---------------------------------------------------------------------------
# Ends in posetal instances


def test_end_of_hom_is_the_unit():
    for q in (heyting3(), lukasiewicz_chain(3)):
        E = end_of(hom_bifunctor(q))
        assert E.vertex == q.unit
        assert end_universal_violations(E) == []


def test_end_of_constant_bifunctor_is_the_constant():
    q = heyting3()
    B = Bifunctor(ambient=q, name="const-a", objects=tuple(sorted(q.elements)),
                  ob=lambda x, y: "a",
                  contra=lambda f, z: q.identity("a"),
                  cov=lambda x, g: q.identity("a"))
    assert bifunctor_violations(B) == []
    E = end_of(B)
    assert E.vertex == "a"
    assert all(p == q.identity("a") for p in E.projections.values())


def test_end_of_second_projection_is_bottom():
    q = heyting3()
    B = Bifunctor(ambient=q, name="snd", objects=tuple(sorted(q.elements)),
                  ob=lambda x, y: y,
                  contra=lambda f, z: q.identity(z),
                  cov=lambda x, g: g)
    assert bifunctor_violations(B) == []
    assert end_of(B).vertex == q.bottom


def test_one_element_instance():
    q = quantale_from_tables("one", ["*"], [("*", "*")], {("*", "*"): "*"}, "*")
    E = end_of(hom_bifunctor(q))
    assert E.vertex == "*"
    assert end_universal_violations(E) == []


def test_end_vertex_ignores_object_order():
    q = heyting3()
    a = end_of(hom_bifunctor(q, ["0", "a", "1"]))
    b = end_of(hom_bifunctor(q, ["1", "0", "a"]))
    assert a.vertex == b.vertex


def test_wedge_mediator_of_own_projections_is_identity():
    q = heyting3()
    E = end_of(hom_bifunctor(q))
    m = wedge_mediator(E, E.projections)
    assert m == q.identity(E.vertex)


# ---------------------------------------------------------------------------
# Ends in the set workspace


def test_end_of_hom_on_one_set_is_the_center():
    A = FinSetFragment({"P": ["p0", "p1"]})
    B = hom_bifunctor(A, ["P"])
    assert bifunctor_violations(B) == []
    E = end_of(B)
    elems = A.elements(E.vertex)
    # only the identity commutes with all four self-maps of a two-point set
    assert len(elems) == 1
    assert A.apply(E.projections["P"], elems[0]) == "f(0,1)"
    assert wedge_violations(B, E.projections) == []


def test_end_universality_is_not_claimed_without_competing_cones():
    A = FinSetFragment({"P": ["p0", "p1"]})
    E = end_of(hom_bifunctor(A, ["P"]))
    with pytest.raises(NonEnumerableAmbient):
        end_universal_violations(E)


def test_wedge_square_failure_rejected():
    A = FinSetFragment({"P": ["p0", "p1"]})
    B = hom_bifunctor(A, ["P"])
    sd = subdivision(B)
    e = A.exp_obj("P", "P")
    const0 = A.make_arrow("I", e, {"*": "f(0,0)"})
    with pytest.raises(NotAWedge) as err:
        wedge_to_cone(B, sd, {"P": const0})
    assert "wedge square fails" in str(err.value)


def test_empty_family_rejected():
    A = FinSetFragment({"P": ["p0"]})
    B = Bifunctor(ambient=A, name="empty", objects=(),
                  ob=lambda x, y: "P",
                  contra=lambda f, z: A.identity("P"),
                  cov=lambda x, g: A.identity("P"))
    with pytest.raises(NotAWedge):
        wedge_to_cone(B, subdivision(B), {})


def test_mistyped_projection_rejected():
    q = heyting3()
    E = end_of(hom_bifunctor(q))
    fam = dict(E.projections)
    fam["a"] = q.identity("0")     # wrong target
    with pytest.raises(NotAWedge) as err:
        wedge_mediator(E, fam)
    assert "mistyped" in str(err.value)


# ---------------------------------------------------------------------------
# The leg table: each bifunctor action on a domain arrow is derived once


def test_each_leg_is_derived_once():
    q = heyting3()
    base = hom_bifunctor(q, sorted(q.elements))
    calls: Counter = Counter()

    def cov(x, g):
        calls["cov", x, q.arrow_label(g)] += 1
        return base.cov(x, g)

    def contra(f, z):
        calls["contra", q.arrow_label(f), z] += 1
        return base.contra(f, z)

    B = Bifunctor(ambient=q, name="counted", objects=base.objects,
                  ob=base.ob, contra=contra, cov=cov)
    E = end_of(B)
    assert wedge_violations(B, E.projections) == []
    assert wedge_violations(B, E.projections) == []
    assert wedge_mediator(E, E.projections) == q.identity(E.vertex)
    arrows = domain_arrows(B)
    expected = Counter({("cov", f.src, q.arrow_label(f)): 1 for f in arrows})
    expected.update({("contra", q.arrow_label(f), f.tgt): 1 for f in arrows})
    assert len(expected) == 2 * len(arrows) == 12
    assert calls == expected


# ---------------------------------------------------------------------------
# Differential oracle: the leg table against the per-arrow derivation


def _tables(sd):
    """Every table of a subdivision diagram, insertion order included."""
    s = sd.shape
    return (list(sd.ob.items()), list(sd.ar.items()), list(s.objects),
            list(s.arrows.items()), list(s.composition.items()),
            list(s.identities.items()))


def _families(B, E, objects, rng):
    """The end's own projections and three broken copies: one projection
    dropped, one retargeted, one moved to another source (where the ambient
    has such an arrow)."""
    A = B.ambient
    own = dict(E.projections)
    x = rng.choice(B.objects)
    p = own[x]
    dropped = {y: e for y, e in own.items() if y != x}
    fams = [own, dropped]
    others = [z for z in objects if z != p.tgt]
    rng.shuffle(others)
    retargets = [f for z in others for f in A.hom(p.src, z)][:1]
    others = [z for z in objects if z != p.src]
    rng.shuffle(others)
    resourced = [f for z in others for f in A.hom(z, p.tgt)][:1]
    fams.extend({**own, x: f} for f in retargets + resourced)
    return fams


def _assert_matches_oracle(B, fams):
    assert _tables(subdivision(B)) == _tables(subdivision_oracle(B))
    for fam in fams:
        assert wedge_violations(B, fam) == wedge_violations_oracle(B, fam)


SMALL_QUANTALES = standard_quantales(6)
ENDOFUNCTORS = ("identity", "tensor", "exp-from", "double-dual", "limexp")


@st.composite
def quantale_bifunctors(draw):
    """B(X, Y) = Y^(F X) on a quantale of at most six elements, its objects in
    a drawn order, and a seed for choosing broken families."""
    q = draw(st.sampled_from(SMALL_QUANTALES))
    kind = draw(st.sampled_from(ENDOFUNCTORS))
    rng = random.Random(draw(st.integers(0, 2**16)))
    if kind == "identity":
        F = endofunctor_from_spec(q, q.elements, kind)
    elif kind == "limexp":
        F = LimExpEndofunctor(q, monotone_diagram(q, rng.choice(shape_pool()), rng))
    else:
        F = endofunctor_from_spec(q, q.elements, f"{kind}:{draw(st.sampled_from(q.elements))}")
    objects = draw(st.permutations(list(q.elements)))
    return endo_exp_bifunctor(q, F, objects), rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(quantale_bifunctors())
def test_leg_table_matches_oracle_on_small_quantales(case):
    B, rng = case
    E = end_of(B)
    fams = _families(B, E, list(B.ambient.elements), rng)
    assert len(fams) >= 3
    assert wedge_violations(B, fams[1]) != []
    _assert_matches_oracle(B, fams)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from([("P",), ("Q",), ("P", "Q"), ("Q", "P")]),
       st.lists(st.integers(0, 15), min_size=2, max_size=2),
       st.integers(0, 2**16))
def test_leg_table_matches_oracle_on_two_sets(objects, picks, seed):
    A = FinSetFragment({"P": ["p0", "p1"], "Q": ["q0"]})
    B = hom_bifunctor(A, list(objects))
    E = end_of(B)
    fams = _families(B, E, ["I", "P", "Q", E.vertex], random.Random(seed))
    assert len(fams) == 4
    # constant families: the first element everywhere (the non-wedge of
    # test_wedge_square_failure_rejected on P alone) and a drawn one
    for choose in (lambda xs, k: xs[0], lambda xs, k: xs[picks[k] % len(xs)]):
        fams.append({X: A.make_arrow("I", B.ob(X, X), {"*": choose(A.elements(B.ob(X, X)), k)})
                     for k, X in enumerate(B.objects)})
    if "P" in objects:
        assert any("wedge square fails" in v for v in wedge_violations(B, fams[4]))
    _assert_matches_oracle(B, fams)


# ---------------------------------------------------------------------------
# Fault injection: laws of a broken bifunctor are reported


def _flip(A: FinSetFragment, obj: str) -> Arrow:
    elems = A.elements(obj)
    table = {e: e for e in elems}
    table[elems[0]], table[elems[1]] = elems[1], elems[0]
    return A.make_arrow(obj, obj, table)


def test_broken_covariant_action_detected():
    A = FinSetFragment({"P": ["p0", "p1"]})

    def bad_cov(x, g):
        out = exp_cov(A, g, x)
        if A.is_identity(g):
            return out
        return A.compose(_flip(A, out.tgt), out)

    B = Bifunctor(ambient=A, name="bad", objects=("P",),
                  ob=lambda x, y: A.exp_obj(x, y),
                  contra=lambda f, z: exp_contra(A, f, z),
                  cov=bad_cov)
    out = bifunctor_violations(B)
    assert out
    assert any("not functorial" in v or "interchange" in v for v in out)


def test_broken_actions_on_one_set_are_named():
    """B(X, Y) = P on the one set P, with each action broken in turn: sent
    constantly to the swap of P, or the contravariant one to the swap off
    identities only, which breaks functoriality alone."""
    A = FinSetFragment({"P": ["p0", "p1"]})
    flip, one = _flip(A, "P"), A.identity("P")

    def violations(contra, cov):
        return bifunctor_violations(Bifunctor(ambient=A, name="bad", objects=("P",),
                                              ob=lambda x, y: "P", contra=contra, cov=cov))

    # hom(P, P) holds four maps, so 16 composable pairs
    out = violations(lambda f, z: flip, lambda x, g: one)
    assert out[:2] == ["contra does not preserve identity at (P, P)",
                       "contra not functorial on (P->P[0,0] . P->P[0,0], P)"]
    assert len(out) == 1 + 16
    out = violations(lambda f, z: one, lambda x, g: flip)
    assert out[:2] == ["cov does not preserve identity at (P, P)",
                       "cov not functorial on (P, P->P[0,0] . P->P[0,0])"]
    assert len(out) == 1 + 16
    out = violations(lambda f, z: one if A.is_identity(f) else flip, lambda x, g: one)
    assert out[0] == "contra not functorial on (P->P[0,0] . P->P[0,0], P)"
    assert all(v.startswith("contra not functorial on (") for v in out)


# ---------------------------------------------------------------------------
# Composable pairs for the sampled functor laws


def test_composable_pair_lists_keep_the_all_pairs_order():
    """bifunctor_violations and endofunctor_violations sample these lists with
    random.Random(0), so the same pairs are drawn only if the order is kept."""
    fs = FinSetFragment({"A": ["a0"], "B": ["b0", "b1"], "C": ["c0", "c1", "c2"]})
    arrow_lists = [[f for x in "ABC" for y in "ABC" for f in fs.hom(x, y)]]
    for q in (heyting3(), lukasiewicz_chain(4), standard_quantales(16)[-1]):
        arrow_lists.append(domain_arrows(hom_bifunctor(q)))
        arrow_lists.append([f for x in q.objects() for y in q.objects() for f in q.hom(x, y)])
    for arrows in arrow_lists:
        assert composable_arrow_pairs(arrows) == composable_arrow_pairs_oracle(arrows)
    assert len(composable_arrow_pairs(arrow_lists[0])) > 400   # enough to be sampled


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz"), st.integers(0, 2)),
                max_size=12))
def test_composable_arrow_pairs_match_the_all_pairs_scan(triples):
    arrows = [Arrow(s, t, k) for s, t, k in triples]
    assert composable_arrow_pairs(arrows) == composable_arrow_pairs_oracle(arrows)
