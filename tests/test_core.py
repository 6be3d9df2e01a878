import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catend import cocompletion
from catend.cocompletion import (LimExpEndofunctor, end_via_cogenerator,
                                 endo_exp_bifunctor, identity_endofunctor)
from catend.core import (Ambient, Arrow, FinCatAmbient, FinCategory, FunctorData,
                         build_category, category_violations,
                         diagram_on_elements, discrete_category, fin_functor,
                         free_diagram, free_shape, functor_violations,
                         opposite, poset_category)
from catend.ends import subdivision
from catend.errors import TypeMismatch, ValidationFailure
from catend.finset import FinSetFragment
from catend.quantale import chain_leq, godel_chain, lukasiewicz_chain
from catend.transport import iso_classes

from helpers import (clique_category, composable_pairs_oracle, heyting_from_lattice,
                     hom_ids_oracle, parallel_pair_category, preorder_category,
                     shape_pool, span_category, split_idempotent_category)


def chain_category(n):
    """The poset 0 < 1 < ... < n-1."""
    elems = [str(i) for i in range(n)]
    return poset_category(elems, {(elems[i], elems[j])
                                  for i in range(n) for j in range(i, n)})


def indiscrete_category(objects):
    """Exactly one arrow between every ordered pair: the full relation."""
    return poset_category(objects, set(itertools.product(objects, repeat=2)))


def test_terminal_category_is_valid():
    cat = discrete_category(["x"])
    assert cat.objects == ("x",)
    assert len(cat.arrows) == 1
    assert not category_violations(cat.objects, cat.arrows, cat.composition,
                                   cat.identities)


def test_identity_composition_gap_is_named():
    arrows = {"id:0": ("0", "0"), "id:1": ("1", "1"), "f": ("0", "1")}
    identities = {"0": "id:0", "1": "id:1"}
    composition = {("id:0", "id:0"): "id:0", ("id:1", "id:1"): "id:1",
                   ("id:1", "f"): "f"}  # (f, id:0) missing
    out = category_violations(["0", "1"], arrows, composition, identities)
    assert any("gap (f, id:0)" in v for v in out)
    with pytest.raises(ValidationFailure):
        build_category(["0", "1"], arrows, composition, identities)
    # free_shape fills in identity composites only, so a composable pair of
    # its arrows is a gap that the law scan rejects
    with pytest.raises(ValidationFailure) as exc:
        free_shape(["x", "y", "z"], {"f": ("x", "y"), "g": ("y", "z")})
    assert "composition gap (g, f)" in exc.value.violations


def test_chain3_passes_all_composable_triples():
    cat = chain_category(3)
    assert len(cat.arrows) == 6
    triples = [(h, g, f)
               for h in cat.arrows for g in cat.arrows for f in cat.arrows
               if cat.tgt(f) == cat.src(g) and cat.tgt(g) == cat.src(h)]
    # chains: one triple per weakly increasing 4-tuple of objects
    assert len(triples) == 15
    for h, g, f in triples:
        assert cat.compose_ids(h, cat.compose_ids(g, f)) == \
            cat.compose_ids(cat.compose_ids(h, g), f)


def test_missing_identity_reported():
    out = category_violations(["x"], {}, {}, {})
    assert any("missing identity" in v for v in out)


def test_nonassociative_table_reported():
    # two non-identity endos with a table where (a.a).a != a.(a.a)
    arrows = {"id": ("x", "x"), "a": ("x", "x"), "b": ("x", "x")}
    identities = {"x": "id"}
    skew = {("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "a", ("b", "b"): "b"}
    composition = {}
    for g, f in itertools.product(arrows, repeat=2):
        if g == "id":
            composition[(g, f)] = f
        elif f == "id":
            composition[(g, f)] = g
        else:
            composition[(g, f)] = skew[(g, f)]
    out = category_violations(["x"], arrows, composition, identities)
    assert any("non-associative" in v for v in out)


def test_opposite_is_involution_and_transposes_homs():
    l3 = lukasiewicz_chain(3)
    sd = subdivision(endo_exp_bifunctor(l3, identity_endofunctor(l3), l3.objects()))
    endo_family = free_shape(["a", "b"], {"par:e0": ("a", "b"), "par:e1": ("a", "b")})
    for cat in (chain_category(4), indiscrete_category(["a", "b", "c"]),
                span_category(), parallel_pair_category(), sd.shape, endo_family):
        op = opposite(cat)
        assert opposite(op) == cat
        for x in cat.objects:
            for y in cat.objects:
                assert sorted(cat.hom_ids(x, y)) == sorted(op.hom_ids(y, x))


def test_poset_category_composition_is_order_witnessing():
    cat = poset_category(["0", "a", "1"],
                         {("0", "a"), ("a", "1"), ("0", "1"),
                          ("0", "0"), ("a", "a"), ("1", "1")})
    assert cat.compose_ids("le:a:1", "le:0:a") == "le:0:1"
    assert cat.is_identity_id("le:a:a")


def test_functor_validation_accepts_identity_and_constant():
    cat = span_category()
    amb = FinCatAmbient(cat)
    ident = FunctorData(source=cat, target=amb,
                        ob={x: x for x in cat.objects},
                        ar={a: Arrow(cat.src(a), cat.tgt(a), a)
                            for a in cat.arrow_ids()})
    assert not functor_violations(ident)
    const = FunctorData(source=cat, target=amb, ob={x: "k" for x in cat.objects},
                        ar={a: amb.identity("k") for a in cat.arrow_ids()})
    assert not functor_violations(const)


def test_functor_validation_rejects_inconsistent_collapse():
    pair = parallel_pair_category()
    amb = FinCatAmbient(chain_category(2))
    # send both objects across the chain but only one generator along the arrow
    bad = FunctorData(source=pair, target=amb,
                      ob={"i": "0", "j": "1"},
                      ar={"id:i": amb.identity("0"), "id:j": amb.identity("1"),
                          "f0": Arrow("0", "1", "le:0:1"),
                          "f1": Arrow("0", "0", "le:0:0")})
    assert functor_violations(bad) == [
        "arrow f1: image 0->0['le:0:0'] does not match object images 0->1"]


def test_functor_validation_names_missing_images_first():
    pair = parallel_pair_category()
    amb = FinCatAmbient(pair)
    partial = FunctorData(source=pair, target=amb, ob={"i": "i"},
                          ar={a: Arrow(*pair.arrows[a], a) for a in ("id:i", "id:j", "f0")})
    assert functor_violations(partial) == ["object j has no image", "arrow f1 has no image"]


def test_functor_validation_names_identity_and_composition_failures():
    A = FinSetFragment({"P": ["p0", "p1"]})
    flip = A.make_arrow("P", "P", {"p0": "p1", "p1": "p0"})
    point = discrete_category(["x"])
    assert functor_violations(FunctorData(source=point, target=A, ob={"x": "P"},
                                          ar={"id:x": flip})) == [
        "identity of x not preserved", "composition not preserved on pair (g=id:x, f=id:x)"]
    # 0 < 1 < 2 with every arrow at flip: flip . flip is the identity, not flip
    chain3 = chain_category(3)
    ar = {a: A.identity("P") if chain3.is_identity_id(a) else flip for a in chain3.arrow_ids()}
    assert functor_violations(FunctorData(source=chain3, target=A,
                                          ob={x: "P" for x in chain3.objects}, ar=ar)) == [
        "composition not preserved on pair (g=le:1:2, f=le:0:1)"]


def test_composition_gap_in_a_category_built_without_the_law_scan():
    cat = FinCategory(objects=("0", "1"), arrows={"id:0": ("0", "0"), "id:1": ("1", "1"),
                                                   "f": ("0", "1")},
                      composition={}, identities={"0": "id:0", "1": "id:1"})
    with pytest.raises(TypeMismatch, match=r"^composition gap \(id:1, f\)$"):
        cat.compose_ids("id:1", "f")


def test_every_ambient_names_its_own_arrows():
    class Unlabelled(Ambient):
        def objects(self):
            return []

        def hom(self, a, b):
            return []

        def identity(self, x):
            return Arrow(x, x)

        def compose(self, g, f):
            return Arrow(f.src, g.tgt)

    with pytest.raises(TypeError, match="arrow_label"):
        Unlabelled()


def test_fin_functor_checks_arrow_ids():
    src = chain_category(2)
    tgt = chain_category(3)
    F = fin_functor(src, tgt, ob={"0": "0", "1": "2"},
                    ar_ids={"le:0:0": "le:0:0", "le:1:1": "le:2:2", "le:0:1": "le:0:2"})
    assert functor_violations(F) == []
    assert F.ar["le:0:1"].data == "le:0:2"
    bad = fin_functor(src, tgt, ob={"0": "0", "1": "2"},
                      ar_ids={"le:0:0": "le:0:0", "le:1:1": "le:2:2", "le:0:1": "le:0:1"})
    assert functor_violations(bad) == [
        "arrow le:0:1: image 0->1['le:0:1'] does not match object images 0->2"]


def test_diagram_on_elements_is_discrete():
    amb = FinCatAmbient(chain_category(3))
    d = diagram_on_elements(amb, ["2", "0"])
    assert sorted(d.ob.values()) == ["0", "2"]
    assert all(amb.is_identity(f) for f in d.ar.values())
    assert not functor_violations(d)


def test_free_diagram_sends_identities_to_ambient_identities():
    amb = FinCatAmbient(chain_category(3))
    d = free_diagram(amb, {"x": "0", "y": "2"},
                     {"f": ("x", "y", Arrow("0", "2", "le:0:2"))})
    assert d.shape.objects == ("x", "y")
    assert d.shape.hom_ids("x", "y") == ["f"]
    assert functor_violations(d) == []
    for x in d.shape.objects:
        assert d.ar[d.shape.id_of(x)] == amb.identity(d.ob[x])


def test_free_diagram_rejects_composable_legs_and_leaves_laws_to_the_scan():
    amb = FinCatAmbient(chain_category(3))
    with pytest.raises(ValidationFailure) as exc:
        free_diagram(amb, {"x": "0", "y": "1", "z": "2"},
                     {"f": ("x", "y", Arrow("0", "1", "le:0:1")),
                      "g": ("y", "z", Arrow("1", "2", "le:1:2"))})
    assert "composition gap (g, f)" in exc.value.violations
    # a leg whose image has the wrong endpoints is built, then named by the scan
    bad = free_diagram(amb, {"x": "0", "y": "1"},
                       {"f": ("x", "y", Arrow("0", "2", "le:0:2"))})
    out = functor_violations(bad)
    assert len(out) == 1 and out[0].startswith("arrow f: image 0->2")


def test_subdivision_diagrams_are_functors():
    h3 = heyting_from_lattice("heyting3", ["0", "a", "1"], chain_leq(["0", "a", "1"]))
    for q, picks in ((h3, ["a", "0"]), (lukasiewicz_chain(4), ["1/3", "2/3"])):
        for F in (identity_endofunctor(q),
                  LimExpEndofunctor(q, diagram_on_elements(q, picks))):
            assert functor_violations(subdivision(endo_exp_bifunctor(q, F, q.objects()))) == []
    A = FinSetFragment({"P": ["p0", "p1"]})
    B = endo_exp_bifunctor(A, identity_endofunctor(A), ["P"])
    assert functor_violations(subdivision(B)) == []


def test_fincat_ambient_inverse_and_identity():
    amb = FinCatAmbient(indiscrete_category(["a", "b"]))
    f = amb.hom("a", "b")[0]
    g = amb.inverse(f)
    assert g is not None and amb.compose(g, f) == amb.identity("a")
    with pytest.raises(TypeMismatch):
        amb.compose(f, f)


# ---------------------------------------------------------------------------
# The hom index and the composition builders, against the all-arrows scans


def gluing_shape(q, monkeypatch) -> FinCategory:
    """The shape end_via_cogenerator glues its spans on, captured from a run."""
    shapes = []

    def capture(*tables):
        shapes.append(build_category(*tables))
        return shapes[-1]

    with monkeypatch.context() as m:
        m.setattr(cocompletion, "build_category", capture)
        end_via_cogenerator(endo_exp_bifunctor(q, identity_endofunctor(q), q.objects()))
    (shape,) = shapes
    return shape


def test_hom_index_matches_the_arrow_scan(monkeypatch):
    glued = gluing_shape(godel_chain(16), monkeypatch)
    assert len(glued.objects) == 17 and len(glued.arrows) == 273
    # the gluing table lists its pairs in the order of the all-pairs scan
    assert list(glued.composition) == composable_pairs_oracle(glued.arrows)
    pool = shape_pool() + [split_idempotent_category(), clique_category(3, 2)]
    cats = pool + [opposite(c) for c in pool] + [glued]
    classes = [iso_classes(cat) for cat in cats]
    for cat in cats:
        amb = FinCatAmbient(cat)
        for a in cat.objects + ("nowhere",):
            for b in cat.objects + ("nowhere",):
                assert cat.hom_ids(a, b) == hom_ids_oracle(cat, a, b)
                assert amb.hom(a, b) == [Arrow(a, b, i) for i in hom_ids_oracle(cat, a, b)]
    assert len(set(classes[-1].values())) == 2   # the product node and one span class
    monkeypatch.setattr(FinCategory, "hom_ids", hom_ids_oracle)
    assert [iso_classes(cat) for cat in cats] == classes


def test_hom_ids_returns_a_fresh_list():
    cat = indiscrete_category(["x", "y"])
    cat.hom_ids("x", "y").append("junk")
    assert cat.hom_ids("x", "y") == ["le:x:y"]
    amb = FinCatAmbient(cat)
    amb.hom("x", "y").append(Arrow("x", "y", "junk"))
    assert amb.hom("x", "y") == [Arrow("x", "y", "le:x:y")]


def assert_all_pairs_order(cat):
    arrows = cat.arrows
    assert list(cat.composition.items()) == [
        ((g, f), f"le:{arrows[f][0]}:{arrows[g][1]}")
        for g, f in composable_pairs_oracle(arrows)]


def test_poset_composition_keeps_the_all_pairs_order_on_the_pool():
    for shape in shape_pool():
        assert_all_pairs_order(poset_category(shape.objects, set(shape.arrows.values())))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8).map(
        lambda pairs: (n, pairs))))
def test_poset_composition_keeps_the_all_pairs_order(preorder):
    n, pairs = preorder
    assert_all_pairs_order(preorder_category([f"p{i}" for i in range(n)],
                                             [(f"p{a}", f"p{b}") for a, b in pairs]))


# ---------------------------------------------------------------------------
# Arrow equality: identity first, then the (src, tgt, data) tuple


_names = st.sampled_from(["x", "y", "z"])
_payloads = st.one_of(st.none(), st.sampled_from(["f", "g", "le:x:y"]),
                      st.tuples(_names, _names), st.tuples())


@st.composite
def _arrow_pairs(draw):
    a = Arrow(draw(_names), draw(_names), draw(_payloads))
    kind = draw(st.sampled_from(["same", "copy", "other"]))
    if kind == "same":
        return a, a
    if kind == "copy":
        return a, Arrow(a.src, a.tgt, a.data)
    return a, Arrow(draw(_names), draw(_names), draw(_payloads))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_arrow_pairs())
def test_arrow_equality_is_tuple_equality(pair):
    a, b = pair
    same = (a.src, a.tgt, a.data) == (b.src, b.tgt, b.data)
    assert (a == b) is same and (b == a) is same
    assert (a != b) is (not same) and (b != a) is (not same)
    if same:
        assert hash(a) == hash(b)
    for other in ((a.src, a.tgt, a.data), (a.src, a.tgt), a.src, repr(a), None):
        assert a != other and other != a
        assert not a == other
        assert a.__eq__(other) is NotImplemented
