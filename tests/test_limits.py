import random

import pytest

from catend.cocompletion import endo_exp_bifunctor, identity_endofunctor
from catend.config import SizeCaps
from catend.core import (Arrow, Diagram, FinCatAmbient, FinCategory, OppositeAmbient,
                         build_category, diagram_on_elements, discrete_category,
                         opposite_diagram, poset_category)
from catend.ends import Bifunctor, subdivision
from catend.errors import (InternalCheckFailure, MissingLimit, NoLimit, NotACone,
                           WorkspaceBlowup)
from catend.finset import FinSetFragment
from catend.limits import (Cocone, Cone, LimitingCone, cocone_violations, colimit_brute,
                           competing_cones, cone_violations, enumerate_cones,
                           jointly_monic_violation, limit_brute, limiting_violations,
                           mediator, refine_weak_initial, weak_initiality_violations)
from catend.quantale import chain_leq, godel_chain, lukasiewicz_chain

from helpers import (NoInitial, enumerate_cones_oracle, forked_ambient, heyting3,
                     initial_object, involution_category, join_oracle, meet_oracle,
                     monotone_diagram, parallel_pair_category, preorder_category,
                     shape_pool, split_idempotent_category)


# ---------------------------------------------------------------------------
# Posetal limits and colimits are meets and joins


def test_quantale_limits_are_meets_and_colimits_joins():
    rng = random.Random(11)
    for q in (heyting3(), godel_chain(5), lukasiewicz_chain(4)):
        elems = list(q.elements)
        for _ in range(15):
            sub = rng.sample(elems, rng.randint(1, len(elems)))
            d = diagram_on_elements(q, sub)
            assert limit_brute(q, d).vertex == meet_oracle(q, sub)
            assert colimit_brute(d).vertex == join_oracle(q, sub)


def test_empty_diagram_gives_top_and_bottom():
    for q in (heyting3(), lukasiewicz_chain(4)):
        d = diagram_on_elements(q, [])
        assert limit_brute(q, d).vertex == q.top
        assert colimit_brute(d).vertex == q.bottom


def test_limit_is_verified_universal_on_quantale():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "1"])
    L = limit_brute(q, d)
    assert L.vertex == "a"
    assert limiting_violations(L) == []


def test_wrong_vertex_is_flagged():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "1"])
    # 0 is a lower bound but not the greatest one
    claimed = Cone(d, "0", {i: q.hom("0", d.ob[i])[0] for i in d.shape.objects})
    bad = limiting_violations(LimitingCone(cone=claimed))
    assert bad
    assert any("factorizations" in v for v in bad)


def test_limiting_violations_rejects_a_claim_that_is_no_cone():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "1"])
    top = q.hom("0", "1")[0]
    mistyped = Cone(d, "0", {"n0": top, "n1": top})
    assert cone_violations(mistyped) == ["edge at n0 is 0->1, expected 0->a"]
    assert limiting_violations(LimitingCone(cone=mistyped)) == [
        "not a cone: edge at n0 is 0->1, expected 0->a"]


def test_limiting_violations_replays_a_limits_own_mediation():
    """The identity cone on j is limiting, but a mediation that sends the
    cone at i to the last arrow i -> j, f1, misses its one factorization f0."""
    P = FinCatAmbient(parallel_pair_category())
    d = diagram_on_elements(P, ["j"])
    cone = Cone(d, "j", {"n0": P.identity("j")})
    L = LimitingCone(cone, mediate=lambda c: P.hom(c.vertex, "j")[-1])
    assert limiting_violations(L) == ["mediation of the cone at i is not its factorization"]
    assert limiting_violations(LimitingCone(cone)) == []


def test_cocone_violations_name_mistyped_edges_and_open_triangles():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "1"])
    assert cocone_violations(Cocone(d, "1", {"n0": q.hom("0", "1")[0],
                                             "n1": q.identity("1")})) == [
        "edge at n0 is 0->1, expected a->1"]
    # the parallel pair f0, f1: i -> j as a diagram; f0 alone cannot be the leg at i
    P = FinCatAmbient(parallel_pair_category())
    d = Diagram(source=P.cat, target=P, ob={"i": "i", "j": "j"},
                ar={a: Arrow(s, t, a) for a, (s, t) in P.cat.arrows.items()})
    legs = {"i": Arrow("i", "j", "f0"), "j": P.identity("j")}
    assert cocone_violations(Cocone(d, "j", legs)) == [
        "triangle at shape arrow f1 does not commute"]


def test_mediator_guards_against_a_wrong_mediation_closure():
    """The object j of the parallel pair, claimed limiting at i along f0."""
    P = FinCatAmbient(parallel_pair_category())
    d = diagram_on_elements(P, ["j"])
    f0, f1 = Arrow("i", "j", "f0"), Arrow("i", "j", "f1")

    def claim(mediate):
        return LimitingCone(cone=Cone(d, "i", {"n0": f0}), mediate=mediate)

    along_f1 = Cone(d, "i", {"n0": f1})
    with pytest.raises(InternalCheckFailure) as err:
        mediator(claim(lambda c: P.identity("j")), along_f1)
    assert str(err.value) == "mediation produced j->j['id:j'], expected i->i"
    with pytest.raises(InternalCheckFailure) as err:
        mediator(claim(lambda c: P.identity("i")), along_f1)
    assert str(err.value) == "mediation does not commute at n0"
    assert mediator(claim(lambda c: P.identity("i")), Cone(d, "i", {"n0": f0})) == P.identity("i")


def test_mediator_search_needs_exactly_one_factorization():
    """Over the object j of the forked ambient, (i, f) is no limit: the cone
    (k, h) factors through f by g0 and by g1, and (j, id) not at all."""
    A = forked_ambient()
    d = diagram_on_elements(A, ["j"])
    L = LimitingCone(cone=Cone(d, "i", {"n0": A.hom("i", "j")[0]}))
    for vertex, edge, message in (
            ("k", A.hom("k", "j")[0], "2 mediators from cone at k into claimed limit at i"),
            ("j", A.identity("j"), "0 mediators from cone at j into claimed limit at i")):
        with pytest.raises(InternalCheckFailure) as err:
            mediator(L, Cone(d, vertex, {"n0": edge}))
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Competing cones: the one choice of which cones a limit must factor


def test_competing_cones_are_every_cone_in_enumerable_ambients():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "1"])
    assert [c.vertex for c in competing_cones(d)] == ["0", "a"]
    assert competing_cones(d) == enumerate_cones(d)
    A = FinCatAmbient(split_idempotent_category())
    for ob in (["w"], ["v"], ["w", "v"]):
        d = diagram_on_elements(A, ob)
        assert competing_cones(d) == enumerate_cones(d)
        assert competing_cones(d)


def _same_cones(A, d):
    got = enumerate_cones(d)
    assert got == enumerate_cones_oracle(A, d)  # vertices, edges and order
    return got


def test_cone_enumeration_matches_its_oracle():
    rng = random.Random(17)
    q = heyting3()
    for shape in shape_pool():
        for _ in range(3):
            d = monotone_diagram(q, shape, rng)
            _same_cones(q, d)
            # cocones: cones over the opposite diagram in the opposite ambient
            dop = opposite_diagram(d)
            assert isinstance(dop.target, OppositeAmbient)
            _same_cones(dop.target, dop)
    assert len(_same_cones(q, subdivision(endo_exp_bifunctor(q, identity_endofunctor(q),
                                                             q.objects())))) == 3

    A = forked_ambient()
    got = _same_cones(A, diagram_on_elements(A, ["i"]))
    assert [(c.vertex, c.edges["n0"].data) for c in got] == [
        ("i", "id:i"), ("k", "g0"), ("k", "g1")]
    for ob in (["j"], ["i", "j"], ["k", "i", "k"], []):
        assert _same_cones(A, diagram_on_elements(A, ob))

    class ReversedHoms(FinCatAmbient):
        def hom(self, a, b):
            return super().hom(a, b)[::-1]

    R = ReversedHoms(A.cat)  # hom-sets listed against label order: the sort matters
    assert [c.edges["n0"].data for c in _same_cones(R, diagram_on_elements(R, ["i"]))] == [
        "id:i", "g0", "g1"]

    P = FinCatAmbient(parallel_pair_category())
    identity = Diagram(source=P.cat, target=P, ob={"i": "i", "j": "j"},
                       ar={a: Arrow(s, t, a) for a, (s, t) in P.cat.arrows.items()})
    assert [c.vertex for c in _same_cones(P, identity)] == []
    assert len(_same_cones(P, diagram_on_elements(P, ["j", "j"]))) == 1 + 4


def test_cone_enumeration_reads_each_hom_set_once_per_value(monkeypatch):
    q = godel_chain(16)
    # B(X, Y) = Y: the node of f: X -> Y is valued at Y, so 152 nodes share 16 values
    d = subdivision(Bifunctor(ambient=q, name="snd", objects=tuple(q.objects()),
                              ob=lambda x, y: y, contra=lambda f, z: q.identity(z),
                              cov=lambda x, g: g))
    values = set(d.ob.values())
    assert (len(d.shape.objects), len(values)) == (152, 16)
    reads = []
    hom = q.hom
    monkeypatch.setattr(q, "hom", lambda a, b: reads.append((a, b)) or hom(a, b))
    cones = enumerate_cones(d)
    assert len(reads) <= len(q.objects()) * len(values)
    reads.clear()
    assert enumerate_cones_oracle(q, d) == cones
    assert len(reads) == len(q.objects()) * len(d.shape.objects)


def test_no_competing_cones_in_finite_sets():
    A = small_ws()
    d = diagram_on_elements(A, ["A", "B"])
    assert competing_cones(d) is None
    # the solver's limit is trusted there: nothing is replayed, nothing fails
    assert limiting_violations(limit_brute(A, d)) is None


# ---------------------------------------------------------------------------
# Set-workspace limits via the constraint solver


def small_ws():
    return FinSetFragment({"A": ["x", "y"], "B": ["u", "v", "w"], "C": ["c0", "c1"]})


def test_product_of_sets():
    A = small_ws()
    d = diagram_on_elements(A, ["A", "B"])
    L = limit_brute(A, d)
    elems = A.elements(L.vertex)
    assert len(elems) == 6
    seen = {(A.apply(L.edges["n0"], t), A.apply(L.edges["n1"], t)) for t in elems}
    assert seen == {(a, b) for a in A.elements("A") for b in A.elements("B")}


def test_equalizer_of_parallel_pair():
    A = small_ws()
    f0 = A.make_arrow("A", "B", {"x": "u", "y": "v"})
    f1 = A.make_arrow("A", "B", {"x": "u", "y": "u"})
    shape = parallel_pair_category()
    d = Diagram(source=shape, target=A,
                ob={"i": "A", "j": "B"},
                ar={"id:i": A.identity("A"), "id:j": A.identity("B"),
                    "f0": f0, "f1": f1})
    L = limit_brute(A, d)
    elems = A.elements(L.vertex)
    assert len(elems) == 1
    assert A.apply(L.edges["i"], elems[0]) == "x"


def test_equal_parallel_pair_recovers_source():
    A = small_ws()
    f = A.make_arrow("A", "B", {"x": "u", "y": "v"})
    shape = parallel_pair_category()
    d = Diagram(source=shape, target=A,
                ob={"i": "A", "j": "B"},
                ar={"id:i": A.identity("A"), "id:j": A.identity("B"),
                    "f0": f, "f1": f})
    L = limit_brute(A, d)
    leg = L.edges["i"]
    assert sorted(leg.data) == sorted(A.elements("A"))   # bijective onto A


def test_idempotent_loop_limit_is_its_fixed_points():
    """A diagram on one object with an idempotent endo e: its limit is the
    set of points e fixes, found through the solver's self-loop constraint."""
    A = small_ws()
    arrows = {"id:x": ("x", "x"), "e": ("x", "x")}
    composition = {("id:x", "id:x"): "id:x", ("e", "id:x"): "e",
                   ("id:x", "e"): "e", ("e", "e"): "e"}
    shape = build_category(["x"], arrows, composition, {"x": "id:x"})
    e = A.make_arrow("B", "B", {"u": "u", "v": "u", "w": "w"})
    d = Diagram(source=shape, target=A, ob={"x": "B"}, ar={"id:x": A.identity("B"), "e": e})
    L = limit_brute(A, d)
    assert [A.apply(L.edges["x"], t) for t in A.elements(L.vertex)] == ["u", "w"]


def test_solver_stops_at_the_solution_cap():
    A = FinSetFragment({"A": ["x", "y"], "B": ["u", "v", "w"]}, caps=SizeCaps(finset_exp_max=5))
    assert len(A.elements(limit_brute(A, diagram_on_elements(A, ["A", "A"])).vertex)) == 4
    with pytest.raises(WorkspaceBlowup, match="^limit has too many elements$"):
        limit_brute(A, diagram_on_elements(A, ["A", "B"]))


def test_product_mediator_is_tupling():
    A = small_ws()
    d = diagram_on_elements(A, ["A", "B"])
    L = limit_brute(A, d)
    f = A.make_arrow("C", "A", {"c0": "y", "c1": "x"})
    g = A.make_arrow("C", "B", {"c0": "w", "c1": "w"})
    m = mediator(L, Cone(d, "C", {"n0": f, "n1": g}))
    for c in A.elements("C"):
        t = A.apply(m, c)
        assert A.apply(L.edges["n0"], t) == A.apply(f, c)
        assert A.apply(L.edges["n1"], t) == A.apply(g, c)


def test_mediator_rejects_non_cone():
    A = small_ws()
    d = diagram_on_elements(A, ["A", "B"])
    L = limit_brute(A, d)
    f = A.make_arrow("C", "A", {"c0": "y", "c1": "x"})
    with pytest.raises(NotACone):
        mediator(L, Cone(d, "C", {"n0": f}))   # missing an edge


# ---------------------------------------------------------------------------
# Initial objects and the refinement of a weakly initial one


def test_initial_object_is_poset_bottom():
    cat = poset_category(["0", "a", "b", "1"],
                         {("0", "a"), ("0", "b"), ("0", "1"), ("a", "1"), ("b", "1")})
    assert initial_object(cat) == "0"


def test_no_initial_on_discrete_pair():
    with pytest.raises(NoInitial):
        initial_object(discrete_category(["p", "q"]))
    assert weak_initiality_violations(discrete_category(["p", "q"]), "p") == ["no arrow p -> q"]


def test_refine_weak_initial_on_poset_is_identity_like():
    cat = poset_category(["0", "a", "1"], set(chain_leq(["0", "a", "1"])))
    ref = refine_weak_initial(cat, "0")
    assert ref.vertex == "0"
    assert all(c.passed for c in ref.checks)
    A = FinCatAmbient(cat)
    assert A.compose(ref.retraction, ref.inclusion) == A.identity("0")


def test_refinement_splits_an_idempotent():
    cat = split_idempotent_category()
    ref = refine_weak_initial(cat, "w")
    assert ref.vertex == "v"
    assert ref.vertex == initial_object(cat)
    assert all(c.passed for c in ref.checks)
    A = FinCatAmbient(cat)
    assert A.compose(ref.retraction, ref.inclusion) == A.identity("v")
    # the inclusion leg really equalizes both endos of w
    for s in cat.hom_ids("w", "w"):
        assert A.compose(Arrow("w", "w", s), ref.inclusion) == ref.inclusion


def test_refinement_reports_an_equalizer_that_is_not_initial():
    """In the parallel pair f0, f1: i -> j, i is weakly initial with the
    identity as its only endo, so it is its own joint equalizer; but f0 and
    f1 have no equalizer, and i is not initial."""
    ref = refine_weak_initial(parallel_pair_category(), "i")
    assert ref.vertex == "i"
    assert [(c.check, c.tag, c.passed, c.witness) for c in ref.checks] == [
        ("initial.weakly_initial", "i", True, ""),
        ("initial.equalizes_endos", "i", True, ""),
        ("initial.retraction", "i", True, ""),
        ("initial.unique_arrows", "i", False, "hom(i, j) has 2 arrows")]


def test_refinement_reports_a_leg_no_arrow_retracts():
    """A FinCategory built without the law scan: u: v -> w equalizes the
    endos iw and e of w, but t . u is k, not the identity of v, and v has two
    endos.  ``initial.retraction`` fails and falls back to the first arrow
    w -> v; this cannot happen in a category ``build_category`` accepts."""
    arrows = {"iw": ("w", "w"), "iv": ("v", "v"), "e": ("w", "w"), "u": ("v", "w"),
              "u2": ("v", "w"), "t": ("w", "v"), "k": ("v", "v")}
    composition = {("e", "e"): "e", ("e", "u"): "u", ("e", "u2"): "u",
                   ("u", "t"): "e", ("u2", "t"): "e", ("t", "u"): "k", ("t", "u2"): "k",
                   ("t", "e"): "t", ("u", "k"): "u2", ("u2", "k"): "u2",
                   ("k", "k"): "k", ("k", "t"): "t"}
    identities = {"v": "iv", "w": "iw"}
    for a, (s, t) in arrows.items():
        composition[(a, identities[s])] = composition[(identities[t], a)] = a
    cat = FinCategory(("v", "w"), arrows, composition, identities)
    ref = refine_weak_initial(cat, "w")
    assert (ref.vertex, ref.inclusion.data, ref.retraction.data) == ("v", "u", "t")
    assert [(c.check, c.tag, c.passed, c.witness) for c in ref.checks] == [
        ("initial.weakly_initial", "w", True, ""),
        ("initial.equalizes_endos", "v", True, ""),
        ("initial.retraction", "v", False,
         "no arrow among ['t'] retracts the equalizer leg"),
        ("initial.unique_arrows", "v", False, "hom(v, v) has 2 arrows")]


def test_refinement_reports_missing_equalizer():
    cat = involution_category()
    with pytest.raises(MissingLimit):
        refine_weak_initial(cat, "w")


def test_refinement_flags_non_weakly_initial_start():
    cat = discrete_category(["p", "q"])
    ref = refine_weak_initial(cat, "p")
    assert not ref.checks[0].passed
    assert "no arrow" in ref.checks[0].witness


class ThinAmbient(FinCatAmbient):
    """A preorder category read as a thin ambient; its top classes may hold
    several isomorphic objects."""

    posetal = True


def test_thin_limit_is_first_of_the_top_class_in_one_pass(monkeypatch):
    rng = random.Random(5)
    elems = [f"p{i}" for i in range(6)]
    for _ in range(200):
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randrange(9))]
        A = ThinAmbient(preorder_category(elems, pairs))
        targets = rng.sample(elems, rng.randrange(1, 3))
        # the all-pairs reading: the first lower bound above every lower bound
        cands = [v for v in elems if all(A.hom(v, t) for t in targets)]
        tops = [v for v in cands if all(A.hom(c, v) for c in cands)]
        d = diagram_on_elements(A, targets)
        if tops:
            assert limit_brute(A, d).vertex == tops[0], (pairs, targets)
        else:
            with pytest.raises(NoLimit, match="no greatest lower bound"):
                limit_brute(A, d)
    calls = []
    real = ThinAmbient.hom
    monkeypatch.setattr(ThinAmbient, "hom", lambda self, a, b: calls.append(1) or real(self, a, b))
    chain = [f"c{i:02d}" for i in range(40)]
    A = ThinAmbient(preorder_category(chain, list(zip(chain, chain[1:]))))
    assert limit_brute(A, diagram_on_elements(A, [chain[-1]])).vertex == chain[-1]
    # 40 candidates: linear in them, where an all-pairs test makes 40 * 40 reads
    assert len(calls) < 5 * len(chain)


def test_no_limit_raised_for_limitless_diagram():
    cat = involution_category()
    A = FinCatAmbient(cat)
    shape = parallel_pair_category()
    d = Diagram(source=shape, target=A,
                ob={"i": "w", "j": "w"},
                ar={"id:i": A.identity("w"), "id:j": A.identity("w"),
                    "f0": A.identity("w"), "f1": Arrow("w", "w", "s")})
    assert enumerate_cones(d) == []
    with pytest.raises(NoLimit):
        limit_brute(A, d)


# ---------------------------------------------------------------------------
# Mono certificates


def test_mono_violation_on_set_maps():
    A = small_ws()
    inj = A.make_arrow("A", "B", {"x": "u", "y": "w"})
    assert jointly_monic_violation(A, [inj], domains=["A", "B", "C", "I"]) is None
    collapse = A.make_arrow("A", "B", {"x": "u", "y": "u"})
    w = jointly_monic_violation(A, [collapse], domains=["A"])
    assert w is not None and "agree under every leg" in w


def test_jointly_monic_projections():
    A = small_ws()
    d = diagram_on_elements(A, ["A", "B"])
    L = limit_brute(A, d)
    legs = [L.edges["n0"], L.edges["n1"]]
    assert jointly_monic_violation(A, legs, domains=["A", "C"]) is None
    consts = [A.make_arrow("A", "B", {"x": "u", "y": "u"}),
              A.make_arrow("A", "B", {"x": "v", "y": "v"})]
    assert jointly_monic_violation(A, consts, domains=["A"]) is not None
    assert jointly_monic_violation(A, [], domains=["A"]) is not None
