import dataclasses
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catend import cocompletion, ends
from catend.cocompletion import (LimExpEndofunctor, colimit_via_ends,
                                 constant_endofunctor, double_dual_endofunctor,
                                 end_by_route, end_via_cogenerator, endo_exp_bifunctor,
                                 endofunctor_violations, exp_from_endofunctor,
                                 identity_endofunctor, mediate_weakly,
                                 route_agreement, synthesize_cocone,
                                 tensor_endofunctor)
from catend.cli import endofunctor_from_spec, main as cli_main
from catend.core import diagram_on_elements
from catend.ends import Bifunctor, end_of, wedge_violations
from catend.errors import (InputError, InternalCheckFailure, NonEnumerableAmbient,
                           NotAWedge)
from catend.finset import FinSetFragment
from catend.limits import Cocone, cocone_violations, colimit_brute
from catend.quantale import (godel_chain, lukasiewicz_chain, powerset_quantale,
                             standard_quantales)
from catend.smcc import exp_contra, exp_cov, law_suite

from helpers import (heyting3, heyting_from_lattice, initial_object, join_oracle,
                     meet_oracle, preorder_category, res_oracle, thin_cocone,
                     thin_diagram, wedge_mediator)


# ---------------------------------------------------------------------------
# Endofunctors


def test_endofunctor_builders_are_lawful():
    q = heyting3()
    objs = sorted(q.elements)
    for F in (identity_endofunctor(q), constant_endofunctor(q, "a"),
              tensor_endofunctor(q, "a"), exp_from_endofunctor(q, "a"),
              double_dual_endofunctor(q, "0")):
        assert endofunctor_violations(F, objs) == [], F.name


def test_limexp_endofunctor_values_and_laws():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    F = LimExpEndofunctor(q, d)
    for x in q.elements:
        expected = meet_oracle(q, [q.exp_obj("a", x), q.exp_obj("0", x)])
        assert F.ob(x) == expected
    assert F.ob("0") == "0" and F.ob("a") == "1" and F.ob("1") == "1"
    assert endofunctor_violations(F, sorted(q.elements)) == []


def test_broken_endofunctor_detected():
    from catend.cocompletion import Endofunctor
    A = FinSetFragment({"P": ["p0", "p1"]})
    flip = A.make_arrow("P", "P", {"p0": "p1", "p1": "p0"})

    def bad_ar(f):
        if A.is_identity(f):
            return f
        return A.compose(flip, f) if f.tgt == "P" else f

    F = Endofunctor(A, "bad", ob=lambda x: x, ar=bad_ar)
    out = endofunctor_violations(F, ["P"])
    assert any("composition not preserved" in v for v in out)
    B = FinSetFragment({"P": ["p0", "p1"], "Q": ["q0"]})
    F = Endofunctor(B, "toQ", ob=lambda x: x, ar=lambda f: B.identity("Q"))
    out = endofunctor_violations(F, ["P"])
    assert out[:2] == ["identity not preserved at P",
                       "image of P->P[0,0] is Q->Q[('q0',)], expected P->P"]
    assert len(out) == 1 + 4


def test_endofunctor_composition_law_samples_its_pairs():
    """godel16 has 136 arrows and 816 composable pairs; the law draws 400 of them."""
    q = godel_chain(16)
    F = identity_endofunctor(q)
    calls = []
    counted = dataclasses.replace(F, ar=lambda f: calls.append(f) or F.ar(f))
    assert endofunctor_violations(counted, q.objects()) == []
    # one image per identity and per arrow, three per sampled pair
    assert len(calls) == 16 + 136 + 3 * cocompletion.LAW_PAIR_SAMPLE


# ---------------------------------------------------------------------------
# Synthesis


def test_synthesize_cocone_on_pair():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    S = synthesize_cocone(q, d)
    assert all(c.passed for c in S.checks), [c for c in S.checks if not c.passed]
    assert cocone_violations(S.cocone) == []
    assert S.cocone.vertex == "a"        # already the least upper bound here
    assert S.end.vertex == "a"


def test_synthesize_cocone_along_chain_shape():
    q = godel_chain(4)
    shape = preorder_category(["i", "j"], {("i", "j")})
    d = thin_diagram(q, shape, {"i": "c01", "j": "c02"})
    S = synthesize_cocone(q, d)
    assert all(c.passed for c in S.checks)
    assert {c.check for c in S.checks} >= {"synthesis.wedge_square",
                                           "synthesis.end_leg",
                                           "synthesis.swap_triangle",
                                           "synthesis.cocone"}


def test_mediate_weakly_reaches_every_bound():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    S = synthesize_cocone(q, d)
    for u in ("a", "1"):
        psi, checks = mediate_weakly(q, S, thin_cocone(q, d, u))
        assert (psi.src, psi.tgt) == (S.cocone.vertex, u)
        assert all(c.passed for c in checks)


def test_mediate_weakly_rejects_bad_input():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    S = synthesize_cocone(q, d, objects=["0", "a"])
    with pytest.raises(InputError):
        mediate_weakly(q, S, thin_cocone(q, d, "1"))   # outside the universe
    S2 = synthesize_cocone(q, d)
    with pytest.raises(InputError):
        mediate_weakly(q, S2, Cocone(d, "1", {}))      # no edges at all


def test_unknown_end_route_rejected():
    """Every caller gets the one rejection, raised in ``end_by_route``."""
    q = heyting3()
    d = diagram_on_elements(q, ["a"])
    S = synthesize_cocone(q, d)
    for attempt in (lambda: synthesize_cocone(q, d, end_route="bogus"),
                    lambda: route_agreement(S.end, "bogus"),
                    lambda: end_by_route(S.end.bifunctor, "bogus")):
        with pytest.raises(InputError, match="^unknown end route 'bogus'$") as err:
            attempt()
        assert err.traceback[-1].name == "end_by_route"


def test_end_by_route_returns_each_routes_checks():
    q = heyting3()
    B = endo_exp_bifunctor(q, identity_endofunctor(q), q.objects())
    direct = end_by_route(B, "direct")
    assert (direct.checks, direct.product, direct.spans) == ((), None, {})
    assert direct.end.vertex == end_of(B).vertex
    routed = end_by_route(B, "cogenerator")
    cg = end_via_cogenerator(B)
    assert type(routed) is type(direct) and routed.checks == cg.checks and routed.checks
    assert (routed.product, routed.spans) == (cg.product, cg.spans) and cg.spans
    assert routed.end.vertex == cg.end.vertex == direct.end.vertex


def test_synthesis_and_route_agreement_dispatch_through_end_by_route(monkeypatch):
    q = heyting3()
    routes = []
    real = cocompletion.end_by_route

    def counted(B, route):
        routes.append(route)
        return real(B, route)
    monkeypatch.setattr(cocompletion, "end_by_route", counted)
    for route, other in (("direct", "cogenerator"), ("cogenerator", "direct")):
        routes.clear()
        S = synthesize_cocone(q, three_object_span(q), end_route=route)
        checks = route_agreement(S.end, route)
        assert routes == [route, other]
        assert checks[-1].check == "end.route_agreement" and checks[-1].passed


def three_object_span(q):
    shape = preorder_category(["c", "l", "r"], {("c", "l"), ("c", "r")})
    return thin_diagram(q, shape, {"c": "0", "l": "a", "r": "1"})


def test_synthesis_scans_each_wedge_once_and_swaps_once(monkeypatch):
    q = heyting3()
    d = three_object_span(q)
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cocompletion, ends):
        counted(module, "wedge_violations")
    counted(cocompletion, "swap_arg")
    S = synthesize_cocone(q, d)
    assert all(c.passed for c in S.checks)
    assert calls == {"wedge_violations": 3, "swap_arg": 3 * 3}


def test_synthesis_raises_the_wedge_scan_message(monkeypatch):
    q = heyting3()
    d = three_object_span(q)
    monkeypatch.setattr(cocompletion, "wedge_violations",
                        lambda B, fam: ["injected square", "second square"])
    with pytest.raises(NotAWedge) as err:
        synthesize_cocone(q, d)
    assert str(err.value) == "injected square; second square"


def test_synthesis_over_empty_universe_rejected():
    q = heyting3()
    with pytest.raises(NotAWedge) as err:
        synthesize_cocone(q, diagram_on_elements(q, ["a"]), objects=[])
    assert str(err.value) == "empty object family"


def test_synthesis_needs_an_object_enumeration():
    A = FinSetFragment({"P": ["p0", "p1"]})
    with pytest.raises(NonEnumerableAmbient, match="^colimit synthesis needs an object enumeration$"):
        synthesize_cocone(A, diagram_on_elements(A, ["P"]))


def test_cogenerator_end_needs_the_product_inside_its_universe():
    q = heyting3()   # every element cogenerates, so the product is the bottom 0
    B = endo_exp_bifunctor(q, identity_endofunctor(q), ["a", "1"])
    with pytest.raises(InputError,
                       match="^product 0 of the cogenerating family is outside the universe$"):
        end_via_cogenerator(B)


def test_colimit_guards_a_synthesized_vertex_that_bounds_nothing(monkeypatch):
    q = heyting3()
    d = diagram_on_elements(q, ["a"])
    S = synthesize_cocone(q, d)
    monkeypatch.setattr(cocompletion, "synthesize_cocone", lambda A, d, end_route:
                        dataclasses.replace(S, cocone=Cocone(d, "0", {})))
    with pytest.raises(InternalCheckFailure, match="^synthesized vertex does not bound the diagram$"):
        colimit_via_ends(q, d)


# ---------------------------------------------------------------------------
# Worked colimits


def test_colimit_of_pair_in_heyting3():
    q = heyting3()
    R = colimit_via_ends(q, diagram_on_elements(q, ["a", "0"]))
    assert R.vertex == "a"
    assert all(c.passed for c in R.checks)
    assert sorted(R.cocone_category.objects) == ["1", "a"]
    assert initial_object(R.cocone_category) == "a"


def test_colimit_of_half_in_lukasiewicz3():
    q = lukasiewicz_chain(3)
    R = colimit_via_ends(q, diagram_on_elements(q, ["1/2"]))
    assert R.vertex == "1/2"
    assert all(c.passed for c in R.checks)


def test_colimit_of_empty_diagram_is_bottom():
    q = heyting3()
    R = colimit_via_ends(q, diagram_on_elements(q, []))
    assert R.vertex == q.bottom
    assert all(c.passed for c in R.checks)


def test_expected_check_kinds_present():
    q = heyting3()
    R = colimit_via_ends(q, diagram_on_elements(q, ["a", "0"]))
    names = {c.check for c in R.checks}
    assert names >= {"synthesis.cocone", "cocones.vertex_present",
                     "cocones.weakly_initial", "initial.weakly_initial",
                     "initial.equalizes_endos", "initial.retraction",
                     "initial.unique_arrows", "colimit.cocone",
                     "colimit.matches_brute"}


def test_matches_brute_and_join_on_random_diagrams():
    rng = random.Random(17)
    z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    for q in (godel_chain(4), powerset_quantale("pz2", ["e", "g"], z2, "e")):
        elems = list(q.elements)
        for _ in range(6):
            sub = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            d = diagram_on_elements(q, sub)
            R = colimit_via_ends(q, d)
            assert R.vertex == colimit_brute(d).vertex
            assert R.vertex == join_oracle(q, sub)
            assert all(c.passed for c in R.checks)


def test_nonposetal_ambient_rejected():
    A = FinSetFragment({"P": ["p0"]})
    d = diagram_on_elements(A, ["P"])
    with pytest.raises(InputError):
        colimit_via_ends(A, d)


# ---------------------------------------------------------------------------
# The cogenerating-family route to the end


def test_cogenerator_end_agrees_with_direct():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    universe = sorted(q.elements)
    for F in (identity_endofunctor(q), constant_endofunctor(q, "a"),
              tensor_endofunctor(q, "a"), double_dual_endofunctor(q, "a"),
              LimExpEndofunctor(q, d)):
        direct = end_of(endo_exp_bifunctor(q, F, universe))
        via = end_via_cogenerator(endo_exp_bifunctor(q, F, universe))
        assert via.end.vertex == direct.vertex, getattr(F, "name", "?")
        assert all(c.passed for c in via.checks)
        assert wedge_violations(via.end.bifunctor, via.end.projections) == []


def test_cogenerator_end_with_empty_family():
    q = heyting3().with_cogenerators("empty")
    assert q.cogenerating_family == []
    F = identity_endofunctor(q)
    universe = sorted(q.elements)
    via = end_via_cogenerator(endo_exp_bifunctor(q, F, universe))
    assert via.product == q.top            # empty product
    direct = end_of(endo_exp_bifunctor(q, F, universe))
    assert via.end.vertex == direct.vertex
    assert all(c.passed for c in via.checks)


def test_cogenerator_end_needs_a_declared_family():
    A = FinSetFragment({"P": ["p0", "p1"]})
    assert A.cogenerating_family is None
    with pytest.raises(InputError, match="ambient does not declare a cogenerating family"):
        end_via_cogenerator(endo_exp_bifunctor(A, identity_endofunctor(A), ["P"]))


def scaled_hom_bifunctor(q, c):
    """B(x, y) = c . y^x, built by hand rather than from an endofunctor."""
    one = q.identity(c)
    return Bifunctor(ambient=q, name=f"scaled[{c}]", objects=tuple(q.objects()),
                     ob=lambda x, y: q.tensor_obj(c, q.exp_obj(x, y)),
                     contra=lambda f, z: q.tensor_arr(one, exp_contra(q, f, z)),
                     cov=lambda x, g: q.tensor_arr(one, exp_cov(q, g, x)))


def test_cogenerator_end_takes_any_bifunctor():
    """In a thin ambient the end is the meet of the diagonal c . (x => x)."""
    cases = [(q, c) for q in standard_quantales(6) for c in q.elements]
    assert len(cases) == 94
    for q, c in cases:
        B = scaled_hom_bifunctor(q, c)
        expected = meet_oracle(q, [q.tensor_obj(c, res_oracle(q, x, x)) for x in q.elements])
        via = end_via_cogenerator(B)
        assert via.end.bifunctor is B
        assert (via.end.vertex, end_of(B).vertex) == (expected, expected), (q.name, c)
        assert all(e.passed for e in via.checks), (q.name, c)


def count_leg_tables(monkeypatch) -> Counter:
    """Counts ``ends.domain_arrows``: one call per leg table derived."""
    calls = Counter()
    real = ends.domain_arrows

    def wrapper(B):
        calls[B.name] += 1
        return real(B)
    monkeypatch.setattr(ends, "domain_arrows", wrapper)
    return calls


def test_cogenerator_colimit_derives_one_leg_table(monkeypatch):
    q = heyting3()
    calls = count_leg_tables(monkeypatch)
    R = colimit_via_ends(q, three_object_span(q), end_route="cogenerator")
    assert all(c.passed for c in R.checks)
    assert R.synthesis.end.bifunctor.objects == tuple(q.objects())
    assert sum(calls.values()) == 1


def test_route_agreement_reuses_the_synthesis_bifunctor(monkeypatch):
    q = heyting3()
    S = synthesize_cocone(q, three_object_span(q))
    calls = count_leg_tables(monkeypatch)
    checks = route_agreement(S.end, "direct")
    assert checks[-1].check == "end.route_agreement"
    assert all(c.passed for c in checks)
    assert sum(calls.values()) == 0


def test_cogenerator_end_scans_its_wedge_once(monkeypatch):
    q = heyting3()
    B = endo_exp_bifunctor(q, identity_endofunctor(q), q.objects())
    calls = Counter()
    real = cocompletion.wedge_violations

    def counted(B, fam):
        calls["wedge_violations"] += 1
        return real(B, fam)
    for module in (cocompletion, ends):
        monkeypatch.setattr(module, "wedge_violations", counted)
    assert all(c.passed for c in end_via_cogenerator(B).checks)
    assert calls == {"wedge_violations": 1}
    monkeypatch.setattr(cocompletion, "wedge_violations",
                        lambda B, fam: ["injected square"])
    with pytest.raises(NotAWedge, match="^injected square$"):
        end_via_cogenerator(B)


def test_cogenerator_end_certifies_one_leg_per_span(monkeypatch, capsys):
    q = heyting3()
    B = endo_exp_bifunctor(q, identity_endofunctor(q), q.objects())
    legs = []
    real = cocompletion.jointly_monic_violation

    def injected(A, arrows, domains):
        legs.append(arrows)
        return "injected" if len(legs) == 2 else real(A, arrows, domains)
    monkeypatch.setattr(cocompletion, "jointly_monic_violation", injected)
    via = end_via_cogenerator(B)
    assert [len(a) for a in legs] == [1] * len(B.objects)
    (mono,) = [c for c in via.checks if c.check == "end2.mono_certificates"]
    assert (mono.passed, mono.tag, mono.witness) == (
        False, "objects=3", "end2.cogen_leg_monic: injected")
    legs.clear()
    inst = Path(__file__).resolve().parent.parent / "docs" / "examples" / "heyting3.json"
    code = cli_main(["end", str(inst), "--functor", "identity", "--via", "cogenerator"])
    assert code == 1
    assert ("  FAIL  end2.mono_certificates  objects=3  "
            "witness=end2.cogen_leg_monic: injected\n") in capsys.readouterr().out


def test_cogenerator_end_reports_a_competitor_that_does_not_factor(monkeypatch, capsys):
    """With the first competitor's factorizations emptied, ``end2.universal``
    fails with that cone's witness, while ``end.universal``, which reads the
    unpatched ``limits.factorizations``, still passes."""
    real = cocompletion.factorizations

    def first_emptied(L):
        (c, _), *rest = real(L)
        return [(c, []), *rest]
    monkeypatch.setattr(cocompletion, "factorizations", first_emptied)
    inst = Path(__file__).resolve().parent.parent / "docs" / "examples" / "heyting3.json"
    code = cli_main(["end", str(inst), "--functor", "identity", "--via", "cogenerator"])
    out = capsys.readouterr().out
    assert code == 1
    assert "  FAIL  end2.universal  wedges=3  witness=cone at 0 has 0 factorizations\n" in out
    assert "end.universal" not in out


def test_cogenerator_mediate_closure_is_identity_on_projections():
    q = lukasiewicz_chain(3)
    F = identity_endofunctor(q)
    via = end_via_cogenerator(endo_exp_bifunctor(q, F, q.objects()))
    m = wedge_mediator(via.end, via.end.projections)
    assert m == q.identity(via.end.vertex)


def thin_end_oracle(q, spec):
    """The meet of {F(x) => x}: in a thin category the end of (x, y) |-> y^(F x)
    is the meet of its diagonal.  F is read from the raw tables."""
    name, _, e = spec.partition(":")
    F_ob = {"identity": lambda x: x,
            "constant": lambda x: e,
            "tensor": lambda x: q.tensor_obj(x, e),
            "exp-from": lambda x: res_oracle(q, e, x),
            "double-dual": lambda x: res_oracle(q, res_oracle(q, x, e), e)}[name]
    return meet_oracle(q, [res_oracle(q, F_ob(x), x) for x in q.elements])


def test_thin_ends_are_meets_of_the_diagonal():
    cases = [(q, "identity") for q in standard_quantales()]
    cases += [(q, f"{name}:{e}") for q in standard_quantales(6) for e in q.elements
              for name in ("constant", "tensor", "exp-from", "double-dual")]
    assert len(cases) == 62 + 4 * 94  # 22 quantales of at most 6 elements
    for q, spec in cases:
        F = endofunctor_from_spec(q, q.elements, spec)
        expected = thin_end_oracle(q, spec)
        direct = end_of(endo_exp_bifunctor(q, F, list(q.elements)))
        via = end_via_cogenerator(endo_exp_bifunctor(q, F, q.objects()))
        assert (direct.vertex, via.end.vertex) == (expected, expected), (q.name, spec)


def test_colimit_through_cogenerator_route():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    R = colimit_via_ends(q, d, end_route="cogenerator")
    assert R.vertex == "a"
    assert all(c.passed for c in R.checks)
    assert any(c.check.startswith("end2.") for c in R.checks)


# ---------------------------------------------------------------------------
# Random down-set frames


@st.composite
def downset_frames(draw):
    """The down-sets of a random poset on 1-4 points, a frame with meet as tensor,
    and up to three of its elements."""
    n = draw(st.integers(1, 4))
    # pairs only rise in index, so the relation has no cycles; its down-sets
    # are those of the order it generates
    below = {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    downsets = [s for s in (frozenset(i for i in range(n) if mask >> i & 1)
                            for mask in range(1 << n))
                if all(i in s for i, j in below if j in s)]
    label = lambda s: "{" + ",".join(map(str, sorted(s))) + "}"
    elems = [label(s) for s in downsets]
    leq = [(label(s), label(t)) for s in downsets for t in downsets if s <= t]
    q = heyting_from_lattice(f"downsets{n}:{sorted(below)}", elems, leq)
    return q, draw(st.lists(st.sampled_from(elems), max_size=3))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(downset_frames())
def test_colimit_via_ends_on_random_downset_frames(frame):
    q, xs = frame
    d = diagram_on_elements(q, xs)
    for route in ("direct", "cogenerator"):
        R = colimit_via_ends(q, d, end_route=route)
        assert R.vertex == join_oracle(q, xs), (q.name, xs, route)
        assert all(c.passed for c in R.checks), (q.name, xs, route)
    assert all(c.passed for c in law_suite(q, budget=200)), q.name
