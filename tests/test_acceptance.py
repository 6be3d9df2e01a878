"""End-to-end acceptance runs: one test per headline guarantee.

Each test prints a single summary line; the numbers in the asserts are the
advertised floors (instance counts, case counts, wall-clock budget), not
tuning knobs.
"""

import random
import time

from catend.cocompletion import (Endofunctor, LimExpEndofunctor,
                                 colimit_via_ends, constant_endofunctor,
                                 double_dual_endofunctor, end_via_cogenerator,
                                 endo_exp_bifunctor, exp_from_endofunctor,
                                 identity_endofunctor, tensor_endofunctor)
from catend.core import Diagram, FinCatAmbient, diagram_on_elements
from catend.ends import end_of
from catend.finset import FinSetFragment
from catend.limits import (Cocone, colimit_brute, jointly_monic_violation,
                           limit_brute, limiting_violations)
from catend.quantale import (drastic_chain, godel_chain, lukasiewicz_chain,
                             powerset_quantale, standard_quantales)
from catend.smcc import cocone_element, ev_at, exp_diagram, law_suite, swap_arg
from catend.transport import reverse_equivalence, skeletonize, transport_limit

from helpers import (heyting3, identity_equivalence, initial_object, join_oracle,
                     law_case_count, meet_oracle, monotone_diagram,
                     preorder_category, relabel_equivalence, shape_pool,
                     thin_cocone, validate_equivalence)


def pz2():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    return powerset_quantale("pz2", ["e", "g"], table, "e")


def test_criterion_1_colimits_match_the_lattice_oracle():
    qs = standard_quantales(max_size=16)
    assert len(qs) >= 50
    assert all(len(q.elements) <= 16 for q in qs)
    # the family mixes meet-tensor, bounded-sum, and powerset-convolution instances
    assert any(all(q.tensor_obj(x, y) == meet_oracle(q, [x, y])
                   for x in q.elements for y in q.elements) for q in qs)
    assert any(q.name.startswith("lukasiewicz") for q in qs)
    assert any(q.name.startswith("pw") for q in qs)
    shapes = shape_pool()
    assert len(shapes) >= 10
    assert all(len(s.objects) <= 5 for s in shapes)

    rng = random.Random(101)
    start = time.monotonic()
    runs = 0
    for q in qs:
        for shape in shapes:
            d = monotone_diagram(q, shape, rng)
            R = colimit_via_ends(q, d, cross_check=False)
            want = join_oracle(q, [d.ob[i] for i in shape.objects])
            assert R.vertex == want, (q.name, list(shape.objects), R.vertex, want)
            assert all(c.passed for c in R.checks), \
                (q.name, [c for c in R.checks if not c.passed])
            runs += 1
    elapsed = time.monotonic() - start
    assert runs == len(qs) * len(shapes)
    assert runs >= 500
    assert elapsed < 60.0, f"{runs} runs took {elapsed:.1f}s"
    print(f"criterion 1: PASS - {runs} diagrams over {len(qs)} instances, "
          f"vertex equals the scan-oracle join every time, {elapsed:.1f}s")


def test_criterion_2_three_worked_colimits():
    q = heyting3()
    d = diagram_on_elements(q, ["a", "0"])
    R = colimit_via_ends(q, d)
    assert R.vertex == "a" == colimit_brute(d).vertex
    assert all(c.passed for c in R.checks)

    l3 = lukasiewicz_chain(3)
    d2 = diagram_on_elements(l3, ["1/2"])
    R2 = colimit_via_ends(l3, d2)
    assert R2.vertex == "1/2" == colimit_brute(d2).vertex
    assert all(c.passed for c in R2.checks)

    d3 = diagram_on_elements(q, [])
    R3 = colimit_via_ends(q, d3)
    assert R3.vertex == q.bottom == colimit_brute(d3).vertex
    assert all(c.passed for c in R3.checks)
    print("criterion 2: PASS - worked colimits a, 1/2, and bottom all match "
          "the brute-force oracle")


def test_criterion_3_identity_laws_exact_everywhere():
    qs = standard_quantales(max_size=16)
    core = {"smcc.swap_involution", "smcc.unit_name_swap",
            "smcc.swap_precompose", "smcc.swap_postcompose",
            "smcc.symmetry_involution", "smcc.symmetry_unitors"}
    for q in qs:
        entries = law_suite(q, budget=200, seed=3)
        assert {e.check for e in entries} >= core
        for e in entries:
            assert e.passed, (q.name, e.check, e.witness)

    ws = FinSetFragment({"A": ["a0"], "B": ["b0", "b1"], "C": ["c0", "c1", "c2"]})
    entries = law_suite(ws, objects=["A", "B", "C", "I"], budget=1000, seed=5)
    for e in entries:
        assert e.passed, (e.check, e.witness)
    cases = law_case_count(entries)
    assert cases >= 1000
    print(f"criterion 3: PASS - identity laws exact on {len(qs)} lattice "
          f"instances and {cases} sampled set-map cases")


def test_criterion_4_evaluation_recovers_every_cocone_leg():
    rng = random.Random(7)
    small_shapes = [s for s in shape_pool() if 1 <= len(s.objects) <= 3][:5]
    count_q = 0
    for q in (heyting3(), lukasiewicz_chain(4), godel_chain(5), pz2()):
        for shape in small_shapes:
            d = monotone_diagram(q, shape, rng)
            ubs = [u for u in sorted(q.elements)
                   if all(q.hom(d.ob[i], u) for i in d.shape.objects)]
            for u in ubs[:3]:
                delta = thin_cocone(q, d, u)
                lim = limit_brute(q, exp_diagram(q, d, u))
                elt, checks = cocone_element(q, delta, lim)
                assert all(c.passed for c in checks), (q.name, u)
                for i in d.shape.objects:
                    got = q.compose(ev_at(q, elt, u),
                                    swap_arg(q, lim.edges[i], d.ob[i], u))
                    assert got == delta.edges[i]
                count_q += 1

    ws = FinSetFragment({"S0": ["a0", "a1"], "S1": ["b0"], "D": ["x", "y"]})
    chain = preorder_category(["i", "j"], {("i", "j")})
    count_f = 0
    for n in range(80):
        if n % 4 == 3:
            u = "D"
            f = rng.choice(ws.hom("S0", "S1"))
            d = Diagram(source=chain, target=ws,
                        ob={"i": "S0", "j": "S1"},
                        ar={chain.id_of("i"): ws.identity("S0"),
                            chain.id_of("j"): ws.identity("S1"),
                            "le:i:j": f})
            ej = rng.choice(ws.hom("S1", "D"))
            edges = {"j": ej, "i": ws.compose(ej, f)}
        else:
            u = "D" if n % 2 == 0 else "S1"
            while True:
                chosen = [rng.choice(["S0", "S1", "D"])
                          for _ in range(rng.randint(1, 3))]
                # keep the exponential over the product vertex enumerable
                bound = 1
                for s in chosen:
                    bound *= len(ws.elements(u)) ** len(ws.elements(s))
                if len(ws.elements(u)) ** bound <= 32768:
                    break
            d = diagram_on_elements(ws, chosen)
            edges = {f"n{k}": rng.choice(ws.hom(s, u))
                     for k, s in enumerate(chosen)}
        delta = Cocone(d, u, edges)
        lim = limit_brute(ws, exp_diagram(ws, d, u))
        elt, checks = cocone_element(ws, delta, lim)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        for i in d.shape.objects:
            got = ws.compose(ev_at(ws, elt, u),
                             swap_arg(ws, lim.edges[i], d.ob[i], u))
            assert got == delta.edges[i]
        count_f += 1

    assert count_q and count_f and count_q + count_f >= 100
    print(f"criterion 4: PASS - evaluation at the packaged element returns "
          f"every leg on {count_q + count_f} cocones "
          f"({count_q} lattice, {count_f} set-map)")


def test_criterion_5_transported_limits_stay_limiting():
    rng = random.Random(13)
    pairs = 0
    collapsed = 0
    for q in (heyting3(), godel_chain(5), pz2()):
        for shape in shape_pool():
            d = monotone_diagram(q, shape, rng)
            L = limit_brute(q, d)

            for E in (identity_equivalence(d),
                      validate_equivalence(relabel_equivalence(d))):
                L2, checks = transport_limit(E, L)
                assert all(c.passed for c in checks)
                assert L2.vertex == L.vertex
                assert limiting_violations(q, L2) == []
                pairs += 1

            S = validate_equivalence(skeletonize(d))
            if len(S.d2.shape.objects) < len(shape.objects):
                collapsed += 1
            L3, checks = transport_limit(S, L)
            assert all(c.passed for c in checks)
            assert L3.vertex == L.vertex
            assert limiting_violations(q, L3) == []
            pairs += 1

            back = validate_equivalence(reverse_equivalence(S))
            L4, checks = transport_limit(back, L3)
            assert all(c.passed for c in checks)
            assert L4.vertex == L.vertex
            assert limiting_violations(q, L4) == []
            pairs += 1
    assert pairs >= 100
    assert collapsed > 0        # the duplicate-object shapes really skeletonize
    print(f"criterion 5: PASS - {pairs} transported limits re-verified with "
          f"the vertex unchanged ({collapsed} proper skeletonizations, "
          "each round-tripped)")


def _endofunctor_family(q):
    elems = sorted(q.elements)
    fam = [identity_endofunctor(q)]
    for c in elems:
        fam.append(constant_endofunctor(q, c))
        fam.append(tensor_endofunctor(q, c))
        fam.append(exp_from_endofunctor(q, c))
        fam.append(double_dual_endofunctor(q, c))
    for c in elems:
        F, G = tensor_endofunctor(q, c), double_dual_endofunctor(q, c)
        fam.append(Endofunctor(q, f"comp[{c}]",
                               ob=lambda x, F=F, G=G: F.ob(G.ob(x)),
                               ar=lambda f, F=F, G=G: F.ar(G.ar(f))))
        H, K = exp_from_endofunctor(q, c), tensor_endofunctor(q, c)
        fam.append(Endofunctor(q, f"comp2[{c}]",
                               ob=lambda x, H=H, K=K: H.ob(K.ob(x)),
                               ar=lambda f, H=H, K=K: H.ar(K.ar(f))))
    for sub in ([], elems[:1], elems[:2]):
        F = LimExpEndofunctor(q, diagram_on_elements(q, sub))
        F.name = f"limexp{len(sub)}"
        fam.append(F)
    return fam


def test_criterion_6_cogenerator_route_matches_direct_ends():
    instances = (heyting3(), lukasiewicz_chain(3), godel_chain(4), pz2())
    total = 0
    certs = 0
    for q in instances:
        universe = sorted(q.elements)
        fam = _endofunctor_family(q)
        assert len(fam) >= 20
        assert any(isinstance(F, LimExpEndofunctor) for F in fam)
        for F in fam:
            direct = end_of(endo_exp_bifunctor(q, F, universe))
            via = end_via_cogenerator(endo_exp_bifunctor(q, F, universe))
            name = getattr(F, "name", "?")
            assert via.end.vertex == direct.vertex, (q.name, name)
            assert all(c.passed for c in via.checks), (q.name, name)
            for X, (_, m, _) in via.spans.items():
                assert jointly_monic_violation(q, [m], domains=q.objects()) is None, (q.name, name, X)
                certs += 1
            total += 1
    print(f"criterion 6: PASS - {total} endofunctors across {len(instances)} "
          f"instances agree with the direct end; {certs} mono certificates "
          "re-verified by cancellation")


def test_criterion_7_refinement_is_the_initial_cocone():
    rng = random.Random(29)
    instances = (heyting3(), godel_chain(4), lukasiewicz_chain(4),
                 drastic_chain(4), pz2())
    checked = 0
    for q in instances:
        for shape in shape_pool()[:6]:
            d = monotone_diagram(q, shape, rng)
            R = colimit_via_ends(q, d, cross_check=False)
            cc = R.cocone_category
            ref = R.refinement
            assert ref.vertex == initial_object(cc), (q.name, list(shape.objects))
            amb = FinCatAmbient(cc)
            assert amb.compose(ref.retraction, ref.inclusion) == amb.identity(ref.vertex)
            assert all(c.passed for c in ref.checks)
            checked += 1
    assert checked == len(instances) * 6
    print(f"criterion 7: PASS - refinement output equals the initial object "
          f"with a verified retraction on all {checked} materialized cocone "
          "categories")


def test_criterion_8_cogenerating_family_choice_is_irrelevant():
    rng = random.Random(31)
    qs = [q for q in standard_quantales(max_size=16) if len(q.elements) <= 6][:10]
    assert len(qs) == 10
    for q in qs:
        elems = sorted(q.elements)
        sub = rng.sample(elems, min(2, len(elems)))
        empty = q.with_cogenerators("empty")
        assert q.cogenerating_family and not empty.cogenerating_family

        F_full = LimExpEndofunctor(q, diagram_on_elements(q, sub))
        F_empty = LimExpEndofunctor(empty, diagram_on_elements(empty, sub))
        v_full = end_via_cogenerator(endo_exp_bifunctor(q, F_full, q.objects())).end.vertex
        v_empty = end_via_cogenerator(
            endo_exp_bifunctor(empty, F_empty, empty.objects())).end.vertex
        assert v_full == v_empty, q.name
        assert v_full == end_of(endo_exp_bifunctor(q, F_full, elems)).vertex

        R_full = colimit_via_ends(q, diagram_on_elements(q, sub),
                                  cross_check=False, end_route="cogenerator")
        R_empty = colimit_via_ends(empty, diagram_on_elements(empty, sub),
                                   cross_check=False, end_route="cogenerator")
        assert R_full.vertex == R_empty.vertex == join_oracle(q, sub)
    print(f"criterion 8: PASS - full and empty cogenerating families give "
          f"identical end and colimit vertices on {len(qs)} instances")
