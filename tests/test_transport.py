import dataclasses
import itertools

import pytest

from catend.core import Arrow, Diagram, FinCatAmbient, diagram_on_elements, poset_category
from catend.errors import ValidationFailure
from catend.finset import FinSetFragment
from catend.limits import (Cone, LimitingCone, factorization_violations, factorizations,
                           limit_brute, limiting_violations)
from catend.quantale import godel_chain
from catend.transport import (iso_classes, pointwise_iso,
                              pointwise_naturality_violations,
                              reverse_equivalence, skeletonize,
                              transport_limit)

from helpers import (equivalence_violations, forked_ambient, heyting3, involution_category,
                     identity_equivalence, monotone_diagram, preorder_category, relabel_equivalence,
                     thin_diagram, validate_equivalence)


def chain_diagram():
    q = heyting3()
    shape = preorder_category(["i", "j"], {("i", "j")})
    return q, thin_diagram(q, shape, {"i": "0", "j": "a"})


# ---------------------------------------------------------------------------
# Equivalences validate and carry limits across


def test_identity_equivalence_is_valid_and_transports():
    q, d = chain_diagram()
    E = validate_equivalence(identity_equivalence(d))
    L1 = limit_brute(q, d)
    L2, checks = transport_limit(E, L1)
    assert all(c.passed for c in checks)
    assert L2.vertex == L1.vertex
    assert limiting_violations(L2) == []


def test_relabel_equivalence_transports():
    q, d = chain_diagram()
    E = validate_equivalence(relabel_equivalence(d))
    assert set(E.d2.shape.objects) == {"r:i", "r:j"}
    L2, checks = transport_limit(E, limit_brute(q, d))
    assert all(c.passed for c in checks)
    assert L2.vertex == "0"
    assert limiting_violations(L2) == []


def test_skeletonize_collapses_duplicate_objects():
    q = heyting3()
    shape = preorder_category(["s0", "s0b", "t"],
                              {("s0", "s0b"), ("s0b", "s0"), ("s0", "t")})
    d = thin_diagram(q, shape, {"s0": "a", "s0b": "a", "t": "1"})
    E = validate_equivalence(skeletonize(d))
    assert set(E.d2.shape.objects) == {"s0", "t"}
    L2, checks = transport_limit(E, limit_brute(q, d))
    assert all(c.passed for c in checks)
    assert L2.vertex == "a"
    assert limiting_violations(L2) == []


def test_skeletonize_indiscrete_shape_to_a_point():
    q = heyting3()
    xs = ["x0", "x1", "x2"]
    shape = poset_category(xs, set(itertools.product(xs, repeat=2)))
    d = Diagram(source=shape, target=q,
                ob={x: "a" for x in shape.objects},
                ar={a: q.identity("a") for a in shape.arrow_ids()})
    assert iso_classes(shape) == {"x0": "x0", "x1": "x0", "x2": "x0"}
    E = validate_equivalence(skeletonize(d))
    assert list(E.d2.shape.objects) == ["x0"]
    L2, checks = transport_limit(E, limit_brute(q, d))
    assert all(c.passed for c in checks)
    assert L2.vertex == "a"


def test_skeletonize_on_skeletal_shape_keeps_everything():
    q, d = chain_diagram()
    E = skeletonize(d)
    assert set(E.d2.shape.objects) == set(d.shape.objects)
    assert all(E.forward.ob[x] == x for x in d.shape.objects)


def test_pointwise_iso_is_natural():
    q, d = chain_diagram()
    for E in (identity_equivalence(d), relabel_equivalence(d), skeletonize(d)):
        delta = pointwise_iso(E)
        assert pointwise_naturality_violations(E, delta) == []


def test_reverse_equivalence_round_trips_the_vertex():
    q, d = chain_diagram()
    E = validate_equivalence(relabel_equivalence(d))
    L2, _ = transport_limit(E, limit_brute(q, d))
    R = validate_equivalence(reverse_equivalence(E))
    L1b, checks = transport_limit(R, L2)
    assert all(c.passed for c in checks)
    assert L1b.vertex == limit_brute(q, d).vertex
    assert limiting_violations(L1b) == []


def test_transport_on_random_monotone_diagrams():
    import random
    rng = random.Random(23)
    q = godel_chain(5)
    shape = preorder_category(["u", "v", "w"], {("u", "v"), ("u", "w")})
    for _ in range(10):
        d = monotone_diagram(q, shape, rng)
        for E in (relabel_equivalence(d), skeletonize(d)):
            validate_equivalence(E)
            L2, checks = transport_limit(E, limit_brute(q, d))
            assert all(c.passed for c in checks)
            assert limiting_violations(L2) == []


# ---------------------------------------------------------------------------
# Broken equivalence data is reported


def test_non_invertible_gamma_detected():
    A = FinSetFragment({"P": ["p0", "p1"]})
    d = diagram_on_elements(A, ["P"])
    E = identity_equivalence(d)
    collapse = A.make_arrow("P", "P", {"p0": "p0", "p1": "p0"})
    bad = dataclasses.replace(E, gamma={"n0": collapse})
    out = equivalence_violations(bad)
    assert any("not invertible" in v for v in out)
    with pytest.raises(ValidationFailure):
        validate_equivalence(bad)


def test_unnatural_gamma_detected():
    A = FinSetFragment({"P": ["p0", "p1"], "Q": ["q0", "q1"]})
    shape = preorder_category(["i", "j"], {("i", "j")})
    f = A.make_arrow("P", "Q", {"p0": "q0", "p1": "q1"})
    d = Diagram(source=shape, target=A,
                ob={"i": "P", "j": "Q"},
                ar={shape.id_of("i"): A.identity("P"),
                    shape.id_of("j"): A.identity("Q"),
                    "le:i:j": f})
    E = identity_equivalence(d)
    flip = A.make_arrow("P", "P", {"p0": "p1", "p1": "p0"})
    bad = dataclasses.replace(E, gamma={"i": flip, "j": A.identity("Q")})
    out = equivalence_violations(bad)
    assert any("not natural" in v for v in out)


def test_wrong_counit_detected():
    q, d = chain_diagram()
    E = relabel_equivalence(d)
    bad = dataclasses.replace(E, counit={"r:i": "r:le:i:i", "r:j": "r:le:i:j"})
    out = equivalence_violations(bad)
    assert any("counit" in v for v in out)


def test_mistyped_gamma_detected():
    q, d = chain_diagram()
    E = identity_equivalence(d)
    bad = dataclasses.replace(E, gamma={"i": q.hom("0", "a")[0],
                                        "j": q.identity("a")})
    out = equivalence_violations(bad)
    assert any(v.startswith("gamma[i]") for v in out)


# ---------------------------------------------------------------------------
# Universality replay failures are reported with their first witness


def _entries(checks):
    return {c.check: (c.passed, c.witness) for c in checks}


def test_transport_reports_a_cone_that_does_not_factor():
    q = heyting3()
    shape = preorder_category(["s0", "s0b", "t"],
                              {("s0", "s0b"), ("s0b", "s0"), ("s0", "t")})
    d = thin_diagram(q, shape, {"s0": "a", "s0b": "a", "t": "1"})
    # 0 is a lower bound of the diagram but not the greatest one
    claimed = Cone(d, "0", {i: q.hom("0", d.ob[i])[0] for i in d.shape.objects})
    L2, checks = transport_limit(skeletonize(d), LimitingCone(cone=claimed))
    assert _entries(checks)["transport.universal"] == (False, "cone at a has 0 factorizations")
    # the entry shows the first witness; no other competitor fails the rule
    assert factorization_violations(L2, factorizations(L2)) == [
        "cone at a has 0 factorizations"]


def forked_claim():
    """The cone (i, f) over the object j, claimed limiting with a first-arrow mediator."""
    A = forked_ambient()
    d = diagram_on_elements(A, ["j"])
    claimed = Cone(d, "i", {"n0": A.hom("i", "j")[0]})
    return A, d, LimitingCone(cone=claimed, mediate=lambda c: A.hom(c.vertex, "i")[0])


def test_limiting_violations_counts_missing_and_duplicate_factorizations():
    _, _, L = forked_claim()
    assert limiting_violations(L) == ["cone at j has 0 factorizations",
                                         "cone at k has 2 factorizations"]


def test_transport_reports_missing_and_duplicate_factorizations():
    A, d, L = forked_claim()
    L2, checks = transport_limit(identity_equivalence(d), L)
    assert _entries(checks)["transport.universal"] == (False, "cone at j has 0 factorizations")
    assert factorization_violations(L2, factorizations(L2)) == [
        "cone at j has 0 factorizations", "cone at k has 2 factorizations"]


def test_transport_reports_a_pointwise_iso_that_is_not_natural():
    """Both nodes of i -> j sit at w, the arrow at the identity; an involution
    s as the comparison iso at i alone makes the square at i -> j fail."""
    A = FinCatAmbient(involution_category())
    shape = poset_category(["i", "j"], {("i", "j")})
    d = Diagram(source=shape, target=A, ob={"i": "w", "j": "w"},
                ar={a: A.identity("w") for a in shape.arrow_ids()})
    s = Arrow("w", "w", "s")
    E = dataclasses.replace(identity_equivalence(d), gamma={"i": s, "j": A.identity("w")})
    delta = pointwise_iso(E)
    assert delta == {"i": s, "j": A.identity("w")}
    assert pointwise_naturality_violations(E, delta) == [
        "pointwise iso not natural at shape arrow le:i:j"]
    _, checks = transport_limit(E, limit_brute(A, d))
    assert _entries(checks)["transport.pointwise_natural"] == (
        False, "pointwise iso not natural at shape arrow le:i:j")
