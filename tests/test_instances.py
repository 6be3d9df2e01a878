import itertools
import random
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catend.config import SizeCaps
from catend.core import Arrow
from catend.errors import (InputError, NoResiduation, NotALattice,
                           TensorNotMonotone, TypeMismatch, WorkspaceBlowup)
from catend import finset
from catend.finset import FinSetFragment
from catend.quantale import (chain_leq, drastic_chain, godel_chain, lukasiewicz_chain,
                             powerset_quantale, product_quantale,
                             quantale_from_tables, standard_quantales)

from helpers import fn_table, heyting3, res_oracle


# ---------------------------------------------------------------------------
# Quantale construction and validation


def test_heyting3_residuation_values():
    q = heyting3()
    assert q.exp_obj("a", "0") == "0"      # a => 0
    assert q.exp_obj("0", "a") == "1"      # 0 => a
    assert q.exp_obj("a", "a") == "1"
    assert q.unit == "1" and q.top == "1" and q.bottom == "0"


def test_lukasiewicz3_tensor_and_residuation():
    q = lukasiewicz_chain(3)
    assert q.tensor_obj("1/2", "1/2") == "0"
    assert q.exp_obj("1/2", "0") == "1/2"  # 1/2 => 0
    assert q.exp_obj("1/2", "1") == "1"


def test_antisymmetry_violation_rejected():
    with pytest.raises(NotALattice) as e:
        quantale_from_tables("bad", ["x", "y"],
                             [("x", "y"), ("y", "x")],
                             {(a, b): "x" for a in "xy" for b in "xy"}, "x")
    assert any("antisymmetry" in v for v in e.value.violations)


def test_missing_meet_rejected():
    # two incomparable atoms with two incomparable uppers: no lub for the atoms
    elems = ["a", "b", "c", "d"]
    leq = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    with pytest.raises(NotALattice):
        quantale_from_tables("fence", elems, leq,
                             {(x, y): "a" for x in elems for y in elems}, "a")


def test_orders_without_a_top_are_rejected():
    with pytest.raises(NotALattice) as e:
        quantale_from_tables("empty", [], [], {}, "1")
    assert e.value.violations == ["no top element"]


def test_nonmonotone_tensor_rejected():
    elems = ["0", "1"]
    tensor = {("0", "0"): "1", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"}
    with pytest.raises(TensorNotMonotone) as e:
        quantale_from_tables("bad", elems, [("0", "1")], tensor, "1")
    assert any("monotonicity" in v for v in e.value.violations)


def test_missing_residual_rejected():
    # join as tensor is unital (unit = bottom) but y => z fails when y > z
    elems = ["0", "a", "1"]
    leq = list(chain_leq(elems))
    join = {}
    for x in elems:
        for y in elems:
            join[(x, y)] = x if elems.index(x) >= elems.index(y) else y
    with pytest.raises(NoResiduation):
        quantale_from_tables("join-chain", elems, leq, join, "0")


def test_residuation_matches_scan_oracle():
    rng = random.Random(3)
    for q in (heyting3(), lukasiewicz_chain(4), godel_chain(5), drastic_chain(4),
              powerset_quantale("pz2", *_z2()),
              product_quantale(godel_chain(3), lukasiewicz_chain(3))):
        elems = list(q.elements)
        pairs = [(y, z) for y in elems for z in elems]
        for y, z in rng.sample(pairs, min(30, len(pairs))):
            assert q.exp_obj(y, z) == res_oracle(q, y, z), (q.name, y, z)


def _z2():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    return ["e", "g"], table, "e"


def test_powerset_quantale_of_z2():
    q = powerset_quantale("pz2", *_z2())
    assert len(q.elements) == 4
    assert q.unit == "{e}"
    assert q.tensor_obj("{g}", "{g}") == "{e}"
    assert q.tensor_obj("{e,g}", "{e,g}") == "{e,g}"
    assert q.exp_obj("{g}", "{e}") == "{g}"


def test_standard_family_is_large_and_small_enough():
    qs = standard_quantales(max_size=16)
    assert len(qs) >= 50
    assert all(len(q.elements) <= 16 for q in qs)
    assert len({q.name for q in qs}) == len(qs)


# sweep's op order and the standard-family cache follow this order
STANDARD_NAMES = (
    [f"godel{n}" for n in range(2, 10)] + [f"lukasiewicz{n}" for n in range(2, 10)]
    + [f"drastic{n}" for n in range(3, 11)]
    + [f"godel2xgodel{n}" for n in (3, 4, 5, 6, 7, 8, 2)] + ["cube8", "cube16"]
    + ["godel3xgodel3", "godel3xgodel4", "godel3xgodel5", "godel4xgodel4",
       "lukasiewicz3xgodel2", "lukasiewicz3xlukasiewicz3", "lukasiewicz4xgodel2",
       "lukasiewicz3xgodel3", "lukasiewicz4xlukasiewicz4", "lukasiewicz5xgodel2",
       "lukasiewicz4xgodel3", "lukasiewicz5xgodel3", "lukasiewicz3xgodel4",
       "lukasiewicz3xgodel5", "drastic3xgodel2", "drastic3xgodel3", "drastic3xdrastic3",
       "lukasiewicz3xdrastic3", "drastic4xgodel2", "drastic4xgodel3"]
    + ["pw-z1", "pw-z2", "pw-z3", "pw-z4", "pw-v4", "pw-min3", "pw-and", "pw-or", "pw-mod4"])


def test_standard_family_order_is_pinned():
    assert len(STANDARD_NAMES) == 62
    assert [q.name for q in standard_quantales(max_size=16)] == STANDARD_NAMES


def test_hom_sets_are_thin_and_cogenerators_switch():
    q = heyting3()
    for x in q.elements:
        for y in q.elements:
            assert len(q.hom(x, y)) <= 1
    assert q.cogenerating_family == sorted(q.elements)
    assert q.with_cogenerators("empty").cogenerating_family == []
    with pytest.raises(TypeMismatch):
        q.with_cogenerators("some")


def test_quantale_arrows_are_built_once():
    q = heyting3()
    f = q.hom("0", "a")[0]
    assert f == Arrow("0", "a")
    assert q.compose(q.identity("a"), f) is f
    assert q.identity("a") is q.hom("a", "a")[0]
    assert q.with_cogenerators("empty").hom("0", "a")[0] is f
    assert q.hom("a", "0") == []
    with pytest.raises(TypeMismatch, match="no arrow a -> 0"):
        q.compose(Arrow("0", "0"), Arrow("a", "0"))
    with pytest.raises(TypeMismatch, match="unknown element z"):
        q.identity("z")


def test_quantale_typing_errors():
    q = heyting3()
    with pytest.raises(TypeMismatch):
        q.compose(Arrow("a", "1"), Arrow("0", "0"))
    with pytest.raises(TypeMismatch):
        q.identity("z")
    assert q.hom("1", "0") == []


def test_quantale_miss_path_messages_are_pinned():
    q = heyting3()
    f = q.hom("a", "1")[0]
    cases = [
        (lambda: q.compose(q.hom("0", "a")[0], q.hom("0", "a")[0]),
         "cannot compose 0->a after 0->a"),
        (lambda: q.compose(Arrow("1", "0"), f),          # a <= 0 fails
         "heyting3: no arrow a -> 0 (a <= 0 fails)"),
        (lambda: q.curry(f, "0", "1"), "curry: a->1 does not start at 0 . 1"),
        (lambda: q.curry(Arrow("z", "a"), "a", "a"), "curry: z->a does not start at a . a"),
        (lambda: q.curry(f, "z", "a"), "heyting3: tensor undefined on (z, a)"),
        # starts at 0 . a = 0, so only the residual a => z is missing
        (lambda: q.curry(Arrow("0", "z"), "0", "a"), "heyting3: residual undefined on (a, z)"),
        (lambda: q.uncurry(f, "a", "0"), "uncurry: a->1 does not end at 0^a"),
        (lambda: q.ev("z", "a"), "heyting3: residual undefined on (z, a)"),
        (lambda: q.ev("a", "z"), "heyting3: residual undefined on (a, z)"),
        (lambda: q.tensor_arr(Arrow("z", "z"), f), "heyting3: tensor undefined on (z, a)"),
        (lambda: q.tensor_arr(f, Arrow("a", "z")), "heyting3: tensor undefined on (1, z)"),
        (lambda: q.symmetry("z", "a"), "heyting3: tensor undefined on (z, a)"),
        (lambda: q.symmetry("a", "z"), "heyting3: tensor undefined on (a, z)"),
    ]
    for call, message in cases:
        with pytest.raises(TypeMismatch) as exc:
            call()
        assert str(exc.value) == message
    assert repr(q) == "QuantaleInstance(heyting3, 3 elements)"


# ---------------------------------------------------------------------------
# FinSet workspace


def small_ws(**kw):
    return FinSetFragment({"A": ["x", "y"], "B": ["u", "v", "w"]}, **kw)


def test_exponential_counts():
    A = small_ws()
    e = A.exp_obj("A", "A")   # A^A
    assert len(A.elements(e)) == 4
    e2 = A.exp_obj("A", "B")  # B^A
    assert len(A.elements(e2)) == 9
    assert len(A.hom("A", "B")) == 9


def test_ev_agrees_with_pointwise_application():
    A = small_ws()
    y, z = "A", "B"
    ev = A.ev(y, z)
    for h in A.hom(y, z):
        name = A.curry(A.compose(h, A.left_unitor(y)), A.unit, y)
        pt = A.apply(name, "*")
        for e in A.elements(y):
            assert A.apply(ev, f"({pt},{e})") == A.apply(h, e)


def test_curry_uncurry_roundtrip_and_tupling():
    A = small_ws()
    x, y, z = "A", "A", "B"
    xy = A.tensor_obj(x, y)
    rng = random.Random(1)
    for f in rng.sample(A.hom(xy, z), 5):
        g = A.curry(f, x, y)
        assert A.uncurry(g, y, z) == f
    for g in rng.sample(A.hom(x, A.exp_obj(y, z)), 5):
        assert A.curry(A.uncurry(g, y, z), x, y) == g


def test_workspace_caps_enforced():
    with pytest.raises(WorkspaceBlowup):
        ws = FinSetFragment({"C": list("abcdef")},
                            caps=SizeCaps(finset_exp_max=100))
        ws.exp_obj("C", "C")   # 6^6 tables
    ws = FinSetFragment({"B": list("ab"), "C": list("abcdef")},
                        caps=SizeCaps(finset_exp_max=100))
    with pytest.raises(WorkspaceBlowup, match=r"hom\(C, C\) has 6\^6 maps \(cap 100\)"):
        ws.hom("C", "C")       # raised by the call itself, before any map is read
    assert len(ws.hom("C", "B")) == 64
    ws = FinSetFragment({"C": list("abcdef")}, caps=SizeCaps(finset_exp_max=30))
    with pytest.raises(WorkspaceBlowup, match=r"^product \(C\*C\) would have 36 elements$"):
        ws.tensor_obj("C", "C")   # 36 pairs, refused before the set is built
    with pytest.raises(InputError):
        FinSetFragment({"I": ["*"]})


def test_finset_typing_errors_are_pinned():
    A = small_ws()
    f = A.make_arrow("A", "B", {"x": "u", "y": "v"})
    cases = [
        (lambda: A.compose(f, f), "cannot compose A->B[('u', 'v')] after A->B[('u', 'v')]"),
        (lambda: A.curry(f, "A", "A"), "curry: A->B[('u', 'v')] does not start at (A*A)"),
        (lambda: A.uncurry(f, "A", "B"), "uncurry: A->B[('u', 'v')] does not end at (B^A)"),
    ]
    for call, message in cases:
        with pytest.raises(TypeMismatch) as exc:
            call()
        assert str(exc.value) == message


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32), st.integers(0, 6))
@example(0, 3, 7, 1)    # empty source: one empty map
@example(2, 0, 7, 0)    # empty target: no map
@example(0, 0, 7, 1)
def test_finset_hom_is_an_indexed_view_in_product_order(n_src, n_tgt, seed, k):
    A = FinSetFragment({"S": [f"s{i}" for i in range(n_src)],
                        "T": [f"t{j}" for j in range(n_tgt)]})
    h = A.hom("S", "T")
    oracle = [Arrow("S", "T", t) for t in itertools.product(A.elements("T"), repeat=n_src)]
    assert isinstance(h, Sequence)
    assert list(h) == oracle
    assert [h[i] for i in range(len(h))] == oracle
    assert len(h) == n_tgt ** n_src == len(oracle)
    assert bool(h) == bool(oracle)
    for i in (len(h), -len(h) - 1):
        with pytest.raises(IndexError, match=f"hom\\(S, T\\) has no map {i}"):
            h[i]
    k = min(k, len(h))
    assert random.Random(seed).sample(h, k) == random.Random(seed).sample(oracle, k)
    if oracle:
        assert random.Random(seed).choice(h) == random.Random(seed).choice(oracle)


def test_finset_hom_indexes_and_slices_as_its_list():
    A = FinSetFragment({"P": ["p0", "p1"], "Q": ["q0", "q1", "q2"]})
    for a, b in (("P", "P"), ("P", "Q"), ("Q", "P")):
        h, listed = A.hom(a, b), list(A.hom(a, b))
        n = len(listed)
        for i in range(-n, n):
            assert h[i] == listed[i]
        bounds = [None, *range(-n - 2, n + 3)]
        for start, stop, step in itertools.product(bounds, bounds, (None, 1, 2, 3, -1, -2)):
            assert h[start:stop:step] == listed[start:stop:step]
        for i in (n, -n - 1):
            with pytest.raises(IndexError) as exc:
                h[i]
            assert str(exc.value) == f"hom({a}, {b}) has no map {i}"
        for i in ("0", 1.0, None):
            with pytest.raises(TypeError):
                h[i]
    h = A.hom("P", "P")
    assert h[-1] == Arrow("P", "P", ("p1", "p1"))
    assert h[0:2] == [Arrow("P", "P", ("p0", "p0")), Arrow("P", "P", ("p0", "p1"))]
    with pytest.raises(ValueError):
        h[::0]


def test_finset_hom_builds_only_the_arrows_read(monkeypatch):
    built = []

    def counting_arrow(*args):
        built.append(args)
        return Arrow(*args)

    monkeypatch.setattr(finset, "Arrow", counting_arrow)
    A = FinSetFragment({"C": ["c0", "c1", "c2"], "N": [f"n{i}" for i in range(9)]})
    h = A.hom("N", "C")                 # 3^9 = 19683 maps
    assert built == [] and len(h) == 19683
    random.Random(5).sample(h, 3)
    assert len(built) == 3


def test_make_arrow_rejects_bad_mappings():
    A = small_ws()
    with pytest.raises(TypeMismatch):
        A.make_arrow("A", "B", {"x": "u"})          # y unmapped
    with pytest.raises(TypeMismatch):
        A.make_arrow("A", "B", {"x": "u", "y": "q"})  # q not in B
    f = A.make_arrow("A", "B", {"x": "u", "y": "w"})
    assert fn_table(A, f) == {"x": "u", "y": "w"}


def test_composition_is_pointwise():
    A = small_ws()
    f = A.make_arrow("A", "B", {"x": "v", "y": "u"})
    g = A.make_arrow("B", "A", {"u": "x", "v": "y", "w": "x"})
    gf = A.compose(g, f)
    assert fn_table(A, gf) == {"x": "y", "y": "x"}
    assert A.compose(A.identity("B"), f) == f
    assert A.compose(f, A.identity("A")) == f
