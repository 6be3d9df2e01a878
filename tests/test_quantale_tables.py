"""Quantale construction on bitmask tables against the name-level scan oracle.

Every input must give the same outcome: the same error class and violation
list, in order, or the same validated instance.
"""

import hashlib
import inspect
import json
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catend import quantale
from catend.errors import CatendError, NoResiduation
from catend.quantale import (cyclic_monoid, drastic_chain, godel_chain,
                             lukasiewicz_chain, powerset_quantale, product_quantale,
                             quantale_from_tables, standard_quantales)

from helpers import quantale_from_tables_oracle

MAX_ELEMENTS = 9
NAMES = "abcdefghi"


def outcome(build, *args):
    try:
        q = build(*args)
    except CatendError as exc:
        return type(exc), exc.violations
    return q.elements, q._res, q.top, q.bottom, sorted(q._arrows), q._tensor, q.unit


def assert_same_outcome(*args):
    found = outcome(quantale_from_tables, *args)
    assert found == outcome(quantale_from_tables_oracle, *args)
    return found


def tables_of(q):
    """The arguments that rebuild q: name, elements, order, tensor and unit."""
    return q.name, list(q.elements), sorted(q._arrows), dict(q._tensor), q.unit


# ---------------------------------------------------------------------------
# Valid tables


def commutative_monoids(size):
    """Every commutative monoid table on e < m1 < ... with unit e, by exhaustion."""
    elems = ["e"] + [f"m{i}" for i in range(1, size)]
    rest = [(a, b) for i, a in enumerate(elems[1:], 1) for b in elems[i:]]
    out = []
    for values in product(elems, repeat=len(rest)):
        op = {}
        for x in elems:
            op[("e", x)] = op[(x, "e")] = x
        for (a, b), v in zip(rest, values):
            op[(a, b)] = op[(b, a)] = v
        if all(op[(op[(a, b)], c)] == op[(a, op[(b, c)])]
               for a in elems for b in elems for c in elems):
            out.append((elems, op, "e"))
    return out


# 1 table of order 1, 2 of order 2 and 9 of order 3, non-units named in order
MONOIDS = commutative_monoids(1) + commutative_monoids(2) + commutative_monoids(3)


@st.composite
def monoid_powersets(draw):
    """The powerset quantale of a random commutative monoid of order at most 3."""
    elems, op, unit = draw(st.sampled_from(MONOIDS))
    names = dict(zip(elems, draw(st.permutations(NAMES[:len(elems)]))))
    return powerset_quantale("pw", [names[x] for x in elems],
                             {(names[a], names[b]): names[v] for (a, b), v in op.items()},
                             names[unit])


def small_quantales():
    chains = [st.integers(2, MAX_ELEMENTS).map(f)
              for f in (godel_chain, lukasiewicz_chain)]
    chains.append(st.integers(3, MAX_ELEMENTS).map(drastic_chain))
    pairs = st.tuples(st.integers(2, 4), st.integers(2, 4)).filter(lambda p: p[0] * p[1] <= 9)
    products = pairs.map(lambda p: product_quantale(godel_chain(p[0]), lukasiewicz_chain(p[1])))
    return st.one_of(*chains, products, monoid_powersets())


# ---------------------------------------------------------------------------
# Perturbed and random tables


@st.composite
def perturbed(draw, base):
    """Tables drawn from base with one to three edits to the order, the
    tensor or the unit."""
    name, elems, leq, tensor, unit = draw(base)
    leq, tensor = set(leq), dict(tensor)
    edits = draw(st.lists(st.sampled_from(["drop pair", "add pair", "change entry",
                                           "delete entry", "move unit"]),
                          min_size=1, max_size=3))
    for edit in edits:
        if edit == "drop pair" and any(a != b for a, b in leq):
            leq.discard(draw(st.sampled_from(sorted((a, b) for a, b in leq if a != b))))
        elif edit == "add pair":
            leq.add((draw(st.sampled_from(elems)), draw(st.sampled_from(elems))))
        elif edit == "change entry":
            tensor[draw(st.sampled_from(sorted(tensor)))] = draw(st.sampled_from(elems))
        elif edit == "delete entry" and tensor:
            del tensor[draw(st.sampled_from(sorted(tensor)))]
        elif edit == "move unit":
            unit = draw(st.sampled_from(elems))
    return name, elems, sorted(leq), tensor, unit


@st.composite
def random_tables(draw):
    """An arbitrary relation and tensor, rarely even a partial order."""
    elems = list(NAMES[:draw(st.integers(0, 5))])
    cells = st.sampled_from(elems + ["ghost"]) if elems else st.just("ghost")
    leq = draw(st.lists(st.tuples(cells, cells), max_size=8))
    tensor = {(a, b): draw(cells) for a in elems for b in elems}
    return "random", elems, leq, tensor, draw(cells)


@st.composite
def closure_lattices(draw):
    """(elements, order) of a random lattice of at most 9 elements: subsets of
    {0, 1, 2, 3} closed under intersection, with the whole set, ordered by
    inclusion.  Small generating sets make M3 and N5 common."""
    family = {frozenset(range(4))} | set(map(frozenset, draw(st.lists(
        st.sets(st.integers(0, 3), min_size=1, max_size=2), max_size=5))))
    while True:
        meets = {s & t for s in family for t in family} - family
        if not meets:
            break
        family |= meets
    assume(len(family) <= MAX_ELEMENTS)
    family = sorted(family, key=sorted)
    names = dict(zip(family, draw(st.permutations(NAMES[:len(family)]))))
    leq = [(names[s], names[t]) for s in family for t in family if s <= t]
    return [names[s] for s in family], leq


@st.composite
def residual_failures(draw):
    """Lattices whose tensor is meet (a residual fails off distributive
    lattices) or join with unit bottom (x.y <= z fails for every x once y > z)."""
    elems, leq = draw(closure_lattices())
    below = {(a, b) for a, b in leq}
    meet, join = {}, {}
    for a in elems:
        for b in elems:
            lows = [c for c in elems if (c, a) in below and (c, b) in below]
            ups = [c for c in elems if (a, c) in below and (b, c) in below]
            meet[(a, b)] = next(m for m in lows if all((c, m) in below for c in lows))
            join[(a, b)] = next(m for m in ups if all((m, c) in below for c in ups))
    top = next(m for m in elems if all((c, m) in below for c in elems))
    bottom = next(m for m in elems if all((m, c) in below for c in elems))
    kind, tensor, unit = draw(st.sampled_from([("meet", meet, top), ("join", join, bottom)]))
    return kind, elems, leq, tensor, unit


@settings(derandomize=True, max_examples=300, deadline=None)
@given(perturbed(st.one_of(small_quantales().map(tables_of),
                           residual_failures().map(lambda t: ("lattice", *t[1:])))))
def test_perturbed_tables_match_scan_oracle(tables):
    assert_same_outcome(*tables)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_tables())
def test_random_tables_match_scan_oracle(tables):
    assert_same_outcome(*tables)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(monoid_powersets())
def test_monoid_powersets_match_scan_oracle(q):
    assert assert_same_outcome(*tables_of(q)) == outcome(lambda: q)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(residual_failures())
def test_residual_failures_match_scan_oracle(tables):
    found = assert_same_outcome(*tables)
    kind, elems = tables[:2]
    if kind == "join" and len(elems) > 1:
        assert found[0] is NoResiduation


def test_bench_instances_match_scan_oracle():
    """The 62 standard quantales and the five large instances of the scaling bench."""
    v4 = ["e", "x", "y", "z"]
    klein = {(a, b): v4[i ^ j] for i, a in enumerate(v4) for j, b in enumerate(v4)}
    large = [godel_chain(16), godel_chain(24), godel_chain(32),
             powerset_quantale("pw-v4", v4, klein, "e"),
             powerset_quantale("pw5", *cyclic_monoid(5))]
    qs = standard_quantales(max_size=16)
    assert len(qs) == 62
    for q in qs + large:
        assert assert_same_outcome(*tables_of(q)) == outcome(lambda: q), q.name


# sha256 of the JSON list of [name, elements, tensor rows, unit] over the 62
# standard quantales, captured before each family named only its operation
STANDARD_FAMILY_SHA256 = "56bbd60af88be89a890e42f83665389a65ac0a9baa6fa184ac8d871e1636a7e3"


def tensor_rows(q):
    return [[q.tensor_obj(a, b) for b in q.elements] for a in q.elements]


def test_standard_family_tables_are_pinned():
    rows = [[q.name, list(q.elements), tensor_rows(q), q.unit]
            for q in standard_quantales(max_size=16)]
    assert len(rows) == 62
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == STANDARD_FAMILY_SHA256
    assert tensor_rows(drastic_chain(3)) == [["c00", "c00", "c00"],
                                             ["c00", "c00", "c01"],
                                             ["c00", "c01", "c02"]]
    q = lukasiewicz_chain(3)   # rows and columns in sorted name order: 0, 1, 1/2
    assert q.elements == ("0", "1", "1/2")
    assert tensor_rows(q) == [["0", "0", "0"],
                              ["0", "1", "1/2"],
                              ["0", "1/2", "0"]]
    elements, op, unit = cyclic_monoid(3)
    assert (elements, unit) == (["g0", "g1", "g2"], "g0")
    assert [[op[(a, b)] for b in elements] for a in elements] == [["g0", "g1", "g2"],
                                                                 ["g1", "g2", "g0"],
                                                                 ["g2", "g0", "g1"]]


# The residual lookup, and the same lookup with one token changed: "|" for "&"
# makes every x count as below z, so each residual is the top element.  It
# still finds a residual for every pair, so only the adjunction replay sees it.
RESIDUAL_LOOKUP = "if down[k] >> v & 1))"
WRONG_RESIDUAL_LOOKUP = "if down[k] >> v | 1))"
REPLAY_START, REPLAY_END = "    zs_by_value = [", "    res = {(y, z)"


def mutant_builder(*edits):
    """quantale_from_tables compiled from its source with each (old, new)
    replaced once, in a copy of the module's namespace."""
    source = inspect.getsource(quantale.quantale_from_tables)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(quantale))
    exec(compile(source, quantale.__file__, "exec"), namespace)
    return namespace["quantale_from_tables"]


def test_adjunction_replay_catches_a_wrong_residual_lookup():
    tables = tables_of(godel_chain(3))
    assert outcome(mutant_builder(), *tables) == outcome(quantale_from_tables, *tables)
    wrong = mutant_builder((RESIDUAL_LOOKUP, WRONG_RESIDUAL_LOOKUP))
    with pytest.raises(NoResiduation) as err:
        wrong(*tables)
    assert err.value.violations[0] == "adjunction fails on (c01, c01, c00)"
    assert all(v.startswith("adjunction fails on (") for v in err.value.violations)

    source = inspect.getsource(quantale.quantale_from_tables)
    replay = source[source.index(REPLAY_START):source.index(REPLAY_END)]
    unchecked = mutant_builder((RESIDUAL_LOOKUP, WRONG_RESIDUAL_LOOKUP), (replay, ""))
    q = unchecked(*tables)
    assert set(q._res.values()) == {q.top}
