"""The category law scan against the all-pairs oracle, on valid and broken tables."""

from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from catend.cocompletion import endo_exp_bifunctor, identity_endofunctor
from catend.core import build_category, category_violations, discrete_category
from catend.ends import subdivision
from catend.quantale import (cyclic_monoid, godel_chain, lukasiewicz_chain,
                             product_quantale)

from helpers import (category_violations_oracle, clique_category, involution_category,
                     preorder_category, shape_pool, split_idempotent_category)


def monoid_category(elements, op, unit):
    """A monoid as a category on one object."""
    return build_category(["m"], {a: ("m", "m") for a in elements}, dict(op), {"m": unit})


def subdivision_shape(q):
    return subdivision(endo_exp_bifunctor(q, identity_endofunctor(q), q.objects())).shape


THIN = shape_pool() + [subdivision_shape(q) for q in (
    godel_chain(3), lukasiewicz_chain(4), product_quantale(godel_chain(2), godel_chain(2)))]
# groupoid cliques, shaped like the spans glued in end_via_cogenerator
THIN += [clique_category(k) for k in range(1, 7)]
MIN3 = ([f"m{i}" for i in range(3)],
        {(f"m{i}", f"m{j}"): f"m{min(i, j)}" for i in range(3) for j in range(3)}, "m2")
# tables with parallel arrows, where a composite can be re-pointed and keep its endpoints
PARALLEL = [split_idempotent_category(), involution_category(),
            monoid_category(*cyclic_monoid(3)), monoid_category(*MIN3)]
PARALLEL += [clique_category(k, 2) for k in range(1, 7)]

# breakages that every table they apply to must report
DETECTED = ("gap", "non-composable entry", "ghost key", "unknown composite",
            "wrong endpoints", "identity law")
# re-pointing a composite of two non-identities may or may not break associativity
BREAKAGES = DETECTED + ("composite re-pointed",)


@st.composite
def preorders(draw):
    n = draw(st.integers(1, 4))
    elems = [f"p{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)),
                          max_size=6))
    return preorder_category(elems, pairs)


def breakages(kind, arrows, composition, identities):
    """Every (composition key, new composite) that applies ``kind`` to the
    tables; a composite of None deletes the key."""
    ids, keys = sorted(arrows), sorted(composition)
    expected = lambda k: (arrows[k[1]][0], arrows[k[0]][1])
    is_id = lambda a: identities[arrows[a][0]] == a
    if kind == "gap":
        return [(k, None) for k in keys]
    if kind == "non-composable entry":
        return [((g, f), g) for g in ids for f in ids if arrows[f][1] != arrows[g][0]]
    if kind == "ghost key":
        return [(("ghost", f), f) for f in ids] + [((f, "ghost"), f) for f in ids]
    if kind == "unknown composite":
        return [(k, "ghost") for k in keys]
    if kind == "wrong endpoints":
        return [(k, r) for k in keys for r in ids if arrows[r] != expected(k)]
    if kind in ("identity law", "composite re-pointed"):
        return [(k, r) for k in keys for r in ids
                if arrows[r] == expected(k) and r != composition[k]
                and (is_id(k[0]) or is_id(k[1])) == (kind == "identity law")]
    return []


def edited(composition, key, composite):
    out = dict(composition)
    if composite is None:
        del out[key]
    else:
        out[key] = composite
    return out


@st.composite
def law_tables(draw):
    """(breakages applied, objects, arrows, composition, identities): a valid
    table with up to three breakages, each on its own composition key."""
    kinds = draw(st.lists(st.sampled_from(BREAKAGES), max_size=3))
    if {"identity law", "composite re-pointed"} & set(kinds):
        cat = draw(st.sampled_from(PARALLEL))
    else:
        cat = draw(st.one_of(st.sampled_from(THIN + PARALLEL), preorders()))
    composition, applied = dict(cat.composition), []
    for kind in kinds:
        options = [(key, composite) for key, composite
                   in breakages(kind, cat.arrows, cat.composition, cat.identities)
                   if composition.get(key) == cat.composition.get(key)]
        if options:
            key, composite = draw(st.sampled_from(options))
            composition = edited(composition, key, composite)
            applied.append(kind)
    identities = dict(cat.identities)
    if cat.arrows and draw(st.booleans()):  # a key that is no object, naming any arrow
        identities["ghost"] = draw(st.sampled_from(sorted(cat.arrows)))
    return applied, cat.objects, cat.arrows, composition, identities


@settings(derandomize=True, max_examples=300, deadline=None)
@given(law_tables())
def test_law_scan_matches_all_pairs_oracle(table):
    applied, *tables = table
    found = category_violations(*tables)
    assert found == category_violations_oracle(*tables)
    ghost = ["identity given for unknown object ghost"] if "ghost" in tables[3] else []
    assert found[len(found) - len(ghost):] == ghost
    if not applied:
        assert found == ghost
    elif set(DETECTED) & set(applied):
        assert len(found) > len(ghost)


def test_each_breakage_is_named_like_the_oracle_names_it():
    """One fixed breakage per message kind, down to the associativity scan."""
    cat = split_idempotent_category()
    cases = [
        ("composition gap (e, e)", ("e", "e"), None),
        ("composition entry for non-composable pair (u, u)", ("u", "u"), "u"),
        ("composition entry (ghost, e) names an unknown arrow", ("ghost", "e"), "e"),
        ("composite (e, e) names unknown arrow ghost", ("e", "e"), "ghost"),
        ("composite r of (e, e) has endpoints w->v, expected w->w", ("e", "e"), "r"),
        ("identity law fails: id_w after e != e", ("id:w", "e"), "id:w"),
        ("non-associative triple (h=e, g=u, f=r)", ("e", "e"), "id:w"),
    ]
    for message, key, composite in cases:
        tables = (cat.objects, cat.arrows, edited(cat.composition, key, composite),
                  cat.identities)
        found = category_violations(*tables)
        assert found == category_violations_oracle(*tables)
        assert message in found, (message, found)
    # a failed identity law keeps identities in the associativity scan
    tables = (cat.objects, cat.arrows, edited(cat.composition, ("id:w", "e"), "id:w"),
              cat.identities)
    found = category_violations(*tables)
    assert found == category_violations_oracle(*tables)
    assert found == ["identity law fails: id_w after e != e",
                     "non-associative triple (h=id:w, g=u, f=r)"]
    # several pair findings come out sorted by (g, f), not in table order
    composition = edited(edited(cat.composition, ("u", "u"), "u"), ("e", "e"), None)
    found = category_violations(cat.objects, cat.arrows, composition, cat.identities)
    assert found == ["composition gap (e, e)",
                     "composition entry for non-composable pair (u, u)"]


class CountingMapping(Mapping):
    """A read-only table that counts its lookups."""

    def __init__(self, table):
        self.table = table
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_law_scan_looks_up_only_composable_pairs():
    n = 200
    cat = discrete_category([f"x{i:03d}" for i in range(n)])
    composition = CountingMapping(cat.composition)
    assert category_violations(cat.objects, cat.arrows, composition, cat.identities) == []
    # an all-pairs scan makes n * n lookups; 200 identities compose in 200 pairs
    assert composition.lookups < n * n / 10


def test_re_pointed_clique_composite_matches_oracle():
    """One non-identity composite of each clique re-pointed: to a parallel
    arrow when there is one (the associativity scan must find it), else to
    any other arrow (the endpoint check must)."""
    for k in range(2, 7):
        for m in (1, 2):
            cat = clique_category(k, m)
            keys = [key for key in sorted(cat.composition)
                    if not any(cat.is_identity_id(a) for a in key)]
            key = keys[len(keys) // 2]
            old = cat.composition[key]
            others = [r for r in sorted(cat.arrows) if r != old]
            parallel = [r for r in others if cat.arrows[r] == cat.arrows[old]]
            tables = (cat.objects, cat.arrows, edited(cat.composition, key, (parallel or others)[0]),
                      cat.identities)
            found = category_violations(*tables)
            assert found == category_violations_oracle(*tables)
            kind = "non-associative triple" if m > 1 else "has endpoints"
            assert found and all(kind in v for v in found), (k, m, found)


def test_law_scan_looks_up_pairs_not_triples():
    cat = clique_category(6)
    triples = sum(1 for h in cat.arrows for g in cat.arrows for f in cat.arrows
                  if cat.tgt(f) == cat.src(g) and cat.tgt(g) == cat.src(h))
    composition = CountingMapping(cat.composition)
    assert category_violations(cat.objects, cat.arrows, composition, cat.identities) == []
    oracle = CountingMapping(cat.composition)
    assert category_violations_oracle(cat.objects, cat.arrows, oracle, cat.identities) == []
    # a per-triple scan makes several lookups per composable triple; this one
    # reads each of the 216 composable pairs once
    assert composition.lookups < triples / 4
    assert composition.lookups < oracle.lookups / 4


def test_stray_identity_key_is_not_taken_for_an_identity():
    """``identities`` may carry a key that is no object; the arrow it names
    must stay in the associativity scan.  Here ``a`` is a non-identity
    endo-arrow, and only triples containing ``a`` fail to associate."""
    arrows = {a: ("w", "w") for a in ("id", "a", "b")}
    composition = {("b", "b"): "id", ("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "id"}
    for a in arrows:
        composition[("id", a)] = composition[(a, "id")] = a
    tables = (["w"], arrows, composition, {"w": "id", "ghost": "a"})
    found = category_violations(*tables)
    assert found == category_violations_oracle(*tables)
    assert "non-associative triple (h=b, g=a, f=a)" in found
    assert found[-1] == "identity given for unknown object ghost"
