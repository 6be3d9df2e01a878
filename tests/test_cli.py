import hashlib
import json
import os
import shutil
import subprocess
import sys
from _sha1 import sha1
from pathlib import Path

import pytest

from catend import cli, cocompletion
from catend.cli import fincat_from_doc, main
from catend.config import SizeCaps
from catend.core import free_shape, poset_category
from catend.errors import InputError, InternalCheckFailure

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "cli.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# validate


def test_validate_every_example_document(capsys):
    docs = sorted(EXAMPLES.glob("*.json"))
    assert len(docs) >= 10
    for doc in docs:
        code, out, err = run(capsys, "validate", str(doc))
        assert code == 0, (doc.name, out, err)
        assert "PASS" in out


def test_validate_reports_are_byte_identical(capsys):
    doc = str(EXAMPLES / "heyting3.json")
    _, out1, _ = run(capsys, "validate", doc)
    _, out2, _ = run(capsys, "validate", doc)
    assert out1 == out2
    code, rep, _ = run_json(capsys, "validate", doc)
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["results"]["elements"] == 3
    assert rep["results"]["unit"] == "1"


def test_validate_missing_file_and_garbage(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2 and "input error" in err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2 and "input error" in err
    unkind = tmp_path / "unkind.json"
    unkind.write_text(json.dumps({"kind": "widget"}))
    code, out, err = run(capsys, "validate", str(unkind))
    assert code == 2
    quantale = json.loads((EXAMPLES / "heyting3.json").read_text(encoding="utf-8"))
    shape = json.loads((EXAMPLES / "chain2-shape.json").read_text(encoding="utf-8"))
    mistyped = [{**quantale, "elements": 3},
                {**quantale, "tensor": 5},
                {"kind": "finset", "sets": {"A": ["x"], "B": 5}},
                {**shape, "identities": [["i", "id:i"], ["j", "id:j"]]}]
    for k, doc in enumerate(mistyped):
        p = tmp_path / f"mistyped{k}.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(p))
        assert code == 2 and "input error" in err, (doc, err)


def _chain2():
    return json.loads((EXAMPLES / "chain2-shape.json").read_text(encoding="utf-8"))


def _ghost_fincat():
    """chain2-shape with a composition entry that names no arrow."""
    shape = _chain2()
    return {**shape, "composition": shape["composition"] + [["ghost", "id:i", "id:i"]]}


def _ghost_identity_fincat():
    """chain2-shape with an identity given for an object it does not have."""
    shape = _chain2()
    return {**shape, "identities": {**shape["identities"], "ghost": "id:i"}}


EMPTY_QUANTALE = {"kind": "quantale", "name": "empty", "elements": [], "leq": [],
                  "tensor": [], "unit": "1"}
# The diamond M3: three atoms between 0 and 1.  Meet does not distribute over
# join, so with meet as tensor and the top as unit nine pairs have no residual.
M3_QUANTALE = {"kind": "quantale", "name": "m3", "elements": ["0", "a", "b", "c", "1"],
               "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["0", "1"],
                       ["a", "1"], ["b", "1"], ["c", "1"]],
               "tensor": [["0", "0", "0", "0", "0"],
                          ["0", "a", "0", "0", "a"],
                          ["0", "0", "b", "0", "b"],
                          ["0", "0", "0", "c", "c"],
                          ["0", "a", "b", "c", "1"]],
               "unit": "1"}


def test_validate_flags_broken_instance(tmp_path, capsys):
    non_monotone = {"kind": "quantale", "name": "bad", "elements": ["0", "1"],
                    "leq": [["0", "1"]],
                    "tensor": [["1", "0"], ["0", "1"]],
                    "unit": "1"}
    cases = [(non_monotone, "quantale.tensor", "monotonicity fails"),
             (EMPTY_QUANTALE, "quantale.lattice", "no top element"),
             (_ghost_fincat(), "category.laws",
              "composition entry (ghost, id:i) names an unknown arrow"),
             (_ghost_identity_fincat(), "category.laws",
              "identity given for unknown object ghost"),
             (M3_QUANTALE, "quantale.residuation", "no residual for (a, 0)")]
    for k, (doc, check, witness) in enumerate(cases):
        p = tmp_path / f"bad{k}.json"
        p.write_text(json.dumps(doc))
        code, rep, err = run_json(capsys, "validate", str(p))
        assert code == 1, (check, err)
        assert rep["status"] == "fail"
        assert any(c["check"] == check and not c["passed"] and witness in c["witness"]
                   for c in rep["checks"]), rep["checks"]
    # the last report is M3's: one entry per atom y and element z below 1 but not above y
    no_residual = [(y, z) for y in "abc" for z in "0abc" if z != y]
    assert [(c["check"], c["witness"].split(":")[0]) for c in rep["checks"]] == [
        ("quantale.residuation", f"no residual for ({y}, {z})") for y, z in no_residual]


def test_fincat_document_roundtrip():
    cat = fincat_from_doc(_chain2(), SizeCaps())
    assert cat.hom_ids("i", "j") == ["f"]
    with pytest.raises(InputError, match="^fincat document is missing field 'arrows'$"):
        fincat_from_doc({"objects": ["i"]}, SizeCaps())


def test_malformed_fincat_entries_are_input_errors(tmp_path, capsys):
    shape = _chain2()
    cases = [({**shape, "arrows": shape["arrows"][:2] + [["f", "i"]]},
              "malformed fincat document: "
              "ValueError('not enough values to unpack (expected 3, got 2)')"),
             ({**shape, "arrows": shape["arrows"] + [["f", "j", "i"]]},
              "duplicate arrow ids in fincat document")]
    for k, (doc, message) in enumerate(cases):
        p = tmp_path / f"malformed{k}.json"
        p.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(p)) == (2, "", f"input error: {message}\n")


def test_validate_lists_every_violation_in_order(tmp_path, capsys):
    """One check entry per violation, so their order is part of the report.

    The reports were captured from the name-level scan construction: an order
    failing antisymmetry and transitivity, a lattice lacking meets and joins of
    several pairs, and a tensor failing unit, commutativity and associativity.
    """
    cases = json.loads((ROOT / "tests" / "golden" / "validate_messages.json")
                       .read_text(encoding="utf-8"))
    assert len(cases) == 3
    for name, case in cases.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(case["document"]))
        code, out, _ = run(capsys, "validate", str(p), "--json", "--verbose")
        assert (code, out) == (case["exit"], case["stdout"]), name


def test_validate_diagram_with_instance(capsys):
    code, rep, _ = run_json(capsys, "validate", str(EXAMPLES / "diagram-a0.json"))
    assert code == 0
    names = {c["check"] for c in rep["checks"]}
    assert {"diagram.shape", "diagram.functor"} <= names


def test_validate_reads_each_document_of_a_diagram_once(monkeypatch, capsys):
    read, load = [], cli.load_document

    def counted(path):
        read.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(cli, "load_document", counted)
    assert run(capsys, "validate", str(EXAMPLES / "diagram-a0.json"))[0] == 0
    assert sorted(read) == ["diagram-a0.json", "heyting3.json", "pair-shape.json"]


# ---------------------------------------------------------------------------
# laws


def test_laws_on_quantale_and_sets(capsys):
    code, rep, _ = run_json(capsys, "laws", str(EXAMPLES / "heyting3.json"),
                            "--extended")
    assert code == 0
    assert any(c["check"] == "smcc.pentagon" for c in rep["checks"])
    code, rep, _ = run_json(capsys, "laws", str(EXAMPLES / "finset-small.json"),
                            "--samples", "30")
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])


# ---------------------------------------------------------------------------
# limit / colimit


def test_limit_and_colimit_of_pair(capsys):
    inst = str(EXAMPLES / "heyting3.json")
    diag = str(EXAMPLES / "diagram-a0.json")
    code, rep, _ = run_json(capsys, "limit", inst, diag)
    assert code == 0 and rep["results"]["vertex"] == "0"
    code, rep, _ = run_json(capsys, "colimit", inst, diag)
    assert code == 0 and rep["results"]["vertex"] == "a"


def test_limit_of_set_equalizer(capsys):
    code, rep, _ = run_json(capsys, "limit", str(EXAMPLES / "finset-small.json"),
                            str(EXAMPLES / "diagram-finset-pair.json"))
    assert code == 0
    assert any(c["check"] == "limit.self_mediator" and c["passed"]
               for c in rep["checks"])


def test_colimit_in_a_set_workspace_is_refused(capsys):
    """docs/formats.md: the finite-set fragment has no colimit construction yet.
    The opposite ambient lists no objects and inherits the default
    ``Ambient.limit_data``, which answers None."""
    code, out, err = run(capsys, "colimit", str(EXAMPLES / "finset-small.json"),
                         str(EXAMPLES / "diagram-finset-pair.json"))
    assert (code, out) == (2, "")
    assert err == "error: ambient provides no limit construction for this diagram\n"


def test_diagram_without_required_arrow_is_input_error(tmp_path, capsys):
    shutil.copy(EXAMPLES / "heyting3.json", tmp_path / "heyting3.json")
    shutil.copy(EXAMPLES / "chain2-shape.json", tmp_path / "chain2-shape.json")
    doc = {"kind": "diagram", "shape": "chain2-shape.json",
           "ob": {"i": "a", "j": "0"}}
    p = tmp_path / "bad-diagram.json"
    p.write_text(json.dumps(doc))
    inst = str(tmp_path / "heyting3.json")
    not_a_diagram = "expected a diagram document, got kind 'quantale'"
    ob_list = tmp_path / "ob-list.json"
    ob_list.write_text(json.dumps({**doc, "ob": ["a", "0"]}))
    ar_number = tmp_path / "ar-number.json"
    ar_number.write_text(json.dumps({**doc, "ar": 5}))
    set_pair = json.loads((EXAMPLES / "diagram-finset-pair.json").read_text(encoding="utf-8"))
    mapping_number = tmp_path / "mapping-number.json"
    mapping_number.write_text(json.dumps({**set_pair, "ar": {**set_pair["ar"], "f0": 5}}))
    fincat = str(tmp_path / "chain2-shape.json")
    stray = tmp_path / "stray-object.json"
    stray.write_text(json.dumps({"kind": "diagram", "shape": "chain2-shape.json",
                                 "ob": {"i": "i", "j": "nowhere"}}))
    ghost_shape = tmp_path / "ghost-diagram.json"
    ghost_shape.write_text(json.dumps({**doc, "shape": _ghost_fincat(),
                                       "ob": {"i": "0", "j": "a"}}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(EMPTY_QUANTALE))
    some = tmp_path / "some-cogenerators.json"
    some.write_text(json.dumps({**json.loads((tmp_path / "heyting3.json").read_text()),
                                "cogenerators": "some"}))
    quantale_shape = tmp_path / "quantale-shape.json"
    quantale_shape.write_text(json.dumps({**doc, "shape": "heyting3.json"}))
    a0 = str(EXAMPLES / "diagram-a0.json")
    cases = [(("limit", inst, str(p)), "needs an arrow"),
             (("limit", inst, inst), not_a_diagram),
             (("end", inst, "--diagram", inst), not_a_diagram),
             (("colimit-via-ends", inst, inst), not_a_diagram),
             (("limit", inst, str(ob_list)), "diagram field 'ob' must be an object"),
             (("limit", inst, str(ar_number)), "diagram field 'ar' must be an object"),
             (("limit", str(EXAMPLES / "finset-small.json"), str(mapping_number)),
              "diagram 'ar' field 'f0' must be an object"),
             (("colimit", fincat, str(stray)), "unknown object nowhere"),
             (("limit", inst, str(ghost_shape)), "names an unknown arrow"),
             (("laws", str(empty)), "no top element"),
             (("laws", fincat), "laws needs a closed instance"),
             (("laws", inst, "--samples", "0"), "--samples must be at least 1"),
             (("laws", inst, "--samples", "-1"), "--samples must be at least 1"),
             (("validate", str(some)),
              "input error: quantale cogenerators must be 'all' or 'empty', got 'some'"),
             (("limit", a0, a0), "input error: document kind 'diagram' is not an instance "
                                 "(expected quantale, finset, or fincat)"),
             (("limit", inst, str(quantale_shape)),
              "input error: diagram shape 'heyting3.json' is not a fincat document")]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "input error" in err and message in err, (argv, err)
        assert "Traceback" not in err, argv


def test_labelled_arrows_pick_among_parallel_fincat_arrows(tmp_path, capsys):
    """The chain i -> j into the parallel pair f0, f1: i -> j, with its arrow
    labelled f1, labelled with no arrow of the pair, or left unlabelled."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(_fincat("pair", ["i", "j"], {"f0": ("i", "j"), "f1": ("i", "j")})))
    diagram = {"kind": "diagram", "shape": _chain2(), "ob": {"i": "i", "j": "j"}}
    docs = {}
    for name, ar in (("f1", {"ar": {"f": "f1"}}), ("g", {"ar": {"f": "g"}}), ("none", {})):
        docs[name] = tmp_path / f"chain-{name}.json"
        docs[name].write_text(json.dumps({**diagram, **ar}))
    code, rep, _ = run_json(capsys, "limit", str(pair), str(docs["f1"]))
    assert code == 0
    assert rep["results"] == {"vertex": "i", "edges": {"i": "id:i", "j": "f1"}}
    for name, message in (("g", "diagram arrow 'f': no arrow labeled 'g' from i to j"),
                          ("none", "diagram arrow 'f' is ambiguous: 2 arrows i -> j; label one")):
        assert run(capsys, "limit", str(pair), str(docs[name])) == (
            2, "", f"input error: {message}\n"), name


def test_diagram_that_breaks_a_composite_fails_validate_and_is_refused(tmp_path, capsys):
    """A three-object chain a -> b -> c into finite sets, every arrow at the
    swap of A: the composite a -> c is the swap, but swap . swap is the identity."""
    shutil.copy(EXAMPLES / "finset-small.json", tmp_path / "finset-small.json")
    shape = poset_category(["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")})
    swap = {"x": "y", "y": "x"}
    doc = {"kind": "diagram", "instance": "finset-small.json",
           "shape": {"kind": "fincat", "objects": list(shape.objects),
                     "arrows": [[a, s, t] for a, (s, t) in shape.arrows.items()],
                     "composition": [[g, f, r] for (g, f), r in shape.composition.items()],
                     "identities": shape.identities},
           "ob": {"a": "A", "b": "A", "c": "A"},
           "ar": {"le:a:b": swap, "le:b:c": swap, "le:a:c": swap}}
    p = tmp_path / "broken-composite.json"
    p.write_text(json.dumps(doc))
    code, rep, _ = run_json(capsys, "validate", str(p))
    assert code == 1
    assert [(c["check"], c["passed"], c["witness"]) for c in rep["checks"]] == [
        ("diagram.shape", True, ""),
        ("diagram.functor", False, "composition not preserved on pair (g=le:b:c, f=le:a:b)")]
    assert run(capsys, "limit", str(tmp_path / "finset-small.json"), str(p)) == (
        2, "", "input error: diagram does not satisfy the functor laws: "
               "composition not preserved on pair (g=le:b:c, f=le:a:b)\n")


def test_verbose_text_report_lists_every_check(tmp_path, capsys):
    code, out, _ = run(capsys, "laws", str(EXAMPLES / "heyting3.json"), "--verbose")
    assert code == 0
    assert out == "\n".join([
        "laws: heyting3",
        "  laws = 11",
        "  ok  smcc.symmetry_involution  cases=9",
        "  ok  smcc.symmetry_unitors  cases=3",
        "  ok  smcc.unit_iso_inverse  cases=6",
        "  ok  smcc.unit_name_swap  cases=3",
        "  ok  smcc.swap_involution  cases=22",
        "  ok  smcc.swap_precompose  cases=41",
        "  ok  smcc.swap_postcompose  cases=40",
        "  ok  smcc.curry_uncurry  cases=44",
        "  ok  smcc.eval_curry  cases=22",
        "  ok  smcc.curry_natural  cases=41",
        "  ok  residuation.adjunction  cases=27",
        "PASS  (11 checks passed, 0 failed)", ""])
    # a duplicate element name: the lattice entry fails, untagged, with its witness
    heyting3 = json.loads((EXAMPLES / "heyting3.json").read_text(encoding="utf-8"))
    p = tmp_path / "duplicate.json"
    p.write_text(json.dumps({**heyting3, "elements": ["0", "a", "a"]}))
    assert run(capsys, "validate", str(p), "--verbose")[:2] == (1, "\n".join([
        "validate: heyting3",
        "  FAIL  quantale.lattice  witness=duplicate element names",
        "FAIL  (0 checks passed, 1 failed)", ""]))


def test_internal_check_failure_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args, caps):
        raise InternalCheckFailure("mediation does not commute at x")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(EXAMPLES / "heyting3.json"))
    assert code == 3 and out == ""
    assert err == "internal error: mediation does not commute at x\n"


def test_engine_built_wedge_failure_exits_3(monkeypatch, capsys):
    """A wedge square that fails on a wedge the engine built is an engine
    fault, not malformed input: ``NotAWedge`` exits 3 like any
    ``InternalCheckFailure``."""
    monkeypatch.setattr(cocompletion, "wedge_violations", lambda B, fam: ["injected square"])
    code, out, err = run(capsys, "colimit-via-ends", str(EXAMPLES / "heyting3.json"),
                         str(EXAMPLES / "diagram-a0.json"))
    assert code == 3 and out == ""
    assert err == "internal error: injected square\n"


def test_uncaught_exception_exits_3_on_one_line(monkeypatch, capsys):
    def broken(args, caps):
        raise KeyError("le:a:b")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code, out, err = run(capsys, "validate", str(EXAMPLES / "heyting3.json"))
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'le:a:b'\n"
    assert "Traceback" not in err


def _fincat(name, objects, arrows):
    """A fincat document whose only composites involve identities."""
    cat = free_shape(objects, arrows, {})
    return {"kind": "fincat", "name": name, "objects": list(cat.objects),
            "arrows": [[a, s, t] for a, (s, t) in cat.arrows.items()],
            "composition": [[g, f, r] for (g, f), r in cat.composition.items()],
            "identities": cat.identities}


def test_limit_and_colimit_in_a_fincat_instance(tmp_path, capsys):
    shape = _fincat("discrete2", ["x", "y"], {})
    for name, objects, arrows in [("pair", ["i", "j"], {"f0": ("i", "j"), "f1": ("i", "j")}),
                                  ("chain", ["a", "b"], {"u": ("a", "b")})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(_fincat(name, objects, arrows)))
        (tmp_path / f"{name}-d.json").write_text(json.dumps(
            {"kind": "diagram", "shape": shape, "ob": dict(zip("xy", objects))}))
    pair, pair_d = str(tmp_path / "pair.json"), str(tmp_path / "pair-d.json")
    for command in ("limit", "colimit"):
        # the (co)cones with legs f0 and f1 do not factor through each other
        code, rep, _ = run_json(capsys, command, pair, pair_d)
        assert code == 1
        assert [(c["check"], c["passed"]) for c in rep["checks"]] == [(f"{command}.exists", False)]
    code, rep, _ = run_json(capsys, "colimit", str(tmp_path / "chain.json"),
                            str(tmp_path / "chain-d.json"), "--verbose")
    assert code == 0
    assert rep["results"] == {"vertex": "b", "edges": {"x": "u", "y": "id:b"}}
    assert [c["check"] for c in rep["checks"]] == [
        "colimit.exists", "colimit.cocone", "colimit.self_mediator", "colimit.universal"]


# ---------------------------------------------------------------------------
# end


def test_end_of_identity_functor(capsys):
    inst = str(EXAMPLES / "heyting3.json")
    code, rep, _ = run_json(capsys, "end", inst, "--functor", "identity")
    assert code == 0
    assert rep["results"]["vertex"] == "1"     # end of the hom bifunctor
    assert any(c["check"] == "end.universal" for c in rep["checks"])


def test_end_via_cogenerator_cross_checks(capsys):
    inst = str(EXAMPLES / "lukasiewicz3.json")
    code, rep, _ = run_json(capsys, "end", inst, "--functor", "tensor:1/2",
                            "--via", "cogenerator")
    assert code == 0
    names = {c["check"] for c in rep["checks"]}
    assert "end.route_agreement" in names
    assert "end2.mono_certificates" in names
    assert "cogenerator product" in rep["results"]


def test_end_with_diagram_functor(capsys):
    inst = str(EXAMPLES / "heyting3.json")
    diag = str(EXAMPLES / "diagram-a0.json")
    code, rep, _ = run_json(capsys, "end", inst, "--diagram", diag)
    assert code == 0
    assert rep["results"]["vertex"] == "a"


def test_end_rejects_bad_functor_spec(capsys):
    inst = str(EXAMPLES / "heyting3.json")
    code, out, err = run(capsys, "end", inst, "--functor", "warp:a")
    assert code == 2
    code, out, err = run(capsys, "end", inst, "--functor", "constant:zz")
    assert code == 2


CLOSED_COMMANDS = {
    "end identity": ("end", "{}", "--functor", "identity"),
    "end cogenerator": ("end", "{}", "--functor", "identity", "--via", "cogenerator"),
    "end diagram": ("end", "{}", "--diagram", "diagram-finset-pair.json"),
    "colimit-via-ends": ("colimit-via-ends", "{}", "diagram-finset-pair.json"),
    "end constant:zz": ("end", "{}", "--functor", "constant:zz"),
}
FINCAT_REFUSAL = ("input error: {} needs a closed instance (quantale or finset), "
                  "got kind 'fincat'\n")
CLOSED_REFUSALS = [
    ("finset-small.json", "end identity",
     "error: cannot replay the end: ambient lists no competing cones\n"),
    ("finset-small.json", "end cogenerator",
     "input error: ambient does not declare a cogenerating family\n"),
    ("finset-small.json", "end diagram",
     "error: product ((B^lim:951770b92443)*lim:951770b92443) would have "
     "177147 elements\n"),
    ("finset-small.json", "colimit-via-ends",
     "input error: materializing the cocone category needs a posetal ambient\n"),
] + [(instance, "end constant:zz", "input error: endofunctor spec 'constant:zz': "
      "'zz' is not in the instance's universe\n")
     for instance in ("finset-small.json", "heyting3.json")
] + [("chain2-shape.json", case, FINCAT_REFUSAL.format(CLOSED_COMMANDS[case][0]))
     for case in CLOSED_COMMANDS]


@pytest.mark.parametrize("instance,case,line", CLOSED_REFUSALS)
def test_closed_commands_refuse_what_the_engine_cannot_do(capsys, instance, case, line):
    """A finset reaches the engine, whose guards refuse it; a fincat is refused
    by the loader of closed instances, and a spec naming no object of the
    universe by the spec reader, whatever the kind."""
    argv = [a.format(instance) for a in CLOSED_COMMANDS[case]]
    argv = [str(EXAMPLES / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line)


# ---------------------------------------------------------------------------
# colimit-via-ends


def test_colimit_via_ends_worked_values(capsys):
    cases = [("heyting3.json", "diagram-a0.json", "a"),
             ("lukasiewicz3.json", "diagram-half.json", "1/2"),
             ("heyting3.json", "diagram-empty.json", "0")]
    for inst, diag, want in cases:
        code, rep, _ = run_json(capsys, "colimit-via-ends",
                                str(EXAMPLES / inst), str(EXAMPLES / diag),
                                "--cross-check")
        assert code == 0, (inst, diag)
        assert rep["results"]["vertex"] == want
        names = {c["check"] for c in rep["checks"]}
        assert "colimit.matches_brute" in names
        assert "end.route_agreement" in names


def test_colimit_via_ends_cogenerator_route(capsys):
    code, rep, _ = run_json(capsys, "colimit-via-ends",
                            str(EXAMPLES / "heyting3.json"),
                            str(EXAMPLES / "diagram-chain.json"),
                            "--end-route", "cogenerator", "--cross-check")
    assert code == 0
    assert rep["results"]["vertex"] == "a"
    assert any(c["check"].startswith("end2.") for c in rep["checks"])


def test_reports_deterministic_across_runs(capsys):
    args = ("colimit-via-ends", str(EXAMPLES / "heyting3.json"),
            str(EXAMPLES / "diagram-a0.json"), "--cross-check", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# environment size caps


def test_size_caps_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("CATEND_SIZE_CAPS", "quantale=2")
    code, out, err = run(capsys, "validate", str(EXAMPLES / "heyting3.json"))
    assert code == 2
    assert "input error" in err


def test_fincat_arrow_cap_is_an_input_error(monkeypatch, capsys, tmp_path):
    """Over the cap, a fincat document is rejected before its law scan, as a
    document, as a diagram's shape and as an instance."""
    monkeypatch.delenv("CATEND_SIZE_CAPS", raising=False)
    wide = free_shape([f"x{i}" for i in range(513)], {}, {})
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps(_fincat("wide", list(wide.objects), {})))
    code, _, err = run(capsys, "validate", str(doc))
    assert code == 2
    assert "input error: fincat document has 513 arrows (cap fincat_arrows=512" in err
    monkeypatch.setenv("CATEND_SIZE_CAPS", "fincat_arrows=1024")
    assert run(capsys, "validate", str(doc))[0] == 0
    monkeypatch.setenv("CATEND_SIZE_CAPS", "fincat_arrows=2")
    for argv in (("validate", str(EXAMPLES / "chain2-shape.json")),
                 ("validate", str(EXAMPLES / "diagram-chain.json")),
                 ("limit", str(EXAMPLES / "chain2-shape.json"),
                  str(EXAMPLES / "diagram-chain.json"))):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "input error" in err and "cap fincat_arrows=2" in err, (argv, err)
    assert run(capsys, "validate", str(EXAMPLES / "pair-shape.json"))[0] == 0


def test_every_example_passes_the_default_caps(monkeypatch, capsys):
    monkeypatch.delenv("CATEND_SIZE_CAPS", raising=False)
    for doc in sorted(EXAMPLES.glob("*.json")):
        code, _, err = run(capsys, "validate", str(doc))
        assert code == 0, (doc.name, err)


def test_malformed_size_caps_rejected(monkeypatch, capsys):
    expected = "expected quantale=N, finset_exp=N or fincat_arrows=N"
    for value, message in (
            ("quantale=lots", "bad CATEND_SIZE_CAPS value 'lots' for quantale"),
            ("quantale=4, colours=3", f"bad CATEND_SIZE_CAPS entry 'colours=3'; {expected}"),
            ("finset_exp", f"bad CATEND_SIZE_CAPS entry 'finset_exp'; {expected}"),
            ("fincat_arrows=0", "CATEND_SIZE_CAPS fincat_arrows must be positive")):
        monkeypatch.setenv("CATEND_SIZE_CAPS", value)
        code, out, err = run(capsys, "validate", str(EXAMPLES / "heyting3.json"))
        assert (code, out, err) == (2, "", f"input error: {message}\n"), value


def test_finset_base_set_over_the_cap_is_an_input_error(monkeypatch, capsys, tmp_path):
    doc = tmp_path / "sets.json"
    doc.write_text(json.dumps({"kind": "finset", "name": "sets",
                               "sets": {"A": ["a0", "a1", "a2"], "B": ["b0"]}}))
    monkeypatch.setenv("CATEND_SIZE_CAPS", "finset_exp=2")
    code, out, err = run(capsys, "validate", str(doc))
    assert (code, out, err) == (2, "", "input error: set A would have 3 elements (cap 2)\n")


# ---------------------------------------------------------------------------
# recorded transcripts


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_matches_recorded_transcript(key, monkeypatch, capsys):
    """Exact --json --verbose stdout and exit code of every benchmark command."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("CATEND_SIZE_CAPS", raising=False)
    want = GOLDEN[key]
    code, out, _ = run(capsys, *want["argv"])
    assert (code, out) == (want["exit"], want["stdout"])


# ---------------------------------------------------------------------------
# process footprint

FOOTPRINT_PROBE = """
import sys
{body}
print("modules:", " ".join(sorted(sys.modules)))
"""


def modules_loaded(body: str) -> set[str]:
    """The modules in ``sys.modules`` after a fresh interpreter runs ``body``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CATEND_SIZE_CAPS", None)
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE.format(body=body)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    last = done.stdout.splitlines()[-1]
    assert last.startswith("modules: "), done.stdout
    return set(last.split()[1:])


def test_catend_loads_neither_openssl_nor_decimal():
    """``_hashlib`` links OpenSSL's libcrypto, and ``fractions`` pulls in
    ``_decimal``; a catend process needs neither, even to name a limit set."""
    bare = modules_loaded("")
    limit = (f'code = catend.cli.main(["limit", "{EXAMPLES / "finset-small.json"}", '
             f'"{EXAMPLES / "diagram-finset-pair.json"}"])\n'
             'assert code == 0, code')
    for body in ("import catend.cli", "import catend.cli\n" + limit):
        added = modules_loaded(body) - bare
        assert "catend.finset" in added and "catend.quantale" in added
        assert not {"_hashlib", "_decimal"} & added, body


def test_builtin_sha1_names_limit_sets_as_hashlib_would():
    for payload in ("", repr([("n0", "A")]), repr(sorted({("id:n0", "A", "A", ("a0",))})),
                    "lim" * 1000):
        assert sha1(payload.encode()).hexdigest() == hashlib.sha1(payload.encode()).hexdigest()
