"""Mutated example documents through the CLI: no document may make the engine fault.

Each case copies ``docs/examples/``, applies one mutation to one document and
runs every command that reads it.  Exit 3 means an engine fault, which no
document may cause; exit 1 must come with a failed check in the report.
"""

import copy
import json
import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catend.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
DOCS = {p.name: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(EXAMPLES.glob("*.json"))}
ONE_OF_EACH_TYPE = [None, True, 7, 2.5, "x", [], {}]


def paths(value, prefix=()):
    """The path (keys and indices) to every value nested in value, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield prefix + (k,)
        yield from paths(v, prefix + (k,))


def at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def mutated_documents(draw):
    """(file name, mutated document, description) with one mutation applied:
    a field dropped, a value retyped, a list truncated or an entry duplicated,
    or one tensor cell changed."""
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    every = list(paths(doc))
    lists = [p for p in every if isinstance(at(doc, p), list) and at(doc, p)]
    ops = ["drop", "retype"] + ["list"] * bool(lists)
    ops += ["tensor"] * (doc["kind"] == "quantale")
    op = draw(st.sampled_from(ops))
    if op == "drop":
        path = draw(st.sampled_from([p for p in every if isinstance(at(doc, p[:-1]), dict)]))
        del at(doc, path[:-1])[path[-1]]
    elif op == "retype":
        path = draw(st.sampled_from(every))
        old = at(doc, path)
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(
            [v for v in ONE_OF_EACH_TYPE if type(v) is not type(old)]))
    elif op == "list":
        path = draw(st.sampled_from(lists))
        entries = at(doc, path)
        k = draw(st.integers(0, len(entries) - 1))
        if draw(st.booleans()):
            del entries[k:]
        else:
            entries.insert(k, copy.deepcopy(entries[k]))
    else:
        rows = doc["tensor"]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i][j] = draw(st.sampled_from(doc["elements"] + ["ghost"]))
        path = ("tensor", i, j)
    return name, doc, f"{op} {path} in {name}"


def commands(name: str) -> list[list[str]]:
    """The commands that read document ``name``: validate for every kind, laws
    for an instance, the identity's end by both routes for a closed instance,
    and limit, colimit, colimit-via-ends and the end over the diagram for each
    diagram that is, or is labeled in, or is shaped by, that document."""
    out = [["validate", name]]
    if DOCS[name]["kind"] in ("quantale", "finset", "fincat"):
        out.append(["laws", name, "--samples", "20"])
    if DOCS[name]["kind"] in ("quantale", "finset"):
        out += [["end", name, "--functor", "identity", *via]
                for via in ([], ["--via", "cogenerator"])]
    for diagram, d in DOCS.items():
        if d["kind"] == "diagram" and name in (diagram, d["instance"], d["shape"]):
            out += [[command, d["instance"], diagram, *flags]
                    for command, *flags in (["limit"], ["colimit"],
                                            ["colimit-via-ends", "--cross-check"])]
            out.append(["end", d["instance"], "--diagram", diagram])
    return out


def test_every_example_document_has_commands():
    assert len(DOCS) >= 10
    assert {d["kind"] for d in DOCS.values()} == {"quantale", "finset", "fincat", "diagram"}
    assert all(len(commands(name)) > 1 for name in DOCS)


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_documents())
def test_no_mutated_document_makes_the_engine_fault(case, tmp_path, monkeypatch, capsys):
    name, doc, mutation = case
    monkeypatch.delenv("CATEND_SIZE_CAPS", raising=False)
    shutil.copytree(EXAMPLES, tmp_path, dirs_exist_ok=True)   # undoes the last case
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for argv in commands(name):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code = main(argv + ["--json"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (mutation, argv[0], err)
        assert "Traceback" not in err, (mutation, argv[0])
        if code == 1:
            assert any(not c["passed"] for c in json.loads(out)["checks"]), (mutation, argv[0])
