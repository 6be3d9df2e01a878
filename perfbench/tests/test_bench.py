"""Self-tests for the benchmark: smoke runs, live oracles, and an untouched untraced path.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(*args) -> dict:
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                       stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", "0", "--max-ops", "2")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_runs_report_every_layer_metric_and_repeat_counts():
    args = ("--workload", "laws", "--seed", "7", "--seconds", "0", "--trace", "1",
            "--max-ops", "3")
    first, second = bench(*args), bench(*args)
    assert first["correct"] and set(first["metrics"]) == PER_LAYER
    counts = lambda r: {k: m["value"] for k, m in r["metrics"].items()
                        if m["unit"] == "count"}
    assert counts(first) == counts(second)
    assert counts(first)["smcc.law_cases"] > 0
    # set-up builds shapes for the packagings; only the traced round counts
    assert counts(first)["core.build_category_calls"] == 0
    assert counts(first)["quantale.build_calls"] > 0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_unknown_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0 and p.stdout.strip() == ""


# ---------------------------------------------------------------------------
# The correctness gate is live


def test_join_oracle_rejects_a_wrong_vertex():
    wl = workloads.Scaling()
    wl.setup(3)
    op = wl.ops[0]
    R = op.prepare()()
    assert op.check(R) is None
    wrong = next(e for e in R.cocone.diagram.target.elements if e != R.vertex)
    assert "oracle join" in oracles.check_colimit(R, wrong)


def test_failed_check_entry_fails_the_op():
    from catend.report import CheckEntry

    class Result:
        vertex = "c00"
        checks = (CheckEntry("synthesis.cocone"),
                  CheckEntry("colimit.cocone", passed=False, witness="w"))
    assert "colimit.cocone" in oracles.check_colimit(Result(), "c00")


def test_finset_oracle_rejects_a_tampered_leg():
    from catend.limits import Cocone
    wl = workloads.Laws()
    wl.setup(5)
    op = next(o for o in wl.ops if o.label.startswith("packaging/"))
    res = op.prepare()()
    assert op.check(res) is None
    delta, lim, elt, checks, lim_elems = res
    i = delta.diagram.shape.objects[0]
    leg = delta.edges[i]
    others = [v for v in workloads.PACK_SETS[leg.tgt] if v != leg.data[0]]
    bad_leg = type(leg)(leg.src, leg.tgt, (others[0],) + leg.data[1:])
    bad = Cocone(delta.diagram, delta.vertex, {**delta.edges, i: bad_leg})
    sets = dict(workloads.PACK_SETS, I=("*",))
    assert "leg" in oracles.check_cocone_element(sets, bad, lim, elt, lim_elems)


def test_cli_op_fails_against_a_tampered_golden():
    wl = workloads.Cli()
    wl.setup(1)
    wl.ops = wl.ops[:1]
    assert run.run_rounds(wl, math.inf, max_rounds=1).failures == []
    for golden in wl.golden.values():
        golden["stdout"] = golden["stdout"].replace('"pass"', '"fail"')
    failures = run.run_rounds(wl, math.inf, max_rounds=1).failures
    assert len(failures) == 1 and "golden" in failures[0][1]


def test_cli_oracle_checks_the_exit_code():
    golden = {"exit": 0, "stdout": "x\n"}
    assert oracles.check_cli(golden, 0, "x\n") is None
    assert "exit code" in oracles.check_cli(golden, 1, "x\n")


# ---------------------------------------------------------------------------
# Tracing is installed only by a traced run


def test_untraced_path_leaves_catend_unwrapped():
    wl = workloads.Scaling()
    wl.setup(2)
    run.run_rounds(wl, math.inf, max_rounds=1, max_ops=1)
    assert tracing.wrapped_names() == []

    harness = tracing.Harness(tracing.Recorder())
    harness.install()
    try:
        names = tracing.wrapped_names()
        assert "core.build_category" in names and "QuantaleInstance.compose" in names
    finally:
        harness.uninstall()
    assert tracing.wrapped_names() == []


def test_inputs_depend_only_on_the_seed():
    def labels(seed):
        wl = workloads.Scaling()
        wl.setup(seed)
        return [op.prepare()().cocone.diagram.ob for op in wl.ops[:1]]
    assert labels(4) == labels(4)
