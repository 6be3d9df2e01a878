"""Correctness oracles for the benchmark, independent of the engine's derived tables.

Each oracle returns ``None`` when the result is right and a one-line reason
when it is not; the runner counts every reason as a failed op.
"""

from __future__ import annotations

import json


# ---------------------------------------------------------------------------
# Thin instances: joins by scanning the raw order relation


def join_oracle(q, xs) -> str:
    """Least upper bound of ``xs``, found by scanning ``leq_check`` only."""
    ups = [c for c in q.elements if all(q.leq_check(x, c) for x in xs)]
    least = [c for c in ups if all(q.leq_check(c, d) for d in ups)]
    if len(least) != 1:
        raise ValueError(f"{q.name}: {xs} has no least upper bound")
    return least[0]


def check_entries(checks) -> str | None:
    """First failed entry of a check transcript, if any."""
    for c in checks:
        if not c.passed:
            return f"check {c.check} [{c.tag}] failed: {c.witness}"
    return None


def check_colimit(result, expected_vertex: str) -> str | None:
    """A synthesized colimit is right when every check passed and the vertex is the join."""
    bad = check_entries(result.checks)
    if bad:
        return bad
    if result.vertex != expected_vertex:
        return f"vertex {result.vertex} != oracle join {expected_vertex}"
    return None


# ---------------------------------------------------------------------------
# Finite sets: cocone legs recovered pointwise from function tables


def fn_table(f, src_elems) -> dict:
    """Function table of a set map whose data lists images in source order."""
    if len(f.data) != len(src_elems):
        raise ValueError(f"arrow {f.src}->{f.tgt} has {len(f.data)} images "
                         f"for {len(src_elems)} source elements")
    return dict(zip(src_elems, f.data))


def decode_exp_element(label: str, exponent_elems, base_elems) -> dict:
    """The function named by an element ``f(i0,i1,...)`` of ``base^exponent``.

    Position p of the index tuple is the image of the p-th exponent element,
    given as an index into the base set's sorted element list.
    """
    if not (label.startswith("f(") and label.endswith(")")):
        raise ValueError(f"{label!r} is not a function element")
    inner = label[2:-1]
    idx = [int(k) for k in inner.split(",")] if inner else []
    if len(idx) != len(exponent_elems):
        raise ValueError(f"{label!r} has {len(idx)} images for {len(exponent_elems)} points")
    return {e: base_elems[k] for e, k in zip(exponent_elems, idx)}


def check_cocone_element(sets: dict, delta, lim, elt, lim_elems) -> str | None:
    """Every leg of ``delta`` is what the packaged element names, pointwise.

    ``elt`` picks one point of the limit set; composing its table with the
    limit projection to ``u^{d(i)}`` gives a point of that exponential, which
    must name exactly the leg ``delta_i: d(i) -> u``.
    """
    u = delta.vertex
    if elt.src != "I" or len(elt.data) != 1:
        raise ValueError(f"element {elt!r} is not a point of the limit")
    point = elt.data[0]
    for i in delta.diagram.shape.objects:
        s = delta.diagram.ob[i]
        proj = lim.edges[i]
        if proj.tgt != f"({u}^{s})":
            return f"projection at {i} lands in {proj.tgt}, expected ({u}^{s})"
        named = fn_table(proj, lim_elems)[point]
        got = decode_exp_element(named, sets[s], sets[u])
        want = fn_table(delta.edges[i], sets[s])
        if got != want:
            return f"leg {i}: element names {got}, cocone leg is {want}"
    return None


# ---------------------------------------------------------------------------
# CLI: golden stdout and exit code


def check_cli(golden: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != golden["exit"]:
        return f"exit code {exit_code} != golden {golden['exit']}"
    if stdout != golden["stdout"]:
        return "stdout differs from the golden transcript"
    return None


def cli_checks(stdout: str) -> list[tuple[str, bool]]:
    """(check id, passed) for each entry of a ``--json`` report."""
    return [(c["check"], c["passed"]) for c in json.loads(stdout)["checks"]]
