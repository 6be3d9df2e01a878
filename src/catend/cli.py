"""Command-line surface: load JSON documents, run constructions, emit reports.

Document kinds: ``fincat`` (finitely-presented category), ``quantale``,
``finset`` (set workspace), ``diagram`` (shape plus labeling into an
instance).  Reports are byte-identical for identical inputs and flags;
timing goes to stderr.  Exit codes: 0 all checks pass, 1 a check failed,
2 the input was malformed, 3 the engine failed one of its own internal checks
or raised an unexpected exception (a bug, not a verdict on the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cocompletion import (LimExpEndofunctor, colimit_via_ends,
                           constant_endofunctor, double_dual_endofunctor,
                           end_by_route, endo_exp_bifunctor,
                           endofunctor_violations, exp_from_endofunctor,
                           identity_endofunctor, route_agreement,
                           tensor_endofunctor)
from .config import SizeCaps, caps_from_env
from .core import (Ambient, Arrow, Diagram, FinCatAmbient, FinCategory,
                   FunctorData, build_category, functor_violations,
                   opposite_diagram)
from .ends import bifunctor_violations, end_universal_violations
from .errors import (CatendError, InputError, InternalCheckFailure, NoLimit,
                     NoResiduation, NotALattice, TensorNotMonotone,
                     TypeMismatch, ValidationFailure, WorkspaceBlowup)
from .finset import FinSetFragment
from .limits import (cone_violations, limit_brute, limiting_violations,
                     mediator)
from .quantale import QuantaleInstance, quantale_from_tables
from .report import Report, verdict
from .smcc import SmccInstance, law_suite


# ---------------------------------------------------------------------------
# Document loading


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise InputError(f"{path}: expected an object with a string 'kind' field")
    return doc


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def _require(doc: dict, field: str, kind: str, expected: type = object):
    """doc[field], rejected as an input error when absent or not of type expected."""
    if field not in doc:
        raise InputError(f"{kind} document is missing field {field!r}")
    value = doc[field]
    if not isinstance(value, expected):
        raise InputError(f"{kind} field {field!r} must be {_JSON_TYPES[expected]}, "
                         f"got {_JSON_TYPES[type(value)]}")
    return value


def quantale_from_doc(doc: dict, caps: SizeCaps) -> QuantaleInstance:
    elements = [str(e) for e in _require(doc, "elements", "quantale", list)]
    if len(elements) > caps.quantale_max:
        raise InputError(f"quantale has {len(elements)} elements "
                         f"(cap {caps.quantale_max}; raise via CATEND_SIZE_CAPS)")
    leq = []
    for pair in _require(doc, "leq", "quantale", list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"quantale leq entries must be pairs, got {pair!r}")
        leq.append((str(pair[0]), str(pair[1])))
    rows = _require(doc, "tensor", "quantale", list)
    if len(rows) != len(elements) or any(not isinstance(r, list) or len(r) != len(elements)
                                         for r in rows):
        raise InputError("quantale tensor must be a square row-major table "
                         "in element order")
    tensor = {(a, b): str(rows[i][j])
              for i, a in enumerate(elements) for j, b in enumerate(elements)}
    unit = str(_require(doc, "unit", "quantale"))
    cogenerators = str(doc.get("cogenerators", "all"))
    if cogenerators not in ("all", "empty"):
        raise InputError(f"quantale cogenerators must be 'all' or 'empty', "
                         f"got {cogenerators!r}")
    name = str(doc.get("name", "quantale"))
    q = quantale_from_tables(name, elements, leq, tensor, unit)
    return q.with_cogenerators(cogenerators)


def finset_from_doc(doc: dict, caps: SizeCaps) -> FinSetFragment:
    sets = _require(doc, "sets", "finset", dict)
    try:
        return FinSetFragment({str(k): [str(e) for e in _require(sets, k, "finset 'sets'", list)]
                               for k in sets}, caps=caps)
    except WorkspaceBlowup as exc:
        raise InputError(str(exc)) from exc


def fincat_from_doc(doc: dict, caps: SizeCaps) -> FinCategory:
    arrows = _require(doc, "arrows", "fincat", list)
    if len(arrows) > caps.fincat_arrows_max:
        raise InputError(f"fincat document has {len(arrows)} arrows "
                         f"(cap fincat_arrows={caps.fincat_arrows_max}; raise via CATEND_SIZE_CAPS)")
    objects = _require(doc, "objects", "fincat", list)
    composition = _require(doc, "composition", "fincat", list)
    identities = _require(doc, "identities", "fincat", dict)
    try:
        objects = [str(x) for x in objects]
        endpoints = {str(a): (str(s), str(t)) for a, s, t in arrows}
        identities = {str(x): str(i) for x, i in identities.items()}
        composition = {(str(g), str(f)): str(r) for g, f, r in composition}
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed fincat document: {exc!r}") from exc
    if len(endpoints) != len(arrows):
        raise InputError("duplicate arrow ids in fincat document")
    return build_category(objects, endpoints, composition, identities)


def instance_from_doc(doc: dict, caps: SizeCaps) -> Ambient:
    kind = doc["kind"]
    if kind == "quantale":
        return quantale_from_doc(doc, caps)
    if kind == "finset":
        return finset_from_doc(doc, caps)
    if kind == "fincat":
        return FinCatAmbient(fincat_from_doc(doc, caps))
    raise InputError(f"document kind {kind!r} is not an instance "
                     "(expected quantale, finset, or fincat)")


def _resolve_shape(doc: dict, base_dir: str, caps: SizeCaps) -> FinCategory:
    shape = _require(doc, "shape", "diagram")
    if isinstance(shape, str):
        shape_doc = load_document(os.path.join(base_dir, shape))
        if shape_doc["kind"] != "fincat":
            raise InputError(f"diagram shape {shape!r} is not a fincat document")
        return fincat_from_doc(shape_doc, caps)
    if isinstance(shape, dict):
        return fincat_from_doc(shape, caps)
    raise InputError("diagram 'shape' must be a fincat document or a path to one")


def diagram_from_doc(doc: dict, A: Ambient,
                     shape: FinCategory) -> tuple[Diagram, list[str]]:
    """Build the labeled diagram; returns it with any functor-law violations.

    Posetal instances need only the object labeling (arrows are order
    witnesses); set workspaces take element mappings; finitely-presented
    ambients take target arrow ids.
    """
    ob = {str(i): str(v) for i, v in _require(doc, "ob", "diagram", dict).items()}
    missing = [i for i in shape.objects if i not in ob]
    if missing:
        raise InputError(f"diagram labels no instance object for shape object "
                         f"{missing[0]!r}")
    ar_doc = _require(doc, "ar", "diagram", dict) if "ar" in doc else {}
    ar: dict[str, Arrow] = {}
    try:
        for i in shape.objects:
            ar[shape.id_of(i)] = A.identity(ob[i])
        for a in shape.arrow_ids():
            if shape.is_identity_id(a):
                continue
            s, t = ob[shape.src(a)], ob[shape.tgt(a)]
            if isinstance(A, FinSetFragment):
                if a not in ar_doc:
                    raise InputError(f"diagram arrow {a!r} needs an element mapping")
                mapping = _require(ar_doc, a, "diagram 'ar'", dict)
                ar[a] = A.make_arrow(s, t, {str(k): str(v) for k, v in mapping.items()})
            elif a in ar_doc:
                cands = [f for f in A.hom(s, t) if A.arrow_label(f) == str(ar_doc[a])]
                if not cands:
                    raise InputError(f"diagram arrow {a!r}: no arrow labeled "
                                     f"{ar_doc[a]!r} from {s} to {t}")
                ar[a] = cands[0]
            else:
                cands = A.hom(s, t)
                if not cands:
                    raise InputError(f"diagram arrow {a!r} needs an arrow {s} -> {t} "
                                     "and the instance has none")
                if len(cands) > 1:
                    raise InputError(f"diagram arrow {a!r} is ambiguous: "
                                     f"{len(cands)} arrows {s} -> {t}; label one")
                ar[a] = cands[0]
    except TypeMismatch as exc:
        raise InputError(str(exc)) from exc
    d = FunctorData(source=shape, target=A, ob=ob, ar=ar)
    return d, functor_violations(d)


# ---------------------------------------------------------------------------
# Endofunctor specs


FUNCTOR_SPECS = "identity, constant:E, tensor:E, exp-from:E, double-dual:E"


def endofunctor_from_spec(A: SmccInstance, universe: list[str], spec: str):
    name, _, arg = spec.partition(":")
    if name == "identity" and not arg:
        return identity_endofunctor(A)
    if name in ("constant", "tensor", "exp-from", "double-dual"):
        if arg not in universe:
            raise InputError(f"endofunctor spec {spec!r}: {arg!r} is not an element")
        builder = {"constant": constant_endofunctor, "tensor": tensor_endofunctor,
                   "exp-from": exp_from_endofunctor,
                   "double-dual": double_dual_endofunctor}[name]
        return builder(A, arg)
    raise InputError(f"unknown endofunctor spec {spec!r} (expected {FUNCTOR_SPECS})")


# ---------------------------------------------------------------------------
# Commands


def _subject(doc: dict) -> str:
    return str(doc.get("name", doc["kind"]))


def _closed_instance(command: str, path: str,
                     caps: SizeCaps) -> tuple[SmccInstance, list[str], str]:
    """The closed instance at path, its universe (the sorted elements of a
    quantale, or the sorted declared sets of a ``finset``) and its subject."""
    doc = load_document(path)
    A = instance_from_doc(doc, caps)
    if not isinstance(A, SmccInstance):
        raise InputError(f"{command} needs a closed instance (quantale or finset), "
                         f"got kind {doc['kind']!r}")
    universe = sorted(doc["sets"] if doc["kind"] == "finset" else A.elements)
    return A, universe, _subject(doc)


def cmd_validate(args, caps: SizeCaps) -> Report:
    doc = load_document(args.document)
    rep = Report(command="validate", subject=_subject(doc))
    kind = doc["kind"]
    if kind == "fincat":
        try:
            cat = fincat_from_doc(doc, caps)
            rep.results["objects"] = len(cat.objects)
            rep.results["arrows"] = len(cat.arrows)
            rep.record("category.laws", True)
        except ValidationFailure as exc:
            for v in exc.violations:
                rep.record("category.laws", False, witness=v)
    elif kind == "quantale":
        try:
            q = quantale_from_doc(doc, caps)
            rep.results["elements"] = len(q.elements)
            rep.results["unit"] = q.unit
            rep.results["top"] = q.top
            rep.results["bottom"] = q.bottom
            for check in ("quantale.lattice", "quantale.tensor", "quantale.residuation"):
                rep.record(check, True)
        except ValidationFailure as exc:
            check = {NotALattice: "quantale.lattice",
                     TensorNotMonotone: "quantale.tensor",
                     NoResiduation: "quantale.residuation"}[type(exc)]
            for v in exc.violations:
                rep.record(check, False, witness=v)
    elif kind == "finset":
        ws = finset_from_doc(doc, caps)
        for name in sorted(doc["sets"]):
            rep.results[f"set {name}"] = len(ws.elements(name))
        rep.record("finset.sets", True)
    elif kind == "diagram":
        base = os.path.dirname(args.document) or "."
        try:
            shape = _resolve_shape(doc, base, caps)
            rep.results["shape objects"] = len(shape.objects)
            rep.record("diagram.shape", True)
        except ValidationFailure as exc:
            for v in exc.violations:
                rep.record("diagram.shape", False, witness=v)
            return rep
        if "instance" in doc:
            inst_doc = load_document(os.path.join(base, str(doc["instance"])))
            A = instance_from_doc(inst_doc, caps)
            _, violations = diagram_from_doc(doc, A, shape)
            if violations:
                for v in violations:
                    rep.record("diagram.functor", False, witness=v)
            else:
                rep.record("diagram.functor", True)
    else:
        raise InputError(f"unknown document kind {kind!r}")
    return rep


def _load_diagram(path: str, A: Ambient, caps: SizeCaps) -> Diagram:
    """Load a diagram document into A, rejecting it on functor-law violations."""
    doc = load_document(path)
    if doc["kind"] != "diagram":
        raise InputError(f"{path}: expected a diagram document, "
                         f"got kind {doc['kind']!r}")
    shape = _resolve_shape(doc, os.path.dirname(path) or ".", caps)
    d, violations = diagram_from_doc(doc, A, shape)
    if violations:
        raise InputError(f"diagram does not satisfy the functor laws: {violations[0]}")
    return d


def _load_instance_and_diagram(args, caps: SizeCaps):
    inst_doc = load_document(args.instance)
    A = instance_from_doc(inst_doc, caps)
    return A, _load_diagram(args.diagram, A, caps), _subject(inst_doc)


def cmd_laws(args, caps: SizeCaps) -> Report:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    A, universe, subject = _closed_instance("laws", args.instance, caps)
    rep = Report(command="laws", subject=subject)
    entries = law_suite(A, objects=universe, budget=args.samples,
                        extended=args.extended)
    rep.extend(entries)
    rep.results["laws"] = len(entries)
    return rep


def _limit_report(command: str, cone_check: str, A: Ambient, d: Diagram,
                  subject: str) -> Report:
    """Limit of d in A, replayed as ``<command>.*`` checks.

    ``colimit`` passes the opposite diagram in the opposite ambient, whose
    labels and identities read arrows in the base direction.
    """
    rep = Report(command=command, subject=subject)
    try:
        L = limit_brute(A, d)
    except NoLimit as exc:
        rep.record(f"{command}.exists", False, witness=str(exc))
        return rep
    rep.record(f"{command}.exists", True)
    rep.results["vertex"] = L.vertex
    rep.results["edges"] = {i: A.arrow_label(L.edges[i])
                            for i in sorted(d.shape.objects)}
    rep.add(verdict(f"{command}.{cone_check}", cone_violations(L.cone)))
    med = mediator(L, L.cone)
    rep.record(f"{command}.self_mediator", A.is_identity(med),
               witness=A.arrow_label(med))
    universal = limiting_violations(A, L)
    if universal is not None:
        rep.add(verdict(f"{command}.universal", universal))
    return rep


def cmd_limit(args, caps: SizeCaps) -> Report:
    A, d, subject = _load_instance_and_diagram(args, caps)
    return _limit_report("limit", "cone", A, d, subject)


def cmd_colimit(args, caps: SizeCaps) -> Report:
    _, d, subject = _load_instance_and_diagram(args, caps)
    dop = opposite_diagram(d)
    return _limit_report("colimit", "cocone", dop.target, dop, subject)


def cmd_end(args, caps: SizeCaps) -> Report:
    A, universe, subject = _closed_instance("end", args.instance, caps)
    rep = Report(command="end", subject=subject)
    if args.diagram is not None:
        F = LimExpEndofunctor(A, _load_diagram(args.diagram, A, caps))
    else:
        F = endofunctor_from_spec(A, universe, args.functor)
    rep.results["functor"] = F.name

    rep.add(verdict("functor.laws", endofunctor_violations(F, universe)))
    B = endo_exp_bifunctor(A, F, universe)
    rep.add(verdict("bifunctor.laws", bifunctor_violations(B)))

    routed = end_by_route(B, args.via)
    rep.extend(list(routed.checks))
    if routed.product is not None:
        rep.results["cogenerator product"] = routed.product
        rep.extend(route_agreement(routed.end, args.via))
    rep.results["vertex"] = routed.end.vertex
    rep.add(verdict("end.universal", end_universal_violations(routed.end)))
    return rep


def cmd_colimit_via_ends(args, caps: SizeCaps) -> Report:
    A, _, subject = _closed_instance("colimit-via-ends", args.instance, caps)
    d = _load_diagram(args.diagram, A, caps)
    rep = Report(command="colimit-via-ends", subject=subject)
    R = colimit_via_ends(A, d, cross_check=args.cross_check,
                         end_route=args.end_route)
    rep.extend(list(R.checks))
    rep.results["vertex"] = R.vertex
    rep.results["end"] = R.synthesis.end.vertex
    rep.results["cocones"] = len(R.cocone_category.objects)
    if args.cross_check:
        rep.extend(route_agreement(R.synthesis.end, args.end_route))
    return rep


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catend",
        description="Run and machine-check categorical constructions on "
                    "finitely-presented instances.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    common.add_argument("--verbose", action="store_true",
                        help="list passing checks too, not just failures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and validate any document kind")
    p.add_argument("document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("laws", parents=[common],
                       help="run the closed-structure law suite on an instance")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=1000,
                   help="per-law case budget (default 1000)")
    p.add_argument("--extended", action="store_true",
                   help="add the coherence checks (pentagon, hexagon, triangle)")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("limit", parents=[common], help="limit of a diagram")
    p.add_argument("instance")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("colimit", parents=[common], help="colimit of a diagram")
    p.add_argument("instance")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("end", parents=[common],
                       help="end of the exponential bifunctor of an endofunctor")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--functor", help=f"endofunctor spec: {FUNCTOR_SPECS}")
    group.add_argument("--diagram",
                       help="diagram document; the endofunctor sends X to the "
                            "limit of the diagram's exponentials at X")
    p.add_argument("--via", choices=["direct", "cogenerator"], default="direct",
                   help="direct subdivision limit, or the cogenerating-family "
                        "construction cross-checked against it")
    p.set_defaults(func=cmd_end)

    p = sub.add_parser("colimit-via-ends", parents=[common],
                       help="synthesize the colimit from an end and refine it")
    p.add_argument("instance")
    p.add_argument("diagram")
    p.add_argument("--cross-check", action="store_true",
                   help="also compare against the brute-force colimit and the "
                        "other end route")
    p.add_argument("--end-route", choices=["direct", "cogenerator"],
                   default="direct")
    p.set_defaults(func=cmd_colimit_via_ends)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = caps_from_env()
        rep = args.func(args, caps)
    except (InputError, ValidationFailure) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CatendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine bug: one line, never a traceback
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    rep.emit(as_json=args.json, verbose=args.verbose)
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
