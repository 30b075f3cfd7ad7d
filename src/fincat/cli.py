"""Command-line front end.

Exit codes: 0 = ok / found; 1 = verified absent or law violation, with a
counterexample; 2 = structural or usage error.  --json switches the report
stream to a stable machine-readable schema (identical inputs and seed produce
byte-identical output).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .catfile import LawViolation, Workspace, load_workspace
from .core import (
    DEFAULT_GUARD,
    FinCat,
    Functor,
    GuardExceeded,
    Mor,
    StructuralError,
    budget,
    op_product,
    pair_id,
)
from .diagram import evaluate, normalize, parse_term, pretty, render_svg
from .finset import SetFunctor, hom_functor, yoneda_check

SCHEMA = "fincat-report/1"


class Failure(Exception):
    """Verified-absent outcome or law violation: exit code 1."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


def cmd_validate(ws: Workspace, args) -> dict:
    return {
        "categories": sorted(ws.categories),
        "functors": sorted(ws.functors),
        "nats": sorted(ws.nats),
        "setfunctors": sorted(ws.setfunctors),
        "terms": sorted(ws.terms),
    }


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise StructuralError(f"no {kind} named {name}")
    return table[name]


def _diagram_by_name(ws: Workspace, name: str):
    return _named({**ws.setfunctors, **ws.functors}, "functor or setfunctor", name)


def cmd_limit(ws: Workspace, args) -> dict:
    from .limits import COLIMIT, LIMIT, limit, limit_finset
    D = _diagram_by_name(ws, args.diagram)
    direction = LIMIT if args.command == "limit" else COLIMIT
    if isinstance(D, SetFunctor):
        res = limit_finset(D, direction)
        if not res.certificate.ok:
            raise Failure("certificate failed", {"report": res.certificate.to_json()})
        return {"kind": "finset", "size": len(res.object),
                "elements": list(res.object.sorted()),
                "report": res.certificate.to_json()}
    res = limit(D, direction)
    if res is None:
        raise Failure(f"{args.command} of {args.diagram} verified absent",
                      {"diagram": args.diagram})
    return {"kind": "object", "object": res.object,
            "legs": dict(sorted(res.cone.legs.components.items())),
            "report": res.certificate.to_json()}


def _align_bifunctor(B, J):
    """B rebuilt on op_product(J), or None when B's source is not op(J) x J
    up to the names of its identity morphisms."""
    S = B.dom
    if set(S.objects) != {pair_id(a, b) for a in J.objects for b in J.objects}:
        return None
    P = op_product(J)
    to_P = {S.identity[o]: P.identity[o] for o in S.objects}
    name = {m.name: to_P.get(m.name, m.name) for m in S.morphisms}
    if FinCat(P.name, S.objects, [Mor(name[m.name], m.dom, m.cod) for m in S.morphisms],
              P.identity, {(name[g], name[f]): name[h] for (g, f), h in S.compose.items()}) != P:
        return None
    values = B.on_mor if isinstance(B, SetFunctor) else B.mor_map
    renamed = {name[m]: v for m, v in values.items()}
    if isinstance(B, SetFunctor):
        return SetFunctor(B.name, P, B.on_obj, renamed)
    return Functor(B.name, P, B.cod, B.obj_map, renamed)


def _shape_of_bifunctor(ws: Workspace, B):
    for J in ws.categories.values():
        aligned = _align_bifunctor(B, J)
        if aligned is not None:
            return J, aligned
    raise StructuralError(
        "bifunctor source is not op(J) x J for any workspace category J")


def cmd_end(ws: Workspace, args) -> dict:
    from .kan import end_coend
    B = _diagram_by_name(ws, args.bifunctor)
    J, B = _shape_of_bifunctor(ws, B)
    side = "end" if args.command == "end" else "coend"
    res = end_coend(B, J, side)
    if res is None:
        raise Failure(f"{side} of {args.bifunctor} verified absent", {})
    if isinstance(B, SetFunctor):
        return {"kind": "finset", "size": len(res.object),
                "elements": list(res.object.sorted()),
                "report": res.certificate.to_json()}
    return {"kind": "object", "object": res.object,
            "report": res.certificate.to_json()}


def cmd_kan(ws: Workspace, args) -> dict:
    from .kan import LEFT, RIGHT, kan_pointwise
    K = _named(ws.functors, "functor", args.K)
    F = _diagram_by_name(ws, args.F)
    side = LEFT if args.command == "kan-left" else RIGHT
    kr = kan_pointwise(K, F, side)
    if kr.extension is None:
        raise Failure(f"pointwise extension missing at {kr.missing_at}",
                      {"missing_at": kr.missing_at})
    if isinstance(kr.extension, SetFunctor):
        objs = sorted(kr.extension.on_obj)
        return {"kind": "finset",
                "objects": objs,
                "sizes": [len(kr.extension.on_obj[d]) for d in objs],
                "report": kr.certificate.to_json()}
    return {"kind": "functor",
            "on_objects": dict(sorted(kr.extension.obj_map.items())),
            "report": kr.certificate.to_json()}


def cmd_adjoint_of(ws: Workspace, args) -> dict:
    from .adjunction import adjoint_from_universals, snake_check
    G = _named(ws.functors, "functor", args.G)
    adj = adjoint_from_universals(G, side=args.side)
    if adj is None:
        raise Failure(f"{args.side} adjoint of {args.G} verified absent", {})
    side_functor = adj.left if args.side == "left" else adj.right
    snake = snake_check(adj.left, adj.right, adj.unit, adj.counit)
    if not snake.ok:
        raise Failure("snake equations failed", {"report": snake.to_json()})
    return {"adjoint_on_objects": dict(sorted(side_functor.obj_map.items())),
            "unit": dict(sorted(adj.unit.components.items())),
            "counit": dict(sorted(adj.counit.components.items())),
            "snake": snake.to_json()}


def cmd_snake(ws: Workspace, args) -> dict:
    from .adjunction import snake_check
    try:
        F, G = ws.functors[args.F], ws.functors[args.G]
        eta, eps = ws.nats[args.eta], ws.nats[args.eps]
    except KeyError as missing:
        raise StructuralError(f"unresolved name {missing}") from None
    rep = snake_check(F, G, eta, eps)
    if not rep.ok:
        raise Failure("snake equations failed", {"report": rep.to_json()})
    return {"report": rep.to_json()}


def cmd_yoneda_check(ws: Workspace, args) -> dict:
    C = _named(ws.categories, "category", args.C)
    family = [hom_functor(C, c, "covariant") for c in C.sorted_objects()]
    family += [X for X in ws.setfunctors.values() if X.dom == C]
    rep = yoneda_check(C, family)
    if not rep.ok:
        raise Failure(rep.counterexample.law, rep.counterexample.details)
    return {"checked": rep.checked, "functors": len(family)}


def cmd_density(ws: Workspace, args) -> dict:
    from .kan import density_check
    rep = density_check(_named(ws.functors, "functor", args.K))
    if not rep.ok:
        raise Failure("not dense", {"report": rep.to_json()})
    return {"dense": True, "report": rep.to_json()}


def cmd_codensity(ws: Workspace, args) -> dict:
    from .kan import codensity_monad
    m = codensity_monad(_named(ws.functors, "functor", args.K))
    if m is None:
        raise Failure("codensity monad absent (right extension missing)", {})
    if not m.report.ok:
        raise Failure("monad laws failed", {"report": m.report.to_json()})
    return {"on_objects": dict(sorted(m.endofunctor.obj_map.items())),
            "mult": dict(sorted(m.mult.components.items())),
            "unit": dict(sorted(m.unit.components.items())),
            "report": m.report.to_json()}


def cmd_weighted_limit(ws: Workspace, args) -> dict:
    from .kan import weighted_limit
    from .limits import COLIMIT, LIMIT
    W = _named(ws.setfunctors, "setfunctor", args.W)
    F = _diagram_by_name(ws, args.F)
    side = LIMIT if args.side == "limit" else COLIMIT
    res = weighted_limit(W, F, side)
    if not res.certificate.ok:
        raise Failure("weighted limit certification failed",
                      {"report": res.certificate.to_json()})
    if isinstance(res.object, str):
        return {"object": res.object, "report": res.certificate.to_json()}
    return {"size": len(res.object), "elements": list(res.object.sorted()),
            "report": res.certificate.to_json()}


def _term_of(ws: Workspace, text: str):
    if text in ws.terms:
        return ws.terms[text]
    return parse_term(text)


def cmd_diagram_eval(ws: Workspace, args) -> dict:
    env = ws.env()
    t = _term_of(ws, args.term)
    val = evaluate(t, env)
    return {"components": dict(sorted(val.components.items())),
            "source": val.src.name, "target": val.tgt.name}


def cmd_diagram_normalize(ws: Workspace, args) -> dict:
    env = ws.env()
    t = _term_of(ws, args.term)
    return {"normal_form": pretty(normalize(t, env))}


def cmd_render(ws: Workspace, args) -> dict:
    env = ws.env()
    t = _term_of(ws, args.term)
    svg = render_svg(t, env)
    if not args.output:
        raise StructuralError("render requires -o FILE.svg")
    with open(args.output, "w", encoding="utf8") as fh:
        fh.write(svg)
    return {"written": args.output, "bytes": len(svg.encode("utf8"))}


# name -> (handler, positional arguments before the files)
COMMANDS = {
    "validate": (cmd_validate, ()),
    "limit": (cmd_limit, ("diagram",)),
    "colimit": (cmd_limit, ("diagram",)),
    "end": (cmd_end, ("bifunctor",)),
    "coend": (cmd_end, ("bifunctor",)),
    "kan-left": (cmd_kan, ("K", "F")),
    "kan-right": (cmd_kan, ("K", "F")),
    "adjoint-of": (cmd_adjoint_of, ("G",)),
    "snake": (cmd_snake, ("F", "G", "eta", "eps")),
    "yoneda-check": (cmd_yoneda_check, ("C",)),
    "density": (cmd_density, ("K",)),
    "codensity": (cmd_codensity, ("K",)),
    "weighted-limit": (cmd_weighted_limit, ("W", "F")),
    "diagram-eval": (cmd_diagram_eval, ("term",)),
    "diagram-normalize": (cmd_diagram_normalize, ("term",)),
    "render": (cmd_render, ("term",)),
}


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fincat",
                                 description="finite category theory toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0,
                        help="echoed into --json output; no command reads it")
    common.add_argument("--guard", type=positive_int, default=DEFAULT_GUARD,
                        help="enumeration budget")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, params) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for prm in params:
            p.add_argument(prm)
        p.add_argument("files", nargs="+", metavar="FILE.cat")
    sub.choices["adjoint-of"].add_argument("--side", choices=["left", "right"], default="left")
    sub.choices["weighted-limit"].add_argument("--side", choices=["limit", "colimit"],
                                               default="limit")
    sub.choices["render"].add_argument("-o", "--output", default=None)
    return ap


# one parser per process, built on first use; like it, each handler's own
# modules are imported only when the handler runs
_parser = functools.cache(build_parser)


def emit(args, payload: dict, code: int) -> int:
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "seed": args.seed,
               "exit": code, "ok": code == 0, **payload}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        status = {0: "ok", 1: "FAIL", 2: "error"}[code]
        print(f"fincat {args.command}: {status}")
        for k, v in sorted(payload.items()):
            print(f"  {k}: {json.dumps(v, sort_keys=True) if not isinstance(v, str) else v}")
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        ws = load_workspace(args.files)
        handler, _ = COMMANDS[args.command]
        with budget(args.guard):
            result = handler(ws, args)
        return emit(args, {"result": result}, 0)
    except Failure as f:
        return emit(args, {"message": str(f), **f.payload}, 1)
    except LawViolation as lv:
        return emit(args, {"message": str(lv),
                           "report": lv.report.to_json()}, 1)
    except (StructuralError, GuardExceeded, OSError) as err:
        return emit(args, {"message": str(err)}, 2)


if __name__ == "__main__":
    sys.exit(main())
