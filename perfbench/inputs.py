"""Seeded inputs kept as plain data, and their construction as fincat values.

Generation (in set-up) turns fincat values into plain tuples and dicts.  An op
builds fresh fincat values from them.  A salt prefixes every object,
morphism and element id, so two ops that reuse one recipe still build values
that are not equal, and a value-keyed cache cannot hit between them.  The
prefix keeps the relative order of ids, so verdicts, sizes and `checked`
counts do not depend on it.
"""
from __future__ import annotations

from fincat.core import FinCat, Functor, Mor
from fincat.finset import FinSetMap, FinSetObj, SetFunctor


class CheckFailed(Exception):
    """An op's result broke an invariant or differed from the expected outcome."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def outcome(verdict: str, *, law=None, size=None, checked=None, digest=None) -> dict:
    """One op's verdict in the form the correctness gate compares."""
    return {"verdict": verdict, "law": law, "size": size, "checked": checked,
            "digest": digest}


def cat_data(C: FinCat) -> dict:
    return {"name": C.name,
            "objects": list(C.objects),
            "mors": [(m.name, m.dom, m.cod) for m in C.morphisms],
            "identity": dict(C.identity),
            "compose": [(g, f, h) for (g, f), h in C.compose.items()]}


def functor_data(F: Functor) -> dict:
    return {"name": F.name, "obj": dict(F.obj_map), "mor": dict(F.mor_map)}


def set_functor_data(X: SetFunctor) -> dict:
    return {"name": X.name,
            "obj": {a: list(v.elements) for a, v in X.on_obj.items()},
            "mor": {f: dict(m.table) for f, m in X.on_mor.items()}}


def build_cat(data: dict, salt: str) -> FinCat:
    s = salt
    return FinCat(data["name"],
                  tuple(s + a for a in data["objects"]),
                  tuple(Mor(s + n, s + d, s + c) for n, d, c in data["mors"]),
                  {s + a: s + i for a, i in data["identity"].items()},
                  {(s + g, s + f): s + h for g, f, h in data["compose"]})


def build_functor(data: dict, dom: FinCat, cod: FinCat, salt: str) -> Functor:
    s = salt
    return Functor(data["name"], dom, cod,
                   {s + a: s + b for a, b in data["obj"].items()},
                   {s + f: s + g for f, g in data["mor"].items()})


def build_set_functor(data: dict, dom: FinCat, salt: str) -> SetFunctor:
    s = salt
    on_obj = {s + a: FinSetObj(tuple(s + x for x in xs)) for a, xs in data["obj"].items()}
    on_mor = {}
    for f, table in data["mor"].items():
        mor = dom.mor[s + f]
        on_mor[s + f] = FinSetMap(on_obj[mor.dom], on_obj[mor.cod],
                                  {s + x: s + y for x, y in table.items()})
    return SetFunctor(data["name"], dom, on_obj, on_mor)
