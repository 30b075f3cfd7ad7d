"""Workload set-certify: the Set backend, heavy on certificates.

Each op builds one fresh Set-valued input from its recipe and makes one
verdict: a limit or colimit computed directly and cross-checked by cone
search in the full subcategory of Set the input spans, an interchange check
on a product bifunctor, an end or coend, a left Kan extension by the coend
formula against the pointwise one, a presheaf exponential with its adjunction
check, or a Yoneda round trip.

Sizes are fixed per recipe slot and only the contents are drawn from the
seed, so the cost of a pass over the recipes varies little between seeds.
Rejection filters that need fincat (the result size of a limit, the cost of
materializing Set) run in set-up.
"""
from __future__ import annotations

import random

from fincat.core import FinCat, Functor, Mor, split_pair
from fincat.finset import FinSetMap, FinSetObj, SetFunctor, all_maps
from fincat.fixtures import discrete
from fincat.limits import COLIMIT, LIMIT

from inputs import (build_cat, build_functor, build_set_functor, cat_data, functor_data,
                    outcome, require, set_functor_data)

# One pass over the recipes: (kind, parameters), repeated PASSES times with
# fresh contents.  Parameters are sizes; see the generators below.  The mix
# puts the median op inside the colimit-interchange group and the 95th
# percentile inside the largest limit band, whose costs vary least with the
# seed.
SLOTS = [
    ("yoneda", {}),
    ("yoneda", {}),
    ("end", {"side": "end"}),
    ("end", {"side": "coend"}),
    # width: largest value of the exponent presheaf F; at width 2 the values
    # of F and G have sizes 1 and 2, as the op's cost varies 50-fold otherwise
    ("exponential", {"width": 1}),
    ("exponential", {"width": 2}),
    # cells: total size of the bifunctor's values
    ("interchange", {"direction": LIMIT, "cells": 6}),
    ("interchange", {"direction": LIMIT, "cells": 6}),
    ("interchange", {"direction": COLIMIT, "cells": 6}),
    ("interchange", {"direction": COLIMIT, "cells": 6}),
    ("interchange", {"direction": COLIMIT, "cells": 6}),
    ("interchange", {"direction": COLIMIT, "cells": 6}),
    ("lan", {}),
    ("lan", {}),
    # cost: bounds on the composable pairs of the materialized subcategory
    # of Set, which the op's time follows closely; the top band admits only
    # sets of sizes 2, 2 and 3, so the 95th percentile varies little
    ("limit", {"direction": LIMIT, "cost": (700, 1000)}),
    ("limit", {"direction": COLIMIT, "cost": (700, 1000)}),
    ("limit", {"direction": LIMIT, "cost": (1100, 1900)}),
    ("limit", {"direction": COLIMIT, "cost": (1100, 1900)}),
    ("limit", {"direction": LIMIT, "cost": (2400, 2500)}),
    ("limit", {"direction": COLIMIT, "cost": (2400, 2500)}),
]
# Few passes: a pass takes about 0.2 s, so every recipe runs in each spell of
# full machine speed (see run.py)
PASSES = 2


def _category_with(api, rng, objects: int, max_arrows: int, name: str):
    """A random free category on a DAG with exactly `objects` objects."""
    while True:
        C = api.randgen.random_dag_category(rng, objects, max_arrows, name=name)
        if len(C.objects) == objects:
            return C


def _generators(C) -> list[str]:
    return [m for m in C.nonidentity_mor_names() if "_" not in m]


def _homsize(a: int, b: int) -> int:
    return 1 if a == 0 else b ** a


def _materialize_cost(sizes: list[int]) -> int:
    """Composable pairs of maps among sets of these sizes."""
    return sum(sum(_homsize(a, b) for a in sizes) * sum(_homsize(b, c) for c in sizes)
               for b in sizes)


def _distinct(values: list[FinSetObj]) -> list[FinSetObj]:
    out: list[FinSetObj] = []
    for v in values:
        if all(v != u for u in out):
            out.append(v)
    return out


def gen_limit(api, rng, direction: str, cost: tuple[int, int]) -> dict:
    """A diagram of sets of size <= 3 on a shape of <= 3 objects."""
    lo, hi = cost
    while True:
        D = api.randgen.random_set_diagram(rng, 3, 3)
        # the (co)limit adds at most one set, of at most 27 elements: skip
        # computing it when no such set brings the cost into the band
        base = [len(v) for v in _distinct(list(D.on_obj.values()))]
        if not any(lo <= _materialize_cost(base + extra) <= hi
                   for extra in [[]] + [[n] for n in range(28)]):
            continue
        res = api.limits.limit_finset(D, direction)
        sizes = [len(v) for v in _distinct(list(D.on_obj.values()) + [res.object])]
        if lo <= _materialize_cost(sizes) <= hi:
            return {"kind": "limit", "direction": direction,
                    "shape": cat_data(D.dom), "D": set_functor_data(D)}


def gen_interchange(api, rng, direction: str, cells: int) -> dict:
    """A product bifunctor X(i) x Y(j) on discrete(2) x J, J a single arrow.

    Other shapes of I and J, and empty values of Y, spread the op's cost
    5-fold; the median verdict falls among these ops.
    """
    while True:
        J = api.randgen.random_dag_category(rng, 2, 3, name="J")
        if len(J.objects) != 2 or len(J.morphisms) != 3:
            continue
        Y = api.randgen.random_set_functor_on_free(rng, J, _generators(J), 2, "Y")
        X = [rng.randint(1, 2) for _ in range(2)]
        if all(Y.on_obj.values()) and \
                sum(x * len(Y.on_obj[j]) for x in X for j in J.objects) == cells:
            return {"kind": "interchange", "direction": direction, "X": X,
                    "I": cat_data(discrete(2)), "J": cat_data(J), "Y": set_functor_data(Y)}


def gen_end(api, rng, side: str) -> dict:
    """X(j') x Y(j) on op(J) x J, as in the end/coend acceptance suite."""
    while True:
        J = _category_with(api, rng, 2, 4, "J")
        X = api.randgen.random_representable_sum(rng, api.core.opposite(J), 2, "X")
        Y = api.randgen.random_representable_sum(rng, J, 2, "Y")
        if sum(len(v) for v in X.on_obj.values()) + sum(len(v) for v in Y.on_obj.values()) >= 4:
            return {"kind": "end", "side": side, "J": cat_data(J), "opJ": cat_data(X.dom),
                    "X": set_functor_data(X), "Y": set_functor_data(Y)}


def gen_lan(api, rng) -> dict:
    """K: C -> D between three-object DAG categories, F a sum of representables.

    C has at most 6 morphisms and F at most 4 elements: beyond them the op's
    cost grows 10-fold.
    """
    while True:
        C = _category_with(api, rng, 3, 5, "C")
        D = _category_with(api, rng, 3, 5, "D")
        ks = api.core.enumerate_functors(C, D) if len(C.morphisms) <= 6 else []
        if not ks:
            continue
        K = ks[rng.randrange(len(ks))]
        F = api.randgen.random_representable_sum(rng, C, 3, "F")
        if sum(len(v) for v in F.on_obj.values()) > 4:
            continue
        return {"kind": "lan", "C": cat_data(C), "D": cat_data(D),
                "K": functor_data(K), "F": set_functor_data(F)}


def gen_exponential(api, rng, width: int) -> dict:
    """Presheaves F, G on a two-object DAG, values of size <= 2."""
    while True:
        C = _category_with(api, rng, 2, 2, "C")
        opC = api.core.opposite(C)
        F = api.randgen.random_representable_sum(rng, opC, 2, "F")
        G = api.randgen.random_representable_sum(rng, opC, 2, "G")
        sizes = [sorted(len(v) for v in X.on_obj.values()) for X in (F, G)]
        if width == 1 and sizes[0][-1] == 1 or width == 2 and sizes == [[1, 2], [1, 2]]:
            break
    return {"kind": "exponential", "opC": cat_data(opC),
            "F": set_functor_data(F), "G": set_functor_data(G)}


def gen_yoneda(api, rng) -> dict:
    """A category with <= 3 objects, X a sum of representables, c an object."""
    C = api.randgen.random_category(rng, 3, 6, name="C")
    X = api.randgen.random_representable_sum(rng, C, 3, "X")
    c = rng.choice(sorted(C.objects))
    return {"kind": "yoneda", "C": cat_data(C), "X": set_functor_data(X), "c": c}


GENERATORS = {"limit": gen_limit, "interchange": gen_interchange, "end": gen_end,
              "lan": gen_lan, "exponential": gen_exponential, "yoneda": gen_yoneda}


def make_specs(api, seed: int, step=lambda: None) -> list[dict]:
    """The recipes of one seed; `step` is called after each one is made."""
    rng = random.Random(f"set-certify/{seed}")
    specs = []
    for _ in range(PASSES):
        for kind, params in SLOTS:
            specs.append(GENERATORS[kind](api, rng, **params))
            step()
    return specs


# ---------------------------------------------------------------------------
# Ops

def materialize(values: list[FinSetObj]):
    """The full subcategory of Set on the given objects, as a tabulated FinCat.

    Returns the category, the object id of each value and a lookup from
    (dom id, cod id, table) to the morphism id.
    """
    uniq = sorted(_distinct(values), key=lambda v: (len(v), v.key()))
    obj_id = {v: f"S{i}" for i, v in enumerate(uniq)}
    maps = {}
    mor_id = {}
    for a in uniq:
        for b in uniq:
            for k, t in enumerate(all_maps(a, b)):
                mid = f"{obj_id[a]}>{obj_id[b]}#{k}"
                maps[mid] = t
                mor_id[(obj_id[a], obj_id[b], t)] = mid
    mors = tuple(Mor(mid, obj_id[t.dom], obj_id[t.cod]) for mid, t in maps.items())
    identity = {obj_id[v]: mor_id[(obj_id[v], obj_id[v],
                                   FinSetMap(v, v, {x: x for x in v.elements}))]
                for v in uniq}
    by_dom: dict[str, list[str]] = {}
    for m in mors:
        by_dom.setdefault(m.dom, []).append(m.name)
    compose = {}
    for n in mors:
        for m_name in by_dom.get(n.cod, ()):
            t = maps[n.name].then(maps[m_name])
            compose[(m_name, n.name)] = mor_id[(n.dom, obj_id[t.cod], t)]
    return FinCat("Set|", tuple(obj_id[v] for v in uniq), mors, identity, compose), obj_id, mor_id


def _mediator(S, direction: str, src_apex, src_legs, tgt_apex, tgt_legs) -> str:
    """The unique morphism between two (co)cones over the same diagram."""
    if direction == LIMIT:
        cands = [f for f in S.hom(src_apex, tgt_apex)
                 if all(S.comp(tgt_legs[j], f) == src_legs[j] for j in tgt_legs)]
    else:
        cands = [f for f in S.hom(tgt_apex, src_apex)
                 if all(S.comp(f, tgt_legs[j]) == src_legs[j] for j in tgt_legs)]
    require(len(cands) == 1, "mediating morphism not unique")
    return cands[0]


def _certified_iso(S, direction, apex_a, legs_a, apex_b, legs_b) -> bool:
    f = _mediator(S, direction, apex_a, legs_a, apex_b, legs_b)
    g = _mediator(S, direction, apex_b, legs_b, apex_a, legs_a)
    if direction == COLIMIT:
        f, g = g, f
    return S.comp(g, f) == S.id_of(apex_a) and S.comp(f, g) == S.id_of(apex_b)


def op_limit(api, spec, salt):
    direction = spec["direction"]
    J = build_cat(spec["shape"], salt)
    D = build_set_functor(spec["D"], J, salt)
    direct = api.limits.limit_finset(D, direction)
    require(direct.certificate.ok, "direct certificate failed")
    with api.block("finset.materialize"):
        S, obj_id, mor_id = materialize(list(D.on_obj.values()) + [direct.object])
        emb = Functor(f"emb({D.name})", J, S,
                      {j: obj_id[D.on_obj[j]] for j in J.objects},
                      {m.name: mor_id[(obj_id[D.on_obj[m.dom]], obj_id[D.on_obj[m.cod]],
                                       D.on_mor[m.name])] for m in J.morphisms})
    found = api.limits.limit(emb, direction)
    require(found is not None, "cone search missed the (co)limit the direct route found")
    apex = obj_id[direct.object]
    legs = {}
    for j in J.objects:
        leg = direct.cone.legs.components[j]
        legs[j] = mor_id[(obj_id[leg.dom], obj_id[leg.cod], leg)]
    require(_certified_iso(S, direction, apex, legs, found.object,
                           dict(found.cone.legs.components)),
            "direct and cone-search (co)limits are not isomorphic")
    return outcome("iso", size=len(direct.object),
                   checked=direct.certificate.checked + found.certificate.checked)


def op_interchange(api, spec, salt):
    I = build_cat(spec["I"], salt)
    J = build_cat(spec["J"], salt)
    P = api.core.product(I, J)
    Y = build_set_functor(spec["Y"], J, salt)
    X = dict(zip(I.sorted_objects(), spec["X"]))
    on_obj, on_mor = {}, {}
    for o in P.objects:
        i, j = split_pair(o)
        on_obj[o] = FinSetObj(tuple(f"({n},{y})" for n in range(X[i])
                                    for y in Y.on_obj[j].sorted()))
    for m in P.morphisms:
        g = split_pair(m.name)[1]
        i, j = split_pair(m.dom)
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                   {f"({n},{y})": f"({n},{Y.on_mor[g](y)})"
                                    for n in range(X[i]) for y in Y.on_obj[j].sorted()})
    B = SetFunctor("B", P, on_obj, on_mor)
    w = api.limits.interchange_check_finset(B, I, J, spec["direction"])
    require(w.report.ok, "interchange not certified")
    return outcome("iso", size=len(w.joint), checked=w.report.checked)


def op_end(api, spec, salt):
    J = build_cat(spec["J"], salt)
    opJ = build_cat(spec["opJ"], salt)
    P = api.core.product(opJ, J)
    X = build_set_functor(spec["X"], opJ, salt)
    Y = build_set_functor(spec["Y"], J, salt)
    on_obj, on_mor = {}, {}
    for o in P.objects:
        jp, j = split_pair(o)
        on_obj[o] = FinSetObj(tuple(f"({x},{y})" for x in X.on_obj[jp].sorted()
                                    for y in Y.on_obj[j].sorted()))
    for m in P.morphisms:
        f, g = split_pair(m.name)
        jp, j = split_pair(m.dom)
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                   {f"({x},{y})": f"({X.on_mor[f](x)},{Y.on_mor[g](y)})"
                                    for x in X.on_obj[jp].sorted()
                                    for y in Y.on_obj[j].sorted()})
    B = SetFunctor("B", P, on_obj, on_mor)
    res = api.kan.end_coend(B, J, spec["side"])
    require(res is not None and res.certificate.ok, "Set bifunctor has no (co)end")
    return outcome("found", size=len(res.object), checked=res.certificate.checked)


def op_lan(api, spec, salt):
    C = build_cat(spec["C"], salt)
    D = build_cat(spec["D"], salt)
    K = build_functor(spec["K"], C, D, salt)
    F = build_set_functor(spec["F"], C, salt)
    kr = api.kan.kan_pointwise(K, F, "left")
    require(kr.extension is not None and kr.certificate.ok, "pointwise Lan not certified")
    ck = api.kan.lan_via_coend(K, F)
    require(ck.report.ok and ck.iso_to_pointwise is not None,
            "coend formula is not isomorphic to the pointwise Lan")
    return outcome("iso", size=sum(len(v) for v in kr.extension.on_obj.values()),
                   checked=kr.certificate.checked + ck.report.checked)


def op_exponential(api, spec, salt):
    opC = build_cat(spec["opC"], salt)
    F = build_set_functor(spec["F"], opC, salt)
    G = build_set_functor(spec["G"], opC, salt)
    one = FinSetObj((salt + "*",))
    T = SetFunctor("T", opC, {a: one for a in opC.objects},
                   {m.name: FinSetMap(one, one, {salt + "*": salt + "*"})
                    for m in opC.morphisms})
    exp = api.finset.presheaf_exponential(F, G)
    rep = api.finset.exponential_adjunction_check(F, G, exp, [F, G, T])
    require(rep.ok, "exponential adjunction not certified")
    return outcome("iso", size=sum(len(v) for v in exp.functor.on_obj.values()),
                   checked=rep.checked)


def op_yoneda(api, spec, salt):
    C = build_cat(spec["C"], salt)
    X = build_set_functor(spec["X"], C, salt)
    c = salt + spec["c"]
    yc = api.finset.hom_functor(C, c, "covariant")
    nats = api.finset.enumerate_set_naturals(yc, X)
    require(len(nats) == len(X.on_obj[c]), "Nat(y_c, X) does not match X(c) in size")
    for x in X.on_obj[c].sorted():
        t = api.finset.yoneda_map("beta", C, c, X, x)
        require(api.finset.yoneda_map("alpha", C, c, X, t) == x, "Yoneda round trip broke")
    return outcome("iso", size=len(nats))


OPS = {"limit": op_limit, "interchange": op_interchange, "end": op_end, "lan": op_lan,
       "exponential": op_exponential, "yoneda": op_yoneda}


def run_op(api, spec: dict, salt: str) -> dict:
    return OPS[spec["kind"]](api, spec, salt)
