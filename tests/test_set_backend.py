"""The Set backend's (co)limit-shaped constructions run on one tuple kernel,
one quotient kernel and one induced-map helper.  These tests keep the
constructions as they were written out one by one as references and compare
whole results on seeded inputs, Reports included (laws, details and `checked`
counts).  Some inputs are deliberately not functors, so that failure reports
and raised errors are compared too.
"""
import dataclasses
import itertools
import random
from collections.abc import Mapping

from fincat import core, kan
from fincat.core import (
    Keyed,
    StructuralError,
    budget,
    enumerate_functors,
    fail_report,
    identity_functor,
    ok_report,
    opposite,
    opposite_functor,
    pair_id,
    product,
    split_pair,
)
from fincat.finset import (
    SINGLETON,
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    all_maps,
    const_set_functor,
    enumerate_set_naturals,
    hom_functor,
    set_precompose,
    table_id,
    validate_set_natural,
)
from fincat.fixtures import chain, discrete, parallel_pair, walking_arrow, z2_monoid
from fincat.kan import (
    LEFT,
    RIGHT,
    CoendKan,
    EndResult,
    KanResult,
    WedgeData,
    WeightedResult,
    coyoneda_witness,
    end_coend_finset,
    kan_pointwise,
    lan_via_coend,
    weighted_limit,
)
from fincat.limits import (
    COLIMIT,
    LIMIT,
    ConeData,
    InterchangeWitness,
    LimitResult,
    UnionFind,
    _certify_finset,
    induced_set_map,
    interchange_check_finset,
    limit_finset,
)
from fincat.randgen import (
    random_dag_category,
    random_preorder_category,
    random_representable_sum,
    random_set_diagram,
)
from fincat.universal import comma_from_object, comma_to_object


def _ser(x):
    """Everything a result holds, element and table order included."""
    if isinstance(x, FinSetObj):
        return ("set", x.elements)
    if isinstance(x, FinSetMap):
        return ("map", x.dom.elements, x.cod.elements, tuple(x.table.items()))
    if isinstance(x, SetFunctor):
        return ("setfunctor", x.name, x.dom.key(), _ser(x.on_obj), _ser(x.on_mor))
    if isinstance(x, SetNatTrans):
        return ("setnat", x.name, _ser(x.src), _ser(x.tgt), _ser(x.components))
    if isinstance(x, Keyed):
        return (type(x).__name__, x.key())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_ser(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, Mapping):
        return tuple((k, _ser(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_ser(v) for v in x)
    return x


def _outcome(fn, *args):
    try:
        return _ser(fn(*args))
    except StructuralError:
        return "StructuralError"


def _broken(rng, X):
    """X with up to three table entries redirected: mostly not a functor."""
    ms = [m for m in sorted(X.on_mor) if len(X.on_mor[m].dom) and len(X.on_mor[m].cod) > 1]
    if not ms:
        return X
    on_mor = dict(X.on_mor)
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(ms)
        t = dict(on_mor[m].table)
        t[rng.choice(sorted(t))] = rng.choice(X.on_mor[m].cod.sorted())
        on_mor[m] = FinSetMap(X.on_mor[m].dom, X.on_mor[m].cod, t)
    return SetFunctor(X.name, X.dom, X.on_obj, on_mor)


def _category(rng):
    return rng.choice([lambda: random_preorder_category(rng, 3),
                       lambda: random_dag_category(rng, 3, 5), z2_monoid, walking_arrow,
                       parallel_pair, lambda: chain(3), lambda: discrete(2)])()


def _law(report):
    return None if report.ok else report.counterexample.law


# ---------------------------------------------------------------------------
# References

def ref_limit_finset(D, direction):
    J = D.dom
    objs = J.sorted_objects()
    if direction == LIMIT:
        members = []
        for combo in itertools.product(*[D.on_obj[j].sorted() for j in objs]):
            values = dict(zip(objs, combo))
            if all(D.on_mor[m.name](values[m.dom]) == values[m.cod] for m in J.morphisms):
                members.append(values)
        tid = lambda v: "(" + ",".join(v[j] for j in objs) + ")"
        obj = FinSetObj(tuple(tid(v) for v in members))
        decode = {tid(v): v for v in members}
        legs = {j: FinSetMap(obj, D.on_obj[j], {e: decode[e][j] for e in obj.elements})
                for j in objs}
        nat = SetNatTrans(f"lim-cone({D.name})", const_set_functor(J, obj), D, legs)
        return LimitResult(obj, ConeData("", nat, "cone"),
                           _certify_finset(D, direction, obj, legs))
    uf = UnionFind([f"{j}:{x}" for j in objs for x in D.on_obj[j].sorted()])
    for m in J.morphisms:
        for x in D.on_obj[m.dom].sorted():
            uf.union(f"{m.dom}:{x}", f"{m.cod}:{D.on_mor[m.name](x)}")
    obj = FinSetObj(tuple(sorted(uf.classes())))
    legs = {j: FinSetMap(D.on_obj[j], obj, {x: uf.find(f"{j}:{x}")
                                            for x in D.on_obj[j].elements})
            for j in objs}
    nat = SetNatTrans(f"colim-cocone({D.name})", D, const_set_functor(J, obj), legs)
    return LimitResult(obj, ConeData("", nat, "cocone"),
                       _certify_finset(D, direction, obj, legs))


def ref_induced_map(src, tgt, D, B, m, flip, direction):
    dkey = lambda a, b: pair_id(b, a) if flip else pair_id(a, b)
    table = {}
    if direction == LIMIT:
        for e in src.object.elements:
            values = {b: D.on_mor[dkey(m.name, B.id_of(b))](src.cone.legs.components[b](e))
                      for b in B.objects}
            found = [e2 for e2 in tgt.object.elements
                     if all(tgt.cone.legs.components[b](e2) == values[b] for b in B.objects)]
            if len(found) != 1:
                raise StructuralError("induced map between inner limits not unique")
            table[e] = found[0]
        return FinSetMap(src.object, tgt.object, table)
    for b in B.objects:
        for x in D.on_obj[dkey(m.dom, b)].elements:
            src_cls = src.cone.legs.components[b](x)
            tgt_cls = tgt.cone.legs.components[b](D.on_mor[dkey(m.name, B.id_of(b))](x))
            if table.setdefault(src_cls, tgt_cls) != tgt_cls:
                raise StructuralError("induced map between inner colimits ill-defined")
    return FinSetMap(src.object, tgt.object, table)


def ref_interchange_check_finset(D, I, J, direction):
    joint = ref_limit_finset(D, direction)

    def inner_then_outer(A, B, flip):
        per = {}
        for a in A.objects:
            Da = SetFunctor(
                f"{D.name}({a},-)", B,
                {b: D.on_obj[pair_id(a, b) if not flip else pair_id(b, a)] for b in B.objects},
                {m.name: D.on_mor[pair_id(A.id_of(a), m.name) if not flip
                                  else pair_id(m.name, A.id_of(a))] for m in B.morphisms})
            per[a] = ref_limit_finset(Da, direction)
        outerD = SetFunctor(
            f"{direction}_inner({D.name})", A, {a: per[a].object for a in A.objects},
            {m.name: ref_induced_map(per[m.dom], per[m.cod], D, B, m, flip, direction)
             for m in A.morphisms})
        return ref_limit_finset(outerD, direction), per

    outer, per_i = inner_then_outer(I, J, False)
    outer2, per_j = inner_then_outer(J, I, True)
    witness = lambda rep: InterchangeWitness(outer.object, joint.object, outer2.object, rep)
    checked = 0
    if not (joint.certificate.ok and outer.certificate.ok and outer2.certificate.ok):
        return witness(fail_report(1, "limit-interchange", failure="inner certificate"))
    for res, per, flip in ((outer, per_i, False), (outer2, per_j, True)):
        table = {}
        if direction == LIMIT:
            signature = {tuple(sorted((o, joint.cone.legs.components[o](e))
                                      for o in D.dom.objects)): e
                         for e in joint.object.elements}
            for e in res.object.elements:
                values = {}
                for a, inner in per.items():
                    mid = res.cone.legs.components[a](e)
                    for b, leg in inner.cone.legs.components.items():
                        values[pair_id(b, a) if flip else pair_id(a, b)] = leg(mid)
                checked += 1
                key = tuple(sorted(values.items()))
                if key not in signature:
                    table = None
                    break
                table[e] = signature[key]
            m = None if table is None else FinSetMap(res.object, joint.object, table)
        else:
            for o in D.dom.objects:
                i, j = split_pair(o)
                outer_key, inner_key = (j, i) if flip else (i, j)
                for x in D.on_obj[o].elements:
                    src = joint.cone.legs.components[o](x)
                    mid = per[outer_key].cone.legs.components[inner_key](x)
                    tgt = res.cone.legs.components[outer_key](mid)
                    checked += 1
                    if table.setdefault(src, tgt) != tgt:
                        table = None
                        break
                if table is None:
                    break
            m = None if table is None else FinSetMap(joint.object, res.object, table)
        if m is None or not m.is_bijection():
            return witness(fail_report(checked, "limit-interchange", failure="no bijection"))
    return witness(ok_report(checked))


def ref_end_coend_finset(D, J, side):
    if D.dom != product(opposite(J), J):
        raise StructuralError("bifunctor must live on op(J) x J")
    objs = J.sorted_objects()
    if side == "end":
        members = []
        for combo in itertools.product(*[D.on_obj[pair_id(j, j)].sorted() for j in objs]):
            values = dict(zip(objs, combo))
            if all(D.on_mor[pair_id(J.id_of(h.dom), h.name)](values[h.dom]) ==
                   D.on_mor[pair_id(h.name, J.id_of(h.cod))](values[h.cod])
                   for h in J.morphisms):
                members.append(values)
        tid = lambda v: "(" + ",".join(v[j] for j in objs) + ")"
        obj = FinSetObj(tuple(tid(v) for v in members))
        decode = {tid(v): v for v in members}
        legs = {j: FinSetMap(obj, D.on_obj[pair_id(j, j)],
                             {e: decode[e][j] for e in obj.elements}) for j in objs}
        return EndResult(obj, WedgeData("", legs, "wedge"), ok_report(len(members)))
    items = [f"{j}:{x}" for j in objs for x in D.on_obj[pair_id(j, j)].sorted()]
    uf = UnionFind(items)
    for h in J.morphisms:
        j, i = h.dom, h.cod
        for y in D.on_obj[pair_id(i, j)].sorted():
            uf.union(f"{i}:{D.on_mor[pair_id(J.id_of(i), h.name)](y)}",
                     f"{j}:{D.on_mor[pair_id(h.name, J.id_of(j))](y)}")
    obj = FinSetObj(tuple(sorted(uf.classes())))
    legs = {j: FinSetMap(D.on_obj[pair_id(j, j)], obj,
                         {x: uf.find(f"{j}:{x}") for x in D.on_obj[pair_id(j, j)].elements})
            for j in objs}
    return EndResult(obj, WedgeData("", legs, "cowedge"), ok_report(len(items)))


def ref_kan_pointwise_set(K, F, side):
    C, D = K.dom, K.cod
    direction = COLIMIT if side == LEFT else LIMIT
    commas, per, pair_index = {}, {}, {}
    for d in D.sorted_objects():
        comma = comma_to_object(K, d) if side == LEFT else comma_from_object(d, K)
        commas[d] = comma
        pair_index[d] = {v: k for k, v in comma.pairs.items()}
        res = ref_limit_finset(set_precompose(F, comma.forgetful), direction)
        if not res.certificate.ok:
            return KanResult(None, None, per, commas, side,
                             fail_report(0, "kan-comma-limit", at=d), missing_at=d)
        per[d] = res
    checked = 0
    on_mor = {}
    for m in D.morphisms:
        d, dp = m.dom, m.cod
        table = {}
        if side == LEFT:
            for o, (c, p) in commas[d].pairs.items():
                op_ = pair_index[dp][(c, D.comp(m.name, p))]
                for x in F.on_obj[c].elements:
                    src = per[d].cone.legs.components[o](x)
                    tgt = per[dp].cone.legs.components[op_](x)
                    checked += 1
                    if table.setdefault(src, tgt) != tgt:
                        return KanResult(None, None, per, commas, side,
                                         fail_report(checked, "kan-action", morphism=m.name))
        else:
            objs_dp = commas[dp].cat.sorted_objects()
            for e in per[d].object.elements:
                values = {}
                for o in objs_dp:
                    c, p = commas[dp].pairs[o]
                    values[o] = per[d].cone.legs.components[
                        pair_index[d][(c, D.comp(p, m.name))]](e)
                found = [e2 for e2 in per[dp].object.elements
                         if all(per[dp].cone.legs.components[o](e2) == values[o]
                                for o in objs_dp)]
                checked += 1
                if len(found) != 1:
                    return KanResult(None, None, per, commas, side,
                                     fail_report(checked, "kan-action", morphism=m.name))
                table[e] = found[0]
        on_mor[m.name] = FinSetMap(per[d].object, per[dp].object, table)
    name = f"{'Lan' if side == LEFT else 'Ran'}[{K.name}]({F.name})"
    ext = SetFunctor(name, D, {d: per[d].object for d in D.objects}, on_mor)
    LK = set_precompose(ext, K)
    comps = {}
    for c in C.objects:
        d = K.obj_map[c]
        comps[c] = per[d].cone.legs.components[pair_index[d][(c, D.id_of(d))]]
    unit = SetNatTrans("unit", F, LK, comps) if side == LEFT else \
        SetNatTrans("counit", LK, F, comps)
    rep = validate_set_natural(unit)
    if not rep.ok:
        return KanResult(ext, unit, per, commas, side,
                         fail_report(checked, "kan-unit-naturality",
                                     detail=str(rep.counterexample)))
    return KanResult(ext, unit, per, commas, side, ok_report(checked + rep.checked))


def ref_hom_tensor_bifunctor(K, F, d):
    C, D = K.dom, K.cod
    P = product(opposite(C), C)
    on_obj = {}
    for o in P.objects:
        cp, c = split_pair(o)
        on_obj[o] = FinSetObj(tuple(f"({p},{x})" for p in sorted(D.hom(K.obj_map[cp], d))
                                    for x in F.on_obj[c].sorted()))
    on_mor = {}
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        cp0, c0 = split_pair(m.dom)
        table = {f"({p},{x})": f"({D.comp(p, K.mor_map[fo])},{F.on_mor[g](x)})"
                 for p in sorted(D.hom(K.obj_map[cp0], d)) for x in F.on_obj[c0].sorted()}
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor(f"hom(K-,{d})xF", P, on_obj, on_mor)


def ref_lan_via_coend(K, F):
    C, D = K.dom, K.cod
    per = {d: ref_end_coend_finset(ref_hom_tensor_bifunctor(K, F, d), C, "coend")
           for d in D.objects}
    on_mor = {}
    for m in D.morphisms:
        d, dp = m.dom, m.cod
        table = {}
        for c in C.objects:
            for p in sorted(D.hom(K.obj_map[c], d)):
                for x in F.on_obj[c].sorted():
                    src = per[d].wedge.components[c](f"({p},{x})")
                    tgt = per[dp].wedge.components[c](f"({D.comp(m.name, p)},{x})")
                    if table.setdefault(src, tgt) != tgt:
                        return CoendKan(None, per, None,
                                        fail_report(0, "coend-kan-action", morphism=m.name))
        on_mor[m.name] = FinSetMap(per[d].object, per[dp].object, table)
    L = SetFunctor(f"coendLan[{K.name}]({F.name})", D,
                   {d: per[d].object for d in D.objects}, on_mor)
    kr = ref_kan_pointwise_set(K, F, LEFT)
    if kr.extension is None:
        return CoendKan(L, per, None, fail_report(0, "kan-comma-limit", at=kr.missing_at))
    checked = 0
    comps = {}
    for d in D.objects:
        table = {}
        for o, (c, p) in kr.commas[d].pairs.items():
            for x in F.on_obj[c].elements:
                src = kr.per_object[d].cone.legs.components[o](x)
                tgt = per[d].wedge.components[c](f"({p},{x})")
                checked += 1
                if table.setdefault(src, tgt) != tgt:
                    return CoendKan(L, per, None, fail_report(checked, "coend-kan-iso", at=d))
        m = FinSetMap(kr.extension.on_obj[d], L.on_obj[d], table)
        if not m.is_bijection():
            return CoendKan(L, per, None, fail_report(checked, "coend-kan-iso", at=d,
                                                      failure="not bijective"))
        comps[d] = m
    iso = SetNatTrans("coend-vs-comma", kr.extension, L, comps)
    rep = validate_set_natural(iso)
    if not rep.ok:
        return CoendKan(L, per, None, fail_report(checked, "coend-kan-iso",
                                                  failure="not natural"))
    return CoendKan(L, per, iso, ok_report(checked + rep.checked))


def ref_weighted_limit_finset(W, F):
    C = W.dom
    P = product(opposite(C), C)
    on_obj, on_mor, decode = {}, {}, {}
    for o in P.objects:
        cp, c = split_pair(o)
        on_obj[o] = FinSetObj(tuple(table_id(t) for t in all_maps(W.on_obj[cp], F.on_obj[c])))
        decode[o] = {table_id(t): t for t in all_maps(W.on_obj[cp], F.on_obj[c])}
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        cp1, c1 = split_pair(m.cod)
        table = {}
        for eid in on_obj[m.dom].elements:
            t = decode[m.dom][eid]
            table[eid] = table_id(FinSetMap(W.on_obj[cp1], F.on_obj[c1],
                                            {w: F.on_mor[g](t(W.on_mor[fo](w)))
                                             for w in W.on_obj[cp1].elements}))
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    res = ref_end_coend_finset(SetFunctor("B", P, on_obj, on_mor), C, "end")
    nats = enumerate_set_naturals(W, F)
    checked = 0
    seen = set()
    for e in res.object.elements:
        cand = SetNatTrans("decoded", W, F, {c: decode[pair_id(c, c)][res.wedge.components[c](e)]
                                             for c in C.objects})
        checked += 1
        if not validate_set_natural(cand).ok or cand not in set(nats):
            return WeightedResult(res.object, fail_report(
                checked, "weighted-limit-naturals", element=e))
        seen.add(cand.key())
    if len(seen) != len(nats):
        return WeightedResult(res.object, fail_report(
            checked, "weighted-limit-naturals", failure="not bijective"))
    for probe in (SINGLETON, FinSetObj(("p0", "p1"))):
        maps = lambda X: FinSetObj(tuple(table_id(t) for t in all_maps(probe, X)))
        homF = SetFunctor("maps", C, {c: maps(F.on_obj[c]) for c in C.objects},
                          {m.name: FinSetMap(maps(F.on_obj[m.dom]), maps(F.on_obj[m.cod]),
                                             {table_id(t): table_id(t.then(F.on_mor[m.name]))
                                              for t in all_maps(probe, F.on_obj[m.dom])})
                           for m in C.morphisms})
        target = enumerate_set_naturals(W, homF)
        images = set()
        for h in all_maps(probe, res.object):
            comps = {}
            for c in C.objects:
                tbl = {w: table_id(FinSetMap(probe, F.on_obj[c], {
                    q: decode[pair_id(c, c)][res.wedge.components[c](h(q))](w)
                    for q in probe.elements})) for w in W.on_obj[c].elements}
                comps[c] = FinSetMap(W.on_obj[c], homF.on_obj[c], tbl)
            cand = SetNatTrans("transposed", W, homF, comps)
            checked += 1
            if not validate_set_natural(cand).ok or cand not in set(target):
                return WeightedResult(res.object, fail_report(
                    checked, "weighted-limit-defining-bijection", probe=str(probe.sorted())))
            images.add(cand.key())
        if len(images) != len(target):
            return WeightedResult(res.object, fail_report(
                checked, "weighted-limit-defining-bijection",
                probe=str(probe.sorted()), failure="not bijective"))
    return WeightedResult(res.object, ok_report(checked))


def ref_weighted_colimit_finset(W, F):
    opC = W.dom
    C = opposite(opC)
    P = product(opC, C)
    on_obj, on_mor = {}, {}
    for o in P.objects:
        cp, c = split_pair(o)
        on_obj[o] = FinSetObj(tuple(f"({w},{x})" for w in W.on_obj[cp].sorted()
                                    for x in F.on_obj[c].sorted()))
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        cp0, c0 = split_pair(m.dom)
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], {
            f"({w},{x})": f"({W.on_mor[fo](w)},{F.on_mor[g](x)})"
            for w in W.on_obj[cp0].sorted() for x in F.on_obj[c0].sorted()})
    res = ref_end_coend_finset(SetFunctor("B", P, on_obj, on_mor), C, "coend")
    checked = 0
    for probe in (SINGLETON, FinSetObj(("p0", "p1"))):
        maps = lambda X: FinSetObj(tuple(table_id(t) for t in all_maps(X, probe)))
        homF = SetFunctor("maps", opC, {c: maps(F.on_obj[c]) for c in C.objects},
                          {m.name: FinSetMap(maps(F.on_obj[m.dom]), maps(F.on_obj[m.cod]),
                                             {table_id(t): table_id(F.on_mor[m.name].then(t))
                                              for t in all_maps(F.on_obj[m.dom], probe)})
                           for m in opC.morphisms})
        target = enumerate_set_naturals(W, homF)
        images = set()
        for h in all_maps(res.object, probe):
            comps = {}
            for c in C.objects:
                tbl = {w: table_id(FinSetMap(F.on_obj[c], probe, {
                    x: h(res.wedge.components[c](f"({w},{x})")) for x in F.on_obj[c].elements}))
                    for w in W.on_obj[c].elements}
                comps[c] = FinSetMap(W.on_obj[c], homF.on_obj[c], tbl)
            cand = SetNatTrans("transposed", W, homF, comps)
            checked += 1
            if not validate_set_natural(cand).ok or cand not in set(target):
                return WeightedResult(res.object, fail_report(
                    checked, "weighted-colimit-defining-bijection", probe=str(probe.sorted())))
            images.add(cand.key())
        if len(images) != len(target):
            return WeightedResult(res.object, fail_report(
                checked, "weighted-colimit-defining-bijection",
                probe=str(probe.sorted()), failure="not bijective"))
    return WeightedResult(res.object, ok_report(checked))


# ---------------------------------------------------------------------------
# Comparisons

def test_limit_finset_matches_written_out_tuples_and_quotient():
    for seed in range(40):
        rng = random.Random(seed)
        D = random_set_diagram(rng, 3, 3)
        for X in (D, _broken(rng, D)):
            for direction in (LIMIT, COLIMIT):
                assert _ser(limit_finset(X, direction)) == \
                    _ser(ref_limit_finset(X, direction)), (seed, direction)


def test_interchange_matches_written_out_mediators():
    shapes = [discrete(1), discrete(2), walking_arrow(), parallel_pair()]
    outcomes = []
    for seed in range(60):
        rng = random.Random(100 + seed)
        I, J = rng.choice(shapes), rng.choice(shapes)
        D = random_representable_sum(rng, product(I, J), 3)
        if seed % 2:
            D = _broken(rng, D)
        for direction in (LIMIT, COLIMIT):
            got = _outcome(interchange_check_finset, D, I, J, direction)
            assert got == _outcome(ref_interchange_check_finset, D, I, J, direction), \
                (seed, direction)
            outcomes.append(got)
    assert "StructuralError" in outcomes and any(o != "StructuralError" for o in outcomes)


def test_end_coend_matches_written_out_diagonal():
    for seed in range(60):
        rng = random.Random(200 + seed)
        J = _category(rng)
        B = random_representable_sum(rng, product(opposite(J), J), 3)
        if seed % 2:
            B = _broken(rng, B)
        for side in ("end", "coend"):
            assert _ser(end_coend_finset(B, J, side)) == \
                _ser(ref_end_coend_finset(B, J, side)), (seed, side)


def _kan_inputs(n):
    for seed in range(n):
        rng = random.Random(300 + seed)
        C, D = _category(rng), _category(rng)
        with budget(2000):
            Ks = enumerate_functors(C, D)
        if Ks:
            F = random_representable_sum(rng, C, 3)
            yield rng.choice(Ks), F if seed % 2 else _broken(rng, F)


def test_set_kan_action_matches_written_out_factorization():
    for K, F in _kan_inputs(60):
        for side in (LEFT, RIGHT):
            assert _ser(kan_pointwise(K, F, side)) == \
                _ser(ref_kan_pointwise_set(K, F, side)), (K.name, side)


def test_lan_via_coend_matches_written_out_formula():
    laws = set()
    for K, F in _kan_inputs(60):
        res = lan_via_coend(K, F)
        assert _ser(res) == _ser(ref_lan_via_coend(K, F)), K.name
        laws.add(_law(res.report))
    assert {None, "coend-kan-iso"} <= laws


def test_hom_weighted_tensor_is_the_weighted_colimit_bifunctor():
    for K, F in _kan_inputs(30):
        C = K.dom
        P = product(opposite(C), C)
        for d in K.cod.sorted_objects():
            W = kan._hom_set_functor(d, opposite_functor(K))
            assert _ser(kan._tensor_bifunctor(W, F, P))[2:] == \
                _ser(ref_hom_tensor_bifunctor(K, F, d))[2:]
        for c in C.sorted_objects():
            W = hom_functor(C, c, "contravariant")
            assert _ser(kan._tensor_bifunctor(W, F, P))[2:] == \
                _ser(ref_hom_tensor_bifunctor(identity_functor(C), F, c))[2:]


def test_weighted_set_limits_match_written_out_probe_loops():
    laws = set()
    for seed in range(40):
        rng = random.Random(400 + seed)
        C = _category(rng)
        W, Wop = random_representable_sum(rng, C, 2), random_representable_sum(rng, opposite(C), 2)
        F = random_representable_sum(rng, C, 2)
        if seed % 2:
            W, Wop, F = _broken(rng, W), _broken(rng, Wop), _broken(rng, F)
        res = weighted_limit(W, F, LIMIT)
        assert _ser(res) == _ser(ref_weighted_limit_finset(W, F)), seed
        laws.add(_law(res.certificate))
        res = weighted_limit(Wop, F, COLIMIT)
        assert _ser(res) == _ser(ref_weighted_colimit_finset(Wop, F)), seed
        laws.add(_law(res.certificate))
    assert {None, "weighted-limit-naturals"} <= laws


# ---------------------------------------------------------------------------
# The induced-map helper where lawful input never takes it

def test_induced_set_map_stops_at_an_ill_defined_colimit_class():
    X, S = FinSetObj(("x", "y")), FinSetObj(("a",))
    Y, T = FinSetObj(("u", "v")), FinSetObj(("U", "V"))
    src_legs = {"k": FinSetMap(X, S, {"x": "a", "y": "a"})}
    tgt_legs = {"k2": FinSetMap(Y, T, {"u": "U", "v": "V"})}
    # x and y share a class but land in different ones
    assert induced_set_map(COLIMIT, S, src_legs, T, tgt_legs,
                           [("k", {"x": "u", "y": "v"}, "k2")]) == (None, 2)
    f, n = induced_set_map(COLIMIT, S, src_legs, T, tgt_legs,
                           [("k", {"x": "u", "y": "u"}, "k2")])
    assert (dict(f.table), n) == ({"a": "U"}, 2)


def test_induced_set_map_stops_at_a_missing_or_repeated_limit_element():
    S, X = FinSetObj(("e1", "e2")), FinSetObj(("x", "y"))
    src_legs = {"k": FinSetMap(S, X, {"e1": "x", "e2": "y"})}
    T = FinSetObj(("t1",))
    # no element of T has leg value y
    assert induced_set_map(LIMIT, S, src_legs, T, {"k2": FinSetMap(T, X, {"t1": "x"})},
                           [("k", None, "k2")]) == (None, 2)
    # two elements of T have leg value x
    T2 = FinSetObj(("t1", "t2"))
    assert induced_set_map(LIMIT, S, src_legs, T2,
                           {"k2": FinSetMap(T2, X, {"t1": "x", "t2": "x"})},
                           [("k", None, "k2")]) == (None, 1)
    f, n = induced_set_map(LIMIT, S, src_legs, T2,
                           {"k2": FinSetMap(T2, X, {"t1": "y", "t2": "x"})},
                           [("k", None, "k2")])
    assert (dict(f.table), n) == ({"e1": "t2", "e2": "t1"}, 2)


# ---------------------------------------------------------------------------
# The coend formula builds op(C) x C once per category

def test_coend_formula_builds_one_product_category(monkeypatch):
    calls = []
    real = core.product
    monkeypatch.setattr(core, "product", lambda *cats: calls.append(cats) or real(*cats))
    C = walking_arrow()
    K = enumerate_functors(C, chain(3))[-1]
    F = hom_functor(C, "0", "covariant")
    assert lan_via_coend(K, F).report.ok
    assert len(calls) == 1
    # the same category: op(C) x C is not built again
    assert coyoneda_witness(F, "1").report.ok
    assert len(calls) == 1
