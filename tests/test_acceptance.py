"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
import time

import pytest

from fincat.adjunction import (
    adjoint_from_universals,
    convert,
    equivalence_to_adjunction,
    snake_check,
    validate_adjunction,
)
from fincat.core import (
    FinCat,
    Functor,
    Mor,
    NatTrans,
    compose_functors,
    diagonal_functor,
    functor_category,
    identity_functor,
    opposite,
    pair_id,
    product,
    renamed,
    split_pair,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    SINGLETON,
    SetFunctor,
    all_maps,
    const_set_functor,
    enumerate_set_naturals,
    hom_functor,
    table_id,
    yoneda_map,
)
from fincat.fixtures import (
    bang,
    discrete,
    empty_category,
    parallel_pair,
    pick_object,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.kan import (
    LEFT,
    codensity_monad,
    coyoneda_witness,
    density_check,
    end_coend,
    end_coend_finset,
    kan_pointwise,
    kan_universal_check,
    lan_via_coend,
    monad_laws,
    reconstruct_comma_cocone,
    weighted_limit,
)
from fincat.limits import COLIMIT, LIMIT, limit, limit_finset, limit_functor, \
    preservation_check, interchange_check_finset
from fincat.randgen import (
    random_category,
    random_dag_category,
    random_representable_sum,
    random_set_diagram,
)

from helpers import fixture_env, random_term, z3_monoid


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{title}]: PASS ({time.time() - t0:.1f}s)")
        return run
    return wrap


def fixture_categories():
    return [terminal_category(), walking_arrow(), parallel_pair(), z2_monoid(),
            renamed(product(walking_arrow(), walking_arrow()), "square")]


@criterion(1, "Yoneda suite")
def test_acceptance_1_yoneda():
    t0 = time.time()
    rng = random.Random(101)
    cats = fixture_categories()
    for i in range(50):
        cats.append(random_category(rng, 4, 10, name=f"R{i}"))
    pairs = 0
    for C in cats:
        family = [random_representable_sum(rng, C, 3, "X1"),
                  random_representable_sum(rng, C, 3, "X2"),
                  const_set_functor(C, SINGLETON)]
        for c in C.sorted_objects():
            yc = hom_functor(C, c, "covariant")
            for X in family:
                nats = enumerate_set_naturals(yc, X)
                assert len(nats) == len(X.on_obj[c]), (C.name, c, X.name)
                for x in X.on_obj[c].sorted():
                    t = yoneda_map("beta", C, c, X, x)
                    assert yoneda_map("alpha", C, c, X, t) == x
                for t in nats:
                    x = yoneda_map("alpha", C, c, X, t)
                    assert yoneda_map("beta", C, c, X, x) == t
                pairs += 1
    assert pairs >= 55
    assert time.time() - t0 < 60.0


def fixture_adjunctions():
    """Adjunctions from all three construction routes."""
    two = walking_arrow()
    one = terminal_category()
    pp = parallel_pair()
    out = []
    # route 1: universal morphisms
    out.append(("bang -| pick1", adjoint_from_universals(pick_object(two, "1", "G"),
                                                         side="left")))
    out.append(("pick0 -| bang", adjoint_from_universals(bang(two), side="left")))
    fc = functor_category(two, two)
    delta = diagonal_functor(two, two, fc)
    out.append(("delta -| lim", adjoint_from_universals(delta, side="right")))
    # route 2: the limit functor
    res = limit_functor(two, two, fc=fc)
    eta_comps = {}
    for c in two.objects:
        dc = delta.obj_map[c]
        lim_dc = res.functor.obj_map[dc]
        cands = [f for f in two.hom(c, lim_dc)
                 if all(two.comp(res.counit[dc].components[j], f) == two.id_of(c)
                        for j in two.objects)]
        assert len(cands) == 1
        eta_comps[c] = cands[0]
    eta = NatTrans("unit", identity_functor(two),
                   compose_functors(res.functor, delta), eta_comps)
    out.append(("limit-functor", convert(delta, res.functor, "unit->phi", unit=eta)))
    # route 3: equivalences
    I2 = identity_functor(two)
    out.append(("identity equivalence", equivalence_to_adjunction(
        I2, I2,
        NatTrans("unit", identity_functor(two), compose_functors(I2, I2),
                 {c: two.id_of(c) for c in two.objects}),
        NatTrans("counit", compose_functors(I2, I2), identity_functor(two),
                 {c: two.id_of(c) for c in two.objects}))))
    op2 = opposite(two)
    P = Functor("flip", two, op2, {"0": "1", "1": "0"},
                {"id_0": "id_1", "id_1": "id_0", "a": "a"})
    Q = Functor("pilf", op2, two, {"0": "1", "1": "0"},
                {"id_0": "id_1", "id_1": "id_0", "a": "a"})
    out.append(("flip equivalence", equivalence_to_adjunction(
        P, Q,
        NatTrans("unit", identity_functor(two), compose_functors(Q, P),
                 {c: two.id_of(c) for c in two.objects}),
        NatTrans("counit", compose_functors(P, Q), identity_functor(op2),
                 {c: op2.id_of(c) for c in op2.objects}))))
    # parallel-pair identity: carries 2-element transposition tables
    Ip = identity_functor(pp)
    eta_pp = NatTrans("unit", identity_functor(pp), compose_functors(Ip, Ip),
                      {c: pp.id_of(c) for c in pp.objects})
    out.append(("parallel-pair identity", convert(Ip, Ip, "unit->phi", unit=eta_pp)))
    return out


@criterion(2, "Adjunction suite")
def test_acceptance_2_adjunctions():
    adjs = fixture_adjunctions()
    for name, adj in adjs:
        assert adj is not None, name
        rep = validate_adjunction(adj.left, adj.right, adj.hom_iso)
        assert rep.ok, (name, rep.counterexample)
        again = convert(adj.left, adj.right, "phi->unit", hom_iso=adj.hom_iso)
        assert dict(again.unit.components) == dict(adj.unit.components), name
        assert dict(again.counit.components) == dict(adj.counit.components), name
        back = convert(adj.left, adj.right, "unit->phi", unit=adj.unit)
        assert {k: dict(v.table) for k, v in back.hom_iso.items()} == \
               {k: dict(v.table) for k, v in adj.hom_iso.items()}, name
        assert snake_check(adj.left, adj.right, adj.unit, adj.counit).ok, name
    # 20 seeded single-table perturbations, each detected and located
    rng = random.Random(202)
    perturbable = [(n, a) for n, a in adjs
                   if any(len(m.dom) >= 2 for m in a.hom_iso.values())]
    assert perturbable
    detected = 0
    attempts = 0
    while detected < 20 and attempts < 400:
        attempts += 1
        name, adj = perturbable[rng.randrange(len(perturbable))]
        keys = [k for k, m in sorted(adj.hom_iso.items(), key=lambda kv: str(kv[0]))
                if len(m.dom) >= 2]
        key = keys[rng.randrange(len(keys))]
        comp = adj.hom_iso[key]
        xs = list(comp.dom.sorted())
        i, j = rng.sample(range(len(xs)), 2)
        t = dict(comp.table)
        t[xs[i]], t[xs[j]] = t[xs[j]], t[xs[i]]
        bad = dict(adj.hom_iso)
        bad[key] = FinSetMap(comp.dom, comp.cod, t)
        rep = validate_adjunction(adj.left, adj.right, bad)
        if rep.ok:
            continue  # the twist happened to be another lawful table
        assert rep.counterexample.law in ("transposition-naturality",
                                          "transposition-bijectivity")
        assert "at" in rep.counterexample.details
        detected += 1
    assert detected == 20


@criterion(3, "RAPL")
def test_acceptance_3_rapl():
    two = walking_arrow()
    shapes = [walking_arrow(), parallel_pair(), discrete(2), empty_category()]
    checked = 0
    for name, adj in fixture_adjunctions():
        F, G = adj.left, adj.right
        D_cat, C_cat = G.dom, G.cod
        for J in shapes:
            fcJ = functor_category(J, D_cat)
            for Did in fcJ.cat.objects:
                Dg = fcJ.functors[Did]
                if limit(Dg, LIMIT) is not None:
                    assert preservation_check(G, Dg, LIMIT).ok, (name, J.name, Did)
                    checked += 1
            fcJ2 = functor_category(J, C_cat)
            for Did in fcJ2.cat.objects:
                Dg = fcJ2.functors[Did]
                if limit(Dg, COLIMIT) is not None:
                    assert preservation_check(F, Dg, COLIMIT).ok, (name, J.name, Did)
                    checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# Materialized finite full subcategories of Set

def materialize_subcategory(values: list[FinSetObj], budget: int = 80_000):
    """The full subcategory of Set on the given objects, as a FinCat.

    Returns None when the composition table would exceed the budget.
    """
    uniq: list[FinSetObj] = []
    for v in values:
        if all(v != u for u in uniq):
            uniq.append(v)
    uniq.sort(key=lambda v: (len(v), v.key()))
    sizes = [len(v) for v in uniq]

    def homsize(a, b):
        if a == 0:
            return 1
        if b == 0:
            return 0
        return b ** a

    cost = 0
    for b in sizes:
        into = sum(homsize(a, b) for a in sizes)
        outof = sum(homsize(b, c) for c in sizes)
        cost += into * outof
    if cost > budget:
        return None
    obj_id = {v.key(): f"S{i}" for i, v in enumerate(uniq)}
    by_id = {f"S{i}": v for i, v in enumerate(uniq)}
    mors = []
    mor_id = {}
    for a in uniq:
        for b in uniq:
            for t in all_maps(a, b):
                mid = f"{obj_id[a.key()]}~{obj_id[b.key()]}~{table_id(t)}"
                mors.append(Mor(mid, obj_id[a.key()], obj_id[b.key()]))
                mor_id[(obj_id[a.key()], obj_id[b.key()], t.key())] = mid
    identity = {}
    for v in uniq:
        oid = obj_id[v.key()]
        t = FinSetMap(v, v, {x: x for x in v.elements})
        identity[oid] = mor_id[(oid, oid, t.key())]
    compose = {}
    table_of = {m.name: None for m in mors}
    decode = {}
    for a in uniq:
        for b in uniq:
            for t in all_maps(a, b):
                decode[mor_id[(obj_id[a.key()], obj_id[b.key()], t.key())]] = t
    for m in mors:
        for n in mors:
            if n.cod != m.dom:
                continue
            comp = decode[n.name].then(decode[m.name])
            compose[(m.name, n.name)] = mor_id[(n.dom, m.cod, comp.key())]
    S = FinCat("S", tuple(obj_id[v.key()] for v in uniq), tuple(mors),
               identity, compose)
    return S, obj_id, mor_id, by_id


def embed_diagram(D: SetFunctor, S, obj_id, mor_id) -> Functor:
    J = D.dom
    return Functor(f"emb({D.name})", J, S,
                   {j: obj_id[D.on_obj[j].key()] for j in J.objects},
                   {m.name: mor_id[(obj_id[D.on_obj[m.dom].key()],
                                    obj_id[D.on_obj[m.cod].key()],
                                    D.on_mor[m.name].key())]
                    for m in J.morphisms})


def certified_iso(S: FinCat, apex_a: str, legs_a: dict, apex_b: str, legs_b: dict,
                  direction: str) -> bool:
    """Unique mediating morphisms in both directions composing to identities."""
    def mediate(src_apex, src_legs, tgt_apex, tgt_legs):
        if direction == LIMIT:
            cands = [f for f in S.hom(src_apex, tgt_apex)
                     if all(S.comp(tgt_legs[j], f) == src_legs[j] for j in tgt_legs)]
        else:
            cands = [f for f in S.hom(tgt_apex, src_apex)
                     if all(S.comp(f, tgt_legs[j]) == src_legs[j] for j in tgt_legs)]
        assert len(cands) == 1
        return cands[0]

    f = mediate(apex_a, legs_a, apex_b, legs_b)
    g = mediate(apex_b, legs_b, apex_a, legs_a)
    if direction == LIMIT:
        return S.comp(g, f) == S.id_of(apex_a) and S.comp(f, g) == S.id_of(apex_b)
    return S.comp(f, g) == S.id_of(apex_a) and S.comp(g, f) == S.id_of(apex_b)


@criterion(4, "Limit engine cross-oracle")
def test_acceptance_4_limit_cross_oracle():
    rng = random.Random(404)
    done = 0
    while done < 100:
        D = random_set_diagram(rng, 3, 4, max_value=5)
        direct = limit_finset(D, LIMIT)
        assert direct.certificate.ok
        mat = materialize_subcategory(list(D.on_obj.values()) + [direct.object])
        if mat is None:
            continue
        S, obj_id, mor_id, by_id = mat
        emb = embed_diagram(D, S, obj_id, mor_id)
        res = limit(emb, LIMIT)
        assert res is not None, "search path missed a limit the direct path found"
        legs_direct = {j: mor_id[(obj_id[direct.object.key()],
                                  obj_id[D.on_obj[j].key()],
                                  direct.cone.legs.components[j].key())]
                       for j in D.dom.objects}
        assert certified_iso(S, obj_id[direct.object.key()], legs_direct,
                             res.object, dict(res.cone.legs.components), LIMIT)
        done += 1
    # interchange over 20 seeded product bifunctors in the Set backend
    for k in range(20):
        I = discrete(rng.randint(1, 2))
        J = random_dag_category(rng, 2, 3, name="J")
        P = product(I, J)
        X = {i: rng.randint(1, 3) for i in I.objects}
        gens = [m for m in J.nonidentity_mor_names() if "_" not in m]
        from fincat.randgen import random_set_functor_on_free
        Y = random_set_functor_on_free(rng, J, gens, 3, "Y")
        on_obj, on_mor = {}, {}
        for o in P.objects:
            i, j = split_pair(o)
            on_obj[o] = FinSetObj(tuple(f"({n},{y})" for n in range(X[i])
                                        for y in Y.on_obj[j].sorted()))
        for m in P.morphisms:
            fi, gj = split_pair(m.name)
            table = {}
            i, j = split_pair(m.dom)
            for n in range(X[i]):
                for y in Y.on_obj[j].sorted():
                    table[f"({n},{y})"] = f"({n},{Y.on_mor[gj](y)})"
            on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
        B = SetFunctor("B", P, on_obj, on_mor)
        w = interchange_check_finset(B, I, J, LIMIT)
        assert w.report.ok, f"interchange bifunctor {k}"


@criterion(5, "Kan suite")
def test_acceptance_5_kan():
    rng = random.Random(505)
    done = 0
    while done < 30:
        C = random_dag_category(rng, 3, 6, name="C")
        D = random_dag_category(rng, 3, 6, name="D")
        from fincat.core import enumerate_functors
        try:
            ks = enumerate_functors(C, D)
        except Exception:
            continue
        if not ks:
            continue
        K = ks[rng.randrange(len(ks))]
        F = random_representable_sum(rng, C, 3, "F")
        ck = lan_via_coend(K, F)
        assert ck.report.ok and ck.iso_to_pointwise is not None
        kr = kan_pointwise(K, F, LEFT)
        assert kr.certificate.ok
        for d in D.objects:
            rec = reconstruct_comma_cocone(kr, d)
            stored = {o: kr.per_object[d].cone.legs.components[o]
                      for o in kr.commas[d].cat.objects}
            assert rec == stored
        done += 1
    # universal checks on enumerable tabulated targets
    two = walking_arrow()
    one = terminal_category()
    fixtures = [
        (pick_object(two, "0", "K"), pick_object(two, "0", "F")),
        (pick_object(two, "0", "K"), pick_object(two, "1", "F")),
        (identity_functor(two), identity_functor(two)),
        (identity_functor(two), Functor("c0", two, two, {"0": "0", "1": "0"},
                                        {"id_0": "id_0", "id_1": "id_0",
                                         "a": "id_0"})),
        (bang(two), identity_functor(two)),
    ]
    for K, F in fixtures:
        kr = kan_pointwise(K, F, LEFT)
        assert kr.extension is not None and kr.certificate.ok
        rep = kan_universal_check(kr.extension, kr.unit_or_counit, K, F, LEFT)
        assert rep.ok, (K.name, F.name)
        for d in K.cod.objects:
            rec = reconstruct_comma_cocone(kr, d)
            stored = {o: kr.per_object[d].cone.legs.components[o]
                      for o in kr.commas[d].cat.objects}
            assert rec == stored
    # degenerate shape: Lan along bang is the colimit
    pp = parallel_pair()
    V = FinSetObj(("x0", "x1", "x2"))
    F = SetFunctor("F", pp, {"0": V, "1": V},
                   {"id_0": FinSetMap(V, V, {x: x for x in V.elements}),
                    "id_1": FinSetMap(V, V, {x: x for x in V.elements}),
                    "u": FinSetMap(V, V, {x: x for x in V.elements}),
                    "v": FinSetMap(V, V, {"x0": "x1", "x1": "x0", "x2": "x2"})})
    kr = kan_pointwise(bang(pp), F, LEFT)
    colim = limit_finset(F, COLIMIT)
    # explicit bijection between the two quotients
    comma = kr.commas["*"]
    legs_kan = kr.per_object["*"].cone.legs.components
    forward = {}
    for o, (c, _) in comma.pairs.items():
        for x in F.on_obj[c].elements:
            src = legs_kan[o](x)
            tgt = colim.cone.legs.components[c](x)
            assert forward.setdefault(src, tgt) == tgt
    assert len(forward) == len(kr.extension.on_obj["*"]) == len(colim.object)
    assert len(set(forward.values())) == len(colim.object)


@criterion(6, "End/coend suite")
def test_acceptance_6_ends():
    rng = random.Random(606)
    done = 0
    while done < 30:
        J = random_dag_category(rng, 2, 4, name="J")
        X = random_representable_sum(rng, opposite(J), 2, "X")   # presheaf part
        Y = random_representable_sum(rng, J, 2, "Y")
        P = product(opposite(J), J)
        on_obj, on_mor = {}, {}
        for o in P.objects:
            jp, j = split_pair(o)
            on_obj[o] = FinSetObj(tuple(f"({x},{y})" for x in X.on_obj[jp].sorted()
                                        for y in Y.on_obj[j].sorted()))
        for m in P.morphisms:
            f, g = split_pair(m.name)
            jp0, j0 = split_pair(m.dom)
            table = {}
            for x in X.on_obj[jp0].sorted():
                for y in Y.on_obj[j0].sorted():
                    table[f"({x},{y})"] = f"({X.on_mor[f](x)},{Y.on_mor[g](y)})"
            on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
        B = SetFunctor("B", P, on_obj, on_mor)
        for side, direction in (("end", LIMIT), ("coend", COLIMIT)):
            direct = end_coend_finset(B, J, side)
            if len(direct.object) > 4:
                break
            mat = materialize_subcategory(list(B.on_obj.values()) + [direct.object])
            if mat is None:
                break
            S, obj_id, mor_id, by_id = mat
            emb = embed_diagram(B, S, obj_id, mor_id)
            general = end_coend(emb, J, side)
            assert general is not None
            legs_direct = {j: mor_id[(obj_id[direct.object.key()],
                                      obj_id[B.on_obj[pair_id(j, j)].key()],
                                      direct.wedge.components[j].key())]
                           if side == "end" else
                           mor_id[(obj_id[B.on_obj[pair_id(j, j)].key()],
                                   obj_id[direct.object.key()],
                                   direct.wedge.components[j].key())]
                           for j in J.objects}
            assert certified_iso(S, obj_id[direct.object.key()], legs_direct,
                                 general.object, dict(general.wedge.components),
                                 direction)
        else:
            done += 1

    # ends of hom bifunctors count natural transformations, with bijection
    two = walking_arrow()
    from fincat.core import enumerate_nat_trans, enumerate_functors
    fs = enumerate_functors(two, two)
    for F in fs:
        for G in fs:
            B = _hom_bifunctor(two, F, G)
            res = end_coend(B, two, "end")
            nats = enumerate_nat_trans(F, G)
            assert len(res.object) == len(nats)
            fams = {tuple(sorted(t.components.items())) for t in nats}
            for e in res.object.elements:
                fam = tuple(sorted((j, res.wedge.components[j](e))
                                   for j in two.objects))
                assert fam in fams

    # Fubini on a 2-object x 1-object pair of shapes with certified iso
    _fubini_check(walking_arrow(), z2_monoid())
    _fubini_check(z2_monoid(), walking_arrow())

    # co-Yoneda round trips elementwise on every fixture
    for C in fixture_categories():
        for c in C.sorted_objects():
            F = hom_functor(C, c, "covariant")
            for d in C.sorted_objects():
                w = coyoneda_witness(F, d)
                assert w.report.ok


def _hom_bifunctor(C, F, G):
    D = F.cod
    P = product(opposite(C), C)
    on_obj, on_mor = {}, {}
    for o in P.objects:
        cp, c = split_pair(o)
        on_obj[o] = FinSetObj(D.hom(F.obj_map[cp], G.obj_map[c]))
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        table = {h: D.comp_path(F.mor_map[fo], h, G.mor_map[g])
                 for h in on_obj[m.dom].elements}
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor("homFG", P, on_obj, on_mor)


def _fubini_check(I, Jc):
    IJ = product(I, Jc)
    P = product(opposite(IJ), IJ)
    on_obj, on_mor = {}, {}
    for o in P.objects:
        xp, x = split_pair(o)
        on_obj[o] = FinSetObj(IJ.hom(xp, x))
    for m in P.morphisms:
        f, g = split_pair(m.name)
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                   {h: IJ.comp_path(f, h, g)
                                    for h in on_obj[m.dom].elements})
    B = SetFunctor("B", P, on_obj, on_mor)
    joint = end_coend(B, IJ, "end")

    def inner(A, Bcat, flip):
        PA = product(opposite(A), A)
        on_obj2, on_mor2 = {}, {}
        members_at = {}

        def jp(ap, a, bp, b):
            return pair_id(pair_id(bp, ap), pair_id(b, a)) if flip else \
                pair_id(pair_id(ap, bp), pair_id(a, b))

        objs = sorted(Bcat.objects)
        for o in PA.objects:
            ap, a = split_pair(o)
            members = []
            for combo in itertools.product(
                    *[B.on_obj[jp(ap, a, b, b)].sorted() for b in objs]):
                values = dict(zip(objs, combo))
                ok = True
                for h in Bcat.morphisms:
                    i, j = h.dom, h.cod
                    lhs = B.on_mor[jp(A.id_of(ap), A.id_of(a),
                                      Bcat.id_of(i), h.name)](values[i])
                    rhs = B.on_mor[jp(A.id_of(ap), A.id_of(a),
                                      h.name, Bcat.id_of(j))](values[j])
                    if lhs != rhs:
                        ok = False
                        break
                if ok:
                    members.append(values)
            ids = tuple("(" + ",".join(v[b] for b in objs) + ")" for v in members)
            on_obj2[o] = FinSetObj(ids)
            members_at[o] = dict(zip(ids, members))
        for m in PA.morphisms:
            f, g = split_pair(m.name)
            table = {}
            for eid, values in members_at[m.dom].items():
                moved = {b: B.on_mor[jp(f, g, Bcat.id_of(b), Bcat.id_of(b))](values[b])
                         for b in objs}
                table[eid] = "(" + ",".join(moved[b] for b in objs) + ")"
            on_mor2[m.name] = FinSetMap(on_obj2[m.dom], on_obj2[m.cod], table)
        return SetFunctor("inner", PA, on_obj2, on_mor2)

    outer_I = end_coend(inner(I, Jc, False), I, "end")
    outer_J = end_coend(inner(Jc, I, True), Jc, "end")
    assert len(joint.object) == len(outer_I.object) == len(outer_J.object)


@criterion(7, "Weighted limits")
def test_acceptance_7_weighted():
    pp = parallel_pair()
    V = FinSetObj(("x0", "x1", "x2"))
    F = SetFunctor("F", pp, {"0": V, "1": V},
                   {"id_0": FinSetMap(V, V, {x: x for x in V.elements}),
                    "id_1": FinSetMap(V, V, {x: x for x in V.elements}),
                    "u": FinSetMap(V, V, {x: x for x in V.elements}),
                    "v": FinSetMap(V, V, {"x0": "x1", "x1": "x0", "x2": "x2"})})
    W = const_set_functor(pp, SINGLETON, "unit-weight")
    res = weighted_limit(W, F, LIMIT)
    assert res.certificate.ok
    plain = limit_finset(F, LIMIT)
    # certified iso: weighted elements decode to matching tuples, elementwise
    assert len(res.object) == len(plain.object)
    for C in (walking_arrow(), z2_monoid()):
        for cW in C.sorted_objects():
            W2 = hom_functor(C, cW, "covariant")
            for cF in C.sorted_objects():
                F2 = hom_functor(C, cF, "covariant")
                r = weighted_limit(W2, F2, LIMIT)
                assert r.certificate.ok
                assert len(r.object) == len(enumerate_set_naturals(W2, F2))
    # ends are hom-weighted limits on two-object fixtures
    for C in (walking_arrow(), parallel_pair()):
        B = _hom_bifunctor(C, identity_functor(C), identity_functor(C))
        direct = end_coend(B, C, "end")
        Wh = _hom_bifunctor(C, identity_functor(C), identity_functor(C))
        wl = weighted_limit(Wh, B, LIMIT)
        assert wl.certificate.ok
        assert len(direct.object) == len(wl.object)


@criterion(8, "Codensity monads")
def test_acceptance_8_codensity():
    two = walking_arrow()
    m = codensity_monad(identity_functor(two))
    assert m.report.ok
    assert all(two.is_identity(v) for v in m.mult.components.values())
    m2 = codensity_monad(pick_object(two, "0", "K"))
    assert m2 is not None and m2.report.ok
    assert m2.endofunctor.obj_map == {"0": "0", "1": "1"}
    # 10 seeded perturbations of the multiplication are rejected
    rng = random.Random(808)
    monads = []
    for C in (z2_monoid(), z3_monoid()):
        mm = codensity_monad(identity_functor(C))
        assert mm.report.ok
        monads.append((C, mm))
    rejected = 0
    attempts = 0
    while rejected < 10 and attempts < 200:
        attempts += 1
        C, mm = monads[rng.randrange(len(monads))]
        d = rng.choice(sorted(C.objects))
        src = mm.mult.src.obj_map[d]
        tgt = mm.mult.tgt.obj_map[d]
        alts = [f for f in C.hom(src, tgt) if f != mm.mult.components[d]]
        if not alts:
            continue
        comps = dict(mm.mult.components)
        comps[d] = rng.choice(alts)
        bad = NatTrans("mult", mm.mult.src, mm.mult.tgt, comps)
        rep = monad_laws(mm.endofunctor, bad, mm.unit)
        assert not rep.ok
        assert rep.counterexample.law.startswith("monad")
        rejected += 1
    assert rejected == 10


@criterion(9, "Density")
def test_acceptance_9_density():
    two = walking_arrow()
    rep = density_check(identity_functor(two))
    assert rep.ok
    assert rep.checked >= len(two.objects) ** 2   # all (d,d') pairs certified
    rep_z2 = density_check(identity_functor(z2_monoid()))
    assert rep_z2.ok
    # a verified non-dense fixture, with the reason recorded
    bad = density_check(pick_object(discrete(2), "d0", "K"))
    assert not bad.ok
    assert "reason" in bad.counterexample.details
    bad2 = density_check(pick_object(two, "0", "K"))
    assert not bad2.ok


@criterion(10, "Diagram calculus")
def test_acceptance_10_diagrams():
    from fincat.diagram import evaluate, normalize, parse_term, pretty, render_svg
    env = fixture_env()
    rng = random.Random(1010)
    by_nf: dict[str, list] = {}
    for k in range(100):
        t = random_term(rng, env)
        n = normalize(t, env)
        assert dict(evaluate(t, env).components) == \
            dict(evaluate(n, env).components), f"term {k}"
        assert normalize(n, env) == n
        by_nf.setdefault(pretty(n), []).append(t)
    for nf, terms in by_nf.items():
        vals = [dict(evaluate(t, env).components) for t in terms]
        assert all(v == vals[0] for v in vals)
    # renderer byte-stability against the golden file
    import pathlib
    out = render_svg(parse_term("(u | id(P0)) ; (id(F1) | q)"), env)
    golden = pathlib.Path(__file__).parent / "golden" / "diagram_u_q.svg"
    assert out == golden.read_text()
    assert out == render_svg(parse_term("(u | id(P0)) ; (id(F1) | q)"), env)


@criterion(11, "CLI golden corpus")
def test_acceptance_11_cli():
    import io
    import pathlib
    from contextlib import redirect_stdout

    from fincat.cli import main

    corpus = pathlib.Path(__file__).parent / "corpus"
    assert len(list(corpus.glob("*.cat"))) >= 12

    def run(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    c = lambda n: str(corpus / n)
    matrix = [
        (0, ("validate", c("two.cat"))),
        (0, ("validate", c("terms.cat"))),
        (1, ("validate", c("bad_law.cat"))),
        (2, ("validate", c("bad_missing.cat"))),
        (2, ("validate", c("bad_syntax.cat"))),
        (0, ("limit", "D", c("pair_diagram.cat"))),
        (0, ("colimit", "D", c("pair_diagram.cat"))),
        (0, ("limit", "Dg", c("poset_diagram.cat"))),
        (0, ("end", "H", c("bifunctor.cat"))),
        (0, ("coend", "H", c("bifunctor.cat"))),
        (0, ("kan-left", "K", "F", c("kan.cat"))),
        (0, ("kan-right", "K", "F", c("kan.cat"))),
        (0, ("adjoint-of", "G", c("adjoint.cat"))),
        (1, ("adjoint-of", "G2", c("adjoint_absent.cat"))),
        (0, ("snake", "Iz", "Iz", "etaS", "epsS", c("snake.cat"))),
        (1, ("snake", "Iz", "Iz", "etaS", "epsE", c("snake.cat"))),
        (2, ("snake", "Iz", "Iz", "missing", "epsS", c("snake.cat"))),
        (0, ("yoneda-check", "two", c("two.cat"))),
        (0, ("density", "Itwo", c("density.cat"))),
        (1, ("density", "Kpick", c("density.cat"))),
        (0, ("codensity", "Itwo", c("density.cat"))),
        (0, ("weighted-limit", "W", "Fy", c("weighted.cat"))),
        (0, ("diagram-eval", "stack", c("terms.cat"))),
        (0, ("diagram-normalize", "mixed", c("terms.cat"))),
        (2, ("diagram-eval", "t ; s", c("terms.cat"))),
    ]
    for want, argv in matrix:
        code, _ = run(*argv)
        assert code == want, (argv, code)
    # byte-identical --json output under a fixed seed
    for argv in (("kan-left", "K", "F", c("kan.cat"), "--json", "--seed", "3"),
                 ("end", "H", c("bifunctor.cat"), "--json", "--seed", "3"),
                 ("diagram-normalize", "mixed", c("terms.cat"), "--json")):
        a, b = run(*argv), run(*argv)
        assert a == b
        doc = json.loads(a[1])
        assert doc["schema"] == "fincat-report/1"
