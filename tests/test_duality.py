"""Each dual construction is derived from its written side in the opposite
category; these tests keep the hand-mirrored versions as references and
compare whole results on seeded random inputs: objects, leg components and
complete Reports, counterexamples and `checked` counts included.
"""
import itertools
import random

import pytest

from fincat.adjunction import adjoint_from_universals, convert
from fincat.core import (
    Counterexample,
    Functor,
    NatTrans,
    Report,
    StructuralError,
    budget,
    compose_functors,
    const_diagram,
    enumerate_functors,
    enumerate_nat_trans,
    fail_report,
    functor_category,
    identity_functor,
    ok_report,
    opposite,
    pair_id,
    product,
    split_pair,
    validate_natural,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    enumerate_set_naturals,
    validate_set_natural,
)
from fincat.fixtures import discrete, parallel_pair, terminal_category, walking_arrow, z2_monoid
from fincat.kan import (
    RIGHT,
    end_coend,
    enumerate_wedges,
    kan_pointwise,
    kan_universal_check,
    reconstruct_comma_cocone,
    weighted_limit,
)
from fincat.limits import (
    COLIMIT,
    certify_terminal,
    enumerate_cones,
    interchange_check,
    limit,
    limit_functor,
)
from fincat.randgen import (
    random_dag_category,
    random_preorder_category,
    random_representable_sum,
)
from fincat.universal import (
    FROM_OBJECT,
    TO_OBJECT,
    UniversalWitness,
    comma_from_object,
    comma_to_object,
    essentially_unique,
    extremal_object,
    universal_morphism,
    verify_universal,
)


def _categories(seed: int, n: int, max_objects: int = 3):
    rng = random.Random(seed)
    for i in range(n):
        if i % 2:
            yield rng, random_dag_category(rng, max_objects, 6)
        else:
            yield rng, random_preorder_category(rng, max_objects)


def _sample(rng, xs, k):
    return xs if len(xs) <= k else rng.sample(xs, k)


def _nat(t):
    return (t.name, t.src.key(), t.tgt.key(), dict(t.components))


# ---------------------------------------------------------------------------
# Colimits: the mirrored cocone search

def ref_enumerate_cocones(D):
    J, C = D.dom, D.cod
    objs = J.sorted_objects()
    out = []
    for c in C.sorted_objects():
        for legs in itertools.product(*[C.hom(D.obj_map[j], c) for j in objs]):
            fam = dict(zip(objs, legs))
            if all(C.comp(fam[m.cod], D.mor_map[m.name]) == fam[m.dom] for m in J.morphisms):
                out.append((c, fam))
    return out


def ref_certify_cocone(D, apex, legs, cocones):
    C = D.cod
    checked = 0
    for c, fam in cocones:
        checked += 1
        factors = [f for f in C.hom(apex, c)
                   if all(C.comp(f, legs[j]) == fam[j] for j in fam)]
        if len(factors) != 1:
            return fail_report(checked, "limit-factorization", apex=c, count=len(factors))
    return ok_report(checked)


def ref_colimit(D):
    cocones = ref_enumerate_cocones(D)
    for apex, legs in cocones:
        cert = ref_certify_cocone(D, apex, legs, cocones)
        if cert.ok:
            return apex, legs, cert
    return None


def test_colimit_matches_mirrored_cocone_search():
    found = absent = refuted = 0
    for rng, C in _categories(11, 30):
        J = random_dag_category(rng, 2, 3, name="J")
        for D in _sample(rng, enumerate_functors(J, C), 4):
            cocones = enumerate_cones(D, COLIMIT)
            assert cocones == ref_enumerate_cocones(D)
            for apex, legs in cocones:
                rep = certify_terminal(opposite(D.cod), apex, legs, cocones)
                assert rep == ref_certify_cocone(D, apex, legs, cocones)
                refuted += not rep.ok
            res, ref = limit(D, COLIMIT), ref_colimit(D)
            if ref is None:
                assert res is None
                absent += 1
                continue
            found += 1
            assert (res.object, dict(res.cone.legs.components), res.certificate) == ref
            assert _nat(res.cone.legs) == _nat(NatTrans(
                f"colim-cocone({D.name})", D, const_diagram(ref[0], J, C), ref[1]))
            assert res.cone.direction == "cocone"
    assert found and absent and refuted


def ref_colimit_action(C, src, tgt, tau, objs):
    (a, a_legs, _), (b, b_legs, _) = src, tgt
    cands = [f for f in C.hom(a, b)
             if all(C.comp(f, a_legs[j]) == C.comp(b_legs[j], tau[j]) for j in objs)]
    return cands[0] if len(cands) == 1 else None


def test_colimit_functor_matches_mirrored_action():
    found = absent = 0
    for rng, C in _categories(17, 16):
        J = rng.choice([walking_arrow(), discrete(2), parallel_pair()])
        fc = functor_category(J, C)
        res = limit_functor(J, C, COLIMIT, fc=fc)
        cols = {Did: ref_colimit(fc.functors[Did]) for Did in fc.cat.objects}
        missing = [Did for Did in fc.cat.objects if cols[Did] is None]
        if missing:
            assert res.functor is None and res.missing == missing[0]
            absent += 1
            continue
        found += 1
        assert res.functor.name == f"colim[{J.name},{C.name}]"
        assert dict(res.functor.obj_map) == {Did: cols[Did][0] for Did in fc.cat.objects}
        assert dict(res.functor.mor_map) == {
            m.name: ref_colimit_action(C, cols[m.dom], cols[m.cod],
                                       fc.nats[m.name].components, J.objects)
            for m in fc.cat.morphisms}
    assert found and absent


def ref_interchange_colimit(D, I, J):
    C = D.cod

    def iterated(D, I, J):
        per = {}
        for i in I.objects:
            per[i] = ref_colimit(Functor(
                f"{D.name}({i},-)", J, C, {j: D.obj_map[pair_id(i, j)] for j in J.objects},
                {m.name: D.mor_map[pair_id(I.id_of(i), m.name)] for m in J.morphisms}))
            if per[i] is None:
                return None, None
        mor_map = {m.name: ref_colimit_action(
            C, per[m.dom], per[m.cod],
            {j: D.mor_map[pair_id(m.name, J.id_of(j))] for j in J.objects}, J.objects)
            for m in I.morphisms}
        assert None not in mor_map.values()
        return Functor("L", I, C, {i: per[i][0] for i in I.objects}, mor_map), per

    joint = ref_colimit(D)
    LI, per_i = iterated(D, I, J)
    Dsw = Functor("swap", product(J, I), C,
                  {pair_id(j, i): D.obj_map[pair_id(i, j)] for i in I.objects for j in J.objects},
                  {pair_id(n.name, m.name): D.mor_map[pair_id(m.name, n.name)]
                   for m in I.morphisms for n in J.morphisms})
    LJ, per_j = iterated(Dsw, J, I)
    if joint is None or LI is None or LJ is None:
        return "missing"
    outer, outer2 = ref_colimit(LI), ref_colimit(LJ)
    if outer is None or outer2 is None:
        return "missing"
    checked = 0

    def mediate(apex, legs, target):
        nonlocal checked
        checked += 1
        cands = [f for f in C.hom(target[0], apex)
                 if all(C.comp(f, target[1][k]) == legs[k] for k in target[1])]
        assert len(cands) == 1
        return cands[0]

    for res, per, A, B, flip, label in ((outer, per_i, I, J, False, "outer-joint"),
                                        (outer2, per_j, J, I, True, "joint-swapped")):
        key = (lambda a, b: pair_id(b, a)) if flip else pair_id
        legs = {key(a, b): C.comp(res[1][a], leg)
                for a, inner in per.items() for b, leg in inner[1].items()}
        to_joint = mediate(res[0], legs, joint)
        per_legs = {a: mediate(joint[0], {b: joint[1][key(a, b)] for b in B.objects}, per[a])
                    for a in A.objects}
        from_joint = mediate(joint[0], per_legs, res)
        if not (C.comp(to_joint, from_joint) == C.id_of(res[0]) and
                C.comp(from_joint, to_joint) == C.id_of(joint[0])):
            return outer[0], joint[0], outer2[0], fail_report(checked, "limit-interchange",
                                                              pair=label)
    return outer[0], joint[0], outer2[0], ok_report(checked)


def test_colimit_interchange_matches_mirrored_mediators():
    found = absent = 0
    for rng, C in _categories(18, 16):
        I = rng.choice([walking_arrow(), discrete(2), terminal_category()])
        J = rng.choice([walking_arrow(), discrete(2)])
        for D in _sample(rng, enumerate_functors(product(I, J), C), 3):
            ref = ref_interchange_colimit(D, I, J)
            if ref == "missing":
                with pytest.raises(StructuralError, match="missing"):
                    interchange_check(D, I, J, COLIMIT)
                absent += 1
                continue
            w = interchange_check(D, I, J, COLIMIT)
            assert (w.outer_first, w.joint, w.inner_first, w.report) == ref
            found += 1
    assert found and absent


# ---------------------------------------------------------------------------
# Right Kan extensions: the mirrored action, counit, recovered cone and
# universal-property check

def ref_ran(K, F):
    C, D, E = K.dom, K.cod, F.cod
    commas, per, pair_index = {}, {}, {}
    for d in D.sorted_objects():
        comma = comma_from_object(d, K)
        commas[d] = comma
        pair_index[d] = {v: k for k, v in comma.pairs.items()}
        res = limit(compose_functors(F, comma.forgetful))
        if res is None:
            return ("missing", d)
        per[d] = res
    obj_map = {d: per[d].object for d in D.objects}
    mor_map = {}
    checked = 0
    for m in D.morphisms:
        d, dp = m.dom, m.cod
        cands = [g for g in E.hom(obj_map[d], obj_map[dp])
                 if all(E.comp(per[dp].cone.legs.components[o], g) ==
                        per[d].cone.legs.components[pair_index[d][(c, D.comp(p, m.name))]]
                        for o, (c, p) in commas[dp].pairs.items())]
        checked += 1
        if len(cands) != 1:
            return ("action", fail_report(checked, "kan-action", morphism=m.name,
                                          count=len(cands)))
        mor_map[m.name] = cands[0]
    ext = Functor(f"Ran[{K.name}]({F.name})", D, E, obj_map, mor_map)
    comps = {}
    for c in C.objects:
        d = K.obj_map[c]
        comps[c] = per[d].cone.legs.components[pair_index[d][(c, D.id_of(d))]]
    counit = NatTrans("counit", compose_functors(ext, K), F, comps)
    rep = validate_natural(counit)
    cert = (fail_report(checked, "kan-unit-naturality", detail=str(rep.counterexample))
            if not rep.ok else ok_report(checked + rep.checked))
    recon = {d: {o: E.comp(comps[c], mor_map[p]) for o, (c, p) in commas[d].pairs.items()}
             for d in D.objects}
    return ext, counit, cert, recon


def ref_ran_universal_check(R, eps, K, F):
    D, E = K.cod, F.cod
    checked = 0
    for H in enumerate_functors(D, E):
        HK = compose_functors(H, K)
        for sigma in enumerate_nat_trans(HK, F):
            checked += 1
            mediators = [sb for sb in enumerate_nat_trans(H, R)
                         if all(E.comp(eps.components[c], sb.components[K.obj_map[c]])
                                == sigma.components[c] for c in K.dom.objects)]
            if len(mediators) != 1:
                return Report(False, checked, Counterexample(
                    "kan-universal", {"H": H.name, "count": len(mediators)}))
    return ok_report(checked)


def _perturbed(t, E):
    for c in sorted(t.components):
        other = [h for h in E.hom(t.src.obj_map[c], t.tgt.obj_map[c]) if h != t.components[c]]
        if other:
            return NatTrans(t.name, t.src, t.tgt, {**t.components, c: other[0]})
    return None


def test_ran_matches_mirrored_right_extension():
    found = missing = refuted = 0
    for rng, C in _categories(12, 24, 2):
        D = random_preorder_category(rng, 3, name="D")
        E = random_dag_category(rng, 3, 5, name="E") if rng.random() < 0.5 \
            else random_preorder_category(rng, 3, name="E")
        for K in _sample(rng, enumerate_functors(C, D), 2):
            for F in _sample(rng, enumerate_functors(C, E), 2):
                kr, ref = kan_pointwise(K, F, RIGHT), ref_ran(K, F)
                if ref[0] == "missing":
                    assert kr.extension is None and kr.missing_at == ref[1]
                    missing += 1
                    continue
                if ref[0] == "action":
                    assert kr.extension is None and kr.certificate == ref[1]
                    continue
                found += 1
                ext, counit, cert, recon = ref
                assert kr.extension.key() == ext.key() and kr.extension.name == ext.name
                assert _nat(kr.unit_or_counit) == _nat(counit)
                assert kr.certificate == cert
                for d in D.objects:
                    assert reconstruct_comma_cocone(kr, d) == recon[d]
                rep = kan_universal_check(kr.extension, kr.unit_or_counit, K, F, RIGHT)
                assert rep == ref_ran_universal_check(ext, counit, K, F)
                bad = _perturbed(counit, E)
                if bad is not None:
                    rep = kan_universal_check(kr.extension, bad, K, F, RIGHT)
                    assert rep == ref_ran_universal_check(ext, bad, K, F)
                    refuted += not rep.ok
    assert found and missing and refuted


# ---------------------------------------------------------------------------
# Coends in a tabulated target: the mirrored cowedge search

def ref_coend(B, J):
    C = B.cod
    objs = J.sorted_objects()
    wedges = []
    for c in C.sorted_objects():
        for combo in itertools.product(*[C.hom(B.obj_map[pair_id(j, j)], c) for j in objs]):
            fam = dict(zip(objs, combo))
            if all(C.comp(fam[h.cod], B.mor_map[pair_id(J.id_of(h.cod), h.name)]) ==
                   C.comp(fam[h.dom], B.mor_map[pair_id(h.name, J.id_of(h.dom))])
                   for h in J.morphisms):
                wedges.append((c, fam))
    for apex, fam in wedges:
        if all(len([f for f in C.hom(apex, c2)
                    if all(C.comp(f, fam[j]) == fam2[j] for j in fam)]) == 1
               for c2, fam2 in wedges):
            return wedges, (apex, fam, ok_report(len(wedges)))
    return wedges, None


def test_coend_matches_mirrored_cowedge_search():
    found = absent = 0
    rng = random.Random(13)
    for J in (terminal_category(), walking_arrow(), discrete(2), z2_monoid()):
        P = product(opposite(J), J)
        for _, C in _categories(rng.randrange(1000), 10):
            with budget(10**5):
                fs = enumerate_functors(P, C)
            for B in _sample(rng, fs, 3):
                wedges, ref = ref_coend(B, J)
                got = enumerate_wedges(B, J, "coend")
                assert [(w.apex, dict(w.components), w.direction) for w in got] == \
                    [(c, fam, "cowedge") for c, fam in wedges]
                res = end_coend(B, J, "coend")
                if ref is None:
                    assert res is None
                    absent += 1
                else:
                    assert (res.object, dict(res.wedge.components), res.certificate) == ref
                    found += 1
    assert found and absent


# ---------------------------------------------------------------------------
# Universal arrows to an object: the mirrored comma search and certificates

def ref_verify_to_object(w, c, G):
    C, D = G.cod, G.dom
    checked = 0
    for x in D.sorted_objects():
        for a in C.hom(G.obj_map[x], c):
            checked += 1
            factors = [f for f in D.hom(x, w.vertex) if C.comp(w.arrow, G.mor_map[f]) == a]
            if len(factors) != 1:
                return fail_report(checked, "universal-factorization",
                                   at=f"⟨{x},{a}⟩", count=len(factors))
    return ok_report(checked)


def ref_essentially_unique_to(G, w1, w2):
    C, D = G.cod, G.dom
    psis = [f for f in D.hom(w2.vertex, w1.vertex) if C.comp(w1.arrow, G.mor_map[f]) == w2.arrow]
    if len(psis) != 1:
        return fail_report(1, "essential-uniqueness", count=len(psis))
    if not D.is_iso(psis[0]):
        return fail_report(1, "essential-uniqueness", arrow=psis[0],
                           failure="mediating arrow not iso")
    return ok_report(1)


def test_universal_arrows_to_an_object_match_mirrored_search():
    found = absent = refuted = 0
    for rng, C in _categories(14, 24):
        A = random_preorder_category(rng, 3, name="A")
        for G in _sample(rng, enumerate_functors(A, C), 3):
            for c in C.sorted_objects():
                comma = comma_to_object(G, c)
                ext = extremal_object(comma.cat, "terminal")
                w = universal_morphism(c, G, TO_OBJECT)
                if ext is None:
                    assert w is None
                    absent += 1
                else:
                    x, a = comma.pairs[ext.object]
                    assert (w.vertex, w.arrow, w.direction) == (x, a, TO_OBJECT)
                    assert w.report == ref_verify_to_object(w, c, G)
                    found += 1
                witnesses = [UniversalWitness(x, a, TO_OBJECT, None)
                             for x in A.sorted_objects() for a in C.hom(G.obj_map[x], c)]
                for w1 in witnesses:
                    rep = verify_universal(w1, c, G)
                    assert rep == ref_verify_to_object(w1, c, G)
                    refuted += not rep.ok
                    for w2 in witnesses:
                        assert essentially_unique(c, G, w1, w2) == \
                            ref_essentially_unique_to(G, w1, w2)
    assert found and absent and refuted


def test_universal_arrows_from_an_object_match_comma_search():
    """The certificate-driven search returns the comma category's first
    initial object, with the Report of a check at every comma object."""
    found = absent = 0
    for rng, C in _categories(15, 24):
        A = random_dag_category(rng, 3, 4, name="A")
        for G in _sample(rng, enumerate_functors(A, C), 3):
            for c in C.sorted_objects():
                comma = comma_from_object(c, G)
                ext = extremal_object(comma.cat, "initial")
                w = universal_morphism(c, G)
                if ext is None:
                    assert w is None
                    absent += 1
                    continue
                assert (w.vertex, w.arrow, w.direction) == \
                    (*comma.pairs[ext.object], FROM_OBJECT)
                assert w.report == ok_report(len(comma.cat.objects))
                assert w.report == verify_universal(w, c, G)
                found += 1
    assert found and absent


# ---------------------------------------------------------------------------
# Weighted colimits in a tabulated target: mirrored tensors and coend

def ref_tensor(E, X, c):
    J = discrete(len(X))
    objs = sorted(J.objects)
    res = ref_colimit(Functor("copies", J, E, {j: c for j in objs},
                              {J.id_of(j): E.id_of(c) for j in objs}))
    if res is None:
        return None
    return res[0], {x: res[1][objs[i]] for i, x in enumerate(X.sorted())}


def ref_hom_from_functor(E, F, e):
    opC = opposite(F.dom)
    on_obj = {c: FinSetObj(E.hom(F.obj_map[c], e)) for c in F.dom.objects}
    on_mor = {m.name: FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                {p: E.comp(p, F.mor_map[m.name]) for p in on_obj[m.dom].elements})
              for m in opC.morphisms}
    return SetFunctor(f"hom({F.name}-,{e})", opC, on_obj, on_mor)


def ref_weighted_colimit(W, F):
    opC = W.dom
    C, E = opposite(opC), F.cod
    P = product(opC, C)
    ten_obj, ten_legs = {}, {}
    for o in P.objects:
        cp, c = split_pair(o)
        res = ref_tensor(E, W.on_obj[cp], F.obj_map[c])
        if res is None:
            return None, fail_report(0, "missing-tensor", at=o)
        ten_obj[o], ten_legs[o] = res
    mor_map = {}
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        cp0, _ = split_pair(m.dom)
        cands = [u for u in E.hom(ten_obj[m.dom], ten_obj[m.cod])
                 if all(E.comp(u, ten_legs[m.dom][w]) ==
                        E.comp(ten_legs[m.cod][W.on_mor[fo](w)], F.mor_map[g])
                        for w in W.on_obj[cp0].elements)]
        if len(cands) != 1:
            return None, fail_report(0, "missing-tensor", at=m.name)
        mor_map[m.name] = cands[0]
    _, ref = ref_coend(Functor("ten", P, E, ten_obj, mor_map), C)
    if ref is None:
        return None, fail_report(0, "weighted-colimit-missing-coend")
    apex, wedge = ref[0], ref[1]
    checked = 0
    for e in E.sorted_objects():
        homF = ref_hom_from_functor(E, F, e)
        target = enumerate_set_naturals(W, homF)
        images = set()
        for g in E.hom(apex, e):
            comps = {c: FinSetMap(W.on_obj[c], FinSetObj(E.hom(F.obj_map[c], e)),
                                  {w: E.comp_path(ten_legs[pair_id(c, c)][w], wedge[c], g)
                                   for w in W.on_obj[c].elements})
                     for c in C.objects}
            cand = SetNatTrans("transposed", W, homF, comps)
            checked += 1
            if not validate_set_natural(cand).ok:
                return apex, fail_report(checked, "weighted-colimit-defining-bijection", probe=e)
            images.add(cand.key())
        if len(images) != len(E.hom(apex, e)) or len(images) != len(target):
            return apex, fail_report(checked, "weighted-colimit-defining-bijection",
                                     probe=e, failure="not bijective")
    return apex, ok_report(checked)


def test_weighted_colimit_matches_mirrored_tensor_coend():
    found = absent = 0
    for rng, C in _categories(15, 30, 2):
        E = random_preorder_category(rng, 3, name="E") if rng.random() < 0.6 \
            else random_dag_category(rng, 3, 5, name="E")
        for F in _sample(rng, enumerate_functors(C, E), 2):
            W = random_representable_sum(rng, opposite(C), 2, "W")
            res = weighted_limit(W, F, COLIMIT)
            assert (res.object, res.certificate) == ref_weighted_colimit(W, F)
            found += res.certificate.ok
            absent += res.object is None
    assert found and absent


# ---------------------------------------------------------------------------
# Right adjoints: the mirrored terminal-witness synthesis

def ref_right_adjoint(F):
    C, D = F.dom, F.cod
    witnesses = {}
    for d in D.sorted_objects():
        w = universal_morphism(d, F, TO_OBJECT)
        if w is None:
            return None
        witnesses[d] = w
    obj_map = {d: witnesses[d].vertex for d in D.objects}
    mor_map = {}
    for m in D.morphisms:
        target = D.comp(m.name, witnesses[m.dom].arrow)
        cands = [f for f in C.hom(obj_map[m.dom], obj_map[m.cod])
                 if D.comp(witnesses[m.cod].arrow, F.mor_map[f]) == target]
        assert len(cands) == 1
        mor_map[m.name] = cands[0]
    R = Functor(f"radj({F.name})", D, C, obj_map, mor_map)
    eps = {d: witnesses[d].arrow for d in D.objects}
    eta = {}
    for c in C.objects:
        d = F.obj_map[c]
        cands = [f for f in C.hom(c, R.obj_map[d])
                 if D.comp(eps[d], F.mor_map[f]) == D.id_of(d)]
        assert len(cands) == 1
        eta[c] = cands[0]
    adj = convert(F, R, "unit->phi",
                  unit=NatTrans("unit", identity_functor(C), compose_functors(R, F), eta))
    assert dict(adj.counit.components) == eps
    return adj


def test_right_adjoint_matches_mirrored_synthesis():
    found = absent = 0
    for rng, C in _categories(16, 40):
        D = random_preorder_category(rng, 3, name="D")
        for F in _sample(rng, enumerate_functors(C, D), 3):
            adj, ref = adjoint_from_universals(F, "right"), ref_right_adjoint(F)
            if ref is None:
                assert adj is None
                absent += 1
                continue
            found += 1
            assert adj.left is F
            assert adj.right.name == ref.right.name and adj.right.key() == ref.right.key()
            assert _nat(adj.unit) == _nat(ref.unit) and _nat(adj.counit) == _nat(ref.counit)
            assert dict(adj.hom_iso) == dict(ref.hom_iso)
    assert found and absent
