
import itertools
import random
from collections import Counter

import fincat.core as core

from fincat.core import (
    Counterexample,
    FinCat,
    Functor,
    NatTrans,
    Report,
    StructuralError,
    _Pieces,
    _in_id_order,
    _nat_families,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    functor_category,
    identity_functor,
    make_category,
    opposite,
    pair_id,
    product,
    validate_category,
    validate_functor,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    SINGLETON,
    SetFunctor,
    const_set_functor,
    enumerate_set_naturals,
    hom_functor,
    validate_set_functor,
    validate_set_natural,
)
from fincat.fixtures import (
    chain,
    discrete,
    parallel_pair,
    pick_object,
    terminal_category,
    walking_arrow,
    bang,
    z2_monoid,
)
from fincat.kan import (
    LEFT,
    RIGHT,
    codensity_monad,
    coyoneda_witness,
    density_check,
    end_coend,
    kan_pointwise,
    kan_universal_check,
    lan_via_coend,
    monad_laws,
    nerve_realization_check,
    reconstruct_comma_cocone,
    weighted_limit,
)
from fincat.limits import COLIMIT, LIMIT, limit_finset
from fincat.randgen import random_dag_category, random_preorder_category
from helpers import functors_into_breaker, int_view_breakers


def two_elt_functor_on_one():
    one = terminal_category()
    V = FinSetObj(("u", "v"))
    return const_set_functor(one, V, "F2")


def test_kan_pointwise_pick0_into_finset():
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    F = two_elt_functor_on_one()
    kr = kan_pointwise(K, F, LEFT)
    assert kr.certificate.ok
    assert len(kr.extension.on_obj["0"]) == 2
    assert len(kr.extension.on_obj["1"]) == 2
    assert kr.extension.on_mor["a"].is_bijection()
    assert validate_set_functor(kr.extension).ok
    assert validate_set_natural(kr.unit_or_counit).ok


def test_kan_degenerate_shape_is_colimit():
    # D = 1, K = !: the left Kan extension is the colimit of F
    pp = parallel_pair()
    K = bang(pp)
    V0 = FinSetObj(("x0", "x1", "x2"))
    F = SetFunctor("F", pp,
                   {"0": V0, "1": V0},
                   {"id_0": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "id_1": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "u": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "v": FinSetMap(V0, V0, {"x0": "x1", "x1": "x0", "x2": "x2"})})
    assert validate_set_functor(F).ok
    kr = kan_pointwise(K, F, LEFT)
    colim = limit_finset(F, COLIMIT)
    assert len(kr.extension.on_obj["*"]) == len(colim.object) == 2


def test_kan_empty_comma_gives_initial():
    d2 = discrete(2)
    K = pick_object(d2, "d0", "K")
    F = two_elt_functor_on_one()
    kr = kan_pointwise(K, F, LEFT)
    assert len(kr.extension.on_obj["d0"]) == 2
    assert len(kr.extension.on_obj["d1"]) == 0


def test_kan_universal_check_fincat_and_perturbation():
    two = walking_arrow()
    one = terminal_category()
    K = pick_object(two, "0", "K")
    F = pick_object(two, "0", "F")  # into the tabulated target 2
    kr = kan_pointwise(K, F, LEFT)
    assert kr.certificate.ok
    L, eta = kr.extension, kr.unit_or_counit
    assert kan_universal_check(L, eta, K, F, LEFT).ok
    # identity K: the extension is the diagram itself up to iso
    kr2 = kan_pointwise(identity_functor(two), identity_functor(two), LEFT)
    assert kan_universal_check(kr2.extension, kr2.unit_or_counit,
                               identity_functor(two), identity_functor(two), LEFT).ok
    # perturb the action on the arrow: L(a) := id breaks the property
    Lbad = Functor("Lbad", two, two, dict(L.obj_map),
                   {"id_0": L.mor_map["id_0"], "id_1": L.mor_map["id_1"],
                    "a": two.id_of(L.obj_map["0"])})
    if validate_functor(Lbad).ok and dict(Lbad.mor_map) != dict(L.mor_map):
        rep = kan_universal_check(Lbad, eta, K, F, LEFT)
        assert not rep.ok



# ---------------------------------------------------------------------------
# kan_universal_check: pinned Reports and a name-based reference

def ref_kan_universal_check(L, eta, K, F, side=LEFT, H_family=None):
    """Every sigma scanned against every transformation between L and H, by name."""
    D, E = K.cod, F.cod
    Es = E if side == LEFT else opposite(E)
    partial = H_family is not None
    checked = 0
    for H in enumerate_functors(D, E) if H_family is None else H_family:
        HK = compose_functors(H, K)
        sigmas = enumerate_nat_trans(F, HK) if side == LEFT else enumerate_nat_trans(HK, F)
        between = enumerate_nat_trans(L, H) if side == LEFT else enumerate_nat_trans(H, L)
        for sigma in sigmas:
            checked += 1
            count = sum(all(Es.comp(sb.components[K.obj_map[c]], eta.components[c])
                            == sigma.components[c] for c in K.dom.objects) for sb in between)
            if count != 1:
                return Report(False, checked,
                              Counterexample("kan-universal", {"H": H.name, "count": count}),
                              partial)
    return Report(True, checked, None, partial)


def _kan_outcome(*args, **kwargs):
    """kan_universal_check(*args, **kwargs), or the message of its StructuralError."""
    try:
        return kan_universal_check(*args, **kwargs)
    except StructuralError as e:
        return ("StructuralError", str(e))


def _named_functor(C, D, name):
    return next(F for F in enumerate_functors(C, D) if F.name == name)


def _refuted(checked, H, count, partial=False):
    return Report(False, checked, Counterexample("kan-universal", {"H": H, "count": count}),
                  partial)


def _perturbed_unit(K, F, side, c, h):
    """The pointwise extension of F along K with its (co)unit's component at c set to h."""
    kr = kan_pointwise(K, F, side)
    t = kr.unit_or_counit
    assert kr.certificate.ok and t.components[c] != h
    return kr.extension, NatTrans(t.name, t.src, t.tgt, {**t.components, c: h})


def test_kan_universal_check_reports_are_pinned():
    two, pp, d2, c3 = walking_arrow(), parallel_pair(), discrete(2), chain(3)
    F = _named_functor(two, pp, "0↦0;1↦1|a↦u")
    # perturbed units, on each side
    K = _named_functor(two, two, "0↦0;1↦0|a↦id_0")
    L, bad = _perturbed_unit(K, F, LEFT, "0", "v")
    assert kan_universal_check(L, bad, K, F, LEFT) == _refuted(1, "0↦1;1↦1|a↦id_1", 0)
    K = _named_functor(two, two, "0↦1;1↦1|a↦id_1")
    R, bad = _perturbed_unit(K, F, RIGHT, "1", "v")
    assert kan_universal_check(R, bad, K, F, RIGHT) == _refuted(1, "0↦0;1↦0|a↦id_0", 0)
    # an L and eta that are not universal: two mediators, and a later H with none
    K = _named_functor(two, d2, "0↦d1;1↦d1|a↦id_d1")
    F = _named_functor(two, pp, "0↦0;1↦0|a↦id_0")
    L = _named_functor(d2, pp, "d0↦0;d1↦0")
    eta = NatTrans("eta", F, compose_functors(L, K), {"0": "id_0", "1": "id_0"})
    assert kan_universal_check(L, eta, K, F, LEFT) == _refuted(4, "d0↦1;d1↦0", 2)
    K = _named_functor(two, c3, "0↦0;1↦0|a↦id_0")
    F = _named_functor(two, c3, "0↦1;1↦1|a↦id_1")
    R = _named_functor(c3, c3, "0↦0;1↦2;2↦2|c01↦c02;c02↦c02;c12↦id_2")
    eps = NatTrans("eps", compose_functors(R, K), F, {"0": "c01", "1": "c01"})
    assert kan_universal_check(R, eps, K, F, RIGHT) == \
        _refuted(7, "0↦1;1↦1;2↦1|c01↦id_1;c02↦id_1;c12↦id_1", 0)


def test_kan_universal_check_on_a_supplied_family_is_partial():
    two, pp, d2 = walking_arrow(), parallel_pair(), discrete(2)
    K = _named_functor(two, d2, "0↦d1;1↦d1|a↦id_d1")
    F = _named_functor(two, pp, "0↦0;1↦0|a↦id_0")
    L = _named_functor(d2, pp, "d0↦0;d1↦0")
    eta = NatTrans("eta", F, compose_functors(L, K), {"0": "id_0", "1": "id_0"})
    Hs = enumerate_functors(d2, pp)
    assert kan_universal_check(L, eta, K, F, LEFT, H_family=Hs[::-1]) == \
        _refuted(1, "d0↦1;d1↦1", 2, partial=True)
    assert kan_universal_check(L, eta, K, F, LEFT, H_family=Hs[:2]) == \
        Report(True, 3, None, True)



def test_kan_universal_check_rejects_an_extension_into_another_category():
    two, c3 = walking_arrow(), chain(3)
    K, F = identity_functor(two), enumerate_functors(two, c3)[0]
    L = enumerate_functors(two, chain(2))[0]
    message = "0↦0;1↦0|a↦id_0=>0↦0;1↦0|a↦id_0: source and target functors are not parallel"
    for side in (LEFT, RIGHT):
        assert _kan_outcome(L, None, K, F, side) == ("StructuralError", message)


def test_kan_universal_check_on_a_complete_table_reads_no_composite_by_name(monkeypatch):
    """Mediators and comparisons meet in the int view on either side."""
    two, c3, pp = walking_arrow(), chain(3), parallel_pair()
    cases = []
    for side in (LEFT, RIGHT):
        K = identity_functor(c3)
        kr = kan_pointwise(K, K, side)
        cases.append((kr.extension, kr.unit_or_counit, K, K, side))
        K = _named_functor(two, two, "0↦0;1↦0|a↦id_0" if side == LEFT else "0↦1;1↦1|a↦id_1")
        F = _named_functor(two, pp, "0↦0;1↦1|a↦u")
        cases.append((*_perturbed_unit(K, F, side, "0" if side == LEFT else "1", "v"), K, F, side))
    want = [ref_kan_universal_check(*case) for case in cases]
    assert [r.ok for r in want] == [True, False, True, False]

    def by_name(self, g, f):
        raise AssertionError(f"{g} after {f} read by name")

    monkeypatch.setattr(FinCat, "comp", by_name)
    assert [kan_universal_check(*case) for case in cases] == want

def _without(C: FinCat, *pairs) -> FinCat:
    return FinCat(C.name + "!", C.objects, C.morphisms, C.identity,
                  {k: v for k, v in C.compose.items() if k not in pairs})


def _at_one(E, obj):
    return Functor(obj, terminal_category(), E, {"*": obj}, {"id_*": E.id_of(obj)})


def test_kan_universal_check_on_a_target_with_a_missing_entry():
    """E's int view is built before any search, so a missing composite raises
    validate_category's StructuralError on either side, with or without a
    supplied family, also where no search would read it: the first check
    below once returned a refutation at its one H, with a count of 0."""
    E = _without(chain(3), ("c12", "c01"))
    fault = ("StructuralError", "chain3!: incomplete composition table, missing (c12,c01)")
    assert _raised(validate_category, E) == fault
    one = identity_functor(terminal_category())
    F, L = _at_one(E, "0"), _at_one(E, "1")
    eta = NatTrans("eta", F, L, {"*": "c01"})
    R, G = _at_one(E, "1"), _at_one(E, "2")
    eps = NatTrans("eps", R, G, {"*": "c12"})
    for family in (None, [_at_one(E, "0")], [_at_one(E, "2")]):
        assert _kan_outcome(L, eta, one, F, LEFT, H_family=family) == fault
        assert _kan_outcome(R, eps, one, G, RIGHT, H_family=family) == fault
    # w.u is missing, though every sigma d0 -> x fails at d0, before d1 would read w.u
    E = _without(make_category("E", ["0", "1", "2"],
                               [("u", "0", "1"), ("v", "0", "1"), ("w", "1", "2"),
                                ("x", "0", "2"), ("y", "0", "2")],
                               {("w", "u"): "x", ("w", "v"): "y"}), ("w", "u"))
    d2 = discrete(2)
    K = identity_functor(d2)
    at = {x: Functor(x, d2, E, {"d0": x, "d1": x}, {"id_d0": f"id_{x}", "id_d1": f"id_{x}"})
          for x in ("0", "1", "2")}
    eta = NatTrans("eta", at["0"], at["1"], {"d0": "v", "d1": "u"})
    assert _kan_outcome(at["1"], eta, K, at["0"], LEFT, H_family=[at["2"]]) == \
        _raised(validate_category, E) == \
        ("StructuralError", "E!: incomplete composition table, missing (w,u)")


def _kan_cases(seeds: int):
    """(L, eta, K, F, side, a few functors K.cod -> F.cod): pointwise
    extensions, their (co)units perturbed, and arbitrary functors with a
    transformation, over random categories; each also read into its target
    with one composition entry removed."""
    for seed in range(seeds):
        rng = random.Random(5100 + seed)
        pick = [lambda n: random_dag_category(rng, 3, 5, name=n),
                lambda n: random_preorder_category(rng, 3, name=n), lambda n: z2_monoid()]
        C, D, E = (rng.choice(pick)(n) for n in "CDE")
        gaps = sorted(k for k in E.compose if not E.is_identity(k[0]) and not E.is_identity(k[1]))
        Ks, Fs, Ls = enumerate_functors(C, D), enumerate_functors(C, E), enumerate_functors(D, E)
        Hs = Ls[::-1][:3]
        for side in (LEFT, RIGHT):
            K, F = rng.choice(Ks), rng.choice(Fs)
            cases = []
            kr = kan_pointwise(K, F, side)
            if kr.extension is not None:
                t = kr.unit_or_counit
                cases.append((kr.extension, t))
                c = rng.choice(sorted(t.components))
                for h in E.hom(t.src.obj_map[c], t.tgt.obj_map[c]):
                    if h != t.components[c]:
                        cases.append((kr.extension, NatTrans(t.name, t.src, t.tgt,
                                                             {**t.components, c: h})))
            L = rng.choice(Ls)
            LK = compose_functors(L, K)
            etas = enumerate_nat_trans(F, LK) if side == LEFT else enumerate_nat_trans(LK, F)
            cases += [(L, eta) for eta in etas[:2]]
            hole = _without(E, rng.choice(gaps)) if gaps else None
            for L, eta in cases:
                yield L, eta, K, F, side, Hs
                if hole is not None:
                    yield (_into(hole, L), _nat_into(hole, eta), K, _into(hole, F), side,
                           [_into(hole, H) for H in Hs])


def _nat_into(E, t):
    """The transformation t read between its functors read into E."""
    return NatTrans(t.name, _into(E, t.src), _into(E, t.tgt), t.components)


def test_kan_universal_check_matches_reference():
    """The reference's Report on a complete target; where a composition entry
    is missing, the reference's StructuralError, which is validate_category's."""
    seen = set()
    for L, eta, K, F, side, Hs in _kan_cases(40):
        fault = _raised(validate_category, F.cod)
        for family in (None, Hs):
            got = _kan_outcome(L, eta, K, F, side, H_family=family)
            want = _raised(ref_kan_universal_check, L, eta, K, F, side, family)
            assert got == want, (L, eta, K, F, side)
            assert got == fault or isinstance(fault, Report), (L, eta, K, F, side)
            seen.add("error" if isinstance(got, tuple) else
                     "ok" if got.ok else f"count {min(got.counterexample.details['count'], 2)}")
    assert {"ok", "count 0", "count 2", "error"} <= seen, seen


# ---------------------------------------------------------------------------
# kan_universal_check against the per-H loop it replaced

def per_H_kan_universal_check(L, eta, K, F, side=LEFT, H_family=None):
    """Every H in name order, each with its comparison search and then its
    mediator search, whether or not it has a comparison; for well-formed
    input only."""
    D, E = K.cod, F.cod
    partial = H_family is not None
    if H_family is None:
        H_family = enumerate_functors(D, E)
    V = E._ints
    num, rows = V.num, V.rows
    c_objs, d_objs = K.dom.sorted_objects(), D.sorted_objects()
    pieces = [_Pieces(a, V.names) for a in c_objs]
    slot = {d: 2 + k for k, d in enumerate(d_objs)}
    checked = 0
    for H in H_family:
        HK = compose_functors(H, K)
        sigmas = _in_id_order(_nat_families([F], [HK]) if side == LEFT
                              else _nat_families([HK], [F]), pieces)
        between = _nat_families([L], [H]) if side == LEFT else _nat_families([H], [L])
        if not sigmas:
            continue
        ends = [(slot[K.obj_map[c]], num[eta.components[c]]) for c in c_objs]
        images = {}
        for sb in between:
            image = tuple([rows[sb[a]][e] if side == LEFT else rows[e][sb[a]] for a, e in ends])
            images[image] = images.get(image, 0) + 1
        for count in [images.get(sigma[2:], 0) for *_, sigma in sigmas]:
            checked += 1
            if count != 1:
                return Report(False, checked,
                              Counterexample("kan-universal", {"H": H.name, "count": count}),
                              partial)
    return Report(True, checked, None, partial)


def _raised(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the type and message of any exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:
        return type(e).__name__, str(e)


def _into(E, X):
    """The functor X read into E, a target with the same ids."""
    return Functor(X.name, X.dom, E, X.obj_map, X.mor_map)


def _retyped(X, E):
    """X with the image of its first non-identity arrow moved to an arrow of E
    with other ends, or to an id E does not have."""
    gens = X.dom.nonidentity_mor_names()
    if not gens:
        return None
    f = gens[0]
    u = E.mor.get(X.mor_map[f])
    others = sorted(m.name for m in E.morphisms if u is None or (m.dom, m.cod) != (u.dom, u.cod))
    return Functor(X.name + "~", X.dom, X.cod, X.obj_map,
                   {**X.mor_map, f: others[0] if others else "nowhere"})


def _without_identity(E: FinCat) -> FinCat:
    """E with its last object gone from the identity table, which E._ints,
    and so every search into E, rejects."""
    last = E.sorted_objects()[-1]
    return FinCat(E.name + "-", E.objects, E.morphisms,
                  {a: u for a, u in E.identity.items() if a != last}, E.compose)


def _differential_cases(seeds: int):
    """(L, eta, K, F, side, H_family) on random DAG, preorder and monoid
    categories: pointwise extensions, their (co)units perturbed and arbitrary
    L with a transformation, into a target E, E with one composition entry
    removed and E without one identity.  Each runs with H_family None, a few
    H, and, as a list and as an iterator, those H behind a counterexample H;
    and with those H behind a malformed H, with L, F or K sending an arrow
    elsewhere, and with L or F not fitting the other functors."""
    for seed in range(seeds):
        rng = random.Random(7300 + seed)
        pick = [lambda n: random_dag_category(rng, 3, 5, name=n),
                lambda n: random_preorder_category(rng, 3, name=n), lambda n: z2_monoid()]
        C, D, E0 = (rng.choice(pick)(n) for n in "CDE")
        other = chain(2) if E0 != chain(2) else walking_arrow()
        gaps = sorted(k for k in E0.compose
                      if not E0.is_identity(k[0]) and not E0.is_identity(k[1]))
        Ks, Fs, Ls = enumerate_functors(C, D), enumerate_functors(C, E0), enumerate_functors(D, E0)
        cases = []
        for side in (LEFT, RIGHT):
            K, F = rng.choice(Ks), rng.choice(Fs)
            kr = kan_pointwise(K, F, side)
            if kr.extension is not None:
                t = kr.unit_or_counit
                cases.append((kr.extension, t, K, F, side))
                c = rng.choice(sorted(t.components))
                for h in E0.hom(t.src.obj_map[c], t.tgt.obj_map[c])[:2]:
                    if h != t.components[c]:
                        cases.append((kr.extension, NatTrans(t.name, t.src, t.tgt,
                                                             {**t.components, c: h}), K, F, side))
            L = rng.choice(Ls)
            LK = compose_functors(L, K)
            for eta in (enumerate_nat_trans(F, LK) if side == LEFT
                        else enumerate_nat_trans(LK, F))[:2]:
                cases.append((L, eta, K, F, side))
        targets = [E0, _without_identity(E0)] + ([_without(E0, rng.choice(gaps))] if gaps else [])
        for E in targets:
            Hs = [_into(E, H) for H in Ls[::-1][:3]]
            for L, eta, K, F, side in cases:
                L, eta, F = _into(E, L), _nat_into(E, eta), _into(E, F)
                yield L, eta, K, F, side, None
                yield L, eta, K, F, side, Hs
                ref = _raised(per_H_kan_universal_check, L, eta, K, F, side)
                if isinstance(ref, Report) and not ref.ok:
                    ahead = [_into(E, next(H for H in Ls
                                           if H.name == ref.counterexample.details["H"]))]
                    yield L, eta, K, F, side, ahead + Hs
                    yield L, eta, K, F, side, iter(ahead + Hs)
                bad = _retyped(Hs[0], E)
                if bad is not None:
                    yield L, eta, K, F, side, iter([bad] + Hs)
                for X in (_retyped(L, E), _retyped(F, E), _retyped(K, D)):
                    if X is not None:
                        yield (X if X.dom == D and X.cod == E else L, eta,
                               X if X.cod == D else K, X if X.dom == C else F, side, None)
            if cases:
                L, eta, K, F, side = rng.choice(cases)
                L, F = _into(E, L), _into(E, F)
                yield enumerate_functors(D, other)[0], eta, K, F, side, None
                yield L, eta, K, _into(E, enumerate_functors(other, E0)[0]), side, None


def _first_fault(E, *functors):
    """The StructuralError of validate_category(E) or else of the first
    functor that validate_functor rejects, as (type, message); else None."""
    for check, X in [(validate_category, E)] + [(validate_functor, X) for X in functors]:
        got = _raised(check, X)
        if isinstance(got, tuple):
            return got
    return None


def test_kan_universal_check_matches_the_per_H_loop():
    """Every well-formed case gives the per-H loop's Report.  A case whose
    target breaks the int view, or in which F, K, L or a supplied H sends an
    arrow outside its hom-set, raises validate_category's or else the first
    such functor's validate_functor error; functors that do not fit together
    raise, or find no comparison at all."""
    seen = Counter()
    for L, eta, K, F, side, family in _differential_cases(60):
        # the check reads its own copy of an iterator
        copies = itertools.tee(family) if family is not None and not isinstance(family, list) \
            else (family, family)
        Hs = None if family is None else list(copies[1])
        got = _raised(kan_universal_check, L, eta, K, F, side, H_family=copies[0])
        fault = _first_fault(F.cod, F, K, L, *(Hs or ()))
        if fault is not None:
            assert got == fault, (L, eta, K, F, side, Hs)
            seen["malformed"] += 1
        elif F.dom != K.dom or L.dom != K.cod or L.cod != F.cod:
            assert got[0] == "StructuralError" or got == Report(True, 0, None, Hs is not None), \
                (L, eta, K, F, side, Hs)
            seen["unfitting"] += 1
        else:
            want = per_H_kan_universal_check(L, eta, K, F, side, Hs)
            assert got == want, (L, eta, K, F, side, Hs)
            seen["ok" if want.ok else f"count {min(want.counterexample.details['count'], 2)}"] += 1
            seen["iterator"] += family is not None and not isinstance(family, list)
    assert seen["ok"] > 50 and seen["count 0"] and seen["count 2"] and seen["iterator"], seen
    assert seen["malformed"] > 100 and seen["unfitting"] > 10, seen


def test_kan_universal_check_raises_on_a_malformed_input_before_any_search(monkeypatch):
    """The check raises before its first search where a search could meet an
    entry it cannot read.  K sends its arrow between the wrong objects: the
    per-H loop refuted the first H before a comparison search reached that
    arrow.  The target lacks the identity of an object that no H with a
    comparison reaches: the per-H loop raised FinCat.id_of's error from its
    functor search."""
    two, c3 = walking_arrow(), chain(3)
    K = Functor("K", two, c3, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "c12"})
    F = Functor("F", two, c3, {"0": "0", "1": "0"}, {"id_0": "id_0", "id_1": "id_0", "a": "id_0"})
    L = _named_functor(c3, c3, "0↦2;1↦2;2↦2|c01↦id_2;c02↦id_2;c12↦id_2")
    eta = NatTrans("eta", F, compose_functors(L, K), {"0": "c02", "1": "c02"})
    E, K2 = _without_identity(c3), identity_functor(two)
    F2 = Functor("F", two, E, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "c01"})
    eta2 = NatTrans("eta", F2, F2, {"0": "id_0", "1": "id_1"})

    def no_search(*args):
        raise AssertionError("a search started")

    monkeypatch.setattr(core, "search", no_search)
    for side in (LEFT, RIGHT):
        assert _raised(kan_universal_check, L, eta, K, F, side) == _raised(validate_functor, K) \
            == ("StructuralError", "K: image of a has wrong endpoints")
        assert _raised(kan_universal_check, F2, eta2, K2, F2, side) == \
            _raised(validate_category, E) == \
            ("StructuralError", "chain3-: object 2 has no identity morphism")


def test_every_search_into_an_incomplete_target_raises_validate_categorys_error(monkeypatch):
    """Into each target that breaks the int view, and chain(3) without one
    identity, enumerate_functors, enumerate_nat_trans, functor_category and
    kan_universal_check (either side, with and without a supplied family)
    raise validate_category's StructuralError before any search starts,
    whatever the source."""
    c3 = chain(3)
    no_identity = _without_identity(c3)

    def no_search(*args):
        raise AssertionError("a search started")

    for E in [*int_view_breakers().values(), no_identity]:
        fault = _raised(validate_category, E)
        assert fault[0] == "StructuralError", E
        for C in (terminal_category(), walking_arrow(), discrete(2), parallel_pair()):
            fs = [_into(E, X) for X in enumerate_functors(C, c3)] if E is no_identity \
                else functors_into_breaker(C, E)
            K = identity_functor(C)
            with monkeypatch.context() as m:
                m.setattr(core, "search", no_search)
                assert _raised(enumerate_functors, C, E) == fault, (E, C)
                assert _raised(functor_category, C, E) == fault, (E, C)
                for F, G in itertools.product(fs[:3], repeat=2):
                    assert _raised(enumerate_nat_trans, F, G) == fault, (E, F, G)
                    eta = NatTrans("eta", F, G, {})
                    for side, family in itertools.product((LEFT, RIGHT), (None, fs[:2])):
                        assert _raised(kan_universal_check, G, eta, K, F, side,
                                       H_family=family) == fault, (E, F, G, side)


def test_kan_right_side_and_reconstruction():
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    kr = kan_pointwise(K, K, RIGHT)
    assert kr.certificate.ok
    T = kr.extension
    assert T.obj_map == {"0": "0", "1": "1"}
    # recovered cones agree with the stored per-object legs exactly
    for d in two.objects:
        rec = reconstruct_comma_cocone(kr, d)
        stored = {o: kr.per_object[d].cone.legs.components[o]
                  for o in kr.commas[d].cat.objects}
        assert rec == stored


def test_kan_left_reconstruction_finset():
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    F = two_elt_functor_on_one()
    kr = kan_pointwise(K, F, LEFT)
    for d in two.objects:
        rec = reconstruct_comma_cocone(kr, d)
        stored = {o: kr.per_object[d].cone.legs.components[o]
                  for o in kr.commas[d].cat.objects}
        assert rec == stored


def test_end_on_terminal_shape():
    one = terminal_category()
    P = product(opposite(one), one)
    V = FinSetObj(("a", "b"))
    D = SetFunctor("D", P, {pair_id("*", "*"): V},
                   {pair_id("id_*", "id_*"): FinSetMap(V, V, {x: x for x in V.elements})})
    res = end_coend(D, one, "end")
    assert len(res.object) == len(V)
    res2 = end_coend(D, one, "coend")
    assert len(res2.object) == len(V)


def hom_bifunctor(C, F, G):
    """(c',c) |-> hom(Fc', Gc) as a Set bifunctor on op(C) x C."""
    D = F.cod
    P = product(opposite(C), C)
    on_obj = {}
    for o in P.objects:
        cp, c = o[1:-1].split(",")
        on_obj[o] = FinSetObj(D.hom(F.obj_map[cp], G.obj_map[c]))
    on_mor = {}
    for m in P.morphisms:
        from fincat.core import split_pair
        fo, g = split_pair(m.name)
        cp0, c0 = split_pair(m.dom)
        table = {}
        for h in on_obj[m.dom].elements:
            table[h] = D.comp_path(F.mor_map[fo], h, G.mor_map[g])
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor("homFG", P, on_obj, on_mor)


def test_end_of_hom_bifunctor_is_nat_set():
    # ends of hom(F-, G-) biject with the natural transformations F => G
    two = walking_arrow()
    for F in (identity_functor(two), pick_object(two, "0", "c0").__class__(
            "const0", two, two, {"0": "0", "1": "0"},
            {"id_0": "id_0", "id_1": "id_0", "a": "id_0"})):
        for G in (identity_functor(two),):
            B = hom_bifunctor(two, F, G)
            res = end_coend(B, two, "end")
            nats = enumerate_nat_trans(F, G)
            assert len(res.object) == len(nats)
            # explicit bijection: tuple elements decode to component families
            objs = sorted(two.objects)
            for e in res.object.elements:
                fam = {j: res.wedge.components[j](e) for j in objs}
                assert any(dict(t.components) == fam for t in nats)


def test_coend_union_find_oracle():
    # coend over the walking arrow of hom(-, =): the only non-identity arrow
    # a: 0 -> 1 relates elements through hom(1, 0), which is empty, so the two
    # diagonal singletons {id_0} and {id_1} stay separate: exactly 2 classes
    two = walking_arrow()
    B = hom_bifunctor(two, identity_functor(two), identity_functor(two))
    res = end_coend(B, two, "coend")
    assert len(res.object) == 2
    # on the two-element monoid every arrow is an endo, so the identification
    # s.s ~ s.s collapses nothing but s ~ s does relate the diagonal values;
    # independent closure: {e, s} quotiented by fg ~ gf for all f, g
    from fincat.fixtures import z2_monoid
    z2 = z2_monoid()
    Bz = hom_bifunctor(z2, identity_functor(z2), identity_functor(z2))
    resz = end_coend(Bz, z2, "coend")
    pairs = set()
    for f in z2.morphisms:
        for g in z2.morphisms:
            pairs.add(frozenset((z2.comp(f.name, g.name), z2.comp(g.name, f.name))))
    classes = {frozenset((m.name,)) for m in z2.morphisms}
    for rel in pairs:
        hit = [c for c in classes if c & rel]
        if len(hit) > 1:
            merged = frozenset().union(*hit)
            classes = {c for c in classes if not (c & rel)} | {merged}
    assert len(resz.object) == len(classes) == 2


def test_coyoneda_on_terminal_and_arrow():
    one = terminal_category()
    F = const_set_functor(one, FinSetObj(("p", "q")), "F")
    w = coyoneda_witness(F, "*")
    assert w.report.ok
    assert len(w.coend) == 2

    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    w2 = coyoneda_witness(y0, "1")
    assert w2.report.ok
    assert len(w2.coend) == len(y0.on_obj["1"]) == 1
    # round trips hold for every fixture object
    for d in two.objects:
        w3 = coyoneda_witness(y0, d)
        assert w3.report.ok


def test_lan_via_coend_matches_pointwise():
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    F = two_elt_functor_on_one()
    ck = lan_via_coend(K, F)
    assert ck.report.ok
    assert ck.iso_to_pointwise is not None
    assert all(len(ck.functor.on_obj[d]) == 2 for d in two.objects)


def test_lan_via_coend_identity_K_is_coyoneda():
    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    ck = lan_via_coend(identity_functor(two), y0)
    assert ck.report.ok
    for d in two.objects:
        assert len(ck.functor.on_obj[d]) == len(y0.on_obj[d])


def test_lan_constant_singleton_counts_components():
    # F constant at the singleton: the value at d counts the connected
    # components of the comma category over d
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    F = const_set_functor(terminal_category(), SINGLETON, "pt")
    ck = lan_via_coend(K, F)
    kr = kan_pointwise(K, F, LEFT)
    for d in two.objects:
        # the comma over d is a single object here: one component
        assert len(ck.functor.on_obj[d]) == 1
        assert len(kr.extension.on_obj[d]) == 1


def test_weighted_limit_constant_weight_is_limit():
    pp = parallel_pair()
    V0 = FinSetObj(("x0", "x1", "x2"))
    F = SetFunctor("F", pp,
                   {"0": V0, "1": V0},
                   {"id_0": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "id_1": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "u": FinSetMap(V0, V0, {x: x for x in V0.elements}),
                    "v": FinSetMap(V0, V0, {"x0": "x1", "x1": "x0", "x2": "x2"})})
    W = const_set_functor(pp, SINGLETON, "unit-weight")
    res = weighted_limit(W, F, LIMIT)
    assert res.certificate.ok
    plain = limit_finset(F, LIMIT)
    assert len(res.object) == len(plain.object) == 1


def test_weighted_limit_is_nat_count():
    two = walking_arrow()
    W = hom_functor(two, "0", "covariant")
    F = hom_functor(two, "1", "covariant")
    res = weighted_limit(W, F, LIMIT)
    assert res.certificate.ok
    assert len(res.object) == len(enumerate_set_naturals(W, F))


def test_weighted_colimit_finset():
    two = walking_arrow()
    W = hom_functor(two, "1", "contravariant")     # presheaf
    F = hom_functor(two, "0", "covariant")
    res = weighted_limit(W, F, COLIMIT)
    assert res.certificate.ok


def test_end_as_hom_weighted_limit():
    # the end of F(c,c) agrees with the hom-weighted limit over op(C) x C
    two = walking_arrow()
    B = hom_bifunctor(two, identity_functor(two), identity_functor(two))
    P = product(opposite(two), two)
    # weight: the hom bifunctor of C itself as a Set functor on P
    W = hom_bifunctor(two, identity_functor(two), identity_functor(two))
    direct = end_coend(B, two, "end")
    weighted = weighted_limit(W, B, LIMIT)
    assert weighted.certificate.ok
    assert len(direct.object) == len(weighted.object)


def test_weighted_limit_general_target():
    # tabulated complete target: the chain poset; cotensors are meets
    C = terminal_category()
    E = chain(3)
    W = const_set_functor(C, FinSetObj(("w0", "w1")), "W")
    F = Functor("pick1", C, E, {"*": "1"}, {"id_*": "id_1"})
    res = weighted_limit(W, F, LIMIT)
    assert res.certificate.ok
    assert res.object == "1"


def test_density_identity_and_failures():
    two = walking_arrow()
    assert density_check(identity_functor(two)).ok
    K = pick_object(two, "0", "K")
    rep = density_check(K)
    assert not rep.ok
    d2 = discrete(2)
    K2 = pick_object(d2, "d0", "K2")
    rep2 = density_check(K2)
    assert not rep2.ok
    assert "comma" in rep2.counterexample.details.get("reason", "")


def test_density_of_relabeling_iso():
    # an isomorphism of categories is dense
    from fincat.core import make_category
    two = walking_arrow()
    two_p = make_category("2p", ["x", "y"], [("b", "x", "y")], {})
    P = Functor("P", two, two_p, {"0": "x", "1": "y"},
                {"id_0": "id_x", "id_1": "id_y", "a": "b"})
    assert density_check(P).ok


def test_codensity_identity_and_pick():
    two = walking_arrow()
    m = codensity_monad(identity_functor(two))
    assert m.report.ok
    assert dict(m.endofunctor.obj_map) == {"0": "0", "1": "1"}
    assert all(two.is_identity(v) for v in m.mult.components.values())
    assert all(two.is_identity(v) for v in m.unit.components.values())

    K = pick_object(two, "0", "K")
    m2 = codensity_monad(K)
    assert m2 is not None
    assert m2.endofunctor.obj_map == {"0": "0", "1": "1"}
    assert m2.report.ok


def test_codensity_perturbation_rejected():
    C3 = chain(3)
    m = codensity_monad(identity_functor(C3))
    assert m.report.ok
    # perturb one component of the multiplication
    comps = dict(m.mult.components)
    target = None
    for d in C3.objects:
        src = m.mult.src.obj_map[d]
        tgt = m.mult.tgt.obj_map[d]
        alts = [f for f in C3.hom(src, tgt) if f != comps[d]]
        if alts:
            target = (d, alts[0])
            break
    if target:
        comps[target[0]] = target[1]
        bad = NatTrans("mult", m.mult.src, m.mult.tgt, comps)
        assert not monad_laws(m.endofunctor, bad, m.unit).ok


def test_nerve_realization_representable_witness():
    two = walking_arrow()
    K = identity_functor(two)
    for c in two.objects:
        X = hom_functor(two, c, "contravariant")
        for d in two.objects:
            nr = nerve_realization_check(K, X, d)
            assert nr.report.ok
            assert nr.realization == c  # co-Yoneda collapse


def test_nerve_realization_empty_witness():
    two = walking_arrow()
    K = identity_functor(two)
    opC = opposite(two)
    empty = SetFunctor("empty", opC,
                       {c: FinSetObj(()) for c in two.objects},
                       {m.name: FinSetMap(FinSetObj(()), FinSetObj(()), {})
                        for m in opC.morphisms})
    for d in two.objects:
        nr = nerve_realization_check(K, empty, d)
        assert nr.report.ok
        assert nr.realization == "0"   # initial object of the target


def test_nerve_realization_three_element_witness():
    two = walking_arrow()
    K = identity_functor(two)
    opC = opposite(two)
    A1 = FinSetObj(("s", "t"))
    A0 = FinSetObj(("r",))
    X = SetFunctor("X", opC,
                   {"0": A0, "1": A1},
                   {"id_0": FinSetMap(A0, A0, {"r": "r"}),
                    "id_1": FinSetMap(A1, A1, {"s": "s", "t": "t"}),
                    "a": FinSetMap(A1, A0, {"s": "r", "t": "r"})})
    assert validate_set_functor(X).ok
    for d in two.objects:
        nr = nerve_realization_check(K, X, d)
        assert nr.report.ok


def test_defining_bijection_failure_reports_are_pinned():
    # a wrong transpose must be refuted with exactly this report: the first
    # source whose family is not natural, or the count once the images miss
    from fincat.core import Counterexample, Report
    from fincat.kan import _defining_bijection
    two = walking_arrow()
    X0, X1 = FinSetObj(("x0", "x1")), FinSetObj(("y0", "y1"))
    F = SetFunctor("F", two, {"0": X0, "1": X1},
                   {"id_0": FinSetMap(X0, X0, {"x0": "x0", "x1": "x1"}),
                    "id_1": FinSetMap(X1, X1, {"y0": "y0", "y1": "y1"}),
                    "a": FinSetMap(X0, X1, {"x0": "y0", "x1": "y0"})})
    W = const_set_functor(two, SINGLETON, "W")
    obj = weighted_limit(W, F, LIMIT).object
    assert len(obj) == 2
    law = "weighted-limit-defining-bijection"

    def constant(at0, at1):
        return lambda h, c, w: FinSetMap(h.dom, F.on_obj[c], {
            q: at0 if c == "0" else at1 for q in h.dom.elements})

    # x1 at 0 and y1 at 1 do not commute with F(a)
    assert _defining_bijection(W, F, obj, LIMIT, 0, constant("x1", "y1")) == \
        Report(False, 1, Counterexample(law, {"probe": "('*',)"}))
    # natural, but every source lands on the same family
    assert _defining_bijection(W, F, obj, LIMIT, 3, constant("x0", "y0")) == \
        Report(False, 5, Counterexample(law, {"probe": "('*',)", "failure": "not bijective"}))
