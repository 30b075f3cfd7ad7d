"""Pointwise Kan extensions via comma (co)limits, ends and coends, the coend
formula, weighted (co)limits, density, codensity monads and finite-witness
nerve-realization checks.

Where the target category is tabulated each dual pair is written once; the
other side runs the same code in the opposite target, reading the arrows of
the other categories involved backwards.  Right Kan extensions share the
action, counit and universal-property code of left ones, coends are ends in
the opposite target, and a weighted colimit is the weighted limit of the
opposite functor, whose cotensors are tensors in the original target.
Wedges and cones share one search, limits.apex_families.  The opposite of
finite Set is not finite Set, so the Set backend computes both sides
directly, on the tuple and quotient kernels of limits.py: Set ends and
coends are the limit and colimit of the diagonal, and every map between Set
(co)limits (the Kan action, the coend-formula action and its iso to the
pointwise extension) comes from one induced-map helper.  The coend formula
and the weighted colimit share one W x F bifunctor, and the two Set weighted
(co)limits one defining-bijection check.  Every bijection onto a set of
natural transformations (weighted (co)limits, density, nerve-realization) is
certified by one helper, finset.nat_bijection.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    Counterexample,
    FinCat,
    Functor,
    NatTrans,
    Report,
    StructuralError,
    _Pieces,
    _check_functor,
    _in_id_order,
    _nat_families,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    factorizations,
    fail_report,
    identity_functor,
    ok_report,
    op_product,
    opposite,
    opposite_functor,
    pair_id,
    split_pair,
    validate_natural,
    vcompose,
    whisker_functor_nat,
)
from .finset import (
    FinSetMap,
    FinSetObj,
    NOT_BIJECTIVE,
    SINGLETON,
    SetFunctor,
    SetNatTrans,
    _hom_set_functor,
    _named_functor,
    all_maps,
    cotensor_in_category,
    hom_functor,
    legs_by_element,
    map_lists,
    nat_bijection,
    set_precompose,
    table_id,
    validate_set_natural,
)
from .limits import (
    COLIMIT,
    LIMIT,
    LimitResult,
    apex_families,
    first_terminal,
    induced_set_map,
    limit,
    limit_finset,
    set_colimit,
    set_limit,
    through,
)
from .universal import CommaData, _pair, comma_from_object, comma_to_object, elements_category

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True, eq=False)
class KanResult:
    extension: Union[Functor, SetFunctor]
    unit_or_counit: Union[NatTrans, SetNatTrans]
    per_object: dict[str, LimitResult]
    commas: dict[str, CommaData]
    side: str
    certificate: Report
    missing_at: Optional[str] = None


def kan_pointwise(K: Functor, F: Union[Functor, SetFunctor],
                  side: str = LEFT) -> Optional[KanResult]:
    """Pointwise Kan extension of F along K computed one comma at a time.

    Left: the value at d is the colimit of F restricted along the forgetful
    functor out of the comma of K over d; the action on f: d -> d' is the
    unique factorization through the shifted cocone, and the unit component at
    c is the cocone leg at the identity pair.  Right is the formal dual.
    Returns None, with the offending object recorded, when a comma (co)limit
    is missing.
    """
    if side not in (LEFT, RIGHT):
        raise StructuralError(f"unknown side {side!r}")
    C, D = K.dom, K.cod
    finset = isinstance(F, SetFunctor)
    if F.dom != C:
        raise StructuralError("K and F must share their source category")
    direction = COLIMIT if side == LEFT else LIMIT
    commas: dict[str, CommaData] = {}
    per: dict[str, LimitResult] = {}
    pair_index: dict[str, dict[tuple[str, str], str]] = {}
    for d in D.sorted_objects():
        comma = comma_to_object(K, d) if side == LEFT else comma_from_object(d, K)
        commas[d] = comma
        pair_index[d] = {v: k for k, v in comma.pairs.items()}
        diagram = (set_precompose(F, comma.forgetful) if finset
                   else compose_functors(F, comma.forgetful))
        res = limit_finset(diagram, direction) if finset else limit(diagram, direction)
        if res is None or (finset and not res.certificate.ok):
            return KanResult(None, None, per, commas, side,
                             fail_report(0, "kan-comma-limit", at=d), missing_at=d)
        per[d] = res

    name = f"{'Lan' if side == LEFT else 'Ran'}[{K.name}]({F.name})"
    checked = 0
    obj_map = {d: per[d].object for d in D.objects}
    legs = {d: per[d].cone.legs.components for d in D.objects}
    # Ran is Lan read in op(D) (and op(E)): the action on m: d -> d' links
    # each comma object (c, p) at d to (c, m.p) at d', read from d' for Ran
    Ds = D if side == LEFT else opposite(D)
    mor_map = {}
    for m in D.morphisms:
        d, dp = (m.dom, m.cod) if side == LEFT else (m.cod, m.dom)
        links = [(o, pair_index[dp][(c, Ds.comp(m.name, p))])
                 for o, (c, p) in commas[d].pairs.items()]
        if finset:
            g, n = induced_set_map(direction, obj_map[m.dom], legs[m.dom], obj_map[m.cod],
                                   legs[m.cod], [(o, None, o2) if side == LEFT else (o2, None, o)
                                                 for o, o2 in links])
            checked += n
            detail = {}
        else:
            # a cone factorization in op(E) on the left, in E on the right
            g, count = through(opposite(F.cod) if side == LEFT else F.cod, obj_map[dp],
                               obj_map[d], legs[d])({o: legs[dp][o2] for o, o2 in links})
            checked += 1
            detail = {"count": count}
        if g is None:
            return KanResult(None, None, per, commas, side,
                             fail_report(checked, "kan-action", morphism=m.name, **detail))
        mor_map[m.name] = g
    if finset:
        ext = SetFunctor(name, D, obj_map, mor_map)
        LK, Nat, validate = set_precompose(ext, K), SetNatTrans, validate_set_natural
    else:
        ext = Functor(name, D, F.cod, obj_map, mor_map)
        LK, Nat, validate = compose_functors(ext, K), NatTrans, validate_natural
    comps = {}
    for c in C.objects:
        d = K.obj_map[c]
        comps[c] = per[d].cone.legs.components[pair_index[d][(c, D.id_of(d))]]
    unit = Nat("unit", F, LK, comps) if side == LEFT else Nat("counit", LK, F, comps)
    rep = validate(unit)
    if not rep.ok:
        return KanResult(ext, unit, per, commas, side,
                         fail_report(checked, "kan-unit-naturality",
                                     detail=str(rep.counterexample)))
    return KanResult(ext, unit, per, commas, side, ok_report(checked + rep.checked))


def reconstruct_comma_cocone(kr: KanResult, d: str) -> dict[str, str]:
    """Rebuild the per-object cocone from the unit: leg at (c,p) = L(p) . eta_c.

    For the right-handed case the dual composite eta_c-after-R(p) is returned.
    Agreement with the stored legs is the recovered-cocone identity.
    """
    comma = kr.commas[d]
    T, unit = kr.extension, kr.unit_or_counit.components
    if isinstance(T, SetFunctor):
        if kr.side == LEFT:
            return {o: unit[c].then(T.on_mor[p]) for o, (c, p) in comma.pairs.items()}
        return {o: T.on_mor[p].then(unit[c]) for o, (c, p) in comma.pairs.items()}
    E = T.cod if kr.side == LEFT else opposite(T.cod)
    return {o: E.comp(T.mor_map[p], unit[c]) for o, (c, p) in comma.pairs.items()}


def kan_universal_check(L: Functor, eta: NatTrans, K: Functor, F: Functor,
                        side: str = LEFT, H_family=None) -> Report:
    """Exhaustive universal-property check over an enumerable functor category.

    For every candidate H and every comparison transformation, exactly one
    mediating transformation must exist.  Supplying H_family (any iterable,
    read once) switches to a probe run, flagged as partial in the report.

    It raises on an unknown side, an incomplete table of E, an F, K, L or
    supplied H failing _check_functor and an F whose source is not K's before
    it searches, and on an eta_c outside its hom-set after.  Enumerated H send
    K(c) only where the component hom-set at c is not empty; one search finds
    the comparisons of every H, in id order, and one the mediators of the H
    that have one.  Each mediator's image (its component at K(c) after eta_c,
    for every c) is counted, so a comparison is one lookup of its count.
    """
    if side not in (LEFT, RIGHT):
        raise StructuralError(f"unknown side {side!r}")
    C, D, E = K.dom, K.cod, F.cod
    V = E._ints
    num, rows, homs = V.num, V.rows, V.homs
    partial = H_family is not None
    H_family = list(H_family or ())
    for X in (F, K, L, *H_family):
        _check_functor(X)
    if F.dom != C:
        raise StructuralError(f"{F.name}: source is not {C.name}, the source of {K.name}")
    at = 1 if side == LEFT else 0  # H's slot in a family; on the right, families run back
    pair = (lambda x, y: (x, y)) if side == LEFT else (lambda x, y: (y, x))

    def families(X, Ys):
        return _nat_families([X], Ys) if side == LEFT else _nat_families(Ys, [X])

    c_objs, d_objs = C.sorted_objects(), D.sorted_objects()
    if not partial:  # d goes to e only if the component hom-set at each c over d is not empty
        over: dict[str, list[str]] = {}
        for c in c_objs:
            over.setdefault(K.obj_map[c], []).append(F.obj_map[c])
        H_family = enumerate_functors(D, E, {
            d: [e for e in E.sorted_objects() if all(pair(x, e) in homs for x in over.get(d, ()))]
            for d in d_objs})
    sigmas: dict[int, list] = {}
    for s in _in_id_order(families(F, [compose_functors(H, K) for H in H_family]),
                          [_Pieces(a, V.names) for a in c_objs]):
        sigmas.setdefault(s[at], []).append(s)
    if not sigmas:
        return ok_report(0, partial)
    have = list(sigmas)
    mediators = families(L, [H_family[h] for h in have])
    ends = []  # per c: the slot of the component at K(c) in a family over D, and eta_c
    for c in c_objs:
        d, u = K.obj_map[c], eta.components.get(c)
        if u not in E.hom(*pair(F.obj_map[c], L.obj_map[d])):
            raise StructuralError(f"{eta.name}: component at {c} lies in the wrong hom-set")
        ends.append((2 + d_objs.index(d), num[u]))
    # each mediator's image, keyed by its H's place in `have`
    images = factorizations(mediators, lambda t: (
        t[at], *[rows[t[a]][e] if side == LEFT else rows[e][t[a]] for a, e in ends]))
    checked = 0
    for k, h in enumerate(have):
        for *_, sigma in sigmas[h]:
            checked += 1
            _, count = images((k, *sigma[2:]))
            if count != 1:
                return Report(False, checked, Counterexample(
                    "kan-universal", {"H": H_family[h].name, "count": count}), partial)
    return ok_report(checked, partial)


def ran_factor(kr: KanResult, H: Functor, sigma: NatTrans) -> NatTrans:
    """Factor a comparison H*K => F through a pointwise right Kan extension."""
    if kr.side != RIGHT:
        raise StructuralError("ran_factor needs a right-handed result")
    T = kr.extension
    D, E = T.dom, T.cod
    comps = {}
    for d in D.objects:
        comma = kr.commas[d]
        legs = kr.per_object[d].cone.legs.components
        g, _ = through(E, H.obj_map[d], T.obj_map[d], legs)(
            {o: E.comp(sigma.components[c], H.mor_map[p]) for o, (c, p) in comma.pairs.items()})
        if g is None:
            raise StructuralError(f"right-Kan factorization at {d} not unique")
        comps[d] = g
    out = NatTrans("mediator", H, T, comps)
    rep = validate_natural(out)
    if not rep.ok:
        raise StructuralError(f"right-Kan mediator not natural: {rep.counterexample}")
    return out


# ---------------------------------------------------------------------------
# Ends and coends

def _check_bifunctor(D: Union[Functor, SetFunctor], J: FinCat, side: str) -> None:
    if side not in ("end", "coend"):
        raise StructuralError(f"unknown side {side!r}")
    # an identity test when D was built on op_product(J)
    if D.dom != op_product(J):
        raise StructuralError("bifunctor must live on op(J) x J")


@dataclass(frozen=True, eq=False)
class WedgeData:
    apex: str
    components: dict[str, Union[str, FinSetMap]]
    direction: str  # "wedge" | "cowedge"


@dataclass(frozen=True, eq=False)
class EndResult:
    object: Union[str, FinSetObj]
    wedge: WedgeData
    certificate: Report


def end_coend_finset(D: SetFunctor, J: FinCat, side: str) -> EndResult:
    """Direct Set computation: ends as matching diagonal tuples, coends as
    union-find quotients of the diagonal disjoint union."""
    _check_bifunctor(D, J, side)
    D._tables  # D's one structural check, before any read
    objs = J.sorted_objects()
    diagonal = {j: D.on_obj[pair_id(j, j)] for j in objs}

    def at(f: str, g: str):
        return D.on_mor[pair_id(f, g)].table

    if side == "end":
        # h: i -> j; B(id_i,h) at i and B(h,id_j) at j meet in B(i,j)
        obj, legs = set_limit(objs, diagonal, [
            (h.dom, at(J.id_of(h.dom), h.name), h.cod, at(h.name, J.id_of(h.cod)))
            for h in J.morphisms])
        return EndResult(obj, WedgeData("", legs, "wedge"), ok_report(len(obj)))
    # h: i -> j; y in B(j,i) relates B(id_j,h) y at j with B(h,id_i) y at i
    obj, legs = set_colimit(objs, diagonal, (
        (h.cod, x, h.dom, at(h.name, J.id_of(h.dom))[y])
        for h in J.morphisms for y, x in at(J.id_of(h.cod), h.name).items()))
    return EndResult(obj, WedgeData("", legs, "cowedge"),
                     ok_report(sum(len(X) for X in diagonal.values())))


def enumerate_wedges(D: Functor, J: FinCat, side: str) -> list[WedgeData]:
    """All (co)wedges of a bifunctor valued in a finite category, by one
    limits.apex_families search: h: i -> j asks D(id_i, h) . w_i =
    D(h, id_j) . w_j, and a cowedge is a wedge read in the opposite target
    with J's arrows reversed."""
    _check_bifunctor(D, J, side)

    def rule(h, x, y):   # h: i -> j, x and y the slots of i and j
        id_i, id_j = J.id_of(J.dom(h)), J.id_of(J.cod(h))
        if side == "end":
            return D.mor_map[pair_id(id_i, h)], x, D.mor_map[pair_id(h, id_j)], y
        return D.mor_map[pair_id(id_j, h)], y, D.mor_map[pair_id(h, id_i)], x

    found = apex_families(D.cod if side == "end" else opposite(D.cod), J,
                          [D.obj_map[pair_id(j, j)] for j in J.sorted_objects()], rule,
                          f"{side} wedge search over {D.name}")
    return [WedgeData(apex, w, "wedge" if side == "end" else "cowedge") for apex, w in found]


def end_coend(D: Union[Functor, SetFunctor], J: FinCat, side: str) -> Optional[EndResult]:
    """Terminal wedge / initial cowedge.

    Set-valued bifunctors take the direct path; tabulated targets search the
    category of (co)wedges and certify unique factorization exhaustively.
    """
    if isinstance(D, SetFunctor):
        return end_coend_finset(D, J, side)
    wedges = enumerate_wedges(D, J, side)
    found = first_terminal(D.cod if side == "end" else opposite(D.cod),
                           [(w.apex, w.components) for w in wedges])
    if found is None:
        return None
    w = wedges[found[0]]
    return EndResult(w.apex, w, found[1])


# ---------------------------------------------------------------------------
# Coend formula for left Kan extensions and the co-Yoneda collapse

def _tensor_bifunctor(W: SetFunctor, F: SetFunctor, P: FinCat) -> SetFunctor:
    """(c', c) |-> W(c') x F(c) as a Set bifunctor on P = op(C) x C, for a
    presheaf W on C (a functor on op(C)) and F on C; elements are pairs "(w,x)"."""
    W._tables, F._tables  # each input's one structural check, before any read
    on_obj = {}
    for o in P.objects:
        cp, c = split_pair(o)
        on_obj[o] = FinSetObj(tuple(pair_id(w, x) for w in W.on_obj[cp].sorted()
                                    for x in F.on_obj[c].sorted()))
    on_mor = {}
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        cp0, c0 = split_pair(m.dom)
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], {
            pair_id(w, x): pair_id(W.on_mor[fo](w), F.on_mor[g](x))
            for w in W.on_obj[cp0].sorted() for x in F.on_obj[c0].sorted()})
    return SetFunctor(f"({W.name}x{F.name})", P, on_obj, on_mor)


@dataclass(frozen=True, eq=False)
class CoendKan:
    functor: SetFunctor
    per_object: dict[str, LimitResult]
    iso_to_pointwise: Optional[SetNatTrans]
    report: Report


def lan_via_coend(K: Functor, F: SetFunctor) -> CoendKan:
    """Left Kan extension through the coend of hom-weighted copowers.

    The value at d is the coend of D(K-, d) x F; the result is compared with
    the comma-colimit computation through an explicit natural isomorphism
    built classwise.
    """
    C, D = K.dom, K.cod
    P = op_product(C)
    Kop = opposite_functor(K)
    per = {d: end_coend_finset(_tensor_bifunctor(_hom_set_functor(d, Kop), F, P), C, "coend")
           for d in D.objects}
    on_mor = {}
    for m in D.morphisms:
        d, dp = m.dom, m.cod
        # m acts on the hom factor of each diagonal copower: (p, x) |-> (m.p, x)
        moves = [(c, {pair_id(p, x): pair_id(D.comp(m.name, p), x)
                      for p in D.hom(K.obj_map[c], d) for x in F.on_obj[c].elements}, c)
                 for c in C.objects]
        f, _ = induced_set_map(COLIMIT, per[d].object, per[d].wedge.components,
                               per[dp].object, per[dp].wedge.components, moves)
        if f is None:
            return CoendKan(None, per, None, fail_report(0, "coend-kan-action",
                                                         morphism=m.name))
        on_mor[m.name] = f
    L = SetFunctor(f"coendLan[{K.name}]({F.name})", D,
                   {d: per[d].object for d in D.objects}, on_mor)

    kr = kan_pointwise(K, F, LEFT)
    if kr.extension is None:
        return CoendKan(L, per, None, fail_report(0, "kan-comma-limit",
                                                  at=kr.missing_at))
    checked = 0
    comps = {}
    for d in D.objects:
        # x at the comma object (c, p) goes to (p, x) in the copower at c
        src = kr.per_object[d]
        moves = [(o, {x: pair_id(p, x) for x in F.on_obj[c].elements}, c)
                 for o, (c, p) in kr.commas[d].pairs.items()]
        m, n = induced_set_map(COLIMIT, src.object, src.cone.legs.components,
                               per[d].object, per[d].wedge.components, moves)
        checked += n
        if m is None:
            return CoendKan(L, per, None, fail_report(checked, "coend-kan-iso", at=d))
        if not m.is_bijection():
            return CoendKan(L, per, None,
                            fail_report(checked, "coend-kan-iso", at=d,
                                        failure="not bijective"))
        comps[d] = m
    iso = SetNatTrans("coend-vs-comma", kr.extension, L, comps)
    rep = validate_set_natural(iso)
    if not rep.ok:
        return CoendKan(L, per, None, fail_report(checked, "coend-kan-iso",
                                                  failure="not natural"))
    return CoendKan(L, per, iso, ok_report(checked + rep.checked))


@dataclass(frozen=True, eq=False)
class CoyonedaWitness:
    coend: FinSetObj
    to_value: FinSetMap
    from_value: FinSetMap
    report: Report


def coyoneda_witness(F: SetFunctor, d: str) -> CoyonedaWitness:
    """The collapse of the hom-weighted coend onto the value F(d).

    Forward: a class of (p, x) goes to F(p)(x); backward: x tags the identity.
    Both composites are checked to be identities elementwise.
    """
    C = F.dom
    if d not in C.objects:
        raise StructuralError(f"unknown object {d}")
    W = hom_functor(C, d, "contravariant")
    res = end_coend_finset(_tensor_bifunctor(W, F, op_product(C)), C, "coend")
    legs = res.wedge.components
    to_table = {}
    checked = 0
    for c in C.objects:
        for p in sorted(C.hom(c, d)):
            for x in F.on_obj[c].sorted():
                cls = legs[c](pair_id(p, x))
                val = F.on_mor[p](x)
                checked += 1
                if to_table.setdefault(cls, val) != val:
                    return CoyonedaWitness(res.object, None, None,
                                           fail_report(checked, "coyoneda",
                                                       at=cls))
    to_value = FinSetMap(res.object, F.on_obj[d], to_table)
    from_value = FinSetMap(F.on_obj[d], res.object,
                           {x: legs[d](pair_id(C.id_of(d), x))
                            for x in F.on_obj[d].elements})
    for x in F.on_obj[d].elements:
        checked += 1
        if to_value(from_value(x)) != x:
            return CoyonedaWitness(res.object, to_value, from_value,
                                   fail_report(checked, "coyoneda", at=x))
    for cls in res.object.elements:
        checked += 1
        if from_value(to_value(cls)) != cls:
            return CoyonedaWitness(res.object, to_value, from_value,
                                   fail_report(checked, "coyoneda", at=cls))
    return CoyonedaWitness(res.object, to_value, from_value, ok_report(checked))


# ---------------------------------------------------------------------------
# Weighted (co)limits

@dataclass(frozen=True, eq=False)
class WeightedResult:
    object: Union[str, FinSetObj]
    certificate: Report


def weighted_limit(W: SetFunctor, F: Union[Functor, SetFunctor],
                   side: str = LIMIT) -> WeightedResult:
    """Weighted (co)limit through ends of cotensors / coends of tensors.

    In the Set backend the defining bijection against natural families from
    the weight is certified with explicit transposes; in a tabulated target
    the bijection is checked for every probe object.
    """
    if side == LIMIT:
        if isinstance(F, SetFunctor):
            return _weighted_limit_finset(W, F)
        return _weighted_limit_general(W, F, LIMIT)
    if side == COLIMIT:
        if isinstance(F, SetFunctor):
            return _weighted_colimit_finset(W, F)
        if F.dom != opposite(W.dom):
            raise StructuralError("weight and diagram must share their base category")
        # colim^W F is lim^W of F^op: C^op -> E^op, W being a presheaf on C
        return _weighted_limit_general(W, opposite_functor(F), COLIMIT)
    raise StructuralError(f"unknown side {side!r}")


def _weighted_limit_finset(W: SetFunctor, F: SetFunctor) -> WeightedResult:
    """lim^W F as the end of Set(W(c'), F(c)), certified against Nat(W, F)."""
    C = W.dom
    if F.dom != C:
        raise StructuralError("weight and diagram must share their category")
    W._tables, F._tables  # each input's one structural check, before any read
    P = op_product(C)
    B, decode = _named_functor(
        f"Set(W-,{F.name}-)", P, map_lists(
            [(W.on_obj[a], F.on_obj[b]) for a, b in map(split_pair, P.objects)],
            f"end of Set(W-,{F.name}-)"), table_id,
        lambda m, t: W.on_mor[split_pair(m)[0]].then(t).then(F.on_mor[split_pair(m)[1]]))
    res = end_coend_finset(B, C, "end")
    # the end elements are exactly the natural families, found independently
    checked, bad, _ = nat_bijection(
        W, F, res.object.elements,
        lambda e, c, w: decode[pair_id(c, c)][res.wedge.components[c](e)](w))
    if bad is NOT_BIJECTIVE:
        return WeightedResult(res.object, fail_report(
            checked, "weighted-limit-naturals", failure="not bijective"))
    if bad is not None:
        return WeightedResult(res.object, fail_report(
            checked, "weighted-limit-naturals", element=bad))
    return WeightedResult(res.object, _defining_bijection(
        W, F, res.object, LIMIT, checked, lambda h, c, w: FinSetMap(
            h.dom, F.on_obj[c], {q: decode[pair_id(c, c)][res.wedge.components[c](h(q))](w)
                                 for q in h.dom.elements})))


def _weighted_colimit_finset(W: SetFunctor, F: SetFunctor) -> WeightedResult:
    """colim^W F as the coend of W(c') x F(c); W is a presheaf on op(C)."""
    C = opposite(W.dom)
    if F.dom != C:
        raise StructuralError("diagram must live on the base category")
    res = end_coend_finset(_tensor_bifunctor(W, F, op_product(C)), C, "coend")
    return WeightedResult(res.object, _defining_bijection(
        W, F, res.object, COLIMIT, 0, lambda h, c, w: FinSetMap(
            F.on_obj[c], h.cod, {x: h(res.wedge.components[c](pair_id(w, x)))
                                 for x in F.on_obj[c].elements})))


def _defining_bijection(W: SetFunctor, F: SetFunctor, obj: FinSetObj, side: str,
                        checked: int, transpose) -> Report:
    """The defining bijection of the Set weighted (co)limit obj on probe sets e.

    Side LIMIT: Set(e, lim^W F) ~ Nat(W, Set(e, F-)); side COLIMIT:
    Set(colim^W F, e) ~ Nat(W, Set(F-, e)), with F on C and W on op(C).
    transpose(h, c, w) is the map between e and F(c) that h sends w to;
    `checked` counts on from the checks already made.
    """
    law, what = f"weighted-{side}-defining-bijection", f"weighted {side} defining bijection"
    for probe in (SINGLETON, FinSetObj(("p0", "p1"))):
        if side == LIMIT:
            homF, _ = _named_functor(
                f"maps({probe.sorted()},F-)", W.dom,
                map_lists([(probe, F.on_obj[c]) for c in W.dom.objects], what), table_id,
                lambda f, t: t.then(F.on_mor[f]))
        else:
            homF, _ = _named_functor(
                f"maps(F-,{probe.sorted()})", W.dom,
                map_lists([(F.on_obj[c], probe) for c in W.dom.objects], what), table_id,
                lambda f, t: F.on_mor[f].then(t))
        tried, bad, _ = nat_bijection(
            W, homF, all_maps(probe, obj) if side == LIMIT else all_maps(obj, probe),
            lambda h, c, w: table_id(transpose(h, c, w)))
        checked += tried
        if bad is NOT_BIJECTIVE:
            return fail_report(checked, law, probe=str(probe.sorted()), failure="not bijective")
        if bad is not None:
            return fail_report(checked, law, probe=str(probe.sorted()))
    return ok_report(checked)


def _weighted_limit_general(W: SetFunctor, F: Functor, side: str) -> WeightedResult:
    """lim^W F in a tabulated target: end of per-pair cotensors.

    With side COLIMIT, F is the opposite of the diagram and E = F.cod the
    opposite of its target: the cotensors, the end and the defining bijection
    computed here are the tensors, the coend and the bijection of colim^W.
    Only the reported law names differ.
    """
    dual = side == COLIMIT
    cot = "tensor" if dual else "cotensor"
    C = W.dom
    E = F.cod
    if F.dom != C:
        raise StructuralError("weight and diagram must share their category")
    P = op_product(C)
    cot_obj: dict[str, str] = {}
    cot_legs: dict[str, dict[str, str]] = {}
    for o in P.objects:
        cp, c = split_pair(o)
        res = cotensor_in_category(W.on_obj[cp], F.obj_map[c], E)
        if res is None:
            return WeightedResult(None, fail_report(0, f"missing-{cot}", at=o))
        cot_obj[o], cot_legs[o] = res.object, legs_by_element(W.on_obj[cp], res)
    mor_map = {}
    for m in P.morphisms:
        fo, g = split_pair(m.name)
        src, tgt = m.dom, m.cod
        cp1, c1 = split_pair(tgt)
        u, _ = through(E, cot_obj[src], cot_obj[tgt], cot_legs[tgt])(
            {w: E.comp(F.mor_map[g], cot_legs[src][W.on_mor[fo](w)])
             for w in W.on_obj[cp1].elements})
        if u is None:
            return WeightedResult(None, fail_report(0, f"missing-{cot}", at=m.name))
        mor_map[m.name] = u
    B = Functor(f"{cot}({W.name},{F.name})", P, E, cot_obj, mor_map)
    res = end_coend(B, C, "end")
    if res is None:
        return WeightedResult(None, fail_report(
            0, "weighted-colimit-missing-coend" if dual else "weighted-limit-missing-end"))
    # defining bijection against natural families, for every probe object e
    law = f"weighted-{side}-defining-bijection"
    checked = 0
    for e in E.sorted_objects():
        homF = _hom_set_functor(e, F)
        tried, bad, _ = nat_bijection(
            W, homF, E.hom(e, res.object),
            lambda g, c, w: E.comp_path(g, res.wedge.components[c], cot_legs[pair_id(c, c)][w]))
        checked += tried
        if bad is NOT_BIJECTIVE:
            return WeightedResult(res.object, fail_report(
                checked, law, probe=e, failure="not bijective"))
        if bad is not None:
            return WeightedResult(res.object, fail_report(checked, law, probe=e))
    return WeightedResult(res.object, ok_report(checked))


# ---------------------------------------------------------------------------
# Density and codensity

def density_check(K: Functor) -> Report:
    """Is the identity a pointwise left Kan extension of K along itself?

    The verdict is double-checked through the representable criterion: the
    transformation sets between restricted hom presheaves must biject with the
    target hom-sets.
    """
    D = K.cod
    kr = kan_pointwise(K, K, LEFT)
    checked = 0
    if kr.extension is None:
        return fail_report(checked, "density", reason=f"no comma colimit at {kr.missing_at}")
    L = kr.extension
    isos = [t for t in enumerate_nat_trans(L, identity_functor(D))
            if all(D.is_iso(m) for m in t.components.values())]
    dense_via_lan = bool(isos)
    # independent criterion: Nat(D(K-,d), D(K-,d')) ~ D(d,d') by postcomposition
    witness = None
    Kop = opposite_functor(K)
    DK = {d: _hom_set_functor(d, Kop) for d in D.objects}   # d |-> the presheaf D(K-, d)
    for d, dp in itertools.product(D.sorted_objects(), repeat=2):
        checked += 1
        _, bad, _ = nat_bijection(DK[d], DK[dp], D.hom(d, dp), lambda g, c, p: D.comp(g, p))
        if bad is not None:
            witness = (d, dp)
            break
    dense_via_hom = witness is None
    if dense_via_lan != dense_via_hom:
        raise StructuralError(
            f"density criteria disagree (lan={dense_via_lan}, hom={dense_via_hom})")
    if not dense_via_lan:
        return fail_report(checked, "density",
                           reason="extension not isomorphic to the identity",
                           at=str(witness))
    return ok_report(checked)


@dataclass(frozen=True, eq=False)
class Monad:
    endofunctor: Functor
    mult: NatTrans
    unit: NatTrans
    report: Report


def monad_laws(T: Functor, mu: NatTrans, eta: NatTrans) -> Report:
    D = T.dom
    checked = 0
    for d in D.sorted_objects():
        checked += 1
        lhs = D.comp(mu.components[d], T.mor_map[mu.components[d]])
        rhs = D.comp(mu.components[d], mu.components[T.obj_map[d]])
        if lhs != rhs:
            return fail_report(checked, "monad-associativity", at=d)
    for d in D.sorted_objects():
        checked += 1
        if D.comp(mu.components[d], T.mor_map[eta.components[d]]) != \
                D.id_of(T.obj_map[d]):
            return fail_report(checked, "monad-unit", at=d, side="inner")
        if D.comp(mu.components[d], eta.components[T.obj_map[d]]) != \
                D.id_of(T.obj_map[d]):
            return fail_report(checked, "monad-unit", at=d, side="outer")
    return ok_report(checked)


def codensity_monad(K: Functor) -> Optional[Monad]:
    """The monad carried by the right Kan extension of K along itself.

    Multiplication and unit are the unique factorizations through the counit;
    the monad laws are then verified componentwise.
    """
    D = K.cod
    kr = kan_pointwise(K, K, RIGHT)
    if kr.extension is None:
        return None
    T = kr.extension
    eps = kr.unit_or_counit
    TT = compose_functors(T, T)
    sigma_mu = vcompose(eps, whisker_functor_nat(T, eps))
    sigma_mu = NatTrans("Teps-eps", compose_functors(TT, K), K, sigma_mu.components)
    mu = ran_factor(kr, TT, sigma_mu)
    idK = NatTrans("idK", compose_functors(identity_functor(D), K), K,
                   {c: D.id_of(K.obj_map[c]) for c in K.dom.objects})
    eta = ran_factor(kr, identity_functor(D), idK)
    mu = NatTrans("mult", TT, T, mu.components)
    eta = NatTrans("unit", identity_functor(D), T, eta.components)
    rep = monad_laws(T, mu, eta)
    return Monad(T, mu, eta, rep)


# ---------------------------------------------------------------------------
# Nerve-realization at finite witnesses

@dataclass(frozen=True, eq=False)
class NerveRealization:
    realization: str                 # the colimit object in D
    report: Report


def nerve_realization_check(K: Functor, X: SetFunctor, d: str) -> NerveRealization:
    """Check D(FX, d) ~ Nat(X, D(K-, d)) at a finite presheaf witness X.

    FX is the colimit over the category of elements of X of K composed with
    the (covariantly oriented) forgetful functor.
    """
    C, D = K.dom, K.cod
    if X.dom != opposite(C):
        raise StructuralError("witness must be a presheaf on the functor's source")
    el = elements_category(X)
    P = opposite_functor(el.forgetful)   # el(X)^op -> C
    diagram = compose_functors(K, P)
    res = limit(diagram, COLIMIT)
    if res is None:
        return NerveRealization("", fail_report(0, "nerve-realization",
                                                reason="colimit over elements missing"))
    FX = res.object
    Gd = _hom_set_functor(d, opposite_functor(K))   # D(K-, d)
    legs = res.cone.legs.components
    checked, bad, n = nat_bijection(X, Gd, D.hom(FX, d),
                                    lambda h, c, x: D.comp(h, legs[_pair(c, x)]))
    if bad is NOT_BIJECTIVE:
        return NerveRealization(FX, fail_report(
            checked, "nerve-realization", failure="not bijective",
            lhs=len(D.hom(FX, d)), rhs=n))
    if bad is not None:
        return NerveRealization(FX, fail_report(checked, "nerve-realization",
                                                at=bad, failure="not natural"))
    return NerveRealization(FX, ok_report(checked))
