"""Cones and (co)limits: universal-property search, direct construction in
finite Set, limit functors, preservation and interchange checks.

Two independent computation paths exist for Set-valued diagrams (cone search
over a materialized subcategory vs direct tuple/quotient construction); their
agreement is this module's own oracle.  The direct path has one kernel per
side, `set_limit` (matching tuples) and `set_colimit` (a union-find quotient),
and one `induced_set_map` for the map between two of them; the Set ends,
coends, Kan extensions and interchange isos in kan.py run on the same three.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    FinCat,
    Functor,
    NatTrans,
    Report,
    StructuralError,
    charge,
    compose_functors,
    const_diagram,
    factorizations,
    fail_report,
    functor_category,
    ok_report,
    opposite,
    pair_id,
    search,
    split_pair,
    whisker_functor_nat,
)
from .finset import (
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    const_set_functor,
    set_families,
)

LIMIT = "limit"
COLIMIT = "colimit"


@dataclass(frozen=True, eq=False)
class ConeData:
    apex: str
    legs: Union[NatTrans, SetNatTrans]
    direction: str  # "cone" | "cocone"


@dataclass(frozen=True, eq=False)
class LimitResult:
    object: Union[str, FinSetObj]
    cone: ConeData
    certificate: Report


class UnionFind:
    """Disjoint sets over string ids; classes are named by least representative."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def classes(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return {k: sorted(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# General path: cone enumeration and extremal search
#
# Only the limit side is written.  A cocone over D: J -> C is a cone over D
# read in opposite(C) with J's arrows reversed, and a colimit is such a limit
# (Rydeheard & Burstall, Computational Category Theory, 1988).  The target's
# opposite is cached; the index category is only read backwards, since it is
# often built for the call.

def _searched_in(C: FinCat, direction: str) -> FinCat:
    """The category in which a search in `direction` runs as a limit search."""
    return C if direction == LIMIT else opposite(C)


def apex_families(C: FinCat, targets: list[str], due, holds, what: str) -> list[tuple]:
    """Every (apex, f_0, f_1, ...) with f_k in C(apex, targets[k]) that
    meets the constraints `due`, by one search (core.search, the apex being
    slot 0): apexes in id order, an apex with an empty hom-set to some
    target skipped before any test, and each apex's families in product
    order.  The search, named `what`, draws on the budget in scope; the
    families stay tuples, so a search the budget stops has built nothing
    more."""
    homs = C._homs
    apexes = [c for c in C.sorted_objects() if all((c, x) in homs for x in targets)]
    choices = [apexes] + [lambda v, x=x: homs[v[0], x] for x in targets]
    return list(search(choices, due, holds, what))


def enumerate_cones(D: Functor, direction: str) -> list[tuple[str, dict[str, str]]]:
    """All (apex, legs) in the target category, apexes in id order and each
    apex's leg families in product order, by one apex_families search: slot
    k + 1 is the leg at J's k-th object, on the schedule J._squares shifted
    by one, so each arrow is tested once both its ends have a leg."""
    C = _searched_in(D.cod, direction)
    objs = D.dom.sorted_objects()
    # a cocone is a cone in C = op(target) over J's arrows reversed
    due = [[]] + [[(D.mor_map[m], a + 1, b + 1) if direction == LIMIT
                   else (D.mor_map[m], b + 1, a + 1) for m, a, b in squares]
                  for squares in D.dom._squares]

    def natural(cond, legs) -> bool:
        u, a, b = cond
        return C.comp(u, legs[a]) == legs[b]

    found = apex_families(C, [D.obj_map[j] for j in objs], due, natural,
                          f"{direction} cone search over {D.name}")
    return [(legs[0], dict(zip(objs, legs[1:]))) for legs in found]


def through(C: FinCat, c: str, apex: str, legs):
    """The factorizations of the cones from c through (apex, legs): a cone
    fam, keyed as legs are, goes to the f in C(c, apex) with legs_j . f =
    fam_j at every j (None unless exactly one) and how many there are."""
    factor = factorizations(C.hom(c, apex), lambda f: tuple([C.comp(legs[j], f) for j in legs]))
    return lambda fam: factor(tuple([fam[j] for j in legs]))


def certify_terminal(C: FinCat, apex: str, legs, cones) -> Report:
    """Exhaustive unique-factorization certificate against every listed cone,
    by one table per source, built at that source's first cone."""
    tables = {}
    for checked, (c, fam) in enumerate(cones, 1):
        if c not in tables:
            tables[c] = through(C, c, apex, legs)
        f, count = tables[c](fam)
        if f is None:
            return fail_report(checked, "limit-factorization", apex=c, count=count)
    return ok_report(len(cones))


def first_terminal(C: FinCat, cones) -> Optional[tuple[int, Report]]:
    """The position of the first listed cone that certify_terminal certifies
    against all of them (the list holds every cone), with its certificate, or
    None.  Only an apex with as many arrows from each source c as there are
    cones from c is certified: legs . f is a cone, so a terminal apex has
    f -> legs . f a bijection from C(c, apex) onto them."""
    sources: dict[str, int] = {}
    for c, _ in cones:
        sources[c] = sources.get(c, 0) + 1
    for n, (apex, legs) in enumerate(cones):
        if all(len(C.hom(c, apex)) == k for c, k in sources.items()):
            cert = certify_terminal(C, apex, legs, cones)
            if cert.ok:
                return n, cert
    return None


def limit(D: Functor, direction: str = LIMIT) -> Optional[LimitResult]:
    """Terminal cone / initial cocone by exhaustive search; absence is valid."""
    if direction not in (LIMIT, COLIMIT):
        raise StructuralError(f"unknown direction {direction!r}")
    J, C = D.dom, D.cod
    cones = enumerate_cones(D, direction)   # already in lexicographic apex order
    found = first_terminal(_searched_in(C, direction), cones)
    if found is None:
        return None
    (apex, legs), cert = cones[found[0]], found[1]
    if direction == LIMIT:
        nat = NatTrans(f"lim-cone({D.name})", const_diagram(apex, J, C), D, legs)
    else:
        nat = NatTrans(f"colim-cocone({D.name})", D, const_diagram(apex, J, C), legs)
    return LimitResult(apex, ConeData(apex, nat, "cone" if direction == LIMIT else "cocone"),
                       cert)


def _induced(C: FinCat, direction: str, src: LimitResult, tgt: LimitResult,
             tau, objs) -> Optional[str]:
    """The arrow lim src -> lim tgt (colim src -> colim tgt) commuting with the
    family tau_j: src_j -> tgt_j, or None when it is not unique.

    Read in opposite(C) the family runs from tgt to src, so a colimit's arrow
    is the limit arrow out of tgt.
    """
    Cs = _searched_in(C, direction)
    if direction != LIMIT:
        src, tgt = tgt, src
    legs = src.cone.legs.components
    return through(Cs, src.object, tgt.object, tgt.cone.legs.components)(
        {j: Cs.comp(tau[j], legs[j]) for j in objs})[0]


# ---------------------------------------------------------------------------
# Direct path in finite Set
#
# Every Set (co)limit-shaped construction, here and in kan.py, runs on two
# kernels: matching tuples for limits and a union-find quotient of the tagged
# disjoint union for colimits.  The map between two of them induced by a map
# of diagrams is built by one helper.

_PROBE_SIZES = (1, 2)   # the sizes of the probe apexes a Set certificate tries


def tagged(j: str, x: str) -> str:
    return f"{j}:{x}"


def set_limit(objs, values, equations) -> tuple[FinSetObj, dict[str, FinSetMap]]:
    """The tuples (x_j) over objs, x_j in values[j], with f[x_a] == g[x_b] for
    every (a, f, b, g) in equations; elements are named "(x_1,...,x_n)".
    Returns the set and its projections.  Raises GuardExceeded before listing
    the tuples if there are more than the budget in scope."""
    sizes = [len(values[j]) for j in objs]
    charge(math.prod(sizes), f"tuple enumeration {' x '.join(map(str, sizes))} elements")
    pos = {j: n for n, j in enumerate(objs)}
    eqs = [(pos[a], f, pos[b], g) for a, f, b, g in equations]
    members = [combo for combo in itertools.product(*[values[j].sorted() for j in objs])
               if all(f[combo[a]] == g[combo[b]] for a, f, b, g in eqs)]
    names = ["(" + ",".join(combo) + ")" for combo in members]
    obj = FinSetObj(tuple(names))
    return obj, {j: FinSetMap(obj, values[j], {e: combo[n] for e, combo in zip(names, members)})
                 for n, j in enumerate(objs)}


def set_colimit(objs, values, relations) -> tuple[FinSetObj, dict[str, FinSetMap]]:
    """The disjoint union of values[j] over objs, elements tagged "j:x",
    quotiented by the relations (a, x, b, y): x at a ~ y at b.  Classes are
    named by their least tagged member.  Returns the set and its injections."""
    uf = UnionFind(tagged(j, x) for j in objs for x in values[j].sorted())
    for a, x, b, y in relations:
        uf.union(tagged(a, x), tagged(b, y))
    obj = FinSetObj(tuple(sorted(uf.classes())))
    return obj, {j: FinSetMap(values[j], obj, {x: uf.find(tagged(j, x))
                                               for x in values[j].elements})
                 for j in objs}


def induced_set_map(direction: str, src: FinSetObj, src_legs, tgt: FinSetObj, tgt_legs,
                    moves) -> tuple[Optional[FinSetMap], int]:
    """The map src -> tgt between two Set (co)limits induced by a map of diagrams.

    Each move (k, t, k2) carries the diagram value at src leg k to the one at
    tgt leg k2 by the table t (None for the identity).  A limit element goes
    to the tgt element whose leg values are its moved leg values, looked up by
    those values; the class of x at k goes to the class of t[x] at k2.
    Returns the map, or None at the first element where it is not well
    defined, and the number of elements checked.
    """
    checks = 0
    table: dict[str, str] = {}
    if direction == LIMIT:
        factor = factorizations(tgt.elements,
                                lambda e2: tuple([tgt_legs[k2].table[e2] for _, _, k2 in moves]))
        moved = [(src_legs[k].table, t) for k, t, _ in moves]
        for e in src.elements:
            checks += 1
            e2, _ = factor(tuple([leg[e] if t is None else t[leg[e]] for leg, t in moved]))
            if e2 is None:
                return None, checks
            table[e] = e2
    else:
        for k, t, k2 in moves:
            leg, leg2 = src_legs[k].table, tgt_legs[k2].table
            for x in src_legs[k].dom.elements:
                checks += 1
                cls = leg2[x if t is None else t[x]]
                if table.setdefault(leg[x], cls) != cls:
                    return None, checks
    return FinSetMap(src, tgt, table), checks


def limit_finset(D: SetFunctor, direction: str = LIMIT) -> LimitResult:
    """Limits as matching-tuple sets, colimits as union-find quotients.

    The certificate verifies unique factorization against every (co)cone whose
    apex is a probe set of _PROBE_SIZES elements.
    """
    obj, legs = _set_limit_of(D, direction)
    const = const_set_functor(D.dom, obj)
    if direction == LIMIT:
        nat = SetNatTrans(f"lim-cone({D.name})", const, D, legs)
    else:
        nat = SetNatTrans(f"colim-cocone({D.name})", D, const, legs)
    return LimitResult(obj, ConeData("", nat, "cone" if direction == LIMIT else "cocone"),
                       _certify_finset(D, direction, obj, legs))


def _set_limit_of(D: SetFunctor, direction: str) -> tuple[FinSetObj, dict[str, FinSetMap]]:
    """The (co)limit of D and its legs, with no certificate."""
    J, tables = D.dom, D._tables
    objs = J.sorted_objects()
    if direction == LIMIT:
        return set_limit(objs, D.on_obj, [
            (m.dom, tables[m.name], m.cod, {y: y for y in D.on_obj[m.cod].elements})
            for m in J.morphisms])
    if direction == COLIMIT:
        return set_colimit(objs, D.on_obj, ((m.dom, x, m.cod, y) for m in J.morphisms
                                            for x, y in tables[m.name].items()))
    raise StructuralError(f"unknown direction {direction!r}")


def _certify_finset(D: SetFunctor, direction: str, obj: FinSetObj,
                    legs: dict[str, FinSetMap]) -> Report:
    """Unique factorization of every probe (co)cone, a natural family from
    the constant functor at a probe set P to D (from D to it): one
    set_families search per probe size, P's tables being identities, so
    `checked` and the first counterexample are those of their product."""
    objs, checked = D.dom.sorted_objects(), 0
    if direction == LIMIT:
        # h: P -> obj with legs . h = fam picks at each p an element over fam's positions at p
        pos = [D.on_obj[j]._pos for j in objs]
        factor = factorizations(obj.elements,
                                lambda e: tuple([q[legs[j](e)] for j, q in zip(objs, pos)]))
    else:
        # h: obj -> P with h . legs = fam sends each leg's class to fam's value there
        classes = [[legs[j](x) for x in D.on_obj[j].sorted()] for j in objs]

    def count(size: int, fam) -> int:   # how many such h there are, |P| = size
        if direction == LIMIT:
            return math.prod(factor(tuple([f[p] for f in fam]))[1] for p in range(size))
        h: dict[str, int] = {}
        if any(h.setdefault(c, p) != p for cls, f in zip(classes, fam) for c, p in zip(cls, f)):
            return 0
        return size ** (len(obj) - len(h))

    for size in _PROBE_SIZES:
        const = ([size] * len(objs), dict.fromkeys(D.dom.mor, tuple(range(size))))
        sides = (const, D._shape) if direction == LIMIT else (D._shape, const)
        for fam in set_families(D.dom, *sides, f"{direction} probe cone search over {D.name}"):
            checked += 1
            if (n := count(size, fam)) != 1:
                return fail_report(checked, "limit-factorization",
                                   probe=str(tuple(f"p{i}" for i in range(size))), count=n)
    return ok_report(checked)


# ---------------------------------------------------------------------------
# The limit functor and the Delta -| lim adjunction data

@dataclass(frozen=True, eq=False)
class LimitFunctorResult:
    functor: Functor                     # [J,C] -> C (or the colimit analogue)
    counit: dict[str, NatTrans]          # functor-category object id -> (co)limit (co)cone
    missing: Optional[str] = None        # offending diagram id if some limit is absent


def limit_functor(J: FinCat, C: FinCat, direction: str = LIMIT, fc=None) -> LimitFunctorResult:
    """Choose canonical (co)limits for every diagram and tabulate functoriality.

    The action on a transformation is the unique factorization of the composed
    (co)cone; uniqueness is asserted during construction.
    """
    fc = fc or functor_category(J, C)
    lims: dict[str, LimitResult] = {}
    for Did in fc.cat.objects:
        res = limit(fc.functors[Did], direction)
        if res is None:
            return LimitFunctorResult(None, {}, missing=Did)
        lims[Did] = res
    obj_map = {Did: lims[Did].object for Did in fc.cat.objects}
    mor_map = {}
    for m in fc.cat.morphisms:
        f = _induced(C, direction, lims[m.dom], lims[m.cod],
                     fc.nats[m.name].components, J.objects)
        if f is None:
            raise StructuralError(
                f"factorization through the {direction} of {m.cod} is not unique")
        mor_map[m.name] = f
    name = ("lim" if direction == LIMIT else "colim") + f"[{J.name},{C.name}]"
    F = Functor(name, fc.cat, C, obj_map, mor_map)
    counit = {Did: lims[Did].cone.legs for Did in fc.cat.objects}
    return LimitFunctorResult(F, counit)


# ---------------------------------------------------------------------------
# Preservation and interchange

def preservation_check(G: Functor, Dg: Functor, direction: str) -> Report:
    """Does G send the chosen (co)limit of Dg to a (co)limit of G after Dg?"""
    if Dg.cod != G.dom:
        raise StructuralError("diagram does not land in the functor's domain")
    src = limit(Dg, direction)
    if src is None:
        raise StructuralError(f"diagram {Dg.name} has no {direction} to preserve")
    GD = compose_functors(G, Dg)
    kappa = whisker_functor_nat(G, src.cone.legs)
    image_apex = G.obj_map[src.object]
    return certify_terminal(_searched_in(GD.cod, direction), image_apex,
                            dict(kappa.components), enumerate_cones(GD, direction))


@dataclass(frozen=True, eq=False)
class InterchangeWitness:
    outer_first: Union[str, FinSetObj]    # lim_i lim_j
    joint: Union[str, FinSetObj]          # lim over the product
    inner_first: Union[str, FinSetObj]    # lim_j lim_i
    report: Report


def _pair_key(flip: bool):
    """(a, b) -> the id of the product pair: (a,b), or (b,a) when a is in the second factor."""
    return (lambda a, b: pair_id(b, a)) if flip else pair_id


def _iterated_limit_functor(D: Functor, A: FinCat, B: FinCat, direction: str, flip: bool):
    """Fix one coordinate a of A: the functor A -> C of per-a (co)limits over B."""
    C = D.cod
    key = _pair_key(flip)
    per: dict[str, LimitResult] = {}
    for a in A.objects:
        Da = Functor(f"{D.name}{key(a, '-')}", B, C,
                     {b: D.obj_map[key(a, b)] for b in B.objects},
                     {m.name: D.mor_map[key(A.id_of(a), m.name)] for m in B.morphisms})
        res = limit(Da, direction)
        if res is None:
            return None, None
        per[a] = res
    obj_map = {a: per[a].object for a in A.objects}
    mor_map = {}
    for m in A.morphisms:
        move = {b: D.mor_map[key(m.name, B.id_of(b))] for b in B.objects}
        f = _induced(C, direction, per[m.dom], per[m.cod], move, B.objects)
        if f is None:
            raise StructuralError("iterated limit action not unique")
        mor_map[m.name] = f
    L = Functor(f"{direction}_J({D.name})", A, C, obj_map, mor_map)
    return L, per


def interchange_check(D: Functor, I: FinCat, J: FinCat,
                      direction: str = LIMIT) -> InterchangeWitness:
    """Certify lim_i lim_j = lim over the product = lim_j lim_i with explicit isos.

    D must be a functor out of product(I, J).  Mediating morphisms between the
    three objects are produced by unique factorization in both directions and
    checked to compose to identities.
    """
    C = D.cod
    joint = limit(D, direction)
    if joint is None:
        raise StructuralError("joint (co)limit missing")
    LI, per_i = _iterated_limit_functor(D, I, J, direction, flip=False)
    if LI is None:
        raise StructuralError("inner (co)limits over J missing")
    outer = limit(LI, direction)
    if outer is None:
        raise StructuralError("outer (co)limit over I missing")
    LJ, per_j = _iterated_limit_functor(D, J, I, direction, flip=True)
    if LJ is None:
        raise StructuralError("inner (co)limits over I missing")
    outer2 = limit(LJ, direction)
    if outer2 is None:
        raise StructuralError("outer (co)limit over J missing")

    Cs = _searched_in(C, direction)
    checked = 0

    def mediate(apex: str, legs: dict[str, str], target: LimitResult) -> str:
        nonlocal checked
        checked += 1
        f, _ = through(Cs, apex, target.object, target.cone.legs.components)(legs)
        if f is None:
            raise StructuralError("mediating morphism not unique")
        return f

    # an iterated (co)limit carries a joint cone, leg at (i,j) = inner leg .
    # outer leg, and the joint one factors through it one outer index at a
    # time; the two mediators must be inverse
    for nested, per, A, B, flip, label in ((outer, per_i, I, J, False, "outer-joint"),
                                           (outer2, per_j, J, I, True, "joint-swapped")):
        key = _pair_key(flip)
        joint_legs = {key(a, b): Cs.comp(leg, nested.cone.legs.components[a])
                      for a, res in per.items()
                      for b, leg in res.cone.legs.components.items()}
        to_joint = mediate(nested.object, joint_legs, joint)
        per_legs = {a: mediate(joint.object,
                               {b: joint.cone.legs.components[key(a, b)] for b in B.objects},
                               per[a])
                    for a in A.objects}
        from_joint = mediate(joint.object, per_legs, nested)
        if not (Cs.comp(from_joint, to_joint) == Cs.id_of(nested.object) and
                Cs.comp(to_joint, from_joint) == Cs.id_of(joint.object)):
            return InterchangeWitness(outer.object, joint.object, outer2.object,
                                      fail_report(checked, "limit-interchange", pair=label))
    return InterchangeWitness(outer.object, joint.object, outer2.object,
                              ok_report(checked))


def interchange_check_finset(D: SetFunctor, I: FinCat, J: FinCat,
                             direction: str = LIMIT) -> InterchangeWitness:
    """FinSet backend: compute the three objects directly with explicit bijections."""
    joint = limit_finset(D, direction)

    def inner_then_outer(A: FinCat, B: FinCat, flip: bool):
        key = _pair_key(flip)
        # the inner (co)limits' certificates would never be read
        per: dict[str, tuple[FinSetObj, dict[str, FinSetMap]]] = {}
        for a in A.objects:
            Da = SetFunctor(f"{D.name}({a},-)", B, {b: D.on_obj[key(a, b)] for b in B.objects},
                            {m.name: D.on_mor[key(A.id_of(a), m.name)] for m in B.morphisms})
            per[a] = _set_limit_of(Da, direction)
        on_mor = {}
        for m in A.morphisms:
            (src, src_legs), (tgt, tgt_legs) = per[m.dom], per[m.cod]
            f, _ = induced_set_map(direction, src, src_legs, tgt, tgt_legs,
                                   [(b, D.on_mor[key(m.name, B.id_of(b))].table, b)
                                    for b in B.objects])
            if f is None:
                raise StructuralError(f"induced map between inner {direction}s not well defined")
            on_mor[m.name] = f
        outerD = SetFunctor(f"{direction}_inner({D.name})", A,
                            {a: per[a][0] for a in A.objects}, on_mor)
        return limit_finset(outerD, direction), per

    outer, per_i = inner_then_outer(I, J, flip=False)
    outer2, per_j = inner_then_outer(J, I, flip=True)

    def witness(report: Report) -> InterchangeWitness:
        return InterchangeWitness(outer.object, joint.object, outer2.object, report)

    if not (joint.certificate.ok and outer.certificate.ok and outer2.certificate.ok):
        return witness(fail_report(1, "limit-interchange", failure="inner certificate"))
    # a nested element goes to the joint element with the same leg values at
    # every (a, b); a joint class goes to the nested class of its members
    checked = 0
    for res, per, flip in ((outer, per_i, False), (outer2, per_j, True)):
        links = []
        for o in D.dom.objects:
            i, j = split_pair(o)
            a, b = (j, i) if flip else (i, j)
            links.append((o, per[a][1][b].table, a))
        if direction == LIMIT:
            src, tgt, moves = res, joint, [(a, t, o) for o, t, a in links]
        else:
            src, tgt, moves = joint, res, links
        m, n = induced_set_map(direction, src.object, src.cone.legs.components,
                               tgt.object, tgt.cone.legs.components, moves)
        checked += n
        if m is None or not m.is_bijection():
            return witness(fail_report(checked, "limit-interchange", failure="no bijection"))
    return witness(ok_report(checked))
