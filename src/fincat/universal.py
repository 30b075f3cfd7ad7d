"""Comma categories, initial/terminal search, universal morphisms, representability."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    FinCat,
    Functor,
    Mor,
    NatTrans,
    Report,
    StructuralError,
    compose_functors,
    const_diagram,
    factorizations,
    fail_report,
    ok_report,
    opposite_functor,
)
from .finset import (
    FinSetMap,
    SINGLETON,
    SetFunctor,
    SetNatTrans,
    const_set_functor,
    enumerate_set_naturals,
    hom_functor,
    set_precompose,
)

FROM_OBJECT = "from-object"
TO_OBJECT = "to-object"


def _pair(x: str, a: str) -> str:
    return f"⟨{x},{a}⟩"


def _arrow_id(f: str, src: str, tgt: str) -> str:
    return f"{f}:{src}→{tgt}"


@dataclass(frozen=True, eq=False)
class CommaData:
    cat: FinCat
    forgetful: Functor
    canonical: Union[NatTrans, SetNatTrans]
    pairs: dict[str, tuple[str, str]]   # comma object id -> (object, morphism/element)


def _build_comma(name: str, pairs: list[tuple[str, str]], D: FinCat,
                 mor_ok) -> tuple[FinCat, Functor, dict]:
    """Shared builder: objects are pairs, morphisms are D-morphisms passing mor_ok."""
    by_id: dict[str, tuple[str, str]] = {}
    for x, a in pairs:
        o = _pair(x, a)
        if by_id.setdefault(o, (x, a)) != (x, a):
            raise StructuralError(f"{name}: pairs {by_id[o]} and {(x, a)} share the id {o}")
    objects = tuple(sorted(by_id))
    mors = []
    underlying: dict[str, str] = {}
    for src in objects:
        x, a = by_id[src]
        for tgt in objects:
            y, b = by_id[tgt]
            for f in D.hom(x, y):
                mid = _arrow_id(f, src, tgt)
                if mor_ok(f, (x, a), (y, b)):
                    mors.append(Mor(mid, src, tgt))
                    underlying[mid] = f
    identity = {}
    for o in objects:
        x, a = by_id[o]
        identity[o] = _arrow_id(D.id_of(x), o, o)
    msorted = sorted(mors, key=lambda m: m.name)
    into: dict[str, list[Mor]] = {o: [] for o in objects}   # composable pairs only
    for n in msorted:
        into[n.cod].append(n)
    table = {(m.name, n.name): _arrow_id(D.comp(underlying[m.name], underlying[n.name]),
                                         n.dom, m.cod)
             for m in msorted for n in into[m.dom]}
    cat = FinCat(name, objects, tuple(msorted), identity, table)
    forget_obj = {o: by_id[o][0] for o in objects}
    forgetful = Functor(f"P({name})", cat, D, forget_obj, dict(underlying))
    return cat, forgetful, by_id


def comma_from_object(c: str, G: Functor, name: str | None = None) -> CommaData:
    """The comma category of arrows out of c into the image of G.

    Objects are pairs of an object x of G's domain and an arrow c -> Gx; a
    morphism f: (x,a) -> (y,a') is an f with a' = Gf . a.  The canonical
    family (x,a) |-> a is a cone from c over G composed with the forgetful
    functor.
    """
    C = G.cod
    D = G.dom
    if c not in C.objects:
        raise StructuralError(f"unknown object {c} in {C.name}")
    pairs = [(x, a) for x in D.sorted_objects() for a in C.hom(c, G.obj_map[x])]

    def mor_ok(f, src, tgt):
        (x, a), (y, b) = src, tgt
        return C.comp(G.mor_map[f], a) == b

    cat, forgetful, by_id = _build_comma(name or f"({c}↓{G.name})", pairs, D, mor_ok)
    GP = compose_functors(G, forgetful)
    theta = NatTrans(f"θ({c}↓{G.name})", const_diagram(c, cat, C), GP,
                     {o: by_id[o][1] for o in cat.objects})
    return CommaData(cat, forgetful, theta, {o: by_id[o] for o in cat.objects})


def comma_to_object(G: Functor, c: str, name: str | None = None) -> CommaData:
    """The comma category of arrows from the image of G into c.

    Objects are pairs (x, a: Gx -> c); a morphism f: (x,a) -> (y,a') is an f
    with a' . Gf = a.  The canonical family is a cocone from G composed with
    the forgetful functor down to c.
    """
    C = G.cod
    D = G.dom
    if c not in C.objects:
        raise StructuralError(f"unknown object {c} in {C.name}")
    pairs = [(x, a) for x in D.sorted_objects() for a in C.hom(G.obj_map[x], c)]

    def mor_ok(f, src, tgt):
        (x, a), (y, b) = src, tgt
        return C.comp(b, G.mor_map[f]) == a

    cat, forgetful, by_id = _build_comma(name or f"({G.name}↓{c})", pairs, D, mor_ok)
    GP = compose_functors(G, forgetful)
    theta = NatTrans(f"θ({G.name}↓{c})", GP, const_diagram(c, cat, C),
                     {o: by_id[o][1] for o in cat.objects})
    return CommaData(cat, forgetful, theta, {o: by_id[o] for o in cat.objects})


def elements_category(X: SetFunctor, name: str | None = None) -> CommaData:
    """The category of elements of a Set-valued functor.

    For a covariant X this is the comma of the singleton into X: objects are
    pairs (c, x in Xc), morphisms f: (c,x) -> (c',x') those f with Xf(x)=x'.
    For a presheaf (dom an opposite category) the same construction applies
    to the underlying data, matching the dual comma description.
    """
    C = X.dom
    X._tables  # X's one structural check, before any read
    pairs = [(c, x) for c in C.sorted_objects() for x in X.on_obj[c].sorted()]

    def mor_ok(f, src, tgt):
        (c, x), (cp, xp) = src, tgt
        return X.on_mor[f](x) == xp

    cat, forgetful, by_id = _build_comma(name or f"el({X.name})", pairs, C, mor_ok)
    XP = set_precompose(X, forgetful, name=f"{X.name}*P")
    theta = SetNatTrans(
        f"θ(el({X.name}))", const_set_functor(cat, SINGLETON), XP,
        {o: FinSetMap(SINGLETON, XP.on_obj[o], {"*": by_id[o][1]}) for o in cat.objects})
    return CommaData(cat, forgetful, theta, {o: by_id[o] for o in cat.objects})


def comma_category(kind: str, *args, name: str | None = None) -> CommaData:
    """Dispatch on the comma shape: 'c↓G', 'G↓c', 'K↓d', 'd↓K' or 'el'."""
    if kind in ("c↓G", "d↓K"):
        c, G = args
        return comma_from_object(c, G, name)
    if kind in ("G↓c", "K↓d"):
        G, c = args
        return comma_to_object(G, c, name)
    if kind == "el":
        (X,) = args
        return elements_category(X, name)
    raise StructuralError(f"unknown comma kind {kind!r}")


# ---------------------------------------------------------------------------
# Initial / terminal objects

@dataclass(frozen=True)
class Extremal:
    object: str
    connecting: dict[str, str]   # other object -> the unique arrow
    candidates: tuple[str, ...]  # all qualifying objects, sorted


def extremal_object(C: FinCat, which: str) -> Optional[Extremal]:
    """Initial or terminal object with its uniqueness certificates.

    Returns the lexicographically least qualifying object; absence is a valid
    result, not an error.
    """
    if which not in ("initial", "terminal"):
        raise StructuralError(f"unknown extremal kind {which!r}")
    winners = []
    for a in C.sorted_objects():
        conn = {}
        for x in C.objects:
            hs = C.hom(a, x) if which == "initial" else C.hom(x, a)
            if len(hs) != 1:
                conn = None
                break
            conn[x] = hs[0]
        if conn is not None:
            winners.append((a, conn))
    if not winners:
        return None
    best = winners[0]
    return Extremal(best[0], best[1], tuple(a for a, _ in winners))


@dataclass(frozen=True)
class UniversalWitness:
    vertex: str
    arrow: str
    direction: str
    report: Report


def _from_side(G: Functor, direction: str) -> Functor:
    """G, or for arrows to an object its opposite: a universal arrow from G
    to c is a universal arrow from c to G read in the opposite categories."""
    return G if direction == FROM_OBJECT else opposite_functor(G)


def universal_morphism(c: str, G: Functor, direction: str = FROM_OBJECT
                       ) -> Optional[UniversalWitness]:
    """The first universal arrow from c to G (or from G to c), certified.

    A universal arrow is an initial object ⟨u,η⟩ of the comma category (c↓G).
    Its objects are tried in id order, as extremal_object would scan
    comma_from_object's category, and the first that verify_universal
    certifies is returned with its Report; the comma category is never built.
    """
    if direction not in (FROM_OBJECT, TO_OBJECT):
        raise StructuralError(f"unknown direction {direction!r}")
    if c not in G.cod.objects:
        raise StructuralError(f"unknown object {c} in {G.cod.name}")
    Gs = _from_side(G, direction)
    for _, u, eta in sorted((_pair(x, a), x, a) for x in Gs.dom.objects
                            for a in Gs.cod.hom(c, Gs.obj_map[x])):
        rep = verify_universal(UniversalWitness(u, eta, direction, None), c, G)
        if rep.ok:
            return UniversalWitness(u, eta, direction, rep)
    return None


def verify_universal(w: UniversalWitness, c: str, G: Functor) -> Report:
    """Certify the witness ⟨u,η⟩: every comma object ⟨x,a⟩ is G(f)·η for exactly
    one f: u -> x."""
    G = _from_side(G, w.direction)
    C, D = G.cod, G.dom
    u, eta = w.vertex, w.arrow
    if eta not in C.hom(c, G.obj_map[u]):
        raise StructuralError("witness arrow has the wrong type")
    checked = 0
    for x in D.sorted_objects():
        factor = factorizations(D.hom(u, x), lambda f: C.comp(G.mor_map[f], eta))
        for a in C.hom(c, G.obj_map[x]):
            checked += 1
            f, count = factor(a)
            if f is None:
                return fail_report(checked, "universal-factorization",
                                   at=_pair(x, a), count=count)
    return ok_report(checked)


def essentially_unique(c: str, G: Functor, w1: UniversalWitness,
                       w2: UniversalWitness) -> Report:
    """Two witnesses for the same data are related by a unique isomorphism."""
    if w1.direction != w2.direction:
        raise StructuralError("witness directions differ")
    G = _from_side(G, w1.direction)
    C, D = G.cod, G.dom
    psi, count = factorizations(D.hom(w1.vertex, w2.vertex),
                                lambda f: C.comp(G.mor_map[f], w1.arrow))(w2.arrow)
    if psi is None:
        return fail_report(1, "essential-uniqueness", count=count)
    if not D.is_iso(psi):
        return fail_report(1, "essential-uniqueness", arrow=psi,
                           failure="mediating arrow not iso")
    return ok_report(1)


# ---------------------------------------------------------------------------
# Representability

@dataclass(frozen=True, eq=False)
class Representation:
    object: str
    iso: SetNatTrans


def representability(X: SetFunctor) -> Optional[Representation]:
    """Search for a representing object and an explicit natural isomorphism.

    Candidates are scanned in lexicographic object order; the returned
    representation is round-tripped through the universal-morphism view of
    the singleton comma before being accepted.
    """
    C, sizes = X.dom, X._shape[0]   # X's one structural check, before any read
    for u in C.sorted_objects():
        yu = hom_functor(C, u, "covariant")
        if yu._shape[0] != sizes:   # the value sizes in sorted object order
            continue
        for sigma in enumerate_set_naturals(yu, X):
            if not sigma.is_iso():
                continue
            eta = sigma.components[u](C.id_of(u))   # the Yoneda element of sigma
            # certify: every (x, a) factors uniquely through eta
            if all(factor(a)[0] is not None for x in C.sorted_objects()
                   for factor in [factorizations(C.hom(u, x), lambda f: X.on_mor[f](eta))]
                   for a in X.on_obj[x].sorted()):
                return Representation(u, sigma)
    return None
