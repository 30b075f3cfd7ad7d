"""Concrete finite-Set-valued functors.

FinSet is a backend with objects on demand rather than a materialized FinCat;
where an honest FinCat is needed (the Yoneda embedding target) the finite full
image subcategory is built instead.  Isomorphisms are always certified by an
explicit invertible map, never by cardinality.
"""
from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .core import (
    FinCat,
    Functor,
    Keyed,
    Mor,
    Report,
    StructuralError,
    cached,
    charge,
    composable_pairs,
    fail_report,
    identity_functor,
    ok_report,
    opposite,
    pair_id,
    reject_strays,
    search,
)


@dataclass(frozen=True, eq=False)
class FinSetObj(Keyed):
    elements: tuple[str, ...]

    def __post_init__(self):
        fields = self.__dict__  # frozen: bypass __setattr__
        fields["elements"] = elements = tuple(self.elements)
        fields["_members"] = members = frozenset(elements)
        fields["_sorted"] = tuple(sorted(elements))
        if len(members) != len(elements):
            raise StructuralError(f"duplicate element ids: {elements}")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self._members

    def sorted(self) -> tuple[str, ...]:
        return self._sorted

    @cached
    def _pos(self) -> dict[str, int]:   # each element's position in sorted()
        return {x: i for i, x in enumerate(self._sorted)}

    def _structure(self):
        return self._sorted

    def __repr__(self):
        return f"FinSetObj({sorted(self.elements)})"


SINGLETON = FinSetObj(("*",))


@dataclass(frozen=True, eq=False)
class FinSetMap(Keyed):
    dom: FinSetObj
    cod: FinSetObj
    table: Mapping[str, str]

    _ys = None  # a listed map's images of dom.sorted(); see all_maps

    def __post_init__(self):
        self._freeze("table")
        if self.table.keys() == self.dom._members and \
                self.cod._members.issuperset(self.table.values()):
            return
        # invalid: locate the first offending entry
        for x in self.dom.elements:
            if x not in self.table:
                raise StructuralError(f"map not total at {x}")
        for x, y in self.table.items():
            if x not in self.dom:
                raise StructuralError(f"table keyed by foreign element {x}")
            if y not in self.cod:
                raise StructuralError(f"image {y} outside codomain")

    def __call__(self, x: str) -> str:
        return self.table[x]

    def then(self, other: FinSetMap) -> FinSetMap:
        """Composite: self first, then other.

        When self came from all_maps and a list of all_maps(self.dom,
        other.cod) is registered, the composite is that list's map, found by
        its index: the base-|other.cod| digits of the index are the positions
        in other.cod.sorted() of other's images of self's images.  It equals
        the map built otherwise, table order included, since a listed table is
        in sorted-domain order.  Any other map pays one lookup for this.
        """
        if self.cod is not other.dom and self.cod != other.dom:
            raise StructuralError("maps not composable")
        ys = self._ys
        if ys is not None:
            ref = self.dom._hom_sets.get(id(other.cod))
            hom = ref() if ref is not None else None
            if hom is not None:
                pos, base, table, k = hom.pos, hom.base, other.table, 0
                for y in ys:
                    k = k * base + pos[table[y]]
                listed = hom.maps[k]()
                if listed is not None:
                    return listed
        return _built_map(self.dom, other.cod, {x: other.table[y] for x, y in self.table.items()})

    def is_bijection(self) -> bool:
        return len(set(self.table.values())) == len(self.dom) == len(self.cod)

    def inverse(self) -> FinSetMap:
        if not self.is_bijection():
            raise StructuralError("map is not invertible")
        return _built_map(self.cod, self.dom, {y: x for x, y in self.table.items()})

    def _structure(self):
        return (self.dom._key, self.cod._key, tuple(sorted(self.table.items())))


def _built_map(dom: FinSetObj, cod: FinSetObj, table: dict[str, str]) -> FinSetMap:
    """A map whose fresh table is total on dom and lands in cod by construction.

    It skips the check and the copy of ``__post_init__``; the table is still
    frozen, and the caller must not keep a reference to the dict.
    """
    f = object.__new__(FinSetMap)
    fields = f.__dict__  # frozen: bypass __setattr__
    fields["dom"] = dom
    fields["cod"] = cod
    fields["table"] = MappingProxyType(table)
    return f


def identity_map(X: FinSetObj) -> FinSetMap:
    return _built_map(X, X, {x: x for x in X.elements})


class _Hom:
    """One all_maps list X -> cod, held by each of its maps: cod, the position
    of each element in cod.sorted(), and weak references to the maps in order."""

    __slots__ = ("cod", "pos", "base", "maps", "__weakref__")

    def __init__(self, cod: FinSetObj):
        self.cod, self.pos, self.base = cod, cod._pos, len(cod)


class _HomRef(weakref.ref):
    """The domain's weak reference to a _Hom; its callback drops the entry."""

    __slots__ = ("owner", "cod_id")


def _drop_hom(ref: _HomRef) -> None:
    # only X's registry holds ref, so a replaced ref is freed unfired
    X = ref.owner()
    if X is not None:
        del X._hom_sets[ref.cod_id]


def all_maps(X: FinSetObj, Y: FinSetObj) -> list[FinSetMap]:
    """Every map X -> Y in lexicographic table order: map k has the base-|Y|
    digits of k as positions in Y.sorted() of its images of X.sorted().

    The list is registered as the hom-set X -> Y, so that FinSetMap.then
    returns its maps instead of building equal ones.  Each listed map holds a
    record with Y (which keeps id(Y) unique), the positions in Y.sorted() and
    weak references to the maps; X holds, keyed by id(Y), a weak reference
    to the record, dropped when the record dies.  So the registration lasts
    while the caller keeps any map of the list, and no reference cycle is
    made.  A later call for the same X and Y replaces it.
    """
    charge(len(Y) ** len(X), f"map enumeration {len(X)} -> {len(Y)} elements")
    xs = X.sorted()
    hom, maps = _Hom(Y), []
    for ys in itertools.product(Y.sorted(), repeat=len(xs)):
        f = _built_map(X, Y, dict(zip(xs, ys)))
        fields = f.__dict__  # frozen: bypass __setattr__
        fields["_ys"] = ys
        fields["_hom"] = hom
        maps.append(f)
    if not maps:
        return maps
    hom.maps = list(map(weakref.ref, maps))
    ref = _HomRef(hom, _drop_hom)
    ref.owner, ref.cod_id = weakref.ref(X), id(Y)
    X.__dict__.setdefault("_hom_sets", {})[id(Y)] = ref
    return maps


def _charge_maps(sizes, what: str) -> None:
    count = sum(n ** k for k, n in sizes)
    charge(count, f"map enumeration for {what}: {count} maps")


def map_lists(pairs, what: str) -> list[list[FinSetMap]]:
    """all_maps(X, Y) for each (X, Y) of pairs, after one budget check of their
    summed |Y|^|X| sizes, named for `what` (_charge_maps): so lists that
    together pass the budget are refused before any is built."""
    _charge_maps([(len(X), len(Y)) for X, Y in pairs], what)
    return [all_maps(X, Y) for X, Y in pairs]


@dataclass(frozen=True, eq=False)
class SetFunctor(Keyed):
    """A functor dom -> Set given by per-object element lists and per-morphism tables.

    Contravariance is encoded by taking dom = op(C).
    """

    name: str
    dom: FinCat
    on_obj: Mapping[str, FinSetObj]
    on_mor: Mapping[str, FinSetMap]

    def __post_init__(self):
        self._freeze("on_obj", "on_mor")

    def _structure(self):
        return (self.dom.key(),
                tuple(sorted((a, X.key()) for a, X in self.on_obj.items())),
                tuple(sorted((f, m.key()) for f, m in self.on_mor.items())))

    def __repr__(self):
        sizes = {a: len(X) for a, X in sorted(self.on_obj.items())}
        return f"SetFunctor({self.name!r} on {self.dom.name}, sizes {sizes})"

    @cached
    def _tables(self) -> dict[str, Mapping[str, str]]:
        """Each morphism's raw table; laws are then tested on the tables, with
        no composite map built.  The build is the functor's one structural
        check: a value at every object, a table between the values at its
        ends at every morphism, and no key that names nothing in dom."""
        C = self.dom
        for a in C.objects:
            if a not in self.on_obj:
                raise StructuralError(f"{self.name}: no value at object {a}")
        out = {}
        for m in C.morphisms:
            if m.name not in self.on_mor:
                raise StructuralError(f"{self.name}: no value at morphism {m.name}")
            t = self.on_mor[m.name]
            if t.dom != self.on_obj[m.dom] or t.cod != self.on_obj[m.cod]:
                raise StructuralError(f"{self.name}: table at {m.name} has wrong endpoints")
            out[m.name] = t.table
        reject_strays(self.name, "object values", self.on_obj, C.objects, C)
        reject_strays(self.name, "morphism tables", self.on_mor, C.mor, C)
        return out

    @cached
    def _shape(self) -> tuple[list[int], dict[str, tuple[int, ...]]]:
        """The functor on positions, after _tables: value sizes in sorted object order,
        and each morphism's images of dom sorted() as positions in cod sorted()."""
        tables, C = self._tables, self.dom
        return ([len(self.on_obj[a]) for a in C.sorted_objects()],
                {m.name: tuple([self.on_obj[m.cod]._pos[tables[m.name][x]]
                                for x in self.on_obj[m.dom].sorted()]) for m in C.morphisms})


def validate_set_functor(X: SetFunctor) -> Report:
    """Identity and composition laws on X's tables, whose build raises
    StructuralError on a malformed X."""
    C, tables = X.dom, X._tables
    checked = 0
    for a in C.objects:
        checked += 1
        if X.on_mor[C.id_of(a)] != identity_map(X.on_obj[a]):
            return fail_report(checked, "functor-identity", object=a)
    for g, f in composable_pairs(C):
        checked += 1
        tg, tgf = tables[g.name], tables[C.comp(g.name, f.name)]
        if any(tg[y] != tgf[x] for x, y in tables[f.name].items()):
            return fail_report(checked, "functor-composition", g=g.name, f=f.name)
    return ok_report(checked)


@dataclass(frozen=True, eq=False)
class SetNatTrans(Keyed):
    """A natural family of maps between two Set-valued functors on the same category."""

    name: str
    src: SetFunctor
    tgt: SetFunctor
    components: Mapping[str, FinSetMap]

    def __post_init__(self):
        self._freeze("components")

    def _structure(self):
        return (self.src.key(), self.tgt.key(),
                tuple(sorted((a, m.key()) for a, m in self.components.items())))

    def is_iso(self) -> bool:
        return all(m.is_bijection() for m in self.components.values())


def validate_set_natural(t: SetNatTrans) -> Report:
    if t.src.dom != t.tgt.dom:
        raise StructuralError(f"{t.name}: functors live on different categories")
    C, src, tgt = t.src.dom, t.src._tables, t.tgt._tables
    for a in C.objects:
        if a not in t.components:
            raise StructuralError(f"{t.name}: no component at {a}")
        m = t.components[a]
        if m.dom != t.src.on_obj[a] or m.cod != t.tgt.on_obj[a]:
            raise StructuralError(f"{t.name}: component at {a} has wrong endpoints")
    reject_strays(t.name, "component family", t.components, C.objects, C)
    checked = 0
    for f in C.morphisms:
        checked += 1
        a, b = t.components[f.dom].table, t.components[f.cod].table
        if any(tgt[f.name][a[x]] != b[src[f.name][x]] for x in a):
            return fail_report(checked, "naturality", morphism=f.name)
    return ok_report(checked)


def identity_set_nat(X: SetFunctor) -> SetNatTrans:
    return SetNatTrans(f"id_{X.name}", X, X,
                       {a: identity_map(V) for a, V in X.on_obj.items()})


def vcompose_set(beta: SetNatTrans, alpha: SetNatTrans) -> SetNatTrans:
    if alpha.tgt != beta.src:
        raise StructuralError("set-natural transformations not stackable")
    return SetNatTrans(f"{beta.name}.{alpha.name}", alpha.src, beta.tgt,
                       {a: alpha.components[a].then(beta.components[a])
                        for a in alpha.components})


def set_precompose(X: SetFunctor, F: Functor, name: str | None = None) -> SetFunctor:
    """X * F: restrict a Set-valued functor along F."""
    if F.cod != X.dom:
        raise StructuralError(f"cannot precompose {X.name} with {F.name}")
    X._tables  # X's one structural check, before any read
    return SetFunctor(name or f"{X.name}*{F.name}", F.dom,
                      {a: X.on_obj[F.obj_map[a]] for a in F.dom.objects},
                      {m.name: X.on_mor[F.mor_map[m.name]] for m in F.dom.morphisms})


def const_set_functor(C: FinCat, V: FinSetObj, name: str | None = None) -> SetFunctor:
    return SetFunctor(name or f"const({','.join(V.sorted())})", C,
                      {a: V for a in C.objects},
                      {m.name: identity_map(V) for m in C.morphisms})


def product_set_functor(X: SetFunctor, Y: SetFunctor, name: str | None = None) -> SetFunctor:
    """Pointwise cartesian product; elements are canonical pairs "(x,y)"."""
    if X.dom != Y.dom:
        raise StructuralError("product of functors on different categories")
    C, Xt, Yt = X.dom, X._tables, Y._tables
    on_obj = {a: FinSetObj(tuple(pair_id(x, y)
                                 for x in X.on_obj[a].sorted() for y in Y.on_obj[a].sorted()))
              for a in C.objects}
    on_mor = {}
    for m in C.morphisms:
        table = {}
        for x in X.on_obj[m.dom].sorted():
            for y in Y.on_obj[m.dom].sorted():
                table[pair_id(x, y)] = pair_id(Xt[m.name][x], Yt[m.name][y])
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor(name or f"({X.name}x{Y.name})", C, on_obj, on_mor)


def _named_functor(name: str, C: FinCat, members, name_of, act):
    """The Set functor on C whose value at the k-th of C.objects is the list
    members[k], each member x named name_of(x), and m |-> (x |-> name_of(act(m, x)));
    returned with the decode table q |-> {name: member}."""
    decode = {q: {name_of(x): x for x in xs} for q, xs in zip(C.objects, members)}
    on_obj = {q: FinSetObj(tuple(decode[q])) for q in C.objects}
    on_mor = {m.name: FinSetMap(on_obj[m.dom], on_obj[m.cod], {
        eid: name_of(act(m.name, x)) for eid, x in decode[m.dom].items()}) for m in C.morphisms}
    return SetFunctor(name, C, on_obj, on_mor), decode


def set_families(C: FinCat, X_shape, Y_shape, what: str) -> Iterator[tuple]:
    """Every natural family X => Y of Set functors on C given by their _shape:
    per object in sorted order, the positions in Y's value of the images of
    X's value, in all_maps order, searched on the squares C._squares in
    product order.  The search, named `what`, draws on the budget in scope,
    as do its candidate lists, summed before any is built."""
    (xs, xm), (ys, ym) = X_shape, Y_shape
    _charge_maps(zip(xs, ys), what)

    def natural(square, v) -> bool:   # Y(m) . v_a == v_b . X(m) at each position of X(a)
        m, i, j = square
        ymm, b = ym[m], v[j]
        return all(ymm[y] == b[x] for y, x in zip(v[i], xm[m]))

    return search([list(itertools.product(range(n), repeat=k)) for k, n in zip(xs, ys)],
                  C._squares, natural, what)


def enumerate_set_naturals(X: SetFunctor, Y: SetFunctor) -> list[SetNatTrans]:
    """All natural transformations X => Y, in key order (which all_maps order
    is), by one set_families search named `natural-family search X => Y`.
    Each component map is built once, for the families returned."""
    if X.dom != Y.dom:
        raise StructuralError("functors on different categories")

    @functools.cache
    def component(a: str, images: tuple[int, ...]) -> FinSetMap:
        Xa, Ya = X.on_obj[a], Y.on_obj[a]
        return _built_map(Xa, Ya, dict(zip(Xa.sorted(), [Ya.sorted()[p] for p in images])))

    objs = X.dom.sorted_objects()
    return [SetNatTrans("t", X, Y, dict(zip(objs, map(component, objs, family))))
            for family in set_families(X.dom, X._shape, Y._shape,
                                       f"natural-family search {X.name} => {Y.name}")]


NOT_BIJECTIVE = object()   # nat_bijection: every family natural, but the images miss


def nat_bijection(X: SetFunctor, Y: SetFunctor, sources: Iterable,
                  entry) -> tuple[int, object, int]:
    """Certify s |-> (c |-> (x |-> entry(s, c, x))) as a bijection from sources
    onto Nat(X, Y), found by one set_families search named `natural-family
    search X => Y`.  Families are compared as position tuples, so being
    natural is being found, and no map is built.

    Returns how many sources were tried; None, the first source whose family
    is not natural, or NOT_BIJECTIVE when two share an image or a natural
    family is missed; and |Nat(X, Y)|.
    """
    if X.dom != Y.dom:
        raise StructuralError("functors on different categories")
    target = set(set_families(X.dom, X._shape, Y._shape,
                              f"natural-family search {X.name} => {Y.name}"))
    cols = [(c, X.on_obj[c].sorted(), Y.on_obj[c]._pos) for c in X.dom.sorted_objects()]
    images, tried = set(), 0
    for s in sources:
        tried += 1
        family = tuple([tuple([pos.get(entry(s, c, x)) for x in xs]) for c, xs, pos in cols])
        if family not in target:
            for c in X.dom.objects:   # an image outside Y, named as FinSetMap would
                for x in X.on_obj[c].elements:
                    if (y := entry(s, c, x)) not in Y.on_obj[c]:
                        raise StructuralError(f"image {y} outside codomain")
            return tried, s, len(target)
        images.add(family)
    return tried, None if len(images) == tried == len(target) else NOT_BIJECTIVE, len(target)


# ---------------------------------------------------------------------------
# Hom functors and the Yoneda machinery

def _hom_set_functor(e: str, F: Functor, name: str | None = None) -> SetFunctor:
    """c |-> E(e, Fc) as a Set-valued functor on F's domain, E = F.cod.

    Over opposite_functor(K) this is the presheaf c |-> D(Kc, e).
    """
    C, E = F.dom, F.cod
    on_obj = {c: FinSetObj(E.hom(e, F.obj_map[c])) for c in C.objects}
    on_mor = {m.name: FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                {g: E.comp(F.mor_map[m.name], g)
                                 for g in on_obj[m.dom].elements})
              for m in C.morphisms}
    return SetFunctor(name or f"hom({e},{F.name}-)", C, on_obj, on_mor)


def hom_functor(C: FinCat, c: str, direction: str) -> SetFunctor:
    """C(c,-) for "covariant", C(-,c) (on op(C)) for "contravariant".

    Element ids are the morphism ids themselves.
    """
    if c not in C.objects:
        raise StructuralError(f"unknown object {c} in {C.name}")
    if direction == "covariant":
        return _hom_set_functor(c, identity_functor(C), f"hom({c},-)")
    if direction == "contravariant":
        return hom_functor(opposite(C), c, "covariant")
    raise StructuralError(f"unknown variance {direction!r}")


def yoneda_map(direction: str, C: FinCat, c: str, X: SetFunctor, arg):
    """The two Yoneda bijections.

    "alpha" sends a transformation hom(c,-) => X to its value on the identity;
    "beta" sends an element x of X(c) to the transformation p |-> X(p)(x).
    They are mutually inverse.
    """
    yc = hom_functor(C, c, "covariant")
    if direction == "alpha":
        t: SetNatTrans = arg
        rep = validate_set_natural(t)
        if not rep.ok:
            raise StructuralError(f"yoneda alpha: argument not natural: {rep.counterexample}")
        if t.src != yc:
            raise StructuralError("yoneda alpha: argument is not a transformation out of hom(c,-)")
        return t.components[c](C.id_of(c))
    if direction == "beta":
        x: str = arg
        if x not in X.on_obj[c]:
            raise StructuralError(f"yoneda beta: {x} is not an element of X({c})")
        comps = {}
        for d in C.objects:
            comps[d] = FinSetMap(yc.on_obj[d], X.on_obj[d],
                                 {p: X.on_mor[p](x) for p in C.hom(c, d)})
        return SetNatTrans(f"beta({x})", yc, X, comps)
    raise StructuralError(f"unknown yoneda direction {direction!r}")


def yoneda_check(C: FinCat, family: Iterable[SetFunctor]) -> Report:
    """The Yoneda lemma at every object c of C and X in family: x |-> (p |-> X(p)(x))
    is a bijection X(c) ~ Nat(C(c,-), X), certified by nat_bijection.

    `checked` counts |X(c)| + |Nat(C(c,-), X)| for each passing pair.
    """
    family = list(family)
    checked = 0
    for c in C.sorted_objects():
        yc = hom_functor(C, c, "covariant")
        for X in family:
            value = X.on_obj[c]
            tried, bad, n = nat_bijection(yc, X, value.sorted(), lambda x, d, p: X.on_mor[p](x))
            if n != len(value):
                return fail_report(checked, "transformation count mismatch", at=c,
                                   functor=X.name, nats=n, value=len(value))
            checked += tried
            if bad is NOT_BIJECTIVE:
                return fail_report(checked, "round trip broke", at=c)
            if bad is not None:
                return fail_report(checked, "round trip broke", at=c, element=bad)
            checked += n
    return ok_report(checked)


@dataclass(frozen=True, eq=False)
class YonedaImage:
    """The Yoneda embedding together with its materialized finite image."""

    embedding: Functor
    image: FinCat
    presheaves: dict[str, SetFunctor]      # image object id -> presheaf value
    nats: dict[str, SetNatTrans]           # image morphism id -> transformation


def yoneda_embedding(C: FinCat) -> YonedaImage:
    """c |-> C(-,c) into the finite full image subcategory of presheaves.

    Full faithfulness is checked rather than assumed: it is the Yoneda lemma
    in op(C) at the representables, certified by yoneda_check.
    """
    y = "y[{}]".format
    presheaves = {y(c): hom_functor(C, c, "contravariant") for c in C.objects}
    rep = yoneda_check(opposite(C), [presheaves[y(d)] for d in C.sorted_objects()])
    if not rep.ok:
        raise StructuralError(f"Yoneda image: enumerated transformations do not match "
                              f"the represented ones: {rep.counterexample}")
    nats = {}
    for c, d in itertools.product(C.sorted_objects(), repeat=2):
        yc, yd = presheaves[y(c)], presheaves[y(d)]
        for f in C.hom(c, d):
            nats[y(f)] = SetNatTrans(y(f), yc, yd, {a: FinSetMap(
                yc.on_obj[a], yd.on_obj[a], {q: C.comp(f, q) for q in C.hom(a, c)})
                for a in C.objects})
    image = FinCat(f"y({C.name})", tuple(y(c) for c in C.sorted_objects()),
                   tuple(sorted((Mor(y(m.name), y(m.dom), y(m.cod)) for m in C.morphisms),
                                key=lambda m: m.name)),
                   {y(c): y(C.id_of(c)) for c in C.objects},
                   {(y(m.name), y(n.name)): y(C.comp(m.name, n.name))
                    for m, n in composable_pairs(C)})
    emb = Functor(f"yoneda({C.name})", C, image, {c: y(c) for c in C.objects},
                  {m.name: y(m.name) for m in C.morphisms})
    return YonedaImage(emb, image, presheaves, nats)


# ---------------------------------------------------------------------------
# Tensor and cotensor products

def table_id(t: FinSetMap) -> str:
    """Canonical element id for a map used as an element of a power object."""
    return "[" + ";".join(f"{x}↦{t.table[x]}" for x in t.dom.sorted()) + "]"


def tensor_obj(X: FinSetObj, c: FinSetObj) -> FinSetObj:
    return FinSetObj(tuple(pair_id(x, e) for x in X.sorted() for e in c.sorted()))


def cotensor_obj(X: FinSetObj, c: FinSetObj) -> FinSetObj:
    return FinSetObj(tuple(table_id(t) for t in all_maps(X, c)))


@dataclass(frozen=True)
class TensorWitness:
    object: FinSetObj
    report: Report


def tensor_cotensor(X: FinSetObj, c: FinSetObj, mode: str,
                    probes: Iterable[FinSetObj] = ()) -> TensorWitness:
    """Copower X (x) c or power X -|> c in FinSet, with the adjunction witness.

    For every probe set c' the bijection chain
    Set(X(x)c, c') ~ Set(X, Set(c,c')) ~ Set(c, X-|>c') is built explicitly
    in both directions and checked to round-trip to the identity.
    """
    if mode not in ("tensor", "cotensor"):
        raise StructuralError(f"unknown mode {mode!r}")
    ten = tensor_obj(X, c)
    obj = ten if mode == "tensor" else cotensor_obj(X, c)
    checked = 0
    for cp in probes:
        hom_c, hom_X, hom_ten = map_lists([(c, cp), (X, cp), (ten, cp)],
                                          f"{mode} adjunction at probe {cp.sorted()}")
        decode_mid = {table_id(t): t for t in hom_c}
        decode_cot = {table_id(t): t for t in hom_X}
        mid, cot = FinSetObj(tuple(decode_mid)), FinSetObj(tuple(decode_cot))

        def curry(h: FinSetMap) -> FinSetMap:
            return FinSetMap(X, mid, {
                x: table_id(FinSetMap(c, cp, {e: h(pair_id(x, e)) for e in c.elements}))
                for x in X.elements})

        def uncurry(f: FinSetMap) -> FinSetMap:
            return FinSetMap(ten, cp, {
                pair_id(x, e): decode_mid[f(x)](e)
                for x in X.elements for e in c.elements})

        def transpose(f: FinSetMap) -> FinSetMap:
            return FinSetMap(c, cot, {
                e: table_id(FinSetMap(X, cp, {x: decode_mid[f(x)](e) for x in X.elements}))
                for e in c.elements})

        def untranspose(g: FinSetMap) -> FinSetMap:
            return FinSetMap(X, mid, {
                x: table_id(FinSetMap(c, cp, {e: decode_cot[g(e)](x) for e in c.elements}))
                for x in X.elements})

        images1, images2 = set(), set()
        for h in hom_ten:
            checked += 1
            f = curry(h)
            if uncurry(f) != h:
                return TensorWitness(obj, fail_report(
                    checked, "copower-adjunction", probe=str(cp.sorted())))
            g = transpose(f)
            if untranspose(g) != f:
                return TensorWitness(obj, fail_report(
                    checked, "power-adjunction", probe=str(cp.sorted())))
            images1.add(f.key())
            images2.add(g.key())
        if len(images1) != len(mid) ** len(X) or len(images2) != len(cot) ** len(c):
            return TensorWitness(obj, fail_report(
                checked, "copower-adjunction", failure="not bijective"))
    return TensorWitness(obj, ok_report(checked))


def _copies(X: FinSetObj, c: str, E: FinCat) -> Functor:
    """The discrete diagram of |X| copies of c in E."""
    from .fixtures import discrete
    J = discrete(len(X))
    return Functor("copies", J, E, {j: c for j in J.sorted_objects()},
                   {J.id_of(j): E.id_of(c) for j in J.sorted_objects()})


def tensor_in_category(X: FinSetObj, c: str, E: FinCat):
    """X (x) c as a coproduct of |X| copies of c, via the limit engine."""
    from .limits import COLIMIT, limit
    return limit(_copies(X, c, E), COLIMIT)


def cotensor_in_category(X: FinSetObj, c: str, E: FinCat):
    """X -|> c as a product of |X| copies of c, via the limit engine."""
    from .limits import LIMIT, limit
    return limit(_copies(X, c, E), LIMIT)


def legs_by_element(X: FinSetObj, res) -> dict:
    """The legs of a (co)product of copies, indexed by the elements of X."""
    legs = res.cone.legs.components
    return {x: legs[j] for x, j in zip(X.sorted(), sorted(legs))}


def tensor_cotensor_in_category(X: FinSetObj, c: str, E: FinCat, mode: str):
    """Copower or power of c by X inside a tabulated target.

    Raises when E lacks the needed (co)product; otherwise the defining hom
    bijection is certified against every object of E and returned alongside
    the constructed object.  The power in E is the copower in opposite(E),
    so one certificate serves both.
    """
    if mode not in ("tensor", "cotensor"):
        raise StructuralError(f"unknown mode {mode!r}")
    Es = E if mode == "tensor" else opposite(E)
    res = tensor_in_category(X, c, Es)
    if res is None:
        raise StructuralError(
            f"{E.name} lacks the {'coproduct' if mode == 'tensor' else 'product'} "
            f"of {len(X)} copies of {c}")
    legs = legs_by_element(X, res)
    checked = 0
    for cp in Es.sorted_objects():
        # Es(X(x)c, c') -> Set(X, Es(c,c')): h |-> (x |-> h . leg_x)
        homs = Es.hom(res.object, cp)
        images = {tuple((x, Es.comp(h, legs[x])) for x in X.sorted()) for h in homs}
        checked += len(homs)
        if len(images) != len(homs) or len(homs) != len(Es.hom(c, cp)) ** len(X):
            return res.object, fail_report(
                checked, "copower-adjunction" if mode == "tensor" else "power-adjunction",
                probe=cp)
    return res.object, ok_report(checked)


# ---------------------------------------------------------------------------
# Presheaf exponentials

def set_nat_element_id(t: SetNatTrans) -> str:
    return "{" + "|".join(
        f"{a}:" + ",".join(f"{x}↦{t.components[a](x)}" for x in t.src.on_obj[a].sorted())
        for a in sorted(t.components)) + "}"


@dataclass(frozen=True, eq=False)
class PresheafExponential:
    functor: SetFunctor
    index: dict[tuple[str, str], SetNatTrans]   # (object, element id) -> transformation
    of: tuple[SetFunctor, SetFunctor]   # the (F, G) of G^F


def presheaf_exponential(F: SetFunctor, G: SetFunctor) -> PresheafExponential:
    """The exponential presheaf G^F with value Nat(y_c x F, G) at c; f: d -> c acts
    by precomposition with y_f x F : y_d x F => y_c x F, (p, u) |-> (f.p, u)."""
    opC = F.dom
    if G.dom != opC:
        raise StructuralError("presheaves on different categories")
    F._tables, G._tables  # each input's one structural check, before any work
    C = opposite(opC)
    base = {c: product_set_functor(hom_functor(C, c, "contravariant"), F) for c in C.objects}
    members = [enumerate_set_naturals(base[c], G) for c in opC.objects]
    pre = {f.name: SetNatTrans("pre", base[f.dom], base[f.cod], {   # y_f x F, for f: d -> c
        a: _built_map(base[f.dom].on_obj[a], base[f.cod].on_obj[a], {
            pair_id(p, u): pair_id(C.comp(f.name, p), u)
            for p in C.hom(a, f.dom) for u in F.on_obj[a].sorted()}) for a in C.objects})
        for f in C.morphisms}
    functor, decode = _named_functor(f"({G.name}^{F.name})", opC, members, set_nat_element_id,
                                     lambda f, t: vcompose_set(t, pre[f]))
    return PresheafExponential(
        functor, {(c, eid): t for c, ts in decode.items() for eid, t in ts.items()}, (F, G))


def exponential_adjunction_check(F: SetFunctor, G: SetFunctor,
                                 exp: PresheafExponential,
                                 test_family: Iterable[SetFunctor]) -> Report:
    """Verify Nat(H, G^F) ~ Nat(H x F, G) by an explicit bijection for each probe H,
    where exp must be presheaf_exponential(F, G)."""
    if exp.of != (F, G):
        raise StructuralError(f"{exp.functor.name} is not the exponential ({G.name}^{F.name})")
    opC = F.dom
    C = opposite(opC)
    checked = 0
    for H in test_family:
        lhs = enumerate_set_naturals(H, exp.functor)
        HF = product_set_functor(H, F)
        pairs = {a: {pair_id(h, u): (h, u) for h in H.on_obj[a].elements
                     for u in F.on_obj[a].elements} for a in C.objects}

        def transpose(s: SetNatTrans, a: str, hu: str) -> str:
            # (h, u) |-> decode(s_a(h)) evaluated at (id_a, u)
            h, u = pairs[a][hu]
            return exp.index[(a, s.components[a](h))].components[a](pair_id(C.id_of(a), u))

        tried, bad, n = nat_bijection(HF, G, lhs, transpose)
        if len(lhs) != n:
            return fail_report(checked, "exponential-adjunction", probe=H.name,
                               lhs=len(lhs), rhs=n)
        checked += tried
        if bad is NOT_BIJECTIVE:
            return fail_report(checked, "exponential-adjunction", probe=H.name,
                               failure="transpose not bijective")
        if bad is not None:
            return fail_report(checked, "exponential-adjunction", probe=H.name,
                               failure="transpose not natural")
    return ok_report(checked)
