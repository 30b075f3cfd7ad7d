"""Finite categories, functors, natural transformations, and their composition algebra.

Everything is tabulated: a category is a list of objects, a list of morphism
records and a total composition table.  All operations are pure; every
enumeration iterates in lexicographic id order so results are deterministic
across runs.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

DEFAULT_GUARD = 10**6


class StructuralError(Exception):
    """Malformed input: unresolved ids, non-total tables, typing mismatches.

    Distinct from a law violation, which is reported through a Report value.
    """


class GuardExceeded(Exception):
    """An enumeration would exceed the configured candidate budget."""


@dataclass(frozen=True)
class Counterexample:
    law: str
    details: dict

    def to_json(self) -> dict:
        return {"law": self.law, "details": {k: str(v) for k, v in sorted(self.details.items())}}


@dataclass(frozen=True)
class Report:
    ok: bool
    checked: int
    counterexample: Optional[Counterexample] = None
    partial: bool = False

    def __post_init__(self):
        if self.ok != (self.counterexample is None):
            raise ValueError("a report carries a counterexample exactly when it is not ok")

    def to_json(self) -> dict:
        out = {"ok": self.ok, "checked": self.checked}
        if self.partial:
            out["partial"] = True
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out


def ok_report(checked: int, partial: bool = False) -> Report:
    return Report(True, checked, None, partial)


def fail_report(checked: int, law: str, **details) -> Report:
    return Report(False, checked, Counterexample(law, details))


def unique_factor(candidates, holds):
    """The one candidate satisfying holds (None unless exactly one does), and
    how many do: the count a factorization counterexample reports."""
    found = [x for x in candidates if holds(x)]
    return (found[0] if len(found) == 1 else None), len(found)


# ---------------------------------------------------------------------------
# The family search: functors, natural transformations in both backends,
# cones, wedges and the probe cones of a Set certificate are all families of
# values, one per slot, under constraints that each read a few slots.

def schedule(slots: int, constraints) -> list[list]:
    """Bucket the (read, payload) constraints of a search over `slots` slots:
    due[0] holds the payloads whose read slots are empty, due[i + 1] those
    whose last read slot is i."""
    due: list[list] = [[] for _ in range(slots + 1)]
    for read, payload in constraints:
        due[max(read, default=-1) + 1].append(payload)
    return due


def search(choices, due, holds) -> Iterator[tuple]:
    """Every family with values[i] from choices[i] that meets every scheduled
    constraint, depth first in itertools.product order, so that output order,
    `checked` counts and first counterexamples are a product filter's.

    holds(payload, values) tests one constraint on the slots assigned so far:
    those of due[0] once before the first step, those of due[i + 1] once on
    each path, right after slot i is assigned, so a failing prefix is pruned
    at once (forward checking, Haralick & Elliott 1980).
    """
    values = [None] * len(choices)
    for c in due[0]:
        if not holds(c, values):
            return
    if not all(choices):
        return
    if not choices:
        yield ()
        return
    # untried[i]: the candidates for slot i not yet tried after the current prefix
    untried = [iter(choices[0])]
    i = 0
    while i >= 0:
        tests = due[i + 1]
        for v in untried[i]:
            values[i] = v
            for c in tests:
                if not holds(c, values):
                    break
            else:
                break  # v passes every test due at slot i
        else:
            untried.pop()  # slot i is exhausted: back up to slot i - 1
            i -= 1
            continue
        if i + 1 < len(choices):
            i += 1
            untried.append(iter(choices[i]))
        else:
            yield tuple(values)


@dataclass(frozen=True)
class Mor:
    name: str
    dom: str
    cod: str


class cached:
    """A lock-free functools.cached_property.

    Before Python 3.12 cached_property takes a lock on every first access,
    which costs as much as computing a small key.  The cached values here are
    pure functions of frozen fields, so two threads racing on a first access
    at worst compute the same value twice.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Keyed:
    """Structural identity for the frozen value classes, computed once.

    A subclass is a frozen dataclass declared with ``eq=False`` whose
    ``_structure()`` returns a nested tuple of ids that determines the value.
    ``key()`` returns that tuple; ``==`` and ``hash`` compare by it.  Both the
    key and its hash are cached in the instance ``__dict__``, which is sound
    because every table is read-only: ``__post_init__`` replaces it by a
    private copy (``_freeze``), and a map built valid by construction wraps
    its fresh table without copying.  The first ``hash`` computes the key
    (unless ``key()`` already has) and its hash in one step and stores both.
    """

    def _structure(self) -> tuple:
        raise NotImplementedError

    def _freeze(self, *names: str) -> None:
        """Replace each named mapping field by a read-only copy of itself."""
        fields = self.__dict__  # frozen: bypass __setattr__
        for f in names:
            fields[f] = MappingProxyType(dict(fields[f]))

    @cached
    def _key(self) -> tuple:
        return self._structure()

    def key(self) -> tuple:
        return self._key

    def __hash__(self):
        fields = self.__dict__  # frozen: bypass __setattr__
        h = fields.get("_hash")
        if h is None:
            key = fields.get("_key")
            if key is None:
                key = fields["_key"] = self._structure()
            h = fields["_hash"] = hash(key)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return False
        # unequal hashes settle it, but a value is not hashed just to be compared
        if "_hash" in self.__dict__ and "_hash" in other.__dict__ and self._hash != other._hash:
            return False
        return self._key == other._key


@dataclass(frozen=True, eq=False)
class FinCat(Keyed):
    """A finite category: objects, morphism records, identity and composition tables."""

    name: str
    objects: tuple[str, ...]
    morphisms: tuple[Mor, ...]
    identity: Mapping[str, str]
    compose: Mapping[tuple[str, str], str]

    def __post_init__(self):
        fields = self.__dict__  # frozen: bypass __setattr__
        fields["objects"] = tuple(self.objects)
        fields["morphisms"] = tuple(self.morphisms)
        self._freeze("identity", "compose")

    @cached
    def mor(self) -> dict[str, Mor]:
        return {m.name: m for m in self.morphisms}

    @cached
    def _into(self) -> dict[str, tuple[Mor, ...]]:
        """Morphisms by codomain, each group in declaration order."""
        table: dict[str, list[Mor]] = {}
        for m in self.morphisms:
            table.setdefault(m.cod, []).append(m)
        return {b: tuple(ms) for b, ms in table.items()}

    @cached
    def _homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms:
            table.setdefault((m.dom, m.cod), []).append(m.name)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    @cached
    def _squares(self) -> list[list[tuple[str, int, int]]]:
        """The naturality square (name, dom slot, cod slot) of each morphism,
        scheduled for a search over component families in sorted object order."""
        pos = {a: i for i, a in enumerate(self._sorted_objects)}
        ends = [(m.name, pos[m.dom], pos[m.cod]) for m in self.morphisms]
        return schedule(len(pos), (((a, b), (m, a, b)) for m, a, b in ends))

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        """Morphism ids from a to b, lexicographically sorted."""
        return self._homs.get((a, b), ())

    def dom(self, m: str) -> str:
        return self.mor[m].dom

    def cod(self, m: str) -> str:
        return self.mor[m].cod

    def id_of(self, a: str) -> str:
        try:
            return self.identity[a]
        except KeyError:
            raise StructuralError(f"{self.name}: unknown object {a}") from None

    def is_identity(self, m: str) -> bool:
        return self.identity.get(self.mor[m].dom) == m

    def comp(self, g: str, f: str) -> str:
        """Composite g after f."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise StructuralError(
                f"{self.name}: no composition entry for {g} after {f}") from None

    def comp_path(self, *ms: str) -> str:
        """Composite of a whole path, first morphism applied first."""
        out = ms[0]
        for m in ms[1:]:
            out = self.comp(m, out)
        return out

    @cached
    def _opposite(self) -> FinCat:
        name = self.name[3:-1] if self.name.startswith("op(") and self.name.endswith(")") \
            else f"op({self.name})"
        op = FinCat(name, self.objects,
                    tuple(Mor(m.name, m.cod, m.dom) for m in self.morphisms),
                    self.identity,
                    {(f, g): h for (g, f), h in self.compose.items()})
        # a weak way back: a strong one would make every category with an
        # opposite a reference cycle, freed only by the cycle collector
        op.__dict__["_opposite_of"] = weakref.ref(self)  # frozen: bypass __setattr__
        return op

    @cached
    def _op_product(self) -> FinCat:
        return product(opposite(self), self)

    @cached
    def _ints(self) -> IntView:
        return IntView(self)

    @cached
    def _sorted_objects(self) -> tuple[str, ...]:
        return tuple(sorted(self.objects))

    @cached
    def _sorted_mor_names(self) -> tuple[str, ...]:
        return tuple(sorted(m.name for m in self.morphisms))

    @cached
    def _nonidentity_mor_names(self) -> tuple[str, ...]:
        return tuple(m for m in self._sorted_mor_names if not self.is_identity(m))

    def sorted_objects(self) -> tuple[str, ...]:
        return self._sorted_objects

    def sorted_mor_names(self) -> tuple[str, ...]:
        return self._sorted_mor_names

    def nonidentity_mor_names(self) -> tuple[str, ...]:
        return self._nonidentity_mor_names

    def _inverse(self, f: str) -> Optional[str]:
        m = self.mor[f]
        return next((g for g in self.hom(m.cod, m.dom) if self.comp(g, f) == self.identity[m.dom]
                     and self.comp(f, g) == self.identity[m.cod]), None)

    def is_iso(self, f: str) -> bool:
        return self._inverse(f) is not None

    def inverse(self, f: str) -> str:
        g = self._inverse(f)
        if g is None:
            raise StructuralError(f"{self.name}: {f} is not invertible")
        return g

    def _structure(self):
        return (
            self._sorted_objects,
            tuple(sorted((m.name, m.dom, m.cod) for m in self.morphisms)),
            tuple(sorted(self.identity.items())),
            tuple(sorted(self.compose.items())),
        )

    def __repr__(self):
        return f"FinCat({self.name!r}, {len(self.objects)} objects, {len(self.morphisms)} morphisms)"


class IntView:
    """A category's ids as ints, for the inner loops of validate_category and
    of the functor and transformation searches; built once per category.

    Morphisms are numbered in sorted id order, so int order is id order and
    the hom tuples `homs[(a, b)]` keep C.hom's order.  An id met only as an
    identity or a composite gets the next int, so two ints are equal exactly
    when their ids are, even in a malformed table.  rows[g][f] is the int of
    g after f for every composable pair with an entry, in C._into order;
    `missing` is the first composable pair without one.  rows[-1] is empty:
    it stands for an id the category does not have, so a lookup through it
    misses, as FinCat.comp would.
    """

    def __init__(self, C: FinCat):
        names = self.names = sorted([m.name for m in C.morphisms])
        num = self.num = {m: i for i, m in enumerate(names)}
        for i in C.identity.values():
            if num.setdefault(i, len(names)) == len(names):
                names.append(i)
        into = self.into = {}  # C._into as ints
        for m in C.morphisms:
            into.setdefault(m.cod, []).append(num[m.name])
        rows: list[dict[int, int]] = [{} for _ in names]
        missing = None
        comp = C.compose
        for g in C.morphisms:
            gn = g.name
            row = rows[num[gn]]
            for fi in into.get(g.dom, ()):
                h = comp.get((gn, names[fi]))
                if h is None:
                    missing = missing or (gn, names[fi])
                    continue
                row[fi] = hi = num.setdefault(h, len(names))
                if hi == len(names):
                    names.append(h)
        self.missing = missing
        # the rows of the ids met only as composites, and rows[-1]: all empty
        self.rows = rows + [{}] * (len(names) - len(rows) + 1)
        self._morphisms = C.morphisms

    @cached
    def homs(self) -> dict[tuple[str, str], tuple[int, ...]]:
        table: dict[tuple[str, str], list[int]] = {}
        for m in self._morphisms:
            table.setdefault((m.dom, m.cod), []).append(self.num[m.name])
        return {k: tuple(sorted(v)) for k, v in table.items()}


def same_structure(a: FinCat, b: FinCat) -> bool:
    """Structural equality ignoring the category name."""
    return a.key() == b.key()


def renamed(C: FinCat, name: str) -> FinCat:
    return FinCat(name, C.objects, C.morphisms, C.identity, C.compose)


def renamed_functor(F: Functor, name: str) -> Functor:
    return Functor(name, F.dom, F.cod, F.obj_map, F.mor_map)


@dataclass(frozen=True, eq=False)
class Functor(Keyed):
    name: str
    dom: FinCat
    cod: FinCat
    obj_map: Mapping[str, str]
    mor_map: Mapping[str, str]

    def __post_init__(self):
        self._freeze("obj_map", "mor_map")

    @cached
    def _obj_images(self) -> tuple[str, ...]:
        """The images of the domain's objects, in sorted object order."""
        return tuple(self.obj_map[a] for a in self.dom.sorted_objects())

    def _structure(self):
        return (self.dom.key(), self.cod.key(),
                tuple(sorted(self.obj_map.items())), tuple(sorted(self.mor_map.items())))

    def __repr__(self):
        return f"Functor({self.name!r}: {self.dom.name} -> {self.cod.name})"


@dataclass(frozen=True, eq=False)
class NatTrans(Keyed):
    name: str
    src: Functor
    tgt: Functor
    components: Mapping[str, str]

    def __post_init__(self):
        self._freeze("components")

    def _structure(self):
        return (self.src.key(), self.tgt.key(), tuple(sorted(self.components.items())))

    def __repr__(self):
        return f"NatTrans({self.name!r}: {self.src.name} => {self.tgt.name})"


# ---------------------------------------------------------------------------
# Construction helpers

def make_category(name, objects, arrows, compose) -> FinCat:
    """Build a FinCat from non-identity arrow specs (name, dom, cod).

    Identity morphisms and their composites are generated; `compose` supplies
    the remaining entries keyed by (g, f).
    """
    objects = tuple(objects)
    mors = [Mor(f"id_{a}", a, a) for a in objects]
    identity = {a: f"id_{a}" for a in objects}
    seen = {m.name for m in mors}
    for spec in arrows:
        m = Mor(*spec)
        if m.name in seen:
            raise StructuralError(f"{name}: duplicate morphism id {m.name}")
        if m.dom not in identity or m.cod not in identity:
            raise StructuralError(f"{name}: morphism {m.name} has unresolved endpoints")
        seen.add(m.name)
        mors.append(m)
    table: dict[tuple[str, str], str] = dict(compose)
    for m in mors:
        # explicit entries win so a wrong unit composite stays visible to the
        # validator instead of being silently repaired
        table.setdefault((m.name, identity[m.dom]), m.name)
        table.setdefault((identity[m.cod], m.name), m.name)
    return FinCat(name, objects, tuple(mors), identity, table)


def identity_functor(C: FinCat) -> Functor:
    return Functor(f"id_{C.name}", C, C,
                   {a: a for a in C.objects}, {m.name: m.name for m in C.morphisms})


def compose_functors(G: Functor, F: Functor) -> Functor:
    """Horizontal composite G after F."""
    if F.cod != G.dom:
        raise StructuralError(f"cannot compose {G.name} after {F.name}: boundary mismatch")
    return Functor(f"{G.name}*{F.name}", F.dom, G.cod,
                   {a: G.obj_map[x] for a, x in F.obj_map.items()},
                   {f: G.mor_map[u] for f, u in F.mor_map.items()})


def identity_nat(F: Functor) -> NatTrans:
    return NatTrans(f"id_{F.name}", F, F,
                    {a: F.cod.id_of(F.obj_map[a]) for a in F.dom.objects})


def vcompose(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """Vertical composite beta after alpha."""
    if alpha.tgt != beta.src:
        raise StructuralError(f"cannot stack {beta.name} on {alpha.name}: boundary mismatch")
    D = alpha.src.cod
    return NatTrans(f"{beta.name}.{alpha.name}", alpha.src, beta.tgt,
                    {a: D.comp(beta.components[a], alpha.components[a])
                     for a in alpha.src.dom.objects})


def hcompose(beta: NatTrans, alpha: NatTrans) -> NatTrans:
    """Horizontal composite: components beta_{F'a} after G(alpha_a).

    Both evaluation orders are computed and asserted equal; their agreement is
    exactly the sliding rule.
    """
    F, Fp = alpha.src, alpha.tgt
    G, Gp = beta.src, beta.tgt
    if F.cod != G.dom:
        raise StructuralError(f"cannot place {beta.name} beside {alpha.name}: boundary mismatch")
    E = G.cod
    comps = {}
    for a in F.dom.objects:
        left = E.comp(beta.components[Fp.obj_map[a]], G.mor_map[alpha.components[a]])
        right = E.comp(Gp.mor_map[alpha.components[a]], beta.components[F.obj_map[a]])
        if left != right:
            raise StructuralError(
                f"sliding rule broken at {a} composing {beta.name} * {alpha.name}; "
                "inputs are not natural transformations")
        comps[a] = left
    return NatTrans(f"{beta.name}*{alpha.name}",
                    compose_functors(G, F), compose_functors(Gp, Fp), comps)


def whisker_functor_nat(H: Functor, alpha: NatTrans) -> NatTrans:
    """H * alpha: apply the functor H after every component."""
    return hcompose(identity_nat(H), alpha)


def whisker_nat_functor(alpha: NatTrans, K: Functor) -> NatTrans:
    """alpha * K: restrict the component family along K."""
    return hcompose(alpha, identity_nat(K))


def compose(x, y, mode: str):
    """Dispatching composition; mode names the operator placement.

    Modes: 'functor*functor', 'nat.nat' (vertical), 'nat*nat' (horizontal),
    'nat*functor', 'functor*nat'.  The unicode spellings with the bullet and
    circle operators are accepted as synonyms.
    """
    mode = mode.replace("•", "*").replace("∘", ".")
    if mode == "functor*functor":
        return compose_functors(x, y)
    if mode == "nat.nat":
        return vcompose(x, y)
    if mode == "nat*nat":
        return hcompose(x, y)
    if mode == "nat*functor":
        return whisker_nat_functor(x, y)
    if mode == "functor*nat":
        return whisker_functor_nat(x, y)
    raise StructuralError(f"unknown composition mode {mode!r}")


# ---------------------------------------------------------------------------
# Validation

def composable_pairs(C: FinCat) -> Iterator[tuple[Mor, Mor]]:
    for g in C.morphisms:
        for f in C._into.get(g.dom, ()):
            yield g, f


def validate_category(C: FinCat) -> Report:
    """Exhaustively check well-formedness, unit laws and associativity.

    The structural pass reads the ids; the completeness pass is the build of
    C._ints (cached on C), and the unit and associativity passes look
    composites up in its int rows.  Counterexamples name ids, never ints.
    """
    for kind, ids in (("object", C.objects), ("morphism", [m.name for m in C.morphisms])):
        if len(set(ids)) != len(ids):
            dup = next(a for i, a in enumerate(ids) if a in ids[:i])
            raise StructuralError(f"{C.name}: duplicate {kind} id {dup}")
    objects, mor = set(C.objects), C.mor
    for a, i in C.identity.items():
        if a not in objects:
            raise StructuralError(f"{C.name}: identity table names unknown object {a}")
        if i not in mor:
            raise StructuralError(f"{C.name}: identity {i} of {a} is not a morphism")
    for m in C.morphisms:
        if m.dom not in objects or m.cod not in objects:
            raise StructuralError(f"{C.name}: morphism {m.name} has unresolved endpoints")
    for a in C.objects:
        if a not in C.identity:
            raise StructuralError(f"{C.name}: object {a} has no identity morphism")
    for (g, f), h in C.compose.items():
        mg, mf, mh = mor.get(g), mor.get(f), mor.get(h)
        if mg is None or mf is None or mh is None:
            raise StructuralError(f"{C.name}: composition entry ({g},{f})={h} has unresolved ids")
        if mf.cod != mg.dom:
            raise StructuralError(f"{C.name}: composition entry for non-composable pair ({g},{f})")
        if mh.dom != mf.dom or mh.cod != mg.cod:
            raise StructuralError(f"{C.name}: composite {h} of ({g},{f}) has wrong endpoints")

    for a, i in C.identity.items():
        if not (mor[i].dom == a and mor[i].cod == a):
            return fail_report(0, "identity-endpoints", object=a, identity=i)
    # the completeness pass builds C's int rows, and the passes below run on them
    V = C._ints
    if V.missing is not None:
        raise StructuralError(
            f"{C.name}: incomplete composition table, missing ({V.missing[0]},{V.missing[1]})")
    names, num, rows = V.names, V.num, V.rows
    checked = len(C.compose)  # one entry per composable pair, by the passes above
    for m in C.morphisms:
        k = num[m.name]
        if rows[k][num[C.identity[m.dom]]] != k:
            return fail_report(checked, "unit", morphism=m.name, side="right")
        if rows[num[C.identity[m.cod]]][k] != k:
            return fail_report(checked, "unit", morphism=m.name, side="left")
    # every lookup below is of a composable pair, present by the pass above
    for h in C.morphisms:
        hrow = rows[num[h.name]]
        for g in V.into.get(h.dom, ()):
            grow, hgrow = rows[g], rows[hrow[g]]
            for f, gf in grow.items():
                if hrow[gf] != hgrow[f]:
                    return fail_report(checked + 1 + list(grow).index(f), "associativity",
                                       h=h.name, g=names[g], f=names[f])
            checked += len(grow)
    return ok_report(checked)


def validate_functor(F: Functor) -> Report:
    C, D = F.dom, F.cod
    for a in C.objects:
        if a not in F.obj_map:
            raise StructuralError(f"{F.name}: object map not total at {a}")
        if F.obj_map[a] not in D.objects:
            raise StructuralError(f"{F.name}: object map sends {a} outside {D.name}")
    for m in C.morphisms:
        if m.name not in F.mor_map:
            raise StructuralError(f"{F.name}: morphism map not total at {m.name}")
        u = F.mor_map[m.name]
        if u not in D.mor:
            raise StructuralError(f"{F.name}: morphism map sends {m.name} outside {D.name}")
        if D.mor[u].dom != F.obj_map[m.dom] or D.mor[u].cod != F.obj_map[m.cod]:
            raise StructuralError(f"{F.name}: image of {m.name} has wrong endpoints")
    reject_strays(F.name, "object map", F.obj_map, C.objects, C)
    reject_strays(F.name, "morphism map", F.mor_map, C.mor, C)
    checked = 0
    for a in C.objects:
        checked += 1
        if F.mor_map[C.id_of(a)] != D.id_of(F.obj_map[a]):
            return fail_report(checked, "functor-identity", object=a,
                               image=F.mor_map[C.id_of(a)])
    for g, f in composable_pairs(C):
        checked += 1
        if F.mor_map[C.comp(g.name, f.name)] != D.comp(F.mor_map[g.name], F.mor_map[f.name]):
            return fail_report(checked, "functor-composition", g=g.name, f=f.name)
    return ok_report(checked)


def reject_strays(name: str, what: str, table: Mapping, domain, C: FinCat) -> None:
    """Raise on a key of table that names nothing in domain, a part of C."""
    stray = set(table).difference(domain)
    if stray:
        raise StructuralError(f"{name}: {what} names {min(stray)}, which is not in {C.name}")


def validate_natural(alpha: NatTrans) -> Report:
    F, G = alpha.src, alpha.tgt
    if F.dom != G.dom or F.cod != G.cod:
        raise StructuralError(f"{alpha.name}: source and target functors are not parallel")
    C, D = F.dom, F.cod
    for a in C.objects:
        if a not in alpha.components:
            raise StructuralError(f"{alpha.name}: no component at {a}")
        u = alpha.components[a]
        if u not in D.mor:
            raise StructuralError(f"{alpha.name}: component at {a} is not a morphism of {D.name}")
        if D.mor[u].dom != F.obj_map[a] or D.mor[u].cod != G.obj_map[a]:
            raise StructuralError(
                f"{alpha.name}: component at {a} lies in the wrong hom-set")
    reject_strays(alpha.name, "component family", alpha.components, C.objects, C)
    checked = 0
    for m in C.morphisms:
        checked += 1
        lhs = D.comp(G.mor_map[m.name], alpha.components[m.dom])
        rhs = D.comp(alpha.components[m.cod], F.mor_map[m.name])
        if lhs != rhs:
            return fail_report(checked, "naturality", morphism=m.name,
                               lhs=lhs, rhs=rhs)
    return ok_report(checked)


# ---------------------------------------------------------------------------
# Opposites and products

def opposite(C: FinCat) -> FinCat:
    """Swap every dom/cod and transpose the composition table.

    Computed once per category; the opposite of the opposite is C itself, so
    the name round-trips (the "op(..)" wrapper is stripped rather than doubled).
    """
    source = C.__dict__.get("_opposite_of")
    back = source() if source is not None else None
    return back if back is not None else C._opposite


def opposite_functor(F: Functor) -> Functor:
    return Functor(F.name, opposite(F.dom), opposite(F.cod), F.obj_map, F.mor_map)


def product(C: FinCat, D: FinCat) -> FinCat:
    """Product category; ids are canonical pairs "(x,y)"."""
    pair = "({},{})".format
    objects = tuple(pair(x, y) for x in C.sorted_objects() for y in D.sorted_objects())
    mors = []
    for m in sorted(C.morphisms, key=lambda m: m.name):
        for n in sorted(D.morphisms, key=lambda n: n.name):
            mors.append(Mor(pair(m.name, n.name), pair(m.dom, n.dom), pair(m.cod, n.cod)))
    identity = {pair(x, y): pair(C.identity[x], D.identity[y])
                for x in C.objects for y in D.objects}
    table = {}
    for g, f in composable_pairs(C):
        gf = C.comp(g.name, f.name)
        for gp, fp in composable_pairs(D):
            table[(pair(g.name, gp.name), pair(f.name, fp.name))] = \
                pair(gf, D.comp(gp.name, fp.name))
    return FinCat(f"{C.name}x{D.name}", objects, tuple(mors), identity, table)


def op_product(J: FinCat) -> FinCat:
    """op(J) x J, the source of every bifunctor whose (co)end is taken over J.

    Computed once per category, so a bifunctor built on it passes the shape
    check of end_coend by identity.
    """
    return J._op_product


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def split_pair(p: str) -> tuple[str, str]:
    """Inverse of pair_id; splits at the comma with balanced parentheses."""
    if not (p.startswith("(") and p.endswith(")")):
        raise StructuralError(f"not a pair id: {p}")
    body = p[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch in "(⟨[":
            depth += 1
        elif ch in ")⟩]":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise StructuralError(f"not a pair id: {p}")


# ---------------------------------------------------------------------------
# Functor categories

def _assignment(table: Mapping[str, str], keys) -> str:
    return ";".join(f"{k}↦{table[k]}" for k in keys)


def _nat_prefix(fid: str, gid: str) -> str:
    """The head of the id of a transformation fid => gid; its `a↦m` pieces
    and a closing `]` follow."""
    return f"{fid}=>{gid}:["


def _functor_id(obj: str, mor_map: Mapping[str, str], gens) -> str:
    """A functor's id from its object assignment `obj` and its generators' images."""
    return obj + "|" + _assignment(mor_map, gens) if gens else obj


def canonical_functor_id(F: Functor) -> str:
    """Stable cross-run object id for a functor inside a functor category."""
    return _functor_id(_assignment(F.obj_map, sorted(F.obj_map)), F.mor_map,
                       F.dom.nonidentity_mor_names())


def canonical_nat_id(alpha: NatTrans) -> str:
    return (_nat_prefix(canonical_functor_id(alpha.src), canonical_functor_id(alpha.tgt))
            + _assignment(alpha.components, sorted(alpha.components)) + "]")


def enumerate_functors(C: FinCat, D: FinCat, guard: int | None = None) -> list[Functor]:
    """All functors C -> D, each named by its canonical id, in id order.

    Two searches: one assigns objects, on the schedule C._squares, keeping
    an assignment only if every morphism of C has a non-empty hom-set
    between its ends' images; for each such assignment one assigns C's
    identities their images and then the generators (C's non-identity
    morphisms) in name order, testing each composable pair (g, f, g.f) of C
    on the step that assigns its last member.  The generator search runs on
    D._ints: its candidates are int hom tuples and each test is a lookup in
    D's int rows, and the images are turned back into ids only for the
    functors it finds.
    """
    guard = DEFAULT_GUARD if guard is None else guard
    objs = C.sorted_objects()
    d_objs = D.sorted_objects()
    if len(d_objs) ** max(len(objs), 1) > guard:
        raise GuardExceeded(
            f"functor enumeration {C.name} -> {D.name} exceeds guard {guard}")
    gens = C.nonidentity_mor_names()
    ends = [(C.mor[f].dom, C.mor[f].cod) for f in gens]
    # the generator search's slots: each identity (one candidate), then gens
    slot = {f: i for i, f in enumerate([C.id_of(a) for a in objs] + list(gens))}
    pairs = [(slot[g.name], slot[f.name], slot[C.comp(g.name, f.name)])
             for g, f in composable_pairs(C)]
    composites = schedule(len(slot), ((p, p) for p in pairs))
    V = D._ints
    names, num, rows, homs = V.names, V.num, V.rows, V.homs

    def composes(p, v) -> bool:
        try:
            return rows[v[p[0]]][v[p[1]]] == v[p[2]]
        except KeyError:  # no entry: D.comp raises it by name
            return D.comp(names[v[p[0]]], names[v[p[1]]]) == names[v[p[2]]]

    out: list[Functor] = []
    # an object assignment must give each morphism of C a non-empty hom-set
    for choice in search([d_objs] * len(objs), C._squares,
                         lambda square, v: bool(D.hom(v[square[1]], v[square[2]]))):
        obj_map = dict(zip(objs, choice))
        obj_id = _assignment(obj_map, objs)
        choices = [(num[D.id_of(x)],) for x in choice] + \
            [homs.get((obj_map[a], obj_map[b]), ()) for a, b in ends]
        for images in search(choices, composites, composes):
            mor_map = dict(zip(slot, [names[u] for u in images]))
            out.append(Functor(_functor_id(obj_id, mor_map, gens), C, D, obj_map, mor_map))
    out.sort(key=lambda F: F.name)
    return out


def _nat_trans(F: Functor, G: Functor, prefix: str,
               pieces=None) -> list[tuple[str, tuple[int, ...], NatTrans]]:
    """The natural transformations F => G in id order, each with its id and
    its components as ints of D._ints in sorted object order.

    Components are searched object by object in sorted order over D's int
    hom tuples, each morphism's naturality square tested once on a path, when
    the later of its two ends gets its component (the schedule C._squares),
    by two lookups in D's int rows.  An id is prefix, then the `a↦m` pieces
    of the components, pieces[i][u] for the i-th object and int u, then `]`;
    given no pieces, those of the candidate components are formatted.
    """
    C, D = F.dom, F.cod
    objs = C.sorted_objects()
    V = D._ints
    names, num, rows = V.names, V.num, V.rows
    choices = [V.homs.get(xy, ()) for xy in zip(F._obj_images, G._obj_images)]
    if pieces is None:
        pieces = [{u: f"{a}↦{names[u]}" for u in us} for a, us in zip(objs, choices)]
    Fm, Gm = F.mor_map, G.mor_map

    def natural(square, v) -> bool:
        m, a, b = square
        try:  # an image D lacks reads the empty rows[-1]
            return rows[num.get(Gm[m], -1)][v[a]] == rows[v[b]][num.get(Fm[m], -1)]
        except KeyError:  # no entry: D.comp raises it by name
            return D.comp(Gm[m], names[v[a]]) == D.comp(names[v[b]], Fm[m])

    out = []
    for family in search(choices, C._squares, natural):
        tid = prefix + ";".join([p[u] for p, u in zip(pieces, family)]) + "]"
        out.append((tid, family, NatTrans("t", F, G, dict(zip(objs, [names[u] for u in family])))))
    out.sort(key=lambda t: t[0])
    return out


def enumerate_nat_trans(F: Functor, G: Functor) -> list[NatTrans]:
    """All natural transformations F => G by backtracking with naturality
    pruning, in canonical id order."""
    if F.dom != G.dom or F.cod != G.cod:
        raise StructuralError(
            f"{F.name}=>{G.name}: source and target functors are not parallel")
    prefix = _nat_prefix(canonical_functor_id(F), canonical_functor_id(G))
    return [t for _, _, t in _nat_trans(F, G, prefix)]


@dataclass(frozen=True, eq=False)
class FunctorCategory:
    """A materialized functor category with a read-only index back to the
    tabulated values."""

    cat: FinCat
    functors: Mapping[str, Functor]
    nats: Mapping[str, NatTrans]

    def __post_init__(self):
        Keyed._freeze(self, "functors", "nats")


def functor_category(C: FinCat, D: FinCat, guard: int | None = None) -> FunctorCategory:
    """The category of functors C -> D and all natural transformations between them.

    Objects are the functors of enumerate_functors, whose names are their
    canonical ids.  Transformations come from _nat_trans on D._ints, and each
    identity and composite is named from the same `a↦m` pieces, formatted
    once per call, and one prefix per pair of functors, without building a
    NatTrans for it.  A composite's components are looked up in D's int rows
    in C.objects order, as vcompose takes them.
    """
    fs = enumerate_functors(C, D, guard)
    objs = C.sorted_objects()
    V = D._ints
    names, rows = V.names, V.rows
    pieces = [[f"{a}↦{u}" for u in names] for a in objs]
    prefix = [[_nat_prefix(F.name, G.name) for G in fs] for F in fs]
    nats: dict[str, NatTrans] = {}
    mors = []
    ends = []  # per transformation: its source and target index and its components
    into: list[list[int]] = [[] for _ in fs]  # per functor: the transformations into it
    for i, F in enumerate(fs):
        for j, G in enumerate(fs):
            for tid, family, t in _nat_trans(F, G, prefix[i][j], pieces):
                nats[tid] = t
                into[j].append(len(mors))
                mors.append(Mor(tid, F.name, G.name))
                ends.append((i, j, family))
    identity = {F.name: prefix[i][i] + ";".join(
                    [p[V.num[D.id_of(x)]] for p, x in zip(pieces, F._obj_images)]) + "]"
                for i, F in enumerate(fs)}
    table = {}
    for m, (j, k, beta) in zip(mors, ends):
        after = [rows[b] for b in beta]
        for n in into[j]:
            i, _, alpha = ends[n]
            try:
                comps = [p[r[a]] for p, r, a in zip(pieces, after, alpha)]
            except KeyError:  # no entry: D.comp raises the first in C.objects order
                gf = {a: D.comp(nats[m.name].components[a], nats[mors[n].name].components[a])
                      for a in C.objects}
                comps = [f"{a}↦{gf[a]}" for a in objs]
            table[(m.name, mors[n].name)] = prefix[i][k] + ";".join(comps) + "]"
    cat = FinCat(f"[{C.name},{D.name}]", tuple(F.name for F in fs),
                 tuple(mors), identity, table)
    return FunctorCategory(cat, {F.name: F for F in fs}, nats)


def const_diagram(c: str, J: FinCat, C: FinCat) -> Functor:
    """The constant functor at c, i.e. the diagonal functor applied to c."""
    if c not in C.objects:
        raise StructuralError(f"unknown object {c} in {C.name}")
    return Functor(f"const({c})", J, C,
                   {j: c for j in J.objects},
                   {m.name: C.id_of(c) for m in J.morphisms})


def diagonal_functor(J: FinCat, C: FinCat, fc: FunctorCategory) -> Functor:
    """The diagonal functor C -> [J,C], tabulated against a materialized functor category."""
    obj_map = {}
    mor_map = {}
    for c in C.objects:
        obj_map[c] = canonical_functor_id(const_diagram(c, J, C))
    for m in C.morphisms:
        src = fc.functors[obj_map[m.dom]]
        tgt = fc.functors[obj_map[m.cod]]
        nat = NatTrans(f"const({m.name})", src, tgt, {j: m.name for j in J.objects})
        mor_map[m.name] = canonical_nat_id(nat)
    return Functor(f"diag[{J.name}]", C, fc.cat, obj_map, mor_map)


def fully_faithful_check(F: Functor) -> Report:
    """Is hom(a,b) -> hom(Fa,Fb) bijective for every pair of objects?"""
    C, D = F.dom, F.cod
    checked = 0
    for a in C.sorted_objects():
        for b in C.sorted_objects():
            checked += 1
            source = C.hom(a, b)
            target = D.hom(F.obj_map[a], F.obj_map[b])
            images = [F.mor_map[f] for f in source]
            if len(set(images)) < len(images):
                return fail_report(checked, "fully-faithful", pair=f"({a},{b})",
                                   failure="injectivity")
            if set(images) != set(target):
                return fail_report(checked, "fully-faithful", pair=f"({a},{b})",
                                   failure="surjectivity")
    return ok_report(checked)
