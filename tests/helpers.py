"""Shared fixtures for the diagram-calculus tests, the acceptance suite and
the enumeration tests."""
from __future__ import annotations

import gc
import random
import weakref

from fincat.core import (FinCat, Functor, NatTrans, enumerate_functors, identity_functor,
                         make_category, renamed)
from fincat.diagram import Environment, Generator, HComp, Id, VComp, typecheck
from fincat.fixtures import chain, terminal_category, walking_arrow


def freed_by_refcount(make) -> bool:
    """Whether the values make() returns are freed by reference counting alone:
    with the cycle collector off, a weak reference to each dies once the list
    that make() returned is deleted."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        values = make()
        refs = [weakref.ref(v) for v in values]
        del values
        return all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


def fixture_env() -> Environment:
    two = renamed(walking_arrow(), "C")
    one = renamed(terminal_category(), "E")
    f0 = Functor("F0", two, two, {"0": "0", "1": "0"},
                 {"id_0": "id_0", "id_1": "id_0", "a": "id_0"})
    f1 = Functor("F1", two, two, {"0": "1", "1": "1"},
                 {"id_0": "id_1", "id_1": "id_1", "a": "id_1"})
    ident = identity_functor(two)
    ident = Functor("I", two, two, dict(ident.obj_map), dict(ident.mor_map))
    bg = Functor("B", two, one, {"0": "*", "1": "*"},
                 {"id_0": "id_*", "id_1": "id_*", "a": "id_*"})
    p0 = Functor("P0", one, two, {"*": "0"}, {"id_*": "id_0"})
    p1 = Functor("P1", one, two, {"*": "1"}, {"id_*": "id_1"})
    gens = {
        "s": NatTrans("s", f0, ident, {"0": "id_0", "1": "a"}),
        "t": NatTrans("t", ident, f1, {"0": "a", "1": "id_1"}),
        "u": NatTrans("u", f0, f1, {"0": "a", "1": "a"}),
        "p": NatTrans("p", p0, p1, {"*": "a"}),
        "q": NatTrans("q", p0, p0, {"*": "id_0"}),
    }
    env = Environment(
        categories={"C": two, "E": one},
        functors={"F0": f0, "F1": f1, "I": ident, "B": bg, "P0": p0, "P1": p1},
        generators=gens,
    )
    env.validate()
    return env


def random_term(rng: random.Random, env: Environment, max_gens: int = 6):
    """Grow a well-typed term by random vertical/horizontal combination."""
    atoms = [Generator(g) for g in sorted(env.generators)] + \
            [Id(f) for f in sorted(env.functors)] + \
            [Id(c) for c in sorted(env.categories)]
    pool = [(a, typecheck(a, env)) for a in atoms]
    term, face = pool[rng.randrange(len(pool))]
    gens = 1 if isinstance(term, Generator) else 0
    for _ in range(40):
        if gens >= max_gens:
            break
        cand, cface = pool[rng.randrange(len(pool))]
        cg = 1 if isinstance(cand, Generator) else 0
        ops = []
        if face.top == cface.bottom and face.left == cface.left and \
                face.right == cface.right:
            ops.append("stack")
        if cface.left == face.right:
            ops.append("outer")
        if face.left == cface.right:
            ops.append("inner")
        if not ops:
            continue
        op = rng.choice(ops)
        if op == "stack":
            term = VComp((term, cand)) if not isinstance(term, VComp) else \
                VComp(term.parts + (cand,))
        elif op == "inner":
            term = HComp((term, cand))
        else:
            term = HComp((cand, term))
        face = typecheck(term, env)
        gens += cg
    return term


def scan_factor(candidates, holds):
    """Unique factorization as a predicate scan, the reference for
    core.factorizations: the one candidate satisfying holds (None unless
    exactly one does), and how many do."""
    found = [x for x in candidates if holds(x)]
    return (found[0] if len(found) == 1 else None), len(found)


def scan_through(C: FinCat, c: str, apex: str, legs, fam):
    """scan_factor over C(c, apex) for legs_j . f = fam_j at every j, the
    reference for limits.through."""
    return scan_factor(C.hom(c, apex), lambda f: all(C.comp(legs[j], f) == fam[j] for j in legs))


def z3_monoid() -> FinCat:
    return make_category("Z3", ["*"], [("s", "*", "*"), ("s2", "*", "*")],
                         {("s", "s"): "s2", ("s", "s2"): "id_*",
                          ("s2", "s"): "id_*", ("s2", "s2"): "s"})


def edited(D: FinCat, entries=None, drop=()) -> FinCat:
    """D with some composition entries replaced and some removed."""
    table = {**D.compose, **(entries or {})}
    for pair in drop:
        del table[pair]
    return FinCat(D.name + "!", D.objects, D.morphisms, D.identity, table)


def square_category() -> FinCat:
    """Two paths 0 -> 1 -> 3 (f then g) and 0 -> 2 -> 3 (h then k), both d."""
    return make_category("Sq", ["0", "1", "2", "3"],
                         [("f", "0", "1"), ("g", "1", "3"), ("h", "0", "2"), ("k", "2", "3"),
                          ("d", "0", "3")],
                         {("g", "f"): "d", ("k", "h"): "d"})


def int_view_breakers() -> dict[str, FinCat]:
    """Targets whose tables have a structural fault, so that building their
    core.IntView raises validate_category's StructuralError and so does every
    search into them: composites that are no morphism (one, two equal and two
    unequal ghosts), missing entries that a naturality square reaches,
    missing entries that only a composite of two transformations reaches, a
    composite with wrong endpoints, an entry for a pair that is not
    composable, and a ghost ahead of a missing entry, where the error names
    the fault that comes first in validate_category's order."""
    sq, c3 = square_category(), chain(3)
    return {
        "one ghost": edited(sq, {("g", "f"): "ghost"}),
        "equal ghosts": edited(sq, {("g", "f"): "ghost", ("k", "h"): "ghost"}),
        "unequal ghosts": edited(sq, {("g", "f"): "ghost", ("k", "h"): "ghost2"}),
        "chain ghost": edited(c3, {("c12", "c01"): "ghost"}),
        "square missing": edited(sq, drop=[("k", "h")]),
        "chain missing": edited(c3, drop=[("c12", "c01")]),
        "composite missing": edited(chain(4), drop=[("c12", "c01"), ("c23", "c12")]),
        "wrong endpoints": edited(c3, {("c12", "c01"): "id_0"}),
        "stray entry": edited(c3, {("c01", "c12"): "c02"}),
        "two faults": edited(c3, {("c12", "c01"): "ghost"}, drop=[("c12", "id_1")]),
    }


def functors_into_breaker(C: FinCat, D: FinCat) -> list[Functor]:
    """The functors C -> D for an int_view_breakers target D: those into the
    fixture D was edited from, read in D, whose ids they share."""
    base = {"Sq!": square_category(), "chain3!": chain(3), "chain4!": chain(4)}[D.name]
    return [Functor(F.name, C, D, F.obj_map, F.mor_map) for F in enumerate_functors(C, base)]


def null_monoid(k: int) -> FinCat:
    """One object, generators g1..gk and z, and every composite of two
    non-identities equal to the absorbing z: every map of the generators to
    non-identities is a functor, so functor and transformation searches out
    of it or into it grow as fast as a product."""
    arrows = [f"g{i}" for i in range(1, k + 1)] + ["z"]
    return make_category(f"N{k}", ["*"], [(g, "*", "*") for g in arrows],
                         {(g, f): "z" for g in arrows for f in arrows})
