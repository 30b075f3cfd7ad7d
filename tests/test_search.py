"""The family search and the enumerations that run on it.

core.search is checked directly against a filtered itertools.product, with
every constraint call counted.  Cones, wedges, Set natural transformations
and the Set (co)limit certificate are compared whole against the product
filters they replaced, kept here as references; functors and tabulated
transformations are compared in tests/test_functor_category.py.
"""
import itertools
import random
from collections import Counter

import fincat.core as core
from fincat.core import (
    FinCat,
    Functor,
    enumerate_functors,
    opposite,
    pair_id,
    product,
    schedule,
    search,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    _tables,
    all_maps,
    enumerate_set_naturals,
    hom_functor,
)
from fincat.fixtures import (
    chain,
    discrete,
    parallel_pair,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.kan import enumerate_wedges
from fincat.limits import COLIMIT, LIMIT, _certify_finset, enumerate_cones, limit_finset
from fincat.randgen import (
    random_dag_category,
    random_preorder_category,
    random_representable_sum,
    random_set_diagram,
    random_set_functor_on_free,
)


# ---------------------------------------------------------------------------
# References: the product filters the search replaced

def ref_enumerate_cones(D: Functor, direction: str):
    C = D.cod if direction == LIMIT else opposite(D.cod)
    objs = D.dom.sorted_objects()
    steps = [(D.mor_map[m.name], m.dom, m.cod) if direction == LIMIT
             else (D.mor_map[m.name], m.cod, m.dom) for m in D.dom.morphisms]
    out = []
    for c in C.sorted_objects():
        for legs in itertools.product(*[C.hom(c, D.obj_map[j]) for j in objs]):
            fam = dict(zip(objs, legs))
            if all(C.comp(u, fam[a]) == fam[b] for u, a, b in steps):
                out.append((c, fam))
    return out


def ref_enumerate_wedges(D: Functor, J: FinCat, side: str):
    C = D.cod if side == "end" else opposite(D.cod)
    objs = J.sorted_objects()
    ends = [(m.name, m.dom, m.cod) if side == "end" else (m.name, m.cod, m.dom)
            for m in J.morphisms]
    steps = [(D.mor_map[pair_id(J.id_of(i), h)], i, D.mor_map[pair_id(h, J.id_of(j))], j)
             for h, i, j in ends]
    out = []
    for c in C.sorted_objects():
        for combo in itertools.product(*[C.hom(c, D.obj_map[pair_id(j, j)]) for j in objs]):
            fam = dict(zip(objs, combo))
            if all(C.comp(u, fam[i]) == C.comp(v, fam[j]) for u, i, v, j in steps):
                out.append((c, fam))
    return out


def ref_enumerate_set_naturals(X: SetFunctor, Y: SetFunctor):
    C = X.dom
    objs = C.sorted_objects()
    Xt, Yt = _tables(X), _tables(Y)
    out = []
    for combo in itertools.product(*[all_maps(X.on_obj[a], Y.on_obj[a]) for a in objs]):
        comps = dict(zip(objs, combo))
        if all(all(Yt[m.name][comps[m.dom].table[x]] == comps[m.cod].table[Xt[m.name][x]]
                   for x in comps[m.dom].table) for m in C.morphisms):
            out.append(SetNatTrans("t", X, Y, comps))
    out.sort(key=lambda t: t.key())
    return out


def ref_certify_finset(D: SetFunctor, direction: str, obj: FinSetObj, legs):
    objs = D.dom.sorted_objects()
    tables = _tables(D)
    arrows = [(m.dom, m.cod, tables[m.name]) for m in D.dom.morphisms]
    checked = 0
    signature = {}
    if direction == LIMIT:
        for e in obj.elements:
            k = tuple(legs[j](e) for j in objs)
            signature[k] = signature.get(k, 0) + 1
    for size in (1, 2):
        P = FinSetObj(tuple(f"p{i}" for i in range(size)))
        if direction == LIMIT:
            choices = [[t.table for t in all_maps(P, D.on_obj[j])] for j in objs]
        else:
            choices = [[t.table for t in all_maps(D.on_obj[j], P)] for j in objs]
        for combo in itertools.product(*choices):
            fam = dict(zip(objs, combo))
            if direction == LIMIT:
                natural = all(all(t[fam[a][p]] == fam[b][p] for p in P.elements)
                              for a, b, t in arrows)
            else:
                natural = all(all(fam[b][y] == fam[a][x] for x, y in t.items())
                              for a, b, t in arrows)
            if not natural:
                continue
            checked += 1
            if direction == LIMIT:
                n = 1
                for p in P.elements:
                    n *= signature.get(tuple(fam[j][p] for j in objs), 0)
            else:
                forced = {}
                clash = any(forced.setdefault(cls, fam[j][x]) != fam[j][x]
                            for j, leg in legs.items() for x, cls in leg.table.items())
                n = 0 if clash else len(P) ** sum(1 for e in obj.elements if e not in forced)
            if n != 1:
                return core.fail_report(checked, "limit-factorization",
                                        probe=str(P.sorted()), count=n)
    return core.ok_report(checked)


# ---------------------------------------------------------------------------
# Inputs

FIXTURES = [terminal_category(), walking_arrow(), parallel_pair(), discrete(2), z2_monoid(),
            chain(3)]


def _small_category(rng: random.Random, name: str, objects: int = 3) -> FinCat:
    if rng.random() < 0.5:
        return random_dag_category(rng, objects, 5, name=name)
    return random_preorder_category(rng, objects, name=name)


def _some(rng: random.Random, items, k: int):
    return items if len(items) <= k else rng.sample(items, k)


def _diagrams(seeds: int = 40):
    """Diagrams D: J -> C, from fixtures and from seeded random categories."""
    for J, C in itertools.product(FIXTURES[:4], FIXTURES):
        for D in enumerate_functors(J, C)[:6]:
            yield D
    for seed in range(seeds):
        rng = random.Random(7000 + seed)
        J, C = _small_category(rng, "J"), _small_category(rng, "C", 4)
        yield from _some(rng, enumerate_functors(J, C), 3)


def _bifunctors(seeds: int = 40):
    """(J, D) with D: op(J) x J -> C."""
    for J in (terminal_category(), walking_arrow(), discrete(2), z2_monoid()):
        for C in (walking_arrow(), chain(3), z2_monoid()):
            yield from ((J, D) for D in enumerate_functors(product(opposite(J), J), C)[:8])
    for seed in range(seeds):
        rng = random.Random(8000 + seed)
        J, C = _small_category(rng, "J", 2), _small_category(rng, "C")
        fs = enumerate_functors(product(opposite(J), J), C)
        yield from ((J, D) for D in _some(rng, fs, 3))


def _set_functor_pairs(seeds: int = 40):
    for C in FIXTURES:
        homs = [hom_functor(C, c, "covariant") for c in C.sorted_objects()]
        yield from itertools.product(homs, repeat=2)
    for seed in range(seeds):
        rng = random.Random(9000 + seed)
        C = random_dag_category(rng, 3, 5, name="C")
        gens = [m for m in C.nonidentity_mor_names() if "_" not in m]
        X = random_set_functor_on_free(rng, C, gens, 3, "X")
        Y = random_set_functor_on_free(rng, C, gens, 3, "Y")
        yield from ((X, Y), (Y, X), (X, X))
        P = random_preorder_category(rng, 3, name="P")
        yield random_representable_sum(rng, P, 3, "X"), random_representable_sum(rng, P, 3, "Y")


def _with_extra_element(direction: str, obj: FinSetObj, legs):
    """The (co)limit cone with one more apex element: a limit's copies its first
    element's leg values, a colimit's is reached by no leg."""
    bigger = FinSetObj(obj.elements + ("extra",))
    if direction == LIMIT:
        first = obj.elements[0]
        return bigger, {j: FinSetMap(bigger, leg.cod, {**leg.table, "extra": leg(first)})
                        for j, leg in legs.items()}
    return bigger, {j: FinSetMap(leg.dom, bigger, leg.table) for j, leg in legs.items()}


# ---------------------------------------------------------------------------
# The search itself

def _random_problem(rng: random.Random):
    slots = rng.randint(0, 4)
    choices = [list(range(rng.randint(0, 3))) for _ in range(slots)]
    constraints = []
    for n in range(rng.randint(0, 6)):
        read = tuple(sorted(rng.sample(range(slots), rng.randint(0, min(slots, 3)))))
        target = rng.randrange(3)
        constraints.append((read, (n, read, target)))
    return choices, constraints


def _passes(constraint, values) -> bool:
    _, read, target = constraint
    return sum(values[i] for i in read) % 3 != target


def test_search_meets_families_in_product_order_testing_each_constraint_once_per_path():
    rng = random.Random(31)
    reached = 0
    for _ in range(400):
        choices, constraints = _random_problem(rng)
        calls = Counter()

        def holds(c, values):
            n, read, _ = c
            # the values a constraint sees: its read slots are assigned, later ones not used
            calls[n, tuple(values[:max(read, default=-1) + 1])] += 1
            return _passes(c, values)

        got = list(search(choices, schedule(len(choices), constraints), holds))
        want = [v for v in itertools.product(*choices)
                if all(_passes(c, v) for _, c in constraints)]
        assert got == want
        assert all(k == 1 for k in calls.values()), calls
        # every constraint was tested on the prefix of every family found
        for v in got:
            for _, (n, read, _) in constraints:
                assert calls[n, v[:max(read, default=-1) + 1]] == 1
                reached += 1
    assert reached > 100


def test_constraints_on_no_slot_run_before_the_first_step():
    seen = []

    def holds(c, values):
        seen.append((c, tuple(values)))
        return c != "fail"

    due = schedule(2, [((), "first"), ((0,), "slot0"), ((), "second")])
    assert due == [["first", "second"], ["slot0"], []]
    assert list(search([[1], [2]], due, holds)) == [(1, 2)]
    assert seen[:2] == [("first", (None, None)), ("second", (None, None))]
    seen.clear()
    due = schedule(2, [((), "fail"), ((0,), "slot0")])
    assert list(search([[1], [2]], due, holds)) == []
    assert seen == [("fail", (None, None))]
    # no slots: the one empty family, if the slot-free constraints hold
    assert list(search([], schedule(0, [((), "first")]), holds)) == [()]
    assert list(search([], schedule(0, [((), "fail")]), holds)) == []


def test_functor_search_prunes_object_assignments_before_the_generators(monkeypatch):
    calls = []

    def counting(choices, due, holds):
        calls.append(len(choices))
        return search(choices, due, holds)

    monkeypatch.setattr(core, "search", counting)
    fs = enumerate_functors(chain(4), chain(4))
    # one object search, then one generator search per assignment it passes:
    # the 35 monotone maps, each the object part of exactly one functor
    assert calls[0] == 4 and len(calls) - 1 <= 35
    assert len(fs) == 35


# ---------------------------------------------------------------------------
# The sites against their references

def test_enumerate_cones_matches_product_filter():
    cases = 0
    for D in _diagrams():
        for direction in (LIMIT, COLIMIT):
            assert enumerate_cones(D, direction) == ref_enumerate_cones(D, direction), (D, direction)
            cases += 1
    assert cases > 200


def test_enumerate_wedges_matches_product_filter():
    cases = found = 0
    for J, D in _bifunctors():
        for side in ("end", "coend"):
            got = enumerate_wedges(D, J, side)
            assert [(w.apex, w.components) for w in got] == ref_enumerate_wedges(D, J, side)
            assert {w.direction for w in got} <= {"wedge" if side == "end" else "cowedge"}
            cases += 1
            found += bool(got)
    assert cases > 100 and found


def test_enumerate_set_naturals_matches_product_filter():
    cases = found = 0
    for X, Y in _set_functor_pairs():
        got = enumerate_set_naturals(X, Y)
        want = ref_enumerate_set_naturals(X, Y)
        assert [(t.name, t.key(), tuple(t.components.items())) for t in got] == \
            [(t.name, t.key(), tuple(t.components.items())) for t in want]
        cases += 1
        found += len(got)
    assert cases > 180 and found


def test_set_limit_certificate_matches_product_filter():
    failures = 0
    for seed in range(60):
        D = random_set_diagram(random.Random(seed), max_shape_objects=3, max_size=3)
        for direction in (LIMIT, COLIMIT):
            res = limit_finset(D, direction)
            legs = dict(res.cone.legs.components)
            want = ref_certify_finset(D, direction, res.object, legs)
            assert res.certificate == want and want.ok, (seed, direction)
            if res.object.elements:
                wrong = _with_extra_element(direction, res.object, legs)
                want = ref_certify_finset(D, direction, *wrong)
                assert _certify_finset(D, direction, *wrong) == want, (seed, direction)
                failures += not want.ok
    assert failures > 40
