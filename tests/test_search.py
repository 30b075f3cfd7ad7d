"""The family search and the enumerations that run on it.

core.search is checked directly against a filtered itertools.product, with
every constraint call counted, and, where slot candidates depend on the
prefix, against a filter over the flattened product.  Cones, wedges, Set
natural transformations and the Set (co)limit certificate are compared whole
against the product filters they replaced, kept here as references; the
one-search enumerations (functors, functor categories, cones and wedges)
also against the per-pair and per-apex searches they replaced.  On targets
that break the int view, the cone and wedge searches, which read composites
by name, still match theirs, and the functor and transformation searches
raise validate_category's error.  Functors and tabulated transformations are
compared with product references in tests/test_functor_category.py.
"""
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import fincat.core as core
from fincat.core import (
    FinCat,
    Functor,
    GuardExceeded,
    Mor,
    NatTrans,
    StructuralError,
    budget,
    canonical_functor_id,
    canonical_nat_id,
    composable_pairs,
    enumerate_functors,
    enumerate_nat_trans,
    functor_category,
    identity_nat,
    make_category,
    op_product,
    opposite,
    pair_id,
    product,
    schedule,
    search,
    validate_category,
    vcompose,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    all_maps,
    const_set_functor,
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
    random_category,
    random_dag_category,
    random_preorder_category,
    random_representable_sum,
    random_set_diagram,
    random_set_functor_on_free,
)
from helpers import functors_into_breaker, int_view_breakers, null_monoid


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
    Xt, Yt = X._tables, Y._tables
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
    tables = D._tables
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


# The per-apex and per-pair searches that one search per family replaced

def per_apex_cones(D: Functor, direction: str):
    C = D.cod if direction == LIMIT else opposite(D.cod)
    objs = D.dom.sorted_objects()
    due = [[(D.mor_map[m], a, b) if direction == LIMIT else (D.mor_map[m], b, a)
            for m, a, b in squares] for squares in D.dom._squares]

    def natural(cond, legs):
        u, a, b = cond
        return C.comp(u, legs[a]) == legs[b]

    return [(c, dict(zip(objs, legs))) for c in C.sorted_objects()
            for legs in search([C.hom(c, D.obj_map[j]) for j in objs], due, natural, "cones")]


def per_apex_wedges(D: Functor, J: FinCat, side: str):
    C = D.cod if side == "end" else opposite(D.cod)
    objs = J.sorted_objects()

    def condition(h, i, j):
        return (D.mor_map[pair_id(J.id_of(objs[i]), h)], i,
                D.mor_map[pair_id(h, J.id_of(objs[j]))], j)

    due = [[condition(h, i, j) if side == "end" else condition(h, j, i) for h, i, j in squares]
           for squares in J._squares]

    def wedge(cond, fam):
        u, i, v, j = cond
        return C.comp(u, fam[i]) == C.comp(v, fam[j])

    return [(c, dict(zip(objs, fam))) for c in C.sorted_objects()
            for fam in search([C.hom(c, D.obj_map[pair_id(j, j)]) for j in objs], due, wedge,
                              "wedges")]


def two_search_functors(C: FinCat, D: FinCat):
    """Object assignments first, then one generator search for each, by name."""
    objs, d_objs = C.sorted_objects(), D.sorted_objects()
    gens = C.nonidentity_mor_names()
    slot = {f: i for i, f in enumerate([C.id_of(a) for a in objs] + list(gens))}
    pairs = [(slot[g.name], slot[f.name], slot[C.comp(g.name, f.name)])
             for g, f in composable_pairs(C)]
    composites = schedule(len(slot), ((p, p) for p in pairs))
    out = []
    for choice in search([d_objs] * len(objs), C._squares,
                         lambda square, v: bool(D.hom(v[square[1]], v[square[2]])), "objects"):
        obj_map = dict(zip(objs, choice))
        choices = [(D.id_of(x),) for x in choice] + \
            [D.hom(obj_map[C.dom(f)], obj_map[C.cod(f)]) for f in gens]
        for images in search(choices, composites,
                             lambda p, v: D.comp(v[p[0]], v[p[1]]) == v[p[2]], "generators"):
            F = Functor("F", C, D, obj_map, dict(zip(slot, images)))
            out.append(Functor(canonical_functor_id(F), C, D, obj_map, F.mor_map))
    out.sort(key=lambda F: F.name)
    return out


def per_pair_nat_trans(F: Functor, G: Functor) -> list[NatTrans]:
    """One search over the components of F => G, by name, in id order."""
    D = F.cod

    def natural(square, v):
        m, a, b = square
        return D.comp(G.mor_map[m], v[a]) == D.comp(v[b], F.mor_map[m])

    found = [NatTrans("t", F, G, dict(zip(F.dom.sorted_objects(), fam))) for fam in search(
        [D.hom(x, y) for x, y in zip(F._obj_images, G._obj_images)], F.dom._squares, natural,
        "components")]
    return sorted(found, key=canonical_nat_id)


def per_pair_functor_category(C: FinCat, D: FinCat):
    """(objects, morphisms, transformations, identities, composites), with one
    search over the components for each pair of functors."""
    fs = two_search_functors(C, D)
    nats, mors = {}, []
    for F in fs:
        for G in fs:
            for t in per_pair_nat_trans(F, G):
                nats[canonical_nat_id(t)] = t
                mors.append(Mor(canonical_nat_id(t), F.name, G.name))
    identity = {F.name: canonical_nat_id(identity_nat(F)) for F in fs}
    composites = {(b.name, a.name): canonical_nat_id(vcompose(nats[b.name], nats[a.name]))
                  for b in mors for a in mors if a.cod == b.dom}
    return [F.name for F in fs], mors, _nat_rows(nats), identity, composites


def _nat_rows(nats):
    return [(tid, t.src.name, t.tgt.name, tuple(t.components.items())) for tid, t in nats.items()]


def _outcome(fn, *args):
    """fn(*args), or the message of the StructuralError it raises."""
    try:
        return fn(*args)
    except StructuralError as e:
        return ("StructuralError", str(e))


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

        got = list(search(choices, schedule(len(choices), constraints), holds, "problem"))
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
    assert list(search([[1], [2]], due, holds, "problem")) == [(1, 2)]
    assert seen[:2] == [("first", (None, None)), ("second", (None, None))]
    seen.clear()
    due = schedule(2, [((), "fail"), ((0,), "slot0")])
    assert list(search([[1], [2]], due, holds, "problem")) == []
    assert seen == [("fail", (None, None))]
    # no slots: the one empty family, if the slot-free constraints hold
    assert list(search([], schedule(0, [((), "first")]), holds, "problem")) == [()]
    assert list(search([], schedule(0, [((), "fail")]), holds, "problem")) == []


def _random_dependent_problem(rng: random.Random):
    """A problem whose slots are static lists or functions of the prefix."""
    choices, constraints = _random_problem(rng)
    for i in range(len(choices)):
        if rng.random() < 0.6:
            base, step = rng.randint(0, 2), rng.randint(1, 3)
            choices[i] = (lambda i, base, step: lambda v: list(
                range(base + sum(v[:i]) % step)))(i, base, step)
    return choices, constraints


def _flattened(choices, prefix=()):
    """Every family of a dependent product, in lexicographic candidate order."""
    i = len(prefix)
    if i == len(choices):
        yield prefix
        return
    slot = choices[i]
    for v in (slot(list(prefix) + [None] * (len(choices) - i)) if callable(slot) else slot):
        yield from _flattened(choices, prefix + (v,))


def test_search_with_prefix_dependent_slots_matches_a_filter_over_the_flattened_product():
    rng = random.Random(32)
    dynamic = found = 0
    for _ in range(600):
        choices, constraints = _random_dependent_problem(rng)
        calls, starts = Counter(), Counter()

        def holds(c, values):
            n, read, _ = c
            calls[n, tuple(values[:max(read, default=-1) + 1])] += 1
            return _passes(c, values)

        def counted(i, slot):
            def start(values):
                starts[i, tuple(values[:i])] += 1
                return slot(values)
            return start

        watched = [counted(i, c) if callable(c) else c for i, c in enumerate(choices)]
        got = list(search(watched, schedule(len(choices), constraints), holds, "problem"))
        want = [v for v in _flattened(choices) if all(_passes(c, v) for _, c in constraints)]
        # same families in the same order: the same `checked` count and first
        # counterexample for any test run over them
        assert got == want
        assert all(k == 1 for k in calls.values()), calls
        assert all(k == 1 for k in starts.values()), starts
        dynamic += bool(starts)
        found += len(got)
    assert dynamic > 200 and found > 300


def _charge(choices, due, holds):
    """The candidates of every slot start of a search, by brute force: each
    prefix that passes its tests starts the next slot once."""
    total, prefixes = 0, [()]
    for i, slot in enumerate(choices):
        nxt = []
        for p in prefixes:
            values = list(p) + [None] * (len(choices) - i)
            cands = slot(values) if callable(slot) else slot
            total += len(cands)
            for v in cands:
                values[i] = v
                if all(holds(c, values) for c in due[i + 1]):
                    nxt.append(p + (v,))
        prefixes = nxt
    return total


def test_the_guard_charges_each_slot_start_once_and_names_the_search():
    rng = random.Random(33)
    tripped = 0
    for _ in range(300):
        choices, constraints = _random_dependent_problem(rng)
        due = schedule(len(choices), constraints)
        if not all(choices) or not all(_passes(c, [None] * len(choices)) for c in due[0]):
            continue  # ends before any slot starts
        total = _charge(choices, due, lambda c, v: _passes(c, v))
        want = list(search(choices, due, _passes, "reference"))
        assert list(search(choices, due, _passes, "probe")) == want  # the default budget
        with budget(total):
            assert list(search(choices, due, _passes, "probe")) == want
            # the budget bounds each search on its own, not the block's total
            assert list(search(choices, due, _passes, "again")) == want
        if total:
            with budget(total - 1), pytest.raises(GuardExceeded) as err:
                list(search(choices, due, _passes, "probe"))
            assert str(err.value) == f"probe exceeds guard {total - 1}: {total} candidates charged"
            tripped += 1
    assert tripped > 100


def test_functor_search_prunes_object_assignments_before_the_generators(monkeypatch):
    calls, starts = [], Counter()

    def counting(choices, due, holds, *args):
        calls.append(len(choices))

        def counted(i, slot):
            def start(values):
                starts[i] += 1
                return slot(values)
            return start

        choices = [counted(i, c) if callable(c) else c for i, c in enumerate(choices)]
        return search(choices, due, holds, *args)

    monkeypatch.setattr(core, "search", counting)
    fs = enumerate_functors(chain(4), chain(4))
    # one search: 4 object slots, then 4 identities and 6 generators; the
    # first identity slot starts once per object assignment that passes, one
    # for each of the 35 monotone maps, each the object part of one functor
    assert calls == [14]
    assert starts[4] == 35 and len(fs) == 35


def test_functor_search_with_restricted_images_filters_the_full_list():
    """enumerate_functors(C, D, images) is the sublist, in the same order, of
    the functors sending each object a into images[a]; where the full search
    raises, so does the search given every image; and the search is charged
    only the images it is given."""
    rng = random.Random(6400)
    targets = [(f"random {k}", random_category(rng, 3, name="R")) for k in range(10)] + \
        list(int_view_breakers().items())
    seen = Counter()
    for label, D in targets:
        d_objs = D.sorted_objects()
        for C in _one_search_sources() + [random_category(rng, 3, name="S") for _ in range(3)]:
            full = _outcome(enumerate_functors, C, D)
            if isinstance(full, tuple):
                assert _outcome(enumerate_functors, C, D, {a: d_objs for a in C.objects}) == full
                seen["error"] += 1
                continue
            for _ in range(3):
                images = {a: [x for x in d_objs if rng.random() < 0.6] for a in C.objects}
                got = enumerate_functors(C, D, images)
                want = [F for F in full if all(F.obj_map[a] in images[a] for a in C.objects)]
                assert [(F.name, F.key()) for F in got] == [(F.name, F.key()) for F in want], \
                    (label, C.name, images)
                seen["compared"] += 1
                seen["kept"] += len(got)
                seen["dropped"] += len(full) - len(got)
    assert seen["compared"] > 200 and seen["kept"] > 200 and seen["dropped"] > 200, seen
    assert seen["error"], seen
    # every object at 0: 3 object, 3 identity and 3 generator slots of one candidate
    C, D = chain(3), chain(3)
    with budget(9):
        assert len(enumerate_functors(C, D, {a: ["0"] for a in C.objects})) == 1
    with budget(8), pytest.raises(GuardExceeded) as err:
        enumerate_functors(C, D, {a: ["0"] for a in C.objects})
    assert str(err.value) == "functor search chain3 -> chain3 exceeds guard 8: 9 candidates charged"


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


def _left_zero() -> FinCat:
    """The monoid {1, a, b} with xy = x for x, y in {a, b}."""
    return make_category("M", ["*"], [("a", "*", "*"), ("b", "*", "*")],
                         {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"})


def _non_thin_dags(count: int):
    rng = random.Random(6100)
    found = []
    while len(found) < count:
        C = random_dag_category(rng, 3, 6, name="N")
        if any(len(C.hom(a, b)) > 1 for a in C.objects for b in C.objects):
            found.append(C)
    return found


def _one_search_targets():
    """Monoids (one from randgen), non-thin DAGs, and targets that break the int view."""
    monoid = next(C for C in (random_category(random.Random(s), 3, name="R") for s in range(50))
                  if len(C.objects) == 1 and len(C.morphisms) > 1)
    return [("randgen monoid", monoid), ("left zero", _left_zero())] + \
        [(f"non-thin {k}", C) for k, C in enumerate(_non_thin_dags(3))] + \
        list(int_view_breakers().items())


def _one_search_sources():
    """Shapes, one with its objects listed out of sorted order, one with an
    isolated object after an arrow (an empty last slot must end a pair or an
    apex before the arrow's test reaches a missing entry) and one with no
    objects (no object slot filters a pair, so every target is admissible)."""
    return [terminal_category(), walking_arrow(), discrete(2), parallel_pair(), chain(3),
            make_category("2r", ["1", "0"], [("a", "0", "1")], {}),
            make_category("2+1", ["0", "1", "2"], [("a", "0", "1")], {}),
            make_category("empty", [], [], {})]


def _diagrams_into(J: FinCat, C: FinCat) -> list[Functor]:
    """The functors J -> C, or, where C is an int_view_breakers target whose
    int view, and so whose functor search, raises, those into the fixture C
    was edited from, read in C."""
    return functors_into_breaker(J, C) if C.name.endswith("!") else enumerate_functors(J, C)


def test_one_search_functors_and_functor_categories_match_per_pair_searches():
    """On complete targets the one-search enumerations give what the
    per-pair searches give.  On a target that breaks the int view each of
    them raises validate_category's StructuralError before yielding
    anything, for every source, also where a per-pair search would return
    values."""
    seen = Counter()
    breakers = int_view_breakers()
    for label, D in _one_search_targets():
        for C in _one_search_sources():
            if label in breakers:
                fault = _outcome(validate_category, D)
                assert isinstance(fault, tuple)
                assert _outcome(enumerate_functors, C, D) == fault, (label, C.name)
                assert _outcome(functor_category, C, D) == fault, (label, C.name)
                for F, G in itertools.product(_diagrams_into(C, D)[:4], repeat=2):
                    assert _outcome(enumerate_nat_trans, F, G) == fault, (label, F.name, G.name)
                    seen["transformation error"] += 1
                seen["search error"] += 1
                seen["per-pair values"] += not isinstance(_outcome(two_search_functors, C, D),
                                                          tuple)
                continue
            fs = enumerate_functors(C, D)
            ref = two_search_functors(C, D)
            assert [(F.name, F.key()) for F in fs] == [(F.name, F.key()) for F in ref]
            for F, G in itertools.product(fs[:12], repeat=2):
                got, want = enumerate_nat_trans(F, G), per_pair_nat_trans(F, G)
                assert _nat_rows({t.name: t for t in got}) == \
                    _nat_rows({t.name: t for t in want}), (label, F.name, G.name)
            if len(fs) > 12:
                continue
            fc = functor_category(C, D)
            got = (list(fc.cat.objects), list(fc.cat.morphisms), _nat_rows(fc.nats),
                   dict(fc.cat.identity), dict(fc.cat.compose))
            assert got == per_pair_functor_category(C, D), (label, C.name)
            seen["compared"] += 1
            seen["transformations"] += len(fc.nats)
    assert seen["compared"] > 30 and seen["transformations"] > 300, seen
    assert seen["search error"] == len(breakers) * len(_one_search_sources()), seen
    assert seen["per-pair values"] > 40 and seen["transformation error"] > 500, seen


def test_one_search_cones_and_wedges_match_per_apex_searches():
    seen = Counter()
    for label, C in _one_search_targets():
        for J in _one_search_sources():
            for D in _diagrams_into(J, C)[:30]:
                for direction in (LIMIT, COLIMIT):
                    got = _outcome(enumerate_cones, D, direction)
                    assert got == _outcome(per_apex_cones, D, direction), (label, D, direction)
                    seen["cone error" if isinstance(got, tuple) else "cones"] += 1
        for J in (terminal_category(), walking_arrow(), discrete(2)):
            for B in _diagrams_into(op_product(J), C)[:6]:
                for side in ("end", "coend"):
                    got = _outcome(enumerate_wedges, B, J, side)
                    want = _outcome(per_apex_wedges, B, J, side)
                    if not isinstance(got, tuple):
                        got = [(w.apex, w.components) for w in got]
                    assert got == want, (label, B, side)
                    seen["wedge error" if isinstance(got, tuple) else "wedges"] += 1
    assert seen["cones"] > 200 and seen["wedges"] > 100, seen
    assert seen["cone error"] and seen["wedge error"], seen


def test_an_apex_without_a_component_is_skipped_before_any_wedge_test():
    """Apex 1 has no arrow to B(2, 2), so its one wedge test, which reaches
    the missing c23.c12, is never made; apex 0 is a wedge."""
    J = make_category("2+1", ["0", "1", "2"], [("a", "0", "1")], {})
    P, c4 = op_product(J), chain(4)
    image = {pair_id("1", "0"): "1", pair_id("0", "0"): "2", pair_id("1", "1"): "2",
             pair_id("0", "1"): "3"}
    obj_map = {x: image.get(x, "0") for x in P.objects}
    B = Functor("B", P, int_view_breakers()["composite missing"], obj_map,
                {m.name: c4.hom(obj_map[m.dom], obj_map[m.cod])[0] for m in P.morphisms})
    want = per_apex_wedges(B, J, "end")
    assert [(w.apex, w.components) for w in enumerate_wedges(B, J, "end")] == want
    assert want == [("0", {"0": "c02", "1": "c02", "2": "id_0"})]


# ---------------------------------------------------------------------------
# Growth: every search draws on the budget, so an input whose families grow
# like a product stops at once.  N_k is helpers.null_monoid(k).

TESTS = pathlib.Path(__file__).resolve().parent
SRC = str(pathlib.Path(core.__file__).resolve().parent.parent)


def _stopped(code: str) -> str:
    """The GuardExceeded message that `code` ends with, run in a fresh
    interpreter, so that a search that stops drawing on the budget fails at
    the timeout instead of running to CI's job limit."""
    script = "\n".join([
        "from fincat.core import *", "from fincat.fixtures import chain, discrete",
        "from fincat.finset import FinSetObj, const_set_functor, enumerate_set_naturals",
        "from fincat.kan import kan_universal_check, weighted_limit",
        "from fincat.limits import limit_finset", "from helpers import null_monoid",
        "N4, N6 = null_monoid(4), null_monoid(6)",
        "def const(n, name, C=discrete(5)): return const_set_functor(C, FinSetObj(tuple("
        "f'{name}{i}' for i in range(n))), name)", "try:", "    " + code,
        "except GuardExceeded as err:", "    print(err)"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              [SRC, str(TESTS)])})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("code, message", [
    ("with budget(100): enumerate_functors(N6, N6)",
     "functor search N6 -> N6 exceeds guard 100: 106 candidates charged"),
    ("with budget(1000): functor_category(discrete(4), N4)",
     "transformation search [disc4,N4] exceeds guard 1000: 1004 candidates charged"),
    ("with budget(1000): F, = enumerate_functors(discrete(6), N4); "
     "kan_universal_check(F, identity_nat(F), identity_functor(discrete(6)), F)",
     "transformation search [disc6,N4] exceeds guard 1000: 1004 candidates charged"),
    # the transformation search charges 1,556; the composites are 1,296^2
    ("with budget(10**5): functor_category(discrete(4), N4)",
     "composite enumeration [disc4,N4]: 1679616 composable pairs exceeds guard 100000"),
    ("functor_category(discrete(5), N4)",
     "composite enumeration [disc5,N4]: 60466176 composable pairs exceeds guard 1000000"),
    # the functor search charges 283,140; the pairs are 6,435^2
    ("functor_category(chain(8), chain(8))",
     "functor pair enumeration [chain8,chain8]: 6435 x 6435 functors exceeds guard 1000000"),
    # each object's 10^6 maps pass alone; the five lists together do not
    ("enumerate_set_naturals(const(6, 'x'), const(10, 'y'))",
     "map enumeration for natural-family search x => y: 5000000 maps exceeds guard 1000000"),
    # the same for the Set certificates' per-object lists, each of 2^10 maps:
    # the colimit's probe cones into 2 elements, the weighted limit's decode
    # lists Set(W(c'), F(c)) and the weighted colimit's defining bijection
    ("with budget(1024): limit_finset(const(10, 'x'), 'colimit')",
     "map enumeration for colimit probe cone search over x: 5120 maps exceeds guard 1024"),
    ("with budget(1024): weighted_limit(const(10, 'w'), const(2, 'f'))",
     "map enumeration for end of Set(W-,f-): 25600 maps exceeds guard 1024"),
    ("with budget(1024): weighted_limit(const(1, 'w', opposite(discrete(5))), "
     "const(10, 'f'), 'colimit')",
     "map enumeration for weighted colimit defining bijection: 5120 maps exceeds guard 1024"),
], ids=["functors N6->N6", "functor category disc4->N4", "kan universal check disc6->N4",
        "composites disc4->N4", "composites disc5->N4", "functor pairs chain8->chain8",
        "set naturals disc5 6->10", "set colimit probes disc5 10", "weighted limit disc5 10->2",
        "weighted colimit disc5 10"])
def test_product_sized_searches_stop_at_the_budget(code, message):
    assert _stopped(code) == message


def test_the_budget_charges_the_search_not_a_guessed_product():
    """chain(8) -> chain(8) has 8^8 object assignments, more than the default
    budget, but its search charges 283,140 and finds the 6,435 monotone maps;
    the functors of N3 -> N3 are the 4^3 maps of the generators to the
    non-identities, and the constant one."""
    assert len(enumerate_functors(chain(8), chain(8))) == 6435
    with budget(283140):
        assert len(enumerate_functors(chain(8), chain(8))) == 6435
    with budget(283139), pytest.raises(GuardExceeded) as err:
        enumerate_functors(chain(8), chain(8))
    assert str(err.value) == \
        "functor search chain8 -> chain8 exceeds guard 283139: 283140 candidates charged"
    assert len(enumerate_functors(null_monoid(3), null_monoid(3))) == 4 ** 3 + 1
    # over discrete(2) the 27 + 27 component maps are checked before they are
    # listed, and the search, with no square to prune it, charges 27 + 27 x 27
    Z = const_set_functor(discrete(2), FinSetObj(("a", "b", "c")), "Z")
    with budget(53), pytest.raises(GuardExceeded) as err:
        enumerate_set_naturals(Z, Z)
    assert str(err.value) == \
        "map enumeration for natural-family search Z => Z: 54 maps exceeds guard 53"
    with budget(755), pytest.raises(GuardExceeded) as err:
        enumerate_set_naturals(Z, Z)
    assert str(err.value) == "natural-family search Z => Z exceeds guard 755: 756 candidates charged"
    with budget(756):
        assert len(enumerate_set_naturals(Z, Z)) == 3 ** 6
