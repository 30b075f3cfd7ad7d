"""Functor categories and the enumerations under them, against the
straightforward versions kept here as references: every node of the functor
search rescans every composable pair, every transformation is named by
canonical_nat_id, every composite is built by vcompose, and associativity is
checked through FinCat.comp.  Whole results are compared: ids, order, names,
composition tables and validate_category Reports with their `checked` counts.
"""
import itertools
import random

import pytest

from fincat.core import (
    FinCat,
    Functor,
    IntView,
    Mor,
    NatTrans,
    StructuralError,
    canonical_functor_id,
    canonical_nat_id,
    composable_pairs,
    enumerate_functors,
    enumerate_nat_trans,
    fail_report,
    functor_category,
    identity_nat,
    make_category,
    ok_report,
    validate_category,
    validate_functor,
    vcompose,
)
from fincat.fixtures import (
    chain,
    discrete,
    parallel_pair,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.randgen import random_dag_category, random_preorder_category
from helpers import edited, functors_into_breaker, int_view_breakers


# ---------------------------------------------------------------------------
# References

def ref_enumerate_functors(C: FinCat, D: FinCat) -> list[Functor]:
    objs = C.sorted_objects()
    d_objs = D.sorted_objects()
    gens = C.nonidentity_mor_names()
    pairs = [(g.name, f.name) for g, f in composable_pairs(C)]
    out = []
    for choice in itertools.product(d_objs, repeat=len(objs)):
        obj_map = dict(zip(objs, choice))
        mor_map = {C.id_of(a): D.id_of(obj_map[a]) for a in objs}

        def extend(i: int):
            if i == len(gens):
                for g, f in pairs:
                    gf = C.comp(g, f)
                    if D.comp(mor_map[g], mor_map[f]) != mor_map[gf]:
                        return
                out.append(Functor("F", C, D, obj_map, mor_map))
                return
            f = gens[i]
            m = C.mor[f]
            for u in D.hom(obj_map[m.dom], obj_map[m.cod]):
                mor_map[f] = u
                ok = True
                for g2, f2 in pairs:
                    if g2 in mor_map and f2 in mor_map:
                        gf = C.comp(g2, f2)
                        if gf in mor_map and D.comp(mor_map[g2], mor_map[f2]) != mor_map[gf]:
                            ok = False
                            break
                if ok:
                    extend(i + 1)
                del mor_map[f]

        extend(0)
    out = [Functor(canonical_functor_id(F), C, D, F.obj_map, F.mor_map) for F in out]
    out.sort(key=lambda F: F.name)
    return out


def ref_enumerate_nat_trans(F: Functor, G: Functor) -> list[NatTrans]:
    C, D = F.dom, F.cod
    objs = C.sorted_objects()
    mors = [C.mor[m] for m in C.sorted_mor_names()]
    out = []
    comps = {}

    def extend(i: int):
        if i == len(objs):
            out.append(NatTrans("t", F, G, comps))
            return
        a = objs[i]
        for u in D.hom(F.obj_map[a], G.obj_map[a]):
            comps[a] = u
            ok = True
            for m in mors:
                if m.dom in comps and m.cod in comps:
                    if D.comp(G.mor_map[m.name], comps[m.dom]) != \
                            D.comp(comps[m.cod], F.mor_map[m.name]):
                        ok = False
                        break
            if ok:
                extend(i + 1)
            del comps[a]

    extend(0)
    return sorted(out, key=canonical_nat_id)


def ref_functor_category(C: FinCat, D: FinCat):
    fs = ref_enumerate_functors(C, D)
    functors = {F.name: F for F in fs}
    nats = {}
    mors = []
    for F in fs:
        for G in fs:
            for t in ref_enumerate_nat_trans(F, G):
                tid = canonical_nat_id(t)
                nats[tid] = t
                mors.append(Mor(tid, F.name, G.name))
    identity = {F.name: canonical_nat_id(identity_nat(F)) for F in fs}
    table = {}
    for m in mors:
        for n in mors:
            if n.cod == m.dom:
                table[(m.name, n.name)] = canonical_nat_id(vcompose(nats[m.name], nats[n.name]))
    cat = FinCat(f"[{C.name},{D.name}]", tuple(F.name for F in fs), tuple(mors), identity, table)
    return cat, functors, nats


def ref_validate_category(C: FinCat):
    for a, i in C.identity.items():
        if a not in C.objects:
            raise StructuralError(f"{C.name}: identity table names unknown object {a}")
        if i not in C.mor:
            raise StructuralError(f"{C.name}: identity {i} of {a} is not a morphism")
    for m in C.morphisms:
        if m.dom not in C.objects or m.cod not in C.objects:
            raise StructuralError(f"{C.name}: morphism {m.name} has unresolved endpoints")
    for a in C.objects:
        if a not in C.identity:
            raise StructuralError(f"{C.name}: object {a} has no identity morphism")
    for (g, f), h in C.compose.items():
        if g not in C.mor or f not in C.mor or h not in C.mor:
            raise StructuralError(f"{C.name}: composition entry ({g},{f})={h} has unresolved ids")
        if C.mor[f].cod != C.mor[g].dom:
            raise StructuralError(f"{C.name}: composition entry for non-composable pair ({g},{f})")
        if C.mor[h].dom != C.mor[f].dom or C.mor[h].cod != C.mor[g].cod:
            raise StructuralError(f"{C.name}: composite {h} of ({g},{f}) has wrong endpoints")

    for a, i in C.identity.items():
        if not (C.mor[i].dom == a and C.mor[i].cod == a):
            raise StructuralError(f"{C.name}: identity {i} of {a} has wrong endpoints")
    checked = 0
    pair_list = list(composable_pairs(C))
    for g, f in pair_list:
        if (g.name, f.name) not in C.compose:
            raise StructuralError(
                f"{C.name}: incomplete composition table, missing ({g.name},{f.name})")
        checked += 1
    for m in C.morphisms:
        if C.comp(m.name, C.identity[m.dom]) != m.name:
            return fail_report(checked, "unit", morphism=m.name, side="right")
        if C.comp(C.identity[m.cod], m.name) != m.name:
            return fail_report(checked, "unit", morphism=m.name, side="left")
    for h in C.morphisms:
        for g in C._into.get(h.dom, ()):
            for f in C._into.get(g.dom, ()):
                checked += 1
                if C.comp(h.name, C.comp(g.name, f.name)) != C.comp(C.comp(h.name, g.name), f.name):
                    return fail_report(checked, "associativity", h=h.name, g=g.name, f=f.name)
    return ok_report(checked)


# ---------------------------------------------------------------------------
# Inputs

def _broken(D: FinCat, rng: random.Random) -> FinCat | None:
    """D with one composite g.f of non-identities that lies on a path of three
    arrows replaced by another morphism with the same ends, or None if D has
    no such entry."""
    def on_a_path(g: str, f: str) -> bool:
        return any(not D.is_identity(m.name) and (m.dom == D.cod(g) or m.cod == D.dom(f))
                   for m in D.morphisms)

    entries = [(k, h) for k, h in sorted(D.compose.items())
               if not D.is_identity(k[0]) and not D.is_identity(k[1])
               and len(D.hom(D.dom(h), D.cod(h))) > 1 and on_a_path(*k)]
    if not entries:
        return None
    (g, f), h = rng.choice(entries)
    other = rng.choice([x for x in D.hom(D.dom(h), D.cod(h)) if x != h])
    return FinCat(D.name + "!", D.objects, D.morphisms, D.identity,
                  {**D.compose, (g, f): other})


def _left_zero() -> FinCat:
    """The monoid {1, a, b} with xy = x for x, y in {a, b}."""
    return make_category("M", ["*"], [("a", "*", "*"), ("b", "*", "*")],
                         {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"})


def _not_associative() -> FinCat:
    """_left_zero with ab = 1: (ab)a = a but a(ba) = ab = 1."""
    lz = _left_zero()
    return FinCat("M!", lz.objects, lz.morphisms, lz.identity, {**lz.compose, ("a", "b"): "id_*"})


def _edge_cases() -> list[FinCat]:
    """Targets whose names or tables reach the orders and tests the search
    relies on: a composite named after both its factors, arrow ids of which
    one is a prefix of the other (ids sort with their closing bracket), an
    identity whose composite with itself is wrong, and a left unit law that
    fails on a non-identity arrow, where the naturality square of an
    identity rejects a component."""
    late = make_category("L", ["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2"), ("z", "0", "2")],
                         {("b", "a"): "z"})
    prefix = make_category("P2", ["0", "1"], [("f", "0", "1"), ("f2", "0", "1")], {})
    unit = make_category("U", ["*"], [("e", "*", "*")],
                         {("e", "e"): "e", ("id_*", "id_*"): "e"})
    left = make_category("U2", ["*"], [("e", "*", "*")],
                         {("id_*", "e"): "id_*", ("e", "e"): "e"})
    return [late, prefix, unit, left]


def _pairs():
    """(C, D) pairs: fixtures, seeded random categories, and broken targets."""
    fixed = [terminal_category(), walking_arrow(), parallel_pair(), discrete(2), z2_monoid(),
             chain(3)]
    for C, D in itertools.product(fixed[:4], fixed):
        yield C, D
    yield discrete(2), chain(4)
    for D in _edge_cases():
        for C in (terminal_category(), walking_arrow(), parallel_pair(), D):
            yield C, D
    lz = _left_zero()
    yield walking_arrow(), lz
    yield chain(3), lz
    broken = _not_associative()
    yield walking_arrow(), broken
    yield z2_monoid(), broken
    rng = random.Random(4242)
    for k in range(40):
        C = random_dag_category(rng, 3, 4, name="C") if k % 2 \
            else random_preorder_category(rng, 3, name="C")
        D = random_dag_category(rng, 3, 6, name="D") if rng.random() < 0.5 \
            else random_preorder_category(rng, 3, name="D")
        yield C, D
        # a broken entry of a free category can fail associativity only on
        # paths of three arrows, so four objects
        bad = _broken(random_dag_category(rng, 4, 12, name="D"), rng)
        if bad is not None:
            yield C, bad


def _functor_rows(fs):
    return [(F.name, F.key(), tuple(F.obj_map.items()), tuple(F.mor_map.items())) for F in fs]


def _nat_rows(ts):
    return [(t.name, t.key(), tuple(t.components.items())) for t in ts]


def _validated(validate, C: FinCat):
    try:
        return validate(C)
    except StructuralError as e:
        return ("StructuralError", str(e))


# ---------------------------------------------------------------------------
# Tests

def _functor_category_rows(cat, functors, nats):
    return (cat.name, cat.objects, cat.morphisms, list(cat.identity.items()),
            list(cat.compose.items()), list(functors), _functor_rows(functors.values()),
            list(nats), _nat_rows(nats.values()))


def _compare_functor_category(fc, ref):
    assert _functor_category_rows(fc.cat, fc.functors, fc.nats) == _functor_category_rows(*ref)


def _outcome(fn, *args):
    """fn(*args), or the message of the StructuralError it raises."""
    try:
        return fn(*args)
    except StructuralError as e:
        return ("StructuralError", str(e))


def test_functor_category_matches_reference():
    seen = {"unresolved": 0, "associativity": 0, "ok": 0}
    cases = 0
    for C, D in _pairs():
        cases += 1
        fs = enumerate_functors(C, D)
        assert _functor_rows(fs) == _functor_rows(ref_enumerate_functors(C, D)), (C, D)
        assert all(F.name == canonical_functor_id(F) for F in fs)
        targets = [D]
        if len(fs) <= 12:
            fc = functor_category(C, D)
            targets.append(fc.cat)
            _compare_functor_category(fc, ref_functor_category(C, D))
            for F in fs:
                for G in fs:
                    assert _nat_rows(enumerate_nat_trans(F, G)) == \
                        _nat_rows(ref_enumerate_nat_trans(F, G))
        for X in targets:
            got = _validated(validate_category, X)
            assert got == _validated(ref_validate_category, X), X
            if isinstance(got, tuple):
                # a composite that is not among the transformations
                seen["unresolved"] += 1
            elif got.ok:
                seen["ok"] += 1
            else:
                seen[got.counterexample.law] = seen.get(got.counterexample.law, 0) + 1
    assert cases > 60
    assert seen["ok"] and seen["associativity"] and seen["unresolved"], seen


def test_enumerate_nat_trans_rejects_functors_that_are_not_parallel():
    two = walking_arrow()
    F = Functor("F", two, chain(3), {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a": "c01"})
    G = Functor("G", two, chain(2), {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a": "c01"})
    with pytest.raises(StructuralError, match="not parallel"):
        enumerate_nat_trans(F, G)
    H = Functor("H", z2_monoid(), chain(3), {"*": "0"}, {"id_*": "id_0", "s": "id_0"})
    with pytest.raises(StructuralError, match="not parallel"):
        enumerate_nat_trans(F, H)


def test_targets_that_break_the_int_view_match_the_reference():
    """Composites that are no morphism of D, missing entries that a
    naturality square reaches, and missing entries that only a composite of
    two transformations reaches: validate_category gives the reference's
    StructuralError, and the three searches raise that same error before
    yielding anything, in sources whose objects are listed in and out of
    sorted order, also where the reference searches return values.  A
    functor that sends an arrow outside D gets validate_functor's error."""
    sources = [terminal_category(), walking_arrow(), discrete(2), chain(3),
               make_category("2r", ["1", "0"], [("a", "0", "1")], {}),
               make_category("disc2r", ["d1", "d0"], [], {})]
    seen = set()
    for label, D in int_view_breakers().items():
        fault = _outcome(validate_category, D)
        assert isinstance(fault, tuple) and fault == _outcome(ref_validate_category, D)
        for C in sources:
            assert _outcome(enumerate_functors, C, D) == fault, (label, C.name)
            assert _outcome(functor_category, C, D) == fault, (label, C.name)
            fs = functors_into_breaker(C, D)
            for F in fs:
                for G in fs:
                    assert _outcome(enumerate_nat_trans, F, G) == fault, (label, F.name, G.name)
                    if not isinstance(_outcome(ref_enumerate_nat_trans, F, G), tuple):
                        seen.add(("reference transformations", label))
            if not isinstance(_outcome(ref_enumerate_functors, C, D), tuple):
                seen.add(("reference functors", label))
    assert {("reference functors", "one ghost"), ("reference functors", "chain missing"),
            ("reference transformations", "equal ghosts"),
            ("reference transformations", "composite missing")} <= seen, seen
    # a map whose image is no id of D
    c3 = chain(3)
    F = Functor("F", walking_arrow(), c3, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a": "c01"})
    G = Functor("G", walking_arrow(), c3, F.obj_map, {**F.mor_map, "a": "nowhere"})
    assert _outcome(enumerate_nat_trans, F, G) == _outcome(validate_functor, G) \
        == ("StructuralError", "G: morphism map sends a outside chain3")


def _one_object(*entries) -> FinCat:
    """The monoid {1, s, t} with xy = x for x, y in {s, t}, then the given
    entries over it."""
    M = make_category("M", ["*"], [("s", "*", "*"), ("t", "*", "*")],
                      {("s", "s"): "s", ("s", "t"): "s", ("t", "s"): "t", ("t", "t"): "t"})
    return edited(M, dict(entries))


def test_validate_category_counterexamples_carry_ids():
    cases = [
        (_one_object((("t", "id_*"), "s")), 9, "unit", {"morphism": "t", "side": "right"}),
        (_one_object((("id_*", "t"), "s")), 9, "unit", {"morphism": "t", "side": "left"}),
        (_one_object((("s", "t"), "id_*")), 24, "associativity", {"h": "s", "g": "s", "f": "t"}),
    ]
    for C, checked, law, details in cases:
        got = validate_category(C)
        assert got == ref_validate_category(C) == fail_report(checked, law, **details)
        assert all(type(v) is str for v in got.counterexample.details.values())


def test_supplied_functors_that_move_identities_keep_their_identity_squares():
    """A functor that sends the identity to an idempotent, into a lawful
    target: the identity's naturality square rejects a component."""
    M = _left_zero()
    F = Functor("F", terminal_category(), M, {"*": "*"}, {"id_*": "a"})
    got = enumerate_nat_trans(F, F)
    assert [t.components["*"] for t in got] == ["a", "id_*"]
    assert _nat_rows(got) == _nat_rows(ref_enumerate_nat_trans(F, F))


def _count_int_view_builds(monkeypatch) -> list:
    builds = []
    build = IntView.__init__

    def counted(self, C):
        builds.append(C.name)
        build(self, C)

    monkeypatch.setattr(IntView, "__init__", counted)
    return builds


def test_a_functor_category_into_a_lawful_target_is_born_with_its_int_view(monkeypatch):
    for C, D in [(discrete(2), chain(4)), (walking_arrow(), z2_monoid()),
                 (parallel_pair(), chain(3)), (walking_arrow(), _left_zero())]:
        fc = functor_category(C, D)
        builds = _count_int_view_builds(monkeypatch)
        got = validate_category(fc.cat)
        monkeypatch.undo()
        assert builds == [] and got.ok, (C.name, D.name)
        assert got == ref_validate_category(fc.cat)


def test_a_functor_category_into_a_broken_target_builds_its_int_view_on_first_use(monkeypatch):
    """A composite that is no transformation (D not associative) and an
    identity that is none (a unit law of D fails)."""
    left = _edge_cases()[3]
    for C, D, fault in [(walking_arrow(), _not_associative(), "has unresolved ids"),
                        (left, left, "is not a morphism")]:
        fc = functor_category(C, D)
        builds = _count_int_view_builds(monkeypatch)
        got = _validated(validate_category, fc.cat)
        monkeypatch.undo()
        assert builds == [fc.cat.name]
        assert got == _validated(ref_validate_category, fc.cat)
        assert got[0] == "StructuralError" and got[1].endswith(fault), got


def test_a_functor_category_compose_table_is_formatted_on_first_read():
    fc = functor_category(discrete(2), chain(4))
    table = fc.cat.compose
    assert len(table) == sum(1 for _ in composable_pairs(fc.cat)) == 400
    assert "_entries" not in vars(table)  # the length needs no entry
    assert list(table.items()) == list(ref_functor_category(discrete(2), chain(4))[0]
                                       .compose.items())
