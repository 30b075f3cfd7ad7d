"""Structural identity and immutability of the seven value classes."""
import os
import pathlib
import subprocess
import sys

import pytest

import fincat
from fincat.core import (
    FinCat, Functor, Keyed, NatTrans, StructuralError, functor_category, make_category, opposite,
)
from fincat.finset import (
    FinSetMap, FinSetObj, SetFunctor, SetNatTrans, all_maps, identity_map,
)
from fincat.fixtures import walking_arrow
from helpers import freed_by_refcount

SRC = str(pathlib.Path(fincat.__file__).resolve().parent.parent)
WALKING_ARROW = walking_arrow()


def _arrow_tables():
    return dict(WALKING_ARROW.identity), dict(WALKING_ARROW.compose)


def _arrow(identity, compose):
    """The walking arrow on caller-owned tables."""
    return FinCat("C", list(WALKING_ARROW.objects), list(WALKING_ARROW.morphisms),
                  identity, compose)


def _check_frozen(inputs, build, mutate, table):
    """Build a value from fresh dicts, mutate them, and check nothing moved."""
    args = inputs()
    v = build(*args)
    same = build(*inputs())
    k, h = v.key(), hash(v)
    mutate(*args)
    assert v == same and hash(v) == h == hash(same) and v.key() == k
    stored = table(v)
    with pytest.raises(TypeError):
        stored[next(iter(stored))] = "x"


def test_finsetobj_copies_its_elements():
    elems = ["x", "y"]
    X = FinSetObj(elems)
    h, k = hash(X), X.key()
    elems.append("z")
    assert X == FinSetObj(("y", "x")) and hash(X) == h and X.key() == k
    assert "x" in X and "z" not in X and X.sorted() == ("x", "y")
    with pytest.raises(TypeError):
        X.elements[0] = "z"


def test_fincat_tables_are_frozen():
    _check_frozen(_arrow_tables, _arrow,
                  lambda ident, comp: (ident.update({"0": "a"}), comp.clear()),
                  lambda C: C.compose)
    # an opposite is built without the constructor's copies
    op = opposite(WALKING_ARROW)
    for table in (op.identity, op.compose):
        with pytest.raises(TypeError):
            table[next(iter(table))] = "x"


def test_functor_tables_are_frozen():
    C = WALKING_ARROW
    _check_frozen(
        lambda: ({"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "a"}),
        lambda om, mm: Functor("I", C, C, om, mm),
        lambda om, mm: (om.update({"1": "0"}), mm.update({"a": "id_0"})),
        lambda F: F.mor_map)


def test_nattrans_components_are_frozen():
    C = WALKING_ARROW
    ident = Functor("I", C, C, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "a"})
    _check_frozen(
        lambda: ({"0": "id_0", "1": "id_1"},),
        lambda comps: NatTrans("t", ident, ident, comps),
        lambda comps: comps.update({"0": "a"}),
        lambda t: t.components)


def test_finsetmap_table_is_frozen():
    X, Y = FinSetObj(("x", "y")), FinSetObj(("u", "v"))
    _check_frozen(
        lambda: ({"x": "u", "y": "v"},),
        lambda tbl: FinSetMap(X, Y, tbl),
        lambda tbl: tbl.update({"x": "v"}),
        lambda f: f.table)


def _set_functor_inputs():
    X, Y = FinSetObj(("x",)), FinSetObj(("u", "v"))
    on_obj = {"0": X, "1": Y}
    on_mor = {"id_0": FinSetMap(X, X, {"x": "x"}), "id_1": FinSetMap(Y, Y, {"u": "u", "v": "v"}),
              "a": FinSetMap(X, Y, {"x": "u"})}
    return on_obj, on_mor


def test_setfunctor_tables_are_frozen():
    C = WALKING_ARROW
    _check_frozen(
        _set_functor_inputs,
        lambda oo, om: SetFunctor("S", C, oo, om),
        lambda oo, om: (oo.update({"0": FinSetObj(("z",))}),
                        om.update({"a": FinSetMap(oo["0"], oo["1"], {"z": "v"})})),
        lambda S: S.on_mor)


def test_setnattrans_components_are_frozen():
    C = WALKING_ARROW
    S = SetFunctor("S", C, *_set_functor_inputs())
    X, Y = S.on_obj["0"], S.on_obj["1"]
    _check_frozen(
        lambda: ({"0": FinSetMap(X, X, {"x": "x"}),
                  "1": FinSetMap(Y, Y, {"u": "u", "v": "v"})},),
        lambda comps: SetNatTrans("t", S, S, comps),
        lambda comps: comps.update({"1": FinSetMap(Y, Y, {"u": "v", "v": "v"})}),
        lambda t: t.components)


def test_equality_is_structural_and_ignores_names():
    C = WALKING_ARROW
    D = make_category("D", ["0", "1"], [("a", "0", "1")], {})
    assert C == D and hash(C) == hash(D) and C.key() == D.key()
    assert C != make_category("E", ["0", "1"], [("b", "0", "1")], {})
    assert C != FinSetObj(("0", "1")) and FinSetObj(("0",)) != ("0",)


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def test_invariants_hold_without_asserts():
    code = """
import sys
from fincat.core import Report, StructuralError, split_pair
assert False, "asserts are stripped under -O"
for attempt in (lambda: Report(False, 0, None), lambda: split_pair("ab,c")):
    try:
        attempt()
    except (ValueError, StructuralError):
        continue
    sys.exit("accepted an invalid value")
"""
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_functor_category_index_is_read_only():
    fc = functor_category(WALKING_ARROW, WALKING_ARROW)
    # the category's tables are wrapped, not copied, so the wrapper must hold
    for table in (fc.functors, fc.nats, fc.cat.identity, fc.cat.compose):
        with pytest.raises(TypeError):
            table[next(iter(table))] = None
    # the transformations are built once, on the first read
    assert fc.nats is fc.nats


def _maps_built_valid() -> list[FinSetMap]:
    """Maps from each constructor that skips validation: then, identity_map,
    inverse and all_maps, on nonempty sets and on the empty set."""
    X, Y, E = FinSetObj(("x", "y")), FinSetObj(("u", "v", "w")), FinSetObj(())
    f = FinSetMap(X, Y, {"x": "u", "y": "w"})
    g = FinSetMap(Y, X, {"u": "y", "v": "x", "w": "y"})
    swap = FinSetMap(X, X, {"x": "y", "y": "x"})
    cycle = FinSetMap(Y, Y, {"u": "v", "v": "w", "w": "u"})
    return [f.then(g), g.then(f), identity_map(Y), identity_map(E),
            swap.inverse(), cycle.inverse(), FinSetMap(E, E, {}).inverse(),
            *all_maps(X, Y), *all_maps(E, X), *all_maps(X, E)]


def test_maps_built_valid_match_the_public_constructor():
    built = _maps_built_valid()
    assert len(built) == 7 + 9 + 1 + 0
    assert built[5].table == {"v": "u", "w": "v", "u": "w"}
    for m in built:
        public = FinSetMap(m.dom, m.cod, dict(m.table))
        assert m == public and public == m
        assert hash(m) == hash(public) and m.key() == public.key()
        with pytest.raises(TypeError):
            m.table["x"] = "x"


def test_the_public_constructor_still_rejects_invalid_tables():
    X, Y = FinSetObj(("x", "y")), FinSetObj(("u",))
    for table, message in (({"x": "u"}, "not total at y"),
                           ({"x": "u", "y": "u", "z": "u"}, "foreign element z"),
                           ({"x": "u", "y": "v"}, "image v outside codomain")):
        with pytest.raises(StructuralError, match=message):
            FinSetMap(X, Y, table)
    collapse = FinSetMap(X, Y, {"x": "u", "y": "u"})
    with pytest.raises(StructuralError, match="not composable"):
        collapse.then(collapse)
    for not_bijective in (collapse, FinSetMap(X, X, {"x": "x", "y": "x"})):
        with pytest.raises(StructuralError, match="not invertible"):
            not_bijective.inverse()


def _is_listed(f: FinSetMap, maps: list[FinSetMap]) -> bool:
    return any(f is m for m in maps)


def test_listed_composites_are_the_maps_built_otherwise():
    # sizes 0-3, elements declared out of sorted order
    sets = [FinSetObj(()), FinSetObj(("b",)), FinSetObj(("y", "x")), FinSetObj(("w", "u", "v"))]
    homs = {(i, j): all_maps(X, Y) for i, X in enumerate(sets) for j, Y in enumerate(sets)}
    composites = 0
    for (i, j), fs in homs.items():
        for k in range(len(sets)):
            for f in fs:
                for g in homs[(j, k)]:
                    c = f.then(g)
                    built = FinSetMap(f.dom, g.cod, {x: g.table[y] for x, y in f.table.items()})
                    assert c == built and hash(c) == hash(built) and c.key() == built.key()
                    assert tuple(c.table.items()) == tuple(built.table.items())
                    assert c.dom is f.dom and c.cod is g.cod
                    assert _is_listed(c, homs[(i, k)])
                    composites += 1
    assert composites == 4 + 24 + 210 + 1440


def test_unlisted_maps_compose_as_before():
    X, Y, Z = FinSetObj(("c", "a", "b")), FinSetObj(("q", "p")), FinSetObj(("s", "r"))
    to_z, g = all_maps(X, Z), all_maps(Y, Z)[2]
    # a validated table keeps its own order, and the composite is built
    f = FinSetMap(X, Y, {"c": "p", "a": "q", "b": "p"})
    c = f.then(g)
    assert list(c.table.items()) == [("c", "s"), ("a", "r"), ("b", "s")]
    assert not _is_listed(c, to_z) and c == to_z[3]
    # a codomain equal to the listed one but another object gets no listed map
    Z2 = FinSetObj(("r", "s"))
    g2 = FinSetMap(Y, Z2, dict(g.table))
    f = all_maps(X, Y)[3]
    c = f.then(g2)
    assert c.cod is Z2 and c == FinSetMap(X, Z2, {"a": "s", "b": "r", "c": "r"})
    assert not _is_listed(c, to_z) and _is_listed(f.then(g), to_z)
    # once Z2 has a list of its own, composites into Z2 come from it
    to_z2 = all_maps(X, Z2)
    assert _is_listed(f.then(g2), to_z2) and _is_listed(f.then(g), to_z)


def test_a_hom_set_list_lives_as_long_as_one_of_its_maps():
    X, Y = FinSetObj(("a", "b")), FinSetObj(("p", "q"))
    f, idy = all_maps(X, Y)[1], all_maps(Y, Y)[1]
    # all_maps(X, Y) is gone but for f: composites are built again
    c = f.then(all_maps(Y, Y)[2])
    assert c is not f and c == FinSetMap(X, Y, {"a": "q", "b": "p"})
    assert f.then(idy) is f
    # a newer list replaces the entry, and the older one's death leaves it
    old = all_maps(X, Y)
    new = all_maps(X, Y)
    del old
    assert _is_listed(f.then(idy), new)
    # the record, its maps and the set's entry go by reference counting alone
    def make():
        maps = all_maps(X, Y) + all_maps(Y, X)
        return [*maps, maps[0]._hom, maps[-1]._hom]
    del f, c, idy, new
    assert freed_by_refcount(make) and X._hom_sets == {} and Y._hom_sets == {}
    # and so do the sets with their lists
    def make_sets():
        X, Y = FinSetObj(("a", "b")), FinSetObj(("p",))
        maps = all_maps(X, Y) + all_maps(Y, X) + all_maps(X, X)
        return [X, Y, *maps, maps[0].then(maps[1])]
    assert freed_by_refcount(make_sets)


def _fresh_values():
    """One maker per Keyed class; each call returns a fresh, never hashed value,
    equal to the maker's other values."""
    C = WALKING_ARROW
    ident = Functor("I", C, C, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "a": "a"})
    S = SetFunctor("S", C, *_set_functor_inputs())
    X = S.on_obj["1"]
    return [
        lambda: FinSetObj(("x", "y")),
        lambda: FinSetMap(X, X, {"u": "v", "v": "v"}),
        lambda: _maps_built_valid()[0],
        lambda: _arrow(*_arrow_tables()),
        lambda: Functor("I", C, C, {"0": "0", "1": "1"},
                        {"id_0": "id_0", "id_1": "id_1", "a": "a"}),
        lambda: NatTrans("t", ident, ident, {"0": "id_0", "1": "id_1"}),
        lambda: SetFunctor("S", C, *_set_functor_inputs()),
        lambda: SetNatTrans("t", S, S, {a: identity_map(V) for a, V in S.on_obj.items()}),
    ]


def test_first_hash_and_first_key_agree_in_either_order():
    makers = _fresh_values()
    assert {type(make()) for make in makers} == set(Keyed.__subclasses__())
    for make in makers:
        hashed_first, keyed_first = make(), make()
        h = hash(hashed_first)
        k = keyed_first.key()
        assert hashed_first.key() == k and hash(keyed_first) == h
        assert hash(hashed_first) == h and keyed_first.key() == k
        # equal values in different cache states compare equal both ways
        hashed, unhashed = make(), make()
        hash(hashed)
        assert hashed == unhashed and unhashed == hashed
        assert "_hash" in hashed.__dict__ and "_hash" not in unhashed.__dict__
