"""Structural identity and immutability of the seven value classes."""
import os
import pathlib
import subprocess
import sys

import pytest

import fincat
from fincat.core import (
    FinCat, Functor, Keyed, NatTrans, StructuralError, functor_category, make_category,
)
from fincat.finset import (
    FinSetMap, FinSetObj, SetFunctor, SetNatTrans, all_maps, identity_map,
)
from fincat.fixtures import walking_arrow

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
    for table in (fc.functors, fc.nats):
        with pytest.raises(TypeError):
            table[next(iter(table))] = None


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
