import itertools
import random

import pytest

from fincat.core import (
    Functor,
    GuardExceeded,
    budget,
    fail_report,
    functor_category,
    identity_functor,
    ok_report,
    pair_id,
    product,
    validate_natural,
)
from fincat.finset import FinSetMap, FinSetObj, SetFunctor, all_maps, validate_set_functor
from fincat.fixtures import (
    chain,
    discrete,
    empty_category,
    parallel_pair,
    pick_object,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.limits import (
    COLIMIT,
    LIMIT,
    UnionFind,
    _certify_finset,
    interchange_check,
    interchange_check_finset,
    limit,
    limit_finset,
    limit_functor,
    preservation_check,
)
from fincat.randgen import random_set_diagram


def make_set_diagram(J, sizes, maps):
    """Helper: SetFunctor on J with given per-object sizes and per-arrow tables."""
    on_obj = {j: FinSetObj(tuple(f"{j}e{i}" for i in range(n))) for j, n in sizes.items()}
    on_mor = {}
    for j in J.objects:
        on_mor[J.id_of(j)] = FinSetMap(on_obj[j], on_obj[j],
                                       {x: x for x in on_obj[j].elements})
    for f, table in maps.items():
        m = J.mor[f]
        on_mor[f] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor("D", J, on_obj, on_mor)


def test_limit_trivial_shapes():
    two = walking_arrow()
    one = terminal_category()
    D = pick_object(two, "1")
    res = limit(D, LIMIT)
    assert res.object == "1"
    assert res.certificate.ok
    # over the poset 2, the limit of the discrete pair {0,1} is the meet 0
    d2 = discrete(2)
    D2 = Functor("pair", d2, two, {"d0": "0", "d1": "1"},
                 {"id_d0": "id_0", "id_d1": "id_1"})
    assert limit(D2, LIMIT).object == "0"
    assert limit(D2, COLIMIT).object == "1"


def test_limit_absent_for_unequalized_pair():
    # three objects x, y, z with two parallel arrows x -> y and nothing to
    # equalize them: no cone exists except from z... build explicitly
    from fincat.core import make_category
    C = make_category("noeq", ["x", "y"],
                      [("u", "x", "y"), ("v", "x", "y")], {})
    pp = parallel_pair()
    D = Functor("D", pp, C, {"0": "x", "1": "y"},
                {"id_0": "id_x", "id_1": "id_y", "u": "u", "v": "v"})
    assert limit(D, LIMIT) is None


def test_empty_diagram_limits_are_extremal_objects():
    two = walking_arrow()
    E = empty_category()
    D = Functor("empty", E, two, {}, {})
    assert limit(D, LIMIT).object == "1"     # terminal
    assert limit(D, COLIMIT).object == "0"   # initial


def test_limit_finset_equalizer_and_coequalizer():
    pp = parallel_pair()
    sizes = {"0": 3, "1": 3}
    ident = {f"0e{i}": f"1e{i}" for i in range(3)}
    swap = {"0e0": "1e1", "0e1": "1e0", "0e2": "1e2"}
    D = make_set_diagram(pp, sizes, {"u": ident, "v": swap})
    assert validate_set_functor(D).ok
    # tuple-filter oracle for the equalizer
    oracle = [x for x in range(3) if ident[f"0e{x}"] == swap[f"0e{x}"]]
    res = limit_finset(D, LIMIT)
    assert len(res.object) == len(oracle) == 1
    assert res.certificate.ok
    # independent closure oracle for the coequalizer: smallest equivalence on
    # D(1) with ident(x) ~ swap(x), computed by naive fixpoint iteration
    rel = {frozenset((ident[k], swap[k])) for k in ident if ident[k] != swap[k]}
    classes = {frozenset((f"1e{i}",)) for i in range(3)}
    changed = True
    while changed:
        changed = False
        for r in list(rel):
            hit = [c for c in classes if c & r]
            merged = frozenset().union(*hit)
            if len(hit) > 1:
                classes = {c for c in classes if not (c & r)} | {merged}
                changed = True
    res2 = limit_finset(D, COLIMIT)
    # colimit classes that came from D(1) only (D(0) elements glue onto them)
    assert len(res2.object) == len(classes) == 2
    assert res2.certificate.ok


def test_limit_finset_product_count():
    d2 = discrete(2)
    D = make_set_diagram(d2, {"d0": 2, "d1": 3}, {})
    assert len(limit_finset(D, LIMIT).object) == 6
    assert len(limit_finset(D, COLIMIT).object) == 5


def test_limit_finset_empty_shape():
    E = empty_category()
    D = SetFunctor("nothing", E, {}, {})
    assert len(limit_finset(D, LIMIT).object) == 1
    assert len(limit_finset(D, COLIMIT).object) == 0


def test_limit_functor_over_poset():
    two = walking_arrow()
    res = limit_functor(two, two)
    assert res.missing is None
    F = res.functor
    assert set(F.obj_map.values()) <= set(two.objects)
    from fincat.core import validate_functor
    assert validate_functor(F).ok
    # every chosen limit cone certifies
    for Did, cone in res.counit.items():
        assert validate_natural(cone).ok
    # J = 1: lim agrees with evaluation at the unique object
    one = terminal_category()
    res1 = limit_functor(one, two)
    assert res1.missing is None
    fc1 = res1.functor.dom
    for Did in fc1.objects:
        picked = Did.split("↦")[1]
        assert res1.functor.obj_map[Did] == picked


def test_limit_functor_functoriality_against_pairs():
    two = walking_arrow()
    res = limit_functor(two, two)
    F = res.functor
    FC = F.dom
    for m in FC.morphisms:
        for n in FC.morphisms:
            if n.cod != m.dom:
                continue
            assert F.mor_map[FC.comp(m.name, n.name)] == \
                two.comp(F.mor_map[m.name], F.mor_map[n.name])


def test_limit_functor_missing_case():
    # discrete-2 has no binary products in the parallel-pair-shaped target
    from fincat.core import make_category
    C = make_category("noprod", ["x", "y"], [], {})
    d2 = discrete(2)
    res = limit_functor(d2, C)
    assert res.functor is None and res.missing is not None


def test_limit_functor_budget_caps_its_functor_enumeration_and_cone_searches():
    # discrete(2) -> Z/2 has one functor, whose search charges 2 by its second
    # object slot; given the functor category, its cone search charges 3
    d2, z2 = discrete(2), z2_monoid()
    fc = functor_category(d2, z2)
    (D,) = fc.functors.values()
    with budget(1):
        with pytest.raises(GuardExceeded) as err:
            limit_functor(d2, z2)
        assert str(err.value) == "functor search disc2 -> Z2 exceeds guard 1: 2 candidates charged"
        with pytest.raises(GuardExceeded) as err:
            limit_functor(d2, z2, fc=fc)
    assert str(err.value) == f"limit cone search over {D.name} exceeds guard 1: 3 candidates charged"
    res = limit_functor(d2, z2)
    assert res.functor is None and res.missing == D.name


def test_preservation_identity_and_failure():
    two = walking_arrow()
    one = terminal_category()
    # identity preserves everything
    d2 = discrete(2)
    D = Functor("pair", d2, two, {"d0": "0", "d1": "1"},
                {"id_d0": "id_0", "id_d1": "id_1"})
    assert preservation_check(identity_functor(two), D, LIMIT).ok
    # collapsing functor fails to preserve the empty colimit (initial object)
    E = empty_category()
    De = Functor("empty", E, two, {}, {})
    collapse = Functor("collapse", two, two, {"0": "1", "1": "1"},
                       {"id_0": "id_1", "id_1": "id_1", "a": "id_1"})
    rep = preservation_check(collapse, De, COLIMIT)
    assert not rep.ok
    # right adjoint fixture: pick-terminal 1 -> 2 preserves limits of anything
    G = pick_object(two, "1", "G")
    for shape in (d2, E, two):
        fc = functor_category(shape, one)
        for Did in fc.cat.objects:
            Dg = fc.functors[Did]
            if limit(Dg, LIMIT) is not None:
                assert preservation_check(G, Dg, LIMIT).ok


def test_interchange_trivial_and_poset():
    one = terminal_category()
    two = walking_arrow()
    P = product(one, one)
    D = Functor("point", P, two, {pair_id("*", "*"): "1"},
                {pair_id("id_*", "id_*"): "id_1"})
    w = interchange_check(D, one, one, LIMIT)
    assert w.report.ok
    assert w.outer_first == w.joint == w.inner_first == "1"
    # 2x2 diagram in the chain-3 poset: meets interchange
    C3 = chain(3)
    twotwo = product(two, two)
    obj_map = {pair_id("0", "0"): "0", pair_id("0", "1"): "1",
               pair_id("1", "0"): "1", pair_id("1", "1"): "2"}
    mor_map = {}
    for m in two.morphisms:
        for n in two.morphisms:
            src = obj_map[pair_id(m.dom, n.dom)]
            tgt = obj_map[pair_id(m.cod, n.cod)]
            mor_map[pair_id(m.name, n.name)] = \
                C3.id_of(src) if src == tgt else f"c{src}{tgt}"
    D2 = Functor("grid", twotwo, C3, obj_map, mor_map)
    from fincat.core import validate_functor
    assert validate_functor(D2).ok
    w2 = interchange_check(D2, two, two, LIMIT)
    assert w2.report.ok
    assert w2.outer_first == w2.joint == w2.inner_first == "0"


def test_interchange_finset_product_sizes():
    d2 = discrete(2)
    P = product(d2, d2)
    sizes = {pair_id("d0", "d0"): 2, pair_id("d0", "d1"): 3,
             pair_id("d1", "d0"): 4, pair_id("d1", "d1"): 5}
    on_obj = {o: FinSetObj(tuple(f"x{i}" for i in range(n))) for o, n in sizes.items()}
    on_mor = {P.id_of(o): FinSetMap(on_obj[o], on_obj[o], {x: x for x in on_obj[o].elements})
              for o in P.objects}
    D = SetFunctor("grid", P, on_obj, on_mor)
    w = interchange_check_finset(D, d2, d2, LIMIT)
    assert w.report.ok
    assert len(w.joint) == 2 * 3 * 4 * 5


def test_interchange_finset_with_equalizer_rows():
    pp = parallel_pair()
    d2 = discrete(2)
    P = product(pp, d2)
    on_obj, on_mor = {}, {}
    vals = {}
    for o in P.objects:
        vals[o] = FinSetObj(("m0", "m1"))
        on_obj[o] = vals[o]
    for m in P.morphisms:
        if P.is_identity(m.name):
            on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                       {x: x for x in on_obj[m.dom].elements})
        else:
            from fincat.core import split_pair
            f, g = split_pair(m.name)
            if f == "v":
                on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                           {"m0": "m1", "m1": "m0"})
            else:
                on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                           {x: x for x in on_obj[m.dom].elements})
    D = SetFunctor("rows", P, on_obj, on_mor)
    assert validate_set_functor(D).ok
    w = interchange_check_finset(D, pp, d2, LIMIT)
    assert w.report.ok


def test_cone_transport_lemma():
    # Cone(c, D) matches Cone({*}, C(c, D-)) elementwise
    from fincat.finset import hom_functor, set_precompose, SINGLETON, all_maps
    two = walking_arrow()
    d2 = discrete(2)
    D = Functor("pair", d2, two, {"d0": "0", "d1": "1"},
                {"id_d0": "id_0", "id_d1": "id_1"})
    from fincat.limits import enumerate_cones
    for c in two.objects:
        cones = [fam for apex, fam in enumerate_cones(D, LIMIT) if apex == c]
        yc = hom_functor(two, c, "covariant")
        hd = set_precompose(yc, D)
        singleton_cones = []
        for combo in itertools.product(*[hd.on_obj[j].sorted() for j in sorted(d2.objects)]):
            fam = dict(zip(sorted(d2.objects), combo))
            if all(hd.on_mor[m.name](fam[m.dom]) == fam[m.cod] for m in d2.morphisms):
                singleton_cones.append(fam)
        assert sorted(map(tuple, (sorted(f.items()) for f in cones))) == \
               sorted(map(tuple, (sorted(f.items()) for f in singleton_cones)))


def test_hom_preservation_of_limits():
    # C(c, lim D) ~ lim C(c, D-) with explicit bijection
    from fincat.finset import hom_functor, set_precompose
    two = walking_arrow()
    d2 = discrete(2)
    D = Functor("pair", d2, two, {"d0": "0", "d1": "1"},
                {"id_d0": "id_0", "id_d1": "id_1"})
    res = limit(D, LIMIT)
    for c in two.objects:
        yc = hom_functor(two, c, "covariant")
        setlim = limit_finset(set_precompose(yc, D), LIMIT)
        homs = two.hom(c, res.object)
        # explicit map: f |-> tuple of legs composed with f
        images = set()
        for f in homs:
            tup = tuple(two.comp(res.cone.legs.components[j], f)
                        for j in sorted(d2.objects))
            images.add(tup)
        assert len(images) == len(homs) == len(setlim.object)


def test_functor_category_limits_pointwise():
    # limits in [I,C] are computed objectwise
    two = walking_arrow()
    one = terminal_category()
    fc = functor_category(two, two)
    d2 = discrete(2)
    # diagram picking two objects of [2,2]
    ids = sorted(fc.cat.objects)
    D = Functor("pairF", d2, fc.cat, {"d0": ids[0], "d1": ids[1]},
                {"id_d0": fc.cat.id_of(ids[0]), "id_d1": fc.cat.id_of(ids[1])})
    res = limit(D, LIMIT)
    assert res is not None
    L = fc.functors[res.object]
    for i in two.objects:
        Di = Functor("ev", d2, two,
                     {"d0": fc.functors[ids[0]].obj_map[i],
                      "d1": fc.functors[ids[1]].obj_map[i]},
                     {"id_d0": two.id_of(fc.functors[ids[0]].obj_map[i]),
                      "id_d1": two.id_of(fc.functors[ids[1]].obj_map[i])})
        ri = limit(Di, LIMIT)
        assert ri.object == L.obj_map[i]


def test_union_find_least_representative():
    uf = UnionFind(["b", "a", "c", "d"])
    uf.union("b", "c")
    uf.union("c", "a")
    cls = uf.classes()
    assert set(cls) == {"a", "d"}
    assert cls["a"] == ["a", "b", "c"]


def test_interchange_finset_colimit_path():
    d2 = discrete(2)
    pp = parallel_pair()
    P = product(d2, pp)
    on_obj, on_mor = {}, {}
    for o in P.objects:
        on_obj[o] = FinSetObj(("m0", "m1", "m2"))
    for m in P.morphisms:
        from fincat.core import split_pair
        f, g = split_pair(m.name)
        if g == "v":
            table = {"m0": "m1", "m1": "m0", "m2": "m2"}
        else:
            table = {x: x for x in ("m0", "m1", "m2")}
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    D = SetFunctor("rows", P, on_obj, on_mor)
    assert validate_set_functor(D).ok
    w = interchange_check_finset(D, d2, pp, COLIMIT)
    assert w.report.ok
    assert len(w.joint) == len(w.outer_first) == len(w.inner_first) == 4


def _reference_certify_finset(D, direction, obj, legs, probe_sizes):
    """The Set (co)limit certificate with naturality tested on composed FinSetMaps."""
    objs = D.dom.sorted_objects()
    checked = 0
    signature = {}
    if direction == LIMIT:
        for e in obj.elements:
            k = tuple(legs[j](e) for j in objs)
            signature[k] = signature.get(k, 0) + 1
    for size in probe_sizes:
        P = FinSetObj(tuple(f"p{i}" for i in range(size)))
        if direction == LIMIT:
            choices = [all_maps(P, D.on_obj[j]) for j in objs]
        else:
            choices = [all_maps(D.on_obj[j], P) for j in objs]
        for combo in itertools.product(*choices):
            fam = dict(zip(objs, combo))
            if not all((fam[m.dom].then(D.on_mor[m.name]) == fam[m.cod])
                       if direction == LIMIT else
                       (D.on_mor[m.name].then(fam[m.cod]) == fam[m.dom])
                       for m in D.dom.morphisms):
                continue
            checked += 1
            if direction == LIMIT:
                n = 1
                for p in P.elements:
                    n *= signature.get(tuple(fam[j](p) for j in objs), 0)
            else:
                forced = {}
                clash = any(forced.setdefault(leg(x), fam[j](x)) != fam[j](x)
                            for j, leg in legs.items() for x in leg.dom.elements)
                n = 0 if clash else len(P) ** sum(1 for e in obj.elements if e not in forced)
            if n != 1:
                return fail_report(checked, "limit-factorization", probe=str(P.sorted()), count=n)
    return ok_report(checked)


def _wrong_cone(direction, obj, legs):
    """The (co)limit cone with one extra apex element.

    A limit gains a duplicate of its first element, so a probe cone through it
    factors twice; a colimit gains a class no leg reaches, so factorization
    into a two-element probe is not unique.
    """
    bigger = FinSetObj(obj.elements + ("extra",))
    if direction == LIMIT:
        first = obj.elements[0]
        return bigger, {j: FinSetMap(bigger, leg.cod, {**leg.table, "extra": leg(first)})
                        for j, leg in legs.items()}
    return bigger, {j: FinSetMap(leg.dom, bigger, leg.table) for j, leg in legs.items()}


def test_a_set_certificate_reports_a_probe_that_does_not_factor():
    # d0 |-> {d0e0, d0e1}, d1 |-> {d1e0}: a product of two, a coproduct of three
    D = make_set_diagram(discrete(2), {"d0": 2, "d1": 1}, {})
    res = limit_finset(D, LIMIT)
    first, *rest = res.object.sorted()
    # with its first element dropped, the first probe cone does not factor
    obj = FinSetObj(tuple(rest))
    legs = {j: FinSetMap(obj, leg.cod, {e: leg(e) for e in rest})
            for j, leg in res.cone.legs.components.items()}
    assert _certify_finset(D, LIMIT, obj, legs) == fail_report(
        1, "limit-factorization", probe="('p0',)", count=0)
    # with the classes of d0e1 and d1e0 merged, a probe that parts them does not factor
    res = limit_finset(D, COLIMIT)
    into = {j: leg.table for j, leg in res.cone.legs.components.items()}
    merged = into["d0"]["d0e1"]
    obj = FinSetObj(tuple(c for c in res.object.elements if c != into["d1"]["d1e0"]))
    legs = {"d0": FinSetMap(D.on_obj["d0"], obj, into["d0"]),
            "d1": FinSetMap(D.on_obj["d1"], obj, {"d1e0": merged})}
    assert _certify_finset(D, COLIMIT, obj, legs) == fail_report(
        3, "limit-factorization", probe="('p0', 'p1')", count=0)


def test_raw_table_certificate_matches_composed_maps():
    # the first 30 seeds whose limit is not empty, so that every limit
    # certificate has probe cones to check
    samples = (random_set_diagram(random.Random(seed), max_shape_objects=3, max_size=3)
               for seed in range(300))
    diagrams = list(itertools.islice(
        (D for D in samples if len(limit_finset(D, LIMIT).object)), 30))
    assert len(diagrams) == 30
    failures = 0
    for i, D in enumerate(diagrams):
        for direction in (LIMIT, COLIMIT):
            res = limit_finset(D, direction)
            legs = dict(res.cone.legs.components)
            want = _reference_certify_finset(D, direction, res.object, legs, (1, 2))
            assert want.ok and want.checked > 0
            assert res.certificate == want, (i, direction)
            assert _certify_finset(D, direction, res.object, legs) == want
            wrong = _wrong_cone(direction, res.object, legs)
            want = _reference_certify_finset(D, direction, *wrong, (1, 2))
            assert _certify_finset(D, direction, *wrong) == want, (i, direction)
            failures += not want.ok
    assert failures == 60
