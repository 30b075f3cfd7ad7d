"""The library's outputs, pinned by one SHA-256 per family.

Each family runs public functions over fixtures and seeded randgen inputs and
hashes everything they return: element ids and their order, map tables in
their order, transformation keys in returned order, the names and morphism
and component orders of tabulated categories, functors and transformations,
and each Report's JSON (`checked` counts and counterexamples included).  A refactor that must not
change outputs keeps every hash; a change that moves one on purpose re-pins
only that family.  No hash may depend on set or hash order: the module also
runs under PYTHONHASHSEED 0 and 1.
"""
import dataclasses
import hashlib
import json
import random
from collections.abc import Mapping

import pytest

from fincat.core import (
    FinCat,
    Functor,
    Keyed,
    NatTrans,
    Report,
    StructuralError,
    budget,
    enumerate_functors,
    functor_category,
    make_category,
    op_product,
    opposite,
    product,
    validate_category,
)
from fincat.finset import (
    SINGLETON,
    FinSetMap,
    FinSetObj,
    SetFunctor,
    SetNatTrans,
    const_set_functor,
    enumerate_set_naturals,
    exponential_adjunction_check,
    hom_functor,
    presheaf_exponential,
    tensor_cotensor,
    yoneda_check,
)
from fincat.fixtures import (
    chain,
    discrete,
    parallel_pair,
    pick_object,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.kan import (
    LEFT,
    RIGHT,
    density_check,
    end_coend,
    enumerate_wedges,
    kan_pointwise,
    lan_via_coend,
    nerve_realization_check,
    weighted_limit,
)
from fincat.limits import (
    COLIMIT,
    LIMIT,
    _certify_finset,
    enumerate_cones,
    interchange_check_finset,
    limit,
    limit_finset,
)
from fincat.randgen import (
    random_dag_category,
    random_preorder_category,
    random_representable_sum,
    random_set_diagram,
)
from fincat.universal import (
    FROM_OBJECT,
    TO_OBJECT,
    comma_from_object,
    comma_to_object,
    representability,
    universal_morphism,
)
from helpers import functors_into_breaker, int_view_breakers


def _ser(x, named=False):
    """A nested tuple of everything a value holds, in its order.  With
    `named`, a tabulated category, functor or transformation also gives what
    its key leaves out: its name, and a category's morphism order or a
    transformation's component order."""
    if named and isinstance(x, FinCat):
        return ("FinCat", x.name, x.key(), tuple(m.name for m in x.morphisms))
    if named and isinstance(x, Functor):
        return ("Functor", x.name, _ser(x.dom, named), _ser(x.cod, named), x.key())
    if named and isinstance(x, NatTrans):
        return ("NatTrans", x.name, _ser(x.src, named), _ser(x.tgt, named),
                tuple(x.components.items()))
    if isinstance(x, Report):
        return ("report", json.dumps(x.to_json(), sort_keys=True, ensure_ascii=False))
    if isinstance(x, FinSetObj):
        return ("set", x.elements)
    if isinstance(x, FinSetMap):
        return ("map", x.dom.elements, x.cod.elements, tuple(x.table.items()))
    if isinstance(x, SetFunctor):
        return ("setfunctor", x.name, x.dom.key(), _ser(x.on_obj), _ser(x.on_mor))
    if isinstance(x, SetNatTrans):
        return ("setnat", x.name, _ser(x.src), _ser(x.tgt), _ser(x.components))
    if isinstance(x, Keyed):
        return (type(x).__name__, x.key())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_ser(getattr(x, f.name), named)
                                           for f in dataclasses.fields(x))
    if isinstance(x, Mapping):
        return tuple((k, _ser(v, named)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_ser(v, named) for v in x)
    return x


def _outcome(fn, *args):
    """fn(*args) serialized, or the message of the StructuralError it raises."""
    try:
        return _ser(fn(*args))
    except StructuralError as e:
        return ("StructuralError", str(e))


def _category(rng):
    return rng.choice([lambda: random_preorder_category(rng, 3),
                       lambda: random_dag_category(rng, 3, 5), z2_monoid, walking_arrow,
                       parallel_pair, lambda: chain(3), lambda: discrete(2)])()


def _broken(rng, X):
    """X with up to three table entries redirected: mostly not a functor."""
    ms = [m for m in sorted(X.on_mor) if len(X.on_mor[m].dom) and len(X.on_mor[m].cod) > 1]
    if not ms:
        return X
    on_mor = dict(X.on_mor)
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(ms)
        t = dict(on_mor[m].table)
        t[rng.choice(sorted(t))] = rng.choice(X.on_mor[m].cod.sorted())
        on_mor[m] = FinSetMap(X.on_mor[m].dom, X.on_mor[m].cod, t)
    return SetFunctor(X.name, X.dom, X.on_obj, on_mor)


def _diagrams():
    """Set diagrams: constants and hom functors on the fixtures, then seeded
    random diagrams over free shapes."""
    two, pp = walking_arrow(), parallel_pair()
    out = [const_set_functor(discrete(2), FinSetObj(("u", "v")), "K"),
           hom_functor(two, "0", "covariant"), hom_functor(pp, "0", "covariant"),
           hom_functor(pp, "1", "contravariant"), hom_functor(z2_monoid(), "*", "covariant")]
    out += [random_set_diagram(random.Random(seed), max_shape_objects=3, max_size=3)
            for seed in range(150)]
    return out


def _wrong_cone(direction, obj, legs):
    """The (co)limit cone with one extra apex element: a duplicate of the
    first limit element, or a colimit class no leg reaches."""
    bigger = FinSetObj(obj.elements + ("extra",))
    if direction == LIMIT:
        first = obj.elements[0]
        return bigger, {j: FinSetMap(bigger, leg.cod, {**leg.table, "extra": leg(first)})
                        for j, leg in legs.items()}
    return bigger, {j: FinSetMap(leg.dom, bigger, leg.table) for j, leg in legs.items()}


def _functor_pairs(n, seed0, max_size=3):
    """Seeded (C, X, Y): two representable sums on one small category."""
    for seed in range(n):
        rng = random.Random(seed0 + seed)
        C = _category(rng)
        yield C, random_representable_sum(rng, C, max_size), random_representable_sum(rng, C, max_size)


def _kan_inputs(n, seed0):
    """Seeded (rng, K, F): a functor between small categories and a Set
    functor on its source, with the rng that drew them."""
    for seed in range(n):
        rng = random.Random(seed0 + seed)
        C, D = _category(rng), _category(rng)
        with budget(2000):
            Ks = enumerate_functors(C, D)
        if Ks:
            yield rng, rng.choice(Ks), random_representable_sum(rng, C, 2)


def family_limit_finset():
    for D in _diagrams():
        for direction in (LIMIT, COLIMIT):
            res = limit_finset(D, direction)
            yield (res.object.elements,
                   tuple((j, tuple(leg.table.items()))
                         for j, leg in sorted(res.cone.legs.components.items())),
                   _ser(res.certificate))


def _redirected(rng, obj, legs):
    """The (co)limit cone with one seeded leg entry sent elsewhere."""
    movable = [j for j, leg in sorted(legs.items()) if len(leg.dom) and len(leg.cod) > 1]
    if not movable:
        return None
    j = rng.choice(movable)
    t = dict(legs[j].table)
    x = rng.choice(sorted(t))
    t[x] = rng.choice([y for y in legs[j].cod.sorted() if y != t[x]])
    return obj, {**legs, j: FinSetMap(legs[j].dom, legs[j].cod, t)}


def _merged(direction, obj, legs):
    """The (co)limit cone with its first element dropped: a limit loses it,
    a colimit sends its class to the second one."""
    first, rest = obj.elements[0], obj.elements[1:]
    smaller = FinSetObj(rest)
    if direction == LIMIT:
        return smaller, {j: FinSetMap(smaller, leg.cod, {e: leg(e) for e in rest})
                         for j, leg in legs.items()}
    return smaller, {j: FinSetMap(leg.dom, smaller, {x: rest[0] if c == first else c
                                                    for x, c in leg.table.items()})
                     for j, leg in legs.items()}


def family_certify_wrong_legs():
    for n, D in enumerate(_diagrams()):
        rng = random.Random(n)
        for direction in (LIMIT, COLIMIT):
            res = limit_finset(D, direction)
            legs = dict(res.cone.legs.components)
            wrong = [_redirected(rng, res.object, legs)]
            if len(res.object):
                wrong.append(_wrong_cone(direction, res.object, legs))
            if len(res.object) > 1:
                wrong.append(_merged(direction, res.object, legs))
            for cone in wrong:
                yield None if cone is None else _ser(_certify_finset(D, direction, *cone))


def family_enumerate_set_naturals():
    for C, X, Y in _functor_pairs(120, 100):
        for src, tgt in ((X, Y), (Y, X), (X, X)):
            yield tuple(t.key() for t in enumerate_set_naturals(src, tgt))
    two = walking_arrow()
    for c in two.objects:
        yc = hom_functor(two, c, "covariant")
        yield tuple(t.key() for t in enumerate_set_naturals(
            yc, const_set_functor(two, FinSetObj(("p", "q")))))


def family_yoneda_check():
    for C, X, Y in _functor_pairs(60, 200):
        yield _ser(yoneda_check(C, [X, Y]))


def family_representability():
    for C, X, Y in _functor_pairs(80, 300):
        for Z in (X, Y, hom_functor(C, C.sorted_objects()[-1], "covariant")):
            rep = representability(Z)
            yield None if rep is None else (rep.object, _ser(rep.iso))


def family_presheaf_exponential():
    for seed in range(16):
        rng = random.Random(400 + seed)
        C = rng.choice([walking_arrow, parallel_pair, z2_monoid, lambda: discrete(2)])()
        opC = opposite(C)
        F, G = random_representable_sum(rng, opC, 2), random_representable_sum(rng, opC, 2)
        exp = presheaf_exponential(F, G)
        yield (_ser(exp.functor), tuple(sorted((k, t.key()) for k, t in exp.index.items())),
               _ser(exponential_adjunction_check(
                   F, G, exp, [F, G, const_set_functor(opC, SINGLETON)])))


def family_presheaf_exponential_composites():
    """G^F over shapes with composite arrows, where G^F(f) moves a
    transformation along f.p for non-identity p."""
    for seed in range(40):
        rng = random.Random(1200 + seed)
        C = rng.choice([lambda: random_dag_category(rng, 3, 5),
                        lambda: random_preorder_category(rng, 3), lambda: chain(3)])()
        opC = opposite(C)
        F, G = random_representable_sum(rng, opC, 2), random_representable_sum(rng, opC, 2)
        exp = presheaf_exponential(F, G)
        yield (_ser(exp.functor), tuple(sorted((k, t.key()) for k, t in exp.index.items())),
               _ser(exponential_adjunction_check(
                   F, G, exp, [F, G, const_set_functor(opC, SINGLETON)])))


def family_weighted_limit():
    for seed in range(80):
        rng = random.Random(500 + seed)
        C = _category(rng)
        W, Wop = random_representable_sum(rng, C, 2), random_representable_sum(rng, opposite(C), 2)
        F = random_representable_sum(rng, C, 2)
        if seed % 2:
            W, Wop, F = _broken(rng, W), _broken(rng, Wop), _broken(rng, F)
        yield _outcome(weighted_limit, W, F, LIMIT), _outcome(weighted_limit, Wop, F, COLIMIT)


def family_weighted_limit_tabulated():
    """Weighted (co)limits of functors into small preorders and DAGs, drawn as
    in tests/test_duality.py: certified ones and missing (co)tensors both occur."""
    for seed in range(100):
        rng = random.Random(1000 + seed)
        C = random_dag_category(rng, 2, 6) if seed % 2 else random_preorder_category(rng, 2)
        E = random_preorder_category(rng, 3, name="E") if rng.random() < 0.6 \
            else random_dag_category(rng, 3, 5, name="E")
        Fs = enumerate_functors(C, E)
        for F in Fs if len(Fs) <= 2 else rng.sample(Fs, 2):
            W = random_representable_sum(rng, C, 2, "W")
            Wop = random_representable_sum(rng, opposite(C), 2, "W")
            yield _outcome(weighted_limit, W, F, LIMIT), _outcome(weighted_limit, Wop, F, COLIMIT)


def family_density_check():
    for _, K, _ in _kan_inputs(60, 600):
        yield _outcome(density_check, K)
    two = walking_arrow()
    yield _outcome(density_check, pick_object(two, "0", "K"))


def family_nerve_realization_check():
    for rng, K, _ in _kan_inputs(50, 700):
        X = random_representable_sum(rng, opposite(K.dom), 2)
        for d in K.cod.sorted_objects():
            yield _outcome(nerve_realization_check, K, X, d)


def family_lan_via_coend():
    for _, K, F in _kan_inputs(80, 800):
        yield _outcome(lan_via_coend, K, F)


def family_interchange_check_finset():
    shapes = [(discrete(2), walking_arrow()), (walking_arrow(), parallel_pair()),
              (discrete(2), discrete(2)), (walking_arrow(), walking_arrow())]
    for seed in range(40):
        rng = random.Random(900 + seed)
        I, J = shapes[seed % len(shapes)]
        D = random_representable_sum(rng, product(I, J), 3)
        for direction in (LIMIT, COLIMIT):
            yield _outcome(interchange_check_finset, D, I, J, direction)


def family_tensor_cotensor():
    sets = [FinSetObj(()), SINGLETON, FinSetObj(("a", "b")), FinSetObj(("x", "y", "z"))]
    for X in sets[:3]:
        for c in sets[:3]:
            for mode in ("tensor", "cotensor"):
                yield _outcome(tensor_cotensor, X, c, mode, sets)


# ---------------------------------------------------------------------------
# Tabulated targets: names, morphism and component orders are hashed too

_SHAPES = [terminal_category(), walking_arrow(), parallel_pair(), discrete(2), chain(3)]


def _tabulated_functors(n, seed0, shapes=_SHAPES, per=3):
    """Seeded functors from a small shape into a small category, at most
    `per` of each pair, with the rng that drew them."""
    for seed in range(n):
        rng = random.Random(seed0 + seed)
        J, C = rng.choice(shapes), _category(rng)
        with budget(5000):
            Fs = enumerate_functors(J, C)
        for F in Fs if len(Fs) <= per else rng.sample(Fs, per):
            yield rng, F


def family_limit_tabulated():
    for _, D in _tabulated_functors(150, 1300):
        for direction in (LIMIT, COLIMIT):
            yield _ser(enumerate_cones(D, direction)), _ser(limit(D, direction), True)


def family_end_coend_tabulated():
    for seed in range(60):
        rng = random.Random(1400 + seed)
        J, C = rng.choice(_SHAPES[:4]), _category(rng)
        with budget(5000):
            Bs = enumerate_functors(op_product(J), C)
        for B in Bs if len(Bs) <= 2 else rng.sample(Bs, 2):
            for side in ("end", "coend"):
                yield _ser(enumerate_wedges(B, J, side)), _ser(end_coend(B, J, side), True)


def family_comma_tabulated():
    for n, (_, G) in enumerate(_tabulated_functors(60, 1500, per=2)):
        name = "K" if n % 3 == 0 else None
        for c in G.cod.sorted_objects():
            yield (_ser(comma_from_object(c, G, name), True),
                   _ser(comma_to_object(G, c, name), True))


def family_universal_morphism_tabulated():
    for _, G in _tabulated_functors(80, 1600, per=2):
        for c in G.cod.sorted_objects():
            for direction in (FROM_OBJECT, TO_OBJECT):
                yield _ser(universal_morphism(c, G, direction), True)


def family_kan_pointwise_tabulated():
    for rng, K in _tabulated_functors(60, 1700, per=1):
        E = _category(rng)
        with budget(5000):
            Fs = enumerate_functors(K.dom, E)
        for F in Fs if len(Fs) <= 2 else rng.sample(Fs, 2):
            for side in (LEFT, RIGHT):
                yield _ser(kan_pointwise(K, F, side), True)


def _functor_category_pairs():
    """(C, D) pairs: fixtures, a left-zero monoid and that monoid with one
    entry broken (not associative), a monoid whose left unit law fails on its
    non-identity arrow, and seeded random pairs with at most 12 functors."""
    fixed = [terminal_category(), walking_arrow(), parallel_pair(), discrete(2)]
    for C in fixed:
        for D in fixed + [z2_monoid(), chain(3)]:
            yield C, D
    yield discrete(2), chain(4)
    lz = make_category("M", ["*"], [("a", "*", "*"), ("b", "*", "*")],
                       {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b", ("b", "b"): "b"})
    broken = FinCat("M!", lz.objects, lz.morphisms, lz.identity, {**lz.compose, ("a", "b"): "id_*"})
    u2 = make_category("U2", ["*"], [("e", "*", "*")], {("id_*", "e"): "id_*", ("e", "e"): "e"})
    for D in (lz, broken, u2):
        for C in (terminal_category(), walking_arrow(), z2_monoid(), D):
            yield C, D
    for seed in range(40):
        rng = random.Random(1800 + seed)
        C, D = _category(rng), _category(rng)
        with budget(5000):
            if len(enumerate_functors(C, D)) <= 12:
                yield C, D


def family_functor_category():
    """Names and morphism order, identity and compose items in insertion
    order, the transformations behind each morphism, validate_category, and
    the functors from two small shapes into each functor category."""
    for C, D in _functor_category_pairs():
        try:
            fc = functor_category(C, D)
        except StructuralError as e:
            yield C.name, D.name, ("StructuralError", str(e))
            continue
        X = fc.cat
        yield (X.name, X.objects, tuple((m.name, m.dom, m.cod) for m in X.morphisms),
               tuple(X.identity.items()), tuple(X.compose.items()))
        yield tuple((k, F.name, tuple(F.obj_map.items()), tuple(F.mor_map.items()))
                    for k, F in fc.functors.items())
        yield tuple((k, t.name, t.src.name, t.tgt.name, tuple(t.components.items()))
                    for k, t in fc.nats.items())
        yield _outcome(validate_category, X)
        for shape in (walking_arrow(), z2_monoid()):
            with budget(5000):
                yield _outcome(lambda: [(F.name, tuple(F.mor_map.items()))
                                        for F in enumerate_functors(shape, X)])


def family_malformed_cones_and_wedges():
    """Cone and wedge searches into targets whose tables have a structural
    fault: the StructuralError messages, and the (co)cones found before any."""
    for label, C in int_view_breakers().items():
        for J in _SHAPES:
            for D in functors_into_breaker(J, C)[:8]:
                for direction in (LIMIT, COLIMIT):
                    yield label, _outcome(enumerate_cones, D, direction)
        for J in _SHAPES[:4]:
            for B in functors_into_breaker(op_product(J), C)[:4]:
                for side in ("end", "coend"):
                    yield label, _outcome(enumerate_wedges, B, J, side)


def digest(family) -> str:
    h = hashlib.sha256()
    for out in family():
        h.update(repr(out).encode("utf8") + b"\0")
    return h.hexdigest()


PINNED = {
    family_limit_finset:
        "328ee4169bc5a2504a75526feb3f24a037d8245106589596a30e53d0e42a344b",
    family_certify_wrong_legs:
        "f28084c929cccd672deed2993c7e5cbd4bf290c8db93f7d65552651419af9db2",
    family_enumerate_set_naturals:
        "b4545853b543dd9380489b9b7806c0f61a52f84675b92cfa62cc4a91fae34c5e",
    family_yoneda_check:
        "6ca2845fda6029e2e900965c21dc1aa4006484a30bf816a155f26915d3979407",
    family_representability:
        "bab1e08e8a12f25cf84c10e135b4fed191ced38c63d8fe33aea9d0babf85542e",
    family_presheaf_exponential:
        "654840d8e0a541e95f5a0c897981a80e73ec87c9a3bd25abff38de8f3d8a92e5",
    family_presheaf_exponential_composites:
        "9c23f6b123ba11fbd73a42fc99a1d21f619181137ac01029d012277205b829ba",
    family_weighted_limit:
        "9e7066b0faca6363dc603eb4835a947ec9990b48f7bc5fdd3b5789bfbbe5b4c2",
    family_density_check:
        "548030a9ef0c6a59f78f323f305670a559f3d013cc801f2e12fef164db69c192",
    family_nerve_realization_check:
        "fad2c534016455b9216c9b2c7ef1a7706985e83436140ffc9abfe3e6fe3d94ad",
    family_lan_via_coend:
        "0e888bc8991c0f247e56b20a2e90aece2896929eec5ead023ae7a7490d6ed80e",
    family_interchange_check_finset:
        "0dfe2ca1003806ca30d1588a2fd5d836f4b350ff2517171adea3a7e495a813ab",
    family_tensor_cotensor:
        "91f115122c9fb5ce7233061326ed6678e022385d4d44a31b5161f7097cb804e6",
    family_weighted_limit_tabulated:
        "424b304b962854b56fbbbb357f9def7ec9399f4e3c659eaa5063c4ff8cb0a2ea",
    family_limit_tabulated:
        "ffcb968ca5b905085645062b04c141569272b2b7c52ec4e88a853c2779ed7f11",
    family_end_coend_tabulated:
        "a31ba3d65ed00778e0feff8d9b143bc21281675ec293da0a1ffd4cbe56e9aa5f",
    family_comma_tabulated:
        "ab97d1589cd014c5ce59ccf145b8bbab8b721f9a5128d56fec5415a109fd0437",
    family_universal_morphism_tabulated:
        "705a85e7421d0e785cb14fb2c56e2cef2af1a885f5d59859085a98379f569b5c",
    family_kan_pointwise_tabulated:
        "d1e40aad5711eb91fb507bc0b403624bfc03b3ed59b4e92a8a0fb49551a20064",
    family_malformed_cones_and_wedges:
        "66762696e03b843d5f854e6ab80a0d1cf3e856a8e8f991128256916b64a65f89",
    family_functor_category:
        "c279f4107b65adb20559e6ac998e6fd8a2f2f16243c29128bd0c77e8b51494b0",
}


@pytest.mark.parametrize("family", PINNED, ids=lambda f: f.__name__[len("family_"):])
def test_set_backend_outputs_are_pinned(family):
    assert digest(family) == PINNED[family]


def test_every_digest_family_is_pinned():
    # a family_* function missing from PINNED would never run
    families = {f for name, f in globals().items() if name.startswith("family_")}
    assert families == set(PINNED)
