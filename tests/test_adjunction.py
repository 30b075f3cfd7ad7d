import pytest

from fincat.adjunction import (
    adjoint_from_universals,
    adjunction_uniqueness_iso,
    convert,
    equivalence_to_adjunction,
    phi_from_unit,
    snake_check,
    validate_adjunction,
)
from fincat.core import (
    Functor,
    NatTrans,
    StructuralError,
    compose_functors,
    functor_category,
    diagonal_functor,
    identity_functor,
    identity_nat,
    make_category,
    opposite,
    validate_functor,
    validate_natural,
    vcompose,
)
from fincat.finset import FinSetMap, FinSetObj
from fincat.fixtures import bang, discrete, pick_object, walking_arrow
from fincat.limits import LIMIT, limit_functor


def bang_terminal_adjunction():
    two = walking_arrow()
    F = bang(two)
    G = pick_object(two, "1", "G")
    iso = {}
    for c in two.objects:
        for d in ("*",):
            dom = FinSetObj(F.cod.hom("*", "*"))
            cod = FinSetObj(two.hom(c, "1"))
            iso[(c, d)] = FinSetMap(dom, cod, {"id_*": cod.elements[0]})
    return F, G, iso


def test_validate_bang_terminal():
    F, G, iso = bang_terminal_adjunction()
    assert validate_adjunction(F, G, iso).ok


def test_convert_round_trip_and_unit_values():
    F, G, iso = bang_terminal_adjunction()
    adj = convert(F, G, "phi->unit", hom_iso=iso)
    two = F.dom
    # eta_c is the unique arrow c -> 1; eps is the identity
    assert adj.unit.components["0"] == "a"
    assert adj.unit.components["1"] == "id_1"
    assert adj.counit.components["*"] == "id_*"
    back = phi_from_unit(F, G, adj.unit)
    assert {k: dict(v.table) for k, v in back.items()} == \
           {k: dict(v.table) for k, v in adj.hom_iso.items()}
    assert snake_check(F, G, adj.unit, adj.counit).ok


def test_identity_adjunction():
    two = walking_arrow()
    I = identity_functor(two)
    eta = identity_nat(I)
    eta = NatTrans("unit", identity_functor(two), compose_functors(I, I),
                   dict(eta.components))
    adj = convert(I, I, "unit->phi", unit=eta)
    assert snake_check(I, I, adj.unit, adj.counit).ok
    assert all(m.table == {x: x for x in m.dom.elements}
               for m in adj.hom_iso.values())


def test_validate_detects_scrambled_component():
    # Delta -| lim over [2,2]; scramble one phi table entry
    two = walking_arrow()
    res = limit_functor(two, two)
    fc = functor_category(two, two)
    lim = res.functor
    delta = diagonal_functor(two, two, fc)
    adj = adjoint_from_universals(lim, side="left")
    assert adj is not None
    bad = dict(adj.hom_iso)
    key = sorted(bad, key=str)[0]
    comp = bad[key]
    if len(comp.dom) >= 2:
        xs = comp.dom.sorted()
        t = dict(comp.table)
        t[xs[0]], t[xs[1]] = t[xs[1]], t[xs[0]]
        bad[key] = FinSetMap(comp.dom, comp.cod, t)
        rep = validate_adjunction(adj.left, adj.right, bad)
        assert not rep.ok
        assert rep.counterexample.law in ("transposition-naturality",
                                          "transposition-bijectivity")


def test_snake_detects_swapped_unit():
    F, G, iso = bang_terminal_adjunction()
    adj = convert(F, G, "phi->unit", hom_iso=iso)
    two = F.dom
    broken = NatTrans("unit", adj.unit.src, adj.unit.tgt,
                      {"0": "id_0", "1": "id_1"})  # wrong typing at 0 caught below
    with pytest.raises(StructuralError):
        # component at 0 must land in hom(0, G!0) = hom(0,1); id_0 does not
        snake_rep = convert(F, G, "unit->phi", unit=broken)


def test_snake_rejects_a_unit_or_counit_of_the_wrong_type():
    two = walking_arrow()
    one = bang(two).cod
    F, G = bang(two), pick_object(two, "1", "G")
    I1, I2 = identity_functor(one), identity_functor(two)
    e1 = NatTrans("e1", I1, I1, {"*": "id_*"})
    e2 = NatTrans("e2", I2, I2, {"0": "id_0", "1": "id_1"})
    with pytest.raises(StructuralError, match=r"e2: the unit is not id_2 => G\*!"):
        snake_check(F, G, e2, e1)
    with pytest.raises(StructuralError, match=r"e2: the counit is not id_1\*id_1 => id_1"):
        snake_check(I1, I1, e1, e2)
    assert snake_check(I1, I1, e1, e1).ok
    # typed right, but the unit's component at 0 lies outside two(0, GF(0)) = two(0, 1)
    GF, FG = compose_functors(G, F), compose_functors(F, G)
    eps = NatTrans("counit", FG, I1, {"*": "id_*"})
    eta = NatTrans("unit", I2, GF, {"0": "id_0", "1": "id_1"})
    with pytest.raises(StructuralError, match="unit: component at 0 lies in the wrong hom-set"):
        validate_natural(eta)
    with pytest.raises(StructuralError, match="unit: component at 0 lies in the wrong hom-set"):
        snake_check(F, G, eta, eps)
    assert snake_check(F, G, NatTrans("unit", I2, GF, {"0": "a", "1": "id_1"}), eps).ok


def test_adjoint_from_universals_terminal_pick():
    two = walking_arrow()
    G = pick_object(two, "1", "G")
    adj = adjoint_from_universals(G, side="left")
    assert adj is not None
    assert dict(adj.left.obj_map) == {"0": "*", "1": "*"}
    assert snake_check(adj.left, adj.right, adj.unit, adj.counit).ok


def test_adjoint_from_universals_delta_gives_limit_functor():
    two = walking_arrow()
    fc = functor_category(two, two)
    delta = diagonal_functor(two, two, fc)
    # right adjoint to Delta = the limit functor
    adj = adjoint_from_universals(delta, side="right")
    assert adj is not None
    res = limit_functor(two, two, fc=fc)
    assert dict(adj.right.obj_map) == dict(res.functor.obj_map)
    assert dict(adj.right.mor_map) == dict(res.functor.mor_map)
    assert validate_adjunction(adj.left, adj.right, adj.hom_iso).ok
    assert snake_check(adj.left, adj.right, adj.unit, adj.counit).ok


def test_adjoint_from_universals_absent():
    d2 = discrete(2)
    G2 = pick_object(d2, "d0", "G2")
    assert adjoint_from_universals(G2, side="left") is None


def test_equivalence_identity_and_relabel():
    two = walking_arrow()
    I = identity_functor(two)
    eta = NatTrans("unit", identity_functor(two), compose_functors(I, I),
                   {c: two.id_of(c) for c in two.objects})
    tau = NatTrans("counit", compose_functors(I, I), identity_functor(two),
                   {c: two.id_of(c) for c in two.objects})
    adj = equivalence_to_adjunction(I, I, eta, tau)
    assert snake_check(I, I, adj.unit, adj.counit).ok

    # relabeled two-object category
    two_p = make_category("2p", ["x", "y"], [("b", "x", "y")], {})
    P = Functor("P", two, two_p, {"0": "x", "1": "y"},
                {"id_0": "id_x", "id_1": "id_y", "a": "b"})
    Q = Functor("Q", two_p, two, {"x": "0", "y": "1"},
                {"id_x": "id_0", "id_y": "id_1", "b": "a"})
    eta2 = NatTrans("unit", identity_functor(two), compose_functors(Q, P),
                    {c: two.id_of(c) for c in two.objects})
    tau2 = NatTrans("counit", compose_functors(P, Q), identity_functor(two_p),
                    {c: two_p.id_of(c) for c in two_p.objects})
    adj2 = equivalence_to_adjunction(P, Q, eta2, tau2)
    assert snake_check(P, Q, adj2.unit, adj2.counit).ok
    assert dict(adj2.unit.components) == dict(eta2.components)


def test_equivalence_two_and_opposite_flip():
    two = walking_arrow()
    op2 = opposite(two)
    # flip: 0 <-> 1 is an isomorphism of categories 2 -> op(2)
    P = Functor("flip", two, op2, {"0": "1", "1": "0"},
                {"id_0": "id_1", "id_1": "id_0", "a": "a"})
    Q = Functor("pilf", op2, two, {"0": "1", "1": "0"},
                {"id_0": "id_1", "id_1": "id_0", "a": "a"})
    assert validate_functor(P).ok and validate_functor(Q).ok
    eta = NatTrans("unit", identity_functor(two), compose_functors(Q, P),
                   {c: two.id_of(c) for c in two.objects})
    tau = NatTrans("counit", compose_functors(P, Q), identity_functor(op2),
                   {c: op2.id_of(c) for c in op2.objects})
    adj = equivalence_to_adjunction(P, Q, eta, tau)
    assert snake_check(P, Q, adj.unit, adj.counit).ok


def test_equivalence_rejects_non_iso():
    two = walking_arrow()
    F = bang(two)
    G = pick_object(two, "1", "G")
    eta = NatTrans("unit", identity_functor(two), compose_functors(G, F),
                   {"0": "a", "1": "id_1"})
    tau = NatTrans("counit", compose_functors(F, G), identity_functor(F.cod),
                   {"*": "id_*"})
    with pytest.raises(StructuralError):
        equivalence_to_adjunction(F, G, eta, tau)  # eta_0 = a is not iso


def test_uniqueness_of_left_adjoints():
    # two adjunctions with the same right adjoint: synthesize twice and relate
    two = walking_arrow()
    G = pick_object(two, "1", "G")
    a1 = adjoint_from_universals(G, side="left")
    a2 = adjoint_from_universals(G, side="left")
    alpha = adjunction_uniqueness_iso(a1, a2)
    assert validate_natural(alpha).ok
    # counit compatibility: eps1 = eps2 . (alpha * G)
    D = a1.left.cod
    for d in D.objects:
        lhs = a1.counit.components[d]
        rhs = D.comp(a2.counit.components[d], alpha.components[G.obj_map[d]])
        assert lhs == rhs


def test_replacement_by_isomorphic_functor():
    # composing an adjunction with a natural iso F ~ F' stays snake-valid
    two = walking_arrow()
    G = pick_object(two, "1", "G")
    adj = adjoint_from_universals(G, side="left")
    F = adj.left
    # F' identical but renamed (the only natural iso available on this fixture)
    Fp = Functor("Fprime", F.dom, F.cod, dict(F.obj_map), dict(F.mor_map))
    alpha = NatTrans("al", F, Fp, {c: F.cod.id_of(F.obj_map[c]) for c in F.dom.objects})
    etap = vcompose(NatTrans("wh", compose_functors(G, F), compose_functors(G, Fp),
                             {c: G.cod.id_of(G.obj_map[F.obj_map[c]])
                              for c in F.dom.objects}),
                    adj.unit)
    etap = NatTrans("unit", adj.unit.src, compose_functors(G, Fp),
                    dict(etap.components))
    adj2 = convert(Fp, G, "unit->phi", unit=etap)
    assert snake_check(Fp, G, adj2.unit, adj2.counit).ok


def test_uniqueness_iso_between_twisted_identity_adjunctions():
    # on the involution monoid the identity functor is self-adjoint in two
    # ways: unit e and unit s; the mediating isomorphism is s and the counit
    # compatibility holds
    from fincat.fixtures import z2_monoid
    z2 = z2_monoid()
    I = identity_functor(z2)
    II = compose_functors(I, I)
    straight = convert(I, I, "unit->phi",
                       unit=NatTrans("unit", identity_functor(z2), II, {"*": "id_*"}))
    twisted = convert(I, I, "unit->phi",
                      unit=NatTrans("unit", identity_functor(z2), II, {"*": "s"}))
    assert snake_check(I, I, twisted.unit, twisted.counit).ok
    assert twisted.counit.components["*"] == "s"
    alpha = adjunction_uniqueness_iso(straight, twisted)
    assert alpha.components == {"*": "s"}
    for d in z2.objects:
        lhs = straight.counit.components[d]
        rhs = z2.comp(twisted.counit.components[d], alpha.components[d])
        assert lhs == rhs
