import itertools

import pytest

from fincat.core import (
    FinCat,
    Functor,
    Mor,
    NatTrans,
    StructuralError,
    canonical_functor_id,
    compose,
    compose_functors,
    const_diagram,
    diagonal_functor,
    enumerate_functors,
    enumerate_nat_trans,
    functor_category,
    fully_faithful_check,
    hcompose,
    identity_functor,
    identity_nat,
    make_category,
    opposite,
    product,
    same_structure,
    validate_category,
    validate_functor,
    validate_natural,
    vcompose,
    whisker_nat_functor,
)
from fincat.fixtures import (
    bang,
    chain,
    discrete,
    parallel_pair,
    pick_object,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from helpers import freed_by_refcount


def brute_force_law_check(C: FinCat):
    """Independent oracle: scan every unit instance and composable triple directly."""
    failures = []
    for m in C.morphisms:
        if C.compose[(m.name, C.identity[m.dom])] != m.name:
            failures.append(("unit", m.name))
        if C.compose[(C.identity[m.cod], m.name)] != m.name:
            failures.append(("unit", m.name))
    for h, g, f in itertools.product(C.morphisms, repeat=3):
        if f.cod == g.dom and g.cod == h.dom:
            lhs = C.compose[(h.name, C.compose[(g.name, f.name)])]
            rhs = C.compose[(C.compose[(h.name, g.name)], f.name)]
            if lhs != rhs:
                failures.append(("associativity", (h.name, g.name, f.name)))
    return failures


def test_validate_walking_arrow():
    r = validate_category(walking_arrow())
    assert r.ok and r.counterexample is None


def test_validate_z2_against_hand_oracle():
    C = z2_monoid()
    # hand enumeration: 2 morphisms, all pairs composable -> 4 pairs, 8 triples
    assert sum(1 for g in C.morphisms for f in C.morphisms if f.cod == g.dom) == 4
    assert brute_force_law_check(C) == []
    r = validate_category(C)
    assert r.ok
    assert r.checked == 4 + 8


def test_validate_detects_broken_z2():
    # replace s.s = id by s.s = s: the first failing instance found by the
    # brute-force oracle is the unit law at (s, id) ... actually the table
    # still has correct unit entries; the oracle localises associativity:
    # s(ss)=ss=s but (ss)s=ss=s passes, while unit s.id stays fine, so the
    # violation appears where s.s=s forces s to act as an extra identity:
    # associativity of (s,s,s) holds, but unit law fails for no morphism --
    # the genuine breakage is that s.s=s makes the table inconsistent with
    # s being an involution only through the unit instance id = s.s.
    C = make_category("Z2bad", ["*"], [("s", "*", "*")], {("s", "s"): "s"})
    oracle = brute_force_law_check(C)
    r = validate_category(C)
    if oracle:
        assert not r.ok
    else:
        # the defective table is still a lawful category (idempotent monoid);
        # the defect must instead be caught by comparing against the intended
        # table, which a structural comparison does
        assert r.ok
        assert not same_structure(C, z2_monoid())


def test_validate_detects_nonassociative_table():
    # three parallel endo-arrows with a deliberately skewed table
    C = make_category(
        "bad3", ["*"],
        [("p", "*", "*"), ("q", "*", "*")],
        {("p", "p"): "q", ("p", "q"): "id_*", ("q", "p"): "p", ("q", "q"): "q"},
    )
    oracle = brute_force_law_check(C)
    assert oracle, "fixture must genuinely break a law"
    r = validate_category(C)
    assert not r.ok
    assert r.counterexample.law in ("unit", "associativity")


def test_validate_missing_entry_is_structural():
    C = FinCat("gap", ("0", "1"),
               (Mor("id_0", "0", "0"), Mor("id_1", "1", "1"), Mor("a", "0", "1")),
               {"0": "id_0", "1": "id_1"},
               {("id_0", "id_0"): "id_0", ("id_1", "id_1"): "id_1",
                ("id_1", "a"): "a"})  # (a, id_0) missing
    with pytest.raises(StructuralError):
        validate_category(C)


def test_validate_rejects_duplicate_object_ids():
    ida, f = Mor("id_a", "a", "a"), Mor("f", "a", "a")
    for objects, morphisms, compose, message in (
        (("a", "a"), (ida,), {("id_a", "id_a"): "id_a"}, "duplicate object id a"),
        (("a",), (ida, f, f), {("id_a", "id_a"): "id_a", ("id_a", "f"): "f",
                               ("f", "id_a"): "f", ("f", "f"): "f"}, "duplicate morphism id f"),
    ):
        C = FinCat("X", objects, morphisms, {"a": "id_a"}, compose)
        with pytest.raises(StructuralError, match=message):
            validate_category(C)
        with pytest.raises(StructuralError, match=message):
            enumerate_functors(walking_arrow(), C)


def test_validate_functor_identity_and_collapse():
    two = walking_arrow()
    assert validate_functor(identity_functor(two)).ok
    assert validate_functor(bang(two)).ok  # maps everything to id_*


def test_validate_functor_on_z2():
    C = z2_monoid()
    good = Functor("e", C, C, {"*": "*"}, {"id_*": "id_*", "s": "id_*"})
    assert validate_functor(good).ok
    bad = Functor("b", C, C, {"*": "*"}, {"id_*": "s", "s": "id_*"})
    r = validate_functor(bad)
    assert not r.ok and r.counterexample.law == "functor-identity"


def test_validate_natural_cases():
    two = walking_arrow()
    F = const_diagram("0", two, two)
    G = identity_functor(two)
    assert validate_natural(identity_nat(G)).ok
    alpha = NatTrans("al", F, G, {"0": "id_0", "1": "a"})
    assert validate_natural(alpha).ok
    with pytest.raises(StructuralError):
        validate_natural(NatTrans("bad", F, G, {"0": "id_0", "1": "id_1"}))


def test_opposite_involution_and_shape():
    one = terminal_category()
    assert opposite(one) == one
    two = walking_arrow()
    op = opposite(two)
    assert op.mor["a"].dom == "1" and op.mor["a"].cod == "0"
    assert same_structure(opposite(op), two) and opposite(op).name == two.name
    assert validate_category(op).ok
    # commutative monoid: the transposed table is the same table
    z2 = z2_monoid()
    assert dict(opposite(z2).compose) == {(f, g): h for (g, f), h in z2.compose.items()}
    assert dict(opposite(z2).compose) == dict(z2.compose)


def test_opposite_is_computed_once_and_its_opposite_is_the_category():
    def make():
        two = walking_arrow()
        op = opposite(two)
        assert opposite(two) is op and opposite(op) is two
        return [two, op]
    # the way back is weak, so no reference cycle keeps either category alive
    assert freed_by_refcount(make)
    # an opposite that outlives its category still has a structural opposite
    op = opposite(walking_arrow())
    assert same_structure(opposite(op), walking_arrow()) and opposite(opposite(op)) is op


def test_product_counts_and_validity():
    one, two = terminal_category(), walking_arrow()
    p = product(one, two)
    assert len(p.objects) == len(two.objects)
    assert validate_category(p).ok
    p22 = product(two, two)
    assert len(p22.objects) == 4
    assert len(p22.morphisms) == 9  # 3 morphisms in each factor
    assert validate_category(p22).ok


def test_compose_modes_and_sliding():
    two = walking_arrow()
    F = const_diagram("0", two, two)
    G = identity_functor(two)
    alpha = NatTrans("al", F, G, {"0": "id_0", "1": "a"})
    # id_G * alpha = alpha (component tables)
    assert hcompose(identity_nat(G), alpha).components == dict(alpha.components)
    # whiskering with a picked object gives the single component (ev_d alpha = alpha * d)
    for d in ("0", "1"):
        w = whisker_nat_functor(alpha, pick_object(two, d))
        assert w.components == {"*": alpha.components[d]}
    # dispatcher modes
    assert compose(G, G, "functor*functor") == compose_functors(G, G)
    assert compose(alpha, identity_nat(F), "nat∘nat") == alpha
    assert compose(identity_nat(G), alpha, "nat•nat").components == dict(alpha.components)


def test_sliding_orders_agree_on_chain3():
    C = chain(3)
    # both evaluation orders of the horizontal composite agree for every pair
    # of composable transformations between enumerated endofunctors
    fc_functors = enumerate_functors(C, C)
    sample = fc_functors[:4]
    pairs = 0
    for F in sample:
        for G in sample:
            for al in enumerate_nat_trans(F, G)[:2]:
                for H in sample:
                    for K in sample:
                        for be in enumerate_nat_trans(H, K)[:2]:
                            if F.cod == H.dom:
                                hcompose(be, al)  # asserts both orders internally
                                pairs += 1
    assert pairs > 0


def test_functor_category_shapes():
    one, two = terminal_category(), walking_arrow()
    fc = functor_category(one, two)
    assert len(fc.cat.objects) == 2
    assert len(fc.cat.morphisms) == 3
    assert validate_category(fc.cat).ok

    fc = functor_category(two, one)
    assert len(fc.cat.objects) == 1 and len(fc.cat.morphisms) == 1

    fc = functor_category(two, two)
    assert len(fc.cat.objects) == 3  # endpoint picks 00, 01, 11
    assert validate_category(fc.cat).ok


def test_functor_category_morphisms_match_brute_force():
    two = walking_arrow()
    pp = parallel_pair()
    fc = functor_category(pp, two)
    # independent oracle: all component families filtered by validate_natural
    total = 0
    for F in fc.functors.values():
        for G in fc.functors.values():
            for comps in itertools.product(
                    *[two.hom(F.obj_map[a], G.obj_map[a]) for a in pp.sorted_objects()]):
                cand = NatTrans("c", F, G, dict(zip(pp.sorted_objects(), comps)))
                if validate_natural(cand).ok:
                    total += 1
    assert total == len(fc.cat.morphisms)


def test_const_diagram_and_diagonal():
    two = walking_arrow()
    one = terminal_category()
    c1 = const_diagram("1", one, two)
    assert c1.obj_map == {"*": "1"}
    c = const_diagram("0", two, two)
    assert c.mor_map["a"] == "id_0"
    assert validate_functor(c).ok
    fc = functor_category(two, two)
    diag = diagonal_functor(two, two, fc)
    assert validate_functor(diag).ok
    # the diagonal's action on a morphism has every component equal to it
    nat = fc.nats[diag.mor_map["a"]]
    assert set(nat.components.values()) == {"a"}


def test_fully_faithful():
    two = walking_arrow()
    assert fully_faithful_check(identity_functor(two)).ok
    r = fully_faithful_check(bang(two))
    assert not r.ok and r.counterexample.details["failure"] == "surjectivity"


def test_interchange_law_exhaustive_on_small_fixture():
    # (beta'.beta)*(alpha'.alpha) = (beta'*alpha').(beta*alpha) over endofunctors of 2
    two = walking_arrow()
    fs = enumerate_functors(two, two)
    nats = {(F.name, G.name): enumerate_nat_trans(F, G) for F in fs for G in fs}
    count = 0
    for F in fs:
        for Fp in fs:
            for Fpp in fs:
                for al in nats[(F.name, Fp.name)]:
                    for alp in nats[(Fp.name, Fpp.name)]:
                        for G in fs:
                            for Gp in fs:
                                for Gpp in fs:
                                    for be in nats[(G.name, Gp.name)]:
                                        for bep in nats[(Gp.name, Gpp.name)]:
                                            lhs = hcompose(vcompose(bep, be), vcompose(alp, al))
                                            rhs = vcompose(hcompose(bep, alp), hcompose(be, al))
                                            assert lhs.components == rhs.components
                                            count += 1
    assert count > 0


def test_bifunctor_naturality_equivalence():
    # a family over a product category is natural iff natural in each variable
    two = walking_arrow()
    P = product(two, two)
    fs = enumerate_functors(P, two)
    F, G = fs[0], fs[-1]
    objs = P.sorted_objects()
    cases = 0
    for comps in itertools.product(*[two.hom(F.obj_map[o], G.obj_map[o]) for o in objs]):
        fam = dict(zip(objs, comps))
        joint = validate_natural(NatTrans("t", F, G, fam)).ok
        separate = True
        for m in P.morphisms:  # restrict to morphisms that fix one coordinate
            from fincat.core import split_pair
            mf, mg = split_pair(m.name)
            if not (two.is_identity(mf) or two.is_identity(mg)):
                continue
            lhs = two.comp(G.mor_map[m.name], fam[m.dom])
            rhs = two.comp(fam[m.cod], F.mor_map[m.name])
            if lhs != rhs:
                separate = False
                break
        assert joint == separate
        cases += 1
    assert cases > 0


def test_generated_categories_validate():
    two = walking_arrow()
    for C in (opposite(two), product(two, two), functor_category(two, two).cat,
              product(terminal_category(), z2_monoid()), chain(4), discrete(3)):
        assert validate_category(C).ok


def test_canonical_ids_are_stable():
    two = walking_arrow()
    fc1 = functor_category(two, two)
    fc2 = functor_category(two, two)
    assert list(fc1.cat.objects) == list(fc2.cat.objects)
    assert [m.name for m in fc1.cat.morphisms] == [m.name for m in fc2.cat.morphisms]
    F = identity_functor(two)
    assert canonical_functor_id(F) == "0↦0;1↦1|a↦a"
