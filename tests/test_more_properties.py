"""Properties that cut across modules and did not fit the per-module suites."""
import pytest

from fincat.core import (
    Functor,
    GuardExceeded,
    budget,
    compose_functors,
    enumerate_functors,
    enumerate_nat_trans,
    fully_faithful_check,
    identity_functor,
    make_category,
    validate_category,
    whisker_functor_nat,
)
from fincat.finset import (
    FinSetObj,
    SINGLETON,
    tensor_cotensor,
    tensor_in_category,
    cotensor_in_category,
)
from fincat.fixtures import chain, discrete, walking_arrow
from fincat.kan import kan_universal_check, kan_pointwise, LEFT
from fincat.limits import LIMIT, certify_terminal, limit, enumerate_cones
from fincat.universal import UniversalWitness, verify_universal


def test_fully_faithful_postcomposition():
    # if H is fully faithful then postcomposition with H is fully faithful
    two = walking_arrow()
    c3 = chain(3)
    H = Functor("H", two, c3, {"0": "0", "1": "1"},
                {"id_0": "id_0", "id_1": "id_1", "a": "c01"})
    assert fully_faithful_check(H).ok
    for F in enumerate_functors(two, two):
        for G in enumerate_functors(two, two):
            HF, HG = compose_functors(H, F), compose_functors(H, G)
            taus = enumerate_nat_trans(HF, HG)
            bars = enumerate_nat_trans(F, G)
            assert len(taus) == len(bars)
            images = {whisker_functor_nat(H, b).key() for b in bars}
            assert images == {t.key() for t in taus}


def test_tensor_cotensor_in_general_target():
    # copower and power of a 2-element set inside the chain poset: joins/meets
    c3 = chain(3)
    X = FinSetObj(("w0", "w1"))
    t = tensor_in_category(X, "1", c3)
    assert t is not None and t.object == "1"
    ct = cotensor_in_category(X, "1", c3)
    assert ct is not None and ct.object == "1"
    # a target without coproducts: the discrete pair has no binary coproduct
    d2 = discrete(2)
    copies = tensor_in_category(FinSetObj(("w0", "w1")), "d0", d2)
    assert copies is not None  # two copies of the same object: d0 qualifies? no:
    # the coproduct of d0 with itself needs a universal cocone; in a discrete
    # category the only cocones over the pair (d0, d0) have apex d0, and the
    # factorization is unique, so it exists; an honest absence needs mixed
    # objects, which the copower construction cannot produce. Check products
    # of distinct-object diagrams through the limit engine directly instead.
    from fincat.core import Functor as Fn
    D = Fn("pair", d2, d2, {"d0": "d0", "d1": "d1"},
           {"id_d0": "id_d0", "id_d1": "id_d1"})
    assert limit(D, LIMIT) is None


def test_empty_tensor_is_initial_and_empty_cotensor_terminal():
    c3 = chain(3)
    empty = FinSetObj(())
    t = tensor_in_category(empty, "1", c3)
    assert t.object == "0"      # empty coproduct = initial
    ct = cotensor_in_category(empty, "1", c3)
    assert ct.object == "2"     # empty product = terminal


def test_functor_category_guard():
    big = discrete(8)
    with budget(10), pytest.raises(GuardExceeded):
        enumerate_functors(big, big)


def test_limit_essential_uniqueness_on_multi_candidate_search():
    # two isomorphic terminal objects: empty-diagram limits come in a pair
    C = make_category(
        "twoterm", ["t1", "t2", "z"],
        [("f", "t1", "t2"), ("g", "t2", "t1"), ("p", "z", "t1"), ("q", "z", "t2")],
        {("g", "f"): "id_t1", ("f", "g"): "id_t2",
         ("f", "p"): "q", ("g", "q"): "p"},
    )
    assert validate_category(C).ok
    from fincat.fixtures import empty_category
    E = empty_category()
    D = Functor("empty", E, C, {}, {})
    cones = enumerate_cones(D, LIMIT)
    winners = [apex for apex, legs in cones
               if certify_terminal(C, apex, legs, cones).ok]
    assert sorted(winners) == ["t1", "t2"]
    res = limit(D, LIMIT)
    assert res.object == "t1"   # lexicographic tie-break
    # the two candidates are related by a unique isomorphism
    w1 = UniversalWitness("t1", "id_t1", "to-object", None)
    w2 = UniversalWitness("t2", "id_t2", "to-object", None)
    # use the terminal-object view: universal from id to each candidate
    G = identity_functor(C)
    assert verify_universal(UniversalWitness("t1", "id_t1", "to-object", None),
                            "t1", G).ok
    iso = [f for f in C.hom("t1", "t2") if C.is_iso(f)]
    assert len(iso) == 1


def test_kan_universal_check_partial_flag():
    two = walking_arrow()
    from fincat.fixtures import pick_object
    K = pick_object(two, "0", "K")
    F = pick_object(two, "0", "F")
    kr = kan_pointwise(K, F, LEFT)
    rep = kan_universal_check(kr.extension, kr.unit_or_counit, K, F, LEFT,
                              H_family=[identity_functor(two)])
    assert rep.ok and rep.partial
    full = kan_universal_check(kr.extension, kr.unit_or_counit, K, F, LEFT)
    assert full.ok and not full.partial


def test_tensor_witness_fails_are_detected():
    # sanity: the adjunction witness path runs and counts checks
    X = FinSetObj(("x1", "x2"))
    c = FinSetObj(("e1", "e2"))
    res = tensor_cotensor(X, c, "tensor", [SINGLETON])
    assert res.report.ok and res.report.checked > 0


def test_tensor_cotensor_in_category_with_full_witness():
    from fincat.finset import tensor_cotensor_in_category
    c3 = chain(3)
    X = FinSetObj(("w0", "w1"))
    obj, rep = tensor_cotensor_in_category(X, "1", c3, "tensor")
    assert obj == "1" and rep.ok
    obj, rep = tensor_cotensor_in_category(X, "1", c3, "cotensor")
    assert obj == "1" and rep.ok
    obj, rep = tensor_cotensor_in_category(FinSetObj(()), "0", c3, "cotensor")
    assert obj == "2" and rep.ok   # empty power is terminal


def test_compose_dispatcher_accepts_spec_mode_spellings():
    from fincat.core import compose, identity_functor, identity_nat
    two = walking_arrow()
    I = identity_functor(two)
    assert compose(I, I, "functor•functor") == compose(I, I, "functor*functor")
    n = identity_nat(I)
    assert compose(n, n, "nat∘nat") == n
    assert compose(n, n, "nat•nat").components == dict(n.components)
    assert compose(n, I, "nat•functor").components == dict(n.components)
    assert compose(I, n, "functor•nat").components == dict(n.components)


def test_validate_adjunction_reports_bijectivity_distinctly():
    from fincat.adjunction import convert, validate_adjunction
    from fincat.core import NatTrans, compose_functors, identity_functor
    from fincat.finset import FinSetMap
    from fincat.fixtures import parallel_pair
    pp = parallel_pair()
    Ip = identity_functor(pp)
    eta = NatTrans("unit", identity_functor(pp), compose_functors(Ip, Ip),
                   {c: pp.id_of(c) for c in pp.objects})
    adj = convert(Ip, Ip, "unit->phi", unit=eta)
    bad = dict(adj.hom_iso)
    comp = bad[("0", "1")]
    bad[("0", "1")] = FinSetMap(comp.dom, comp.cod,
                                {x: comp.table[comp.dom.sorted()[0]]
                                 for x in comp.dom.elements})
    rep = validate_adjunction(Ip, Ip, bad)
    assert not rep.ok
    assert rep.counterexample.law == "transposition-bijectivity"


def test_yoneda_embedding_on_monoid_category():
    from fincat.finset import yoneda_embedding
    from fincat.core import fully_faithful_check, validate_category
    from fincat.fixtures import z2_monoid
    img = yoneda_embedding(z2_monoid())
    assert validate_category(img.image).ok
    assert fully_faithful_check(img.embedding).ok
    assert len(img.image.morphisms) == 2
