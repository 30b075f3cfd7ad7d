import itertools
import random

import pytest

import fincat.finset
from fincat.core import (
    GuardExceeded,
    StructuralError,
    budget,
    identity_functor,
    op_product,
    opposite,
)
from fincat.finset import (
    FinSetMap,
    FinSetObj,
    NOT_BIJECTIVE,
    SINGLETON,
    SetFunctor,
    SetNatTrans,
    all_maps,
    const_set_functor,
    enumerate_set_naturals,
    exponential_adjunction_check,
    hom_functor,
    identity_set_nat,
    nat_bijection,
    presheaf_exponential,
    product_set_functor,
    tensor_cotensor,
    validate_set_functor,
    validate_set_natural,
    vcompose_set,
    yoneda_check,
    yoneda_embedding,
    yoneda_map,
)
from fincat.core import fully_faithful_check
from fincat.fixtures import chain, parallel_pair, terminal_category, walking_arrow, z2_monoid
from fincat.kan import (
    LEFT,
    RIGHT,
    coyoneda_witness,
    end_coend,
    kan_pointwise,
    lan_via_coend,
    nerve_realization_check,
    weighted_limit,
)
from fincat.limits import COLIMIT, LIMIT, limit_finset
from fincat.universal import elements_category, representability
from fincat.randgen import random_category, random_representable_sum


def test_hom_functor_values_on_walking_arrow():
    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    assert validate_set_functor(y0).ok
    assert y0.on_obj["0"].sorted() == ("id_0",)
    assert y0.on_obj["1"].sorted() == ("a",)
    y1op = hom_functor(two, "1", "contravariant")
    assert y1op.dom == opposite(two)
    assert y1op.on_obj["0"].sorted() == ("a",)
    assert y1op.on_obj["1"].sorted() == ("id_1",)
    for C in (two, z2_monoid(), chain(3)):
        for c in C.objects:
            yc = hom_functor(C, c, "covariant")
            assert C.id_of(c) in yc.on_obj[c]
            assert validate_set_functor(yc).ok


def test_a_malformed_set_functor_gets_one_error_from_every_reader():
    """A missing object value and a stray object or morphism key raise
    validate_set_functor's StructuralError from every reader of its tables,
    and a stray component key raises from validate_set_natural."""
    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    cases = [
        ({"0": y0.on_obj["0"]}, y0.on_mor, "X: no value at object 1"),
        ({**y0.on_obj, "2": SINGLETON}, y0.on_mor, "X: object values names 2, which is not in 2"),
        (y0.on_obj, {**y0.on_mor, "b": y0.on_mor["id_0"]},
         "X: morphism tables names b, which is not in 2"),
    ]
    readers = [validate_set_functor, lambda X: enumerate_set_naturals(X, y0),
               lambda X: enumerate_set_naturals(y0, X),
               lambda X: limit_finset(X, LIMIT), lambda X: limit_finset(X, COLIMIT),
               lambda X: product_set_functor(X, y0), lambda X: product_set_functor(y0, X),
               lambda X: presheaf_exponential(X, y0), lambda X: presheaf_exponential(y0, X),
               representability, elements_category,
               lambda X: kan_pointwise(identity_functor(two), X, LEFT),
               lambda X: kan_pointwise(identity_functor(two), X, RIGHT),
               lambda X: lan_via_coend(identity_functor(two), X),
               lambda X: coyoneda_witness(X, "0"),
               lambda X: nerve_realization_check(identity_functor(opposite(two)), X, "0"),
               lambda X: weighted_limit(X, y0, LIMIT), lambda X: weighted_limit(y0, X, LIMIT),
               lambda X: weighted_limit(hom_functor(two, "0", "contravariant"), X, COLIMIT)]
    for on_obj, on_mor, message in cases:
        for read in readers:
            with pytest.raises(StructuralError) as e:
                read(SetFunctor("X", two, on_obj, on_mor))
            assert str(e.value) == message
    # a Set bifunctor on op(2) x 2 gets validate_set_functor's error from end_coend
    P = op_product(two)
    B = const_set_functor(P, SINGLETON, "B")
    for on_obj, on_mor in [({o: V for o, V in B.on_obj.items() if o != "(1,1)"}, B.on_mor),
                           ({**B.on_obj, "zz": SINGLETON}, B.on_mor),
                           (B.on_obj, {**B.on_mor, "b": B.on_mor[P.id_of("(0,0)")]})]:
        bad = SetFunctor("B", P, on_obj, on_mor)
        with pytest.raises(StructuralError) as e:
            validate_set_functor(bad)
        for side in ("end", "coend"):
            with pytest.raises(StructuralError) as e2:
                end_coend(bad, two, side)
            assert str(e2.value) == str(e.value)
    t = identity_set_nat(y0)
    with pytest.raises(StructuralError) as e:
        validate_set_natural(SetNatTrans(t.name, y0, y0, {**t.components, "zz": t.components["0"]}))
    assert str(e.value) == "id_hom(0,-): component family names zz, which is not in 2"


def test_enumerate_naturals_oracle_yoneda_count():
    # |Nat(y^c, X)| = |X(c)| ; independent oracle enumerates raw families
    two = walking_arrow()
    for c in two.objects:
        yc = hom_functor(two, c, "covariant")
        for X in (yc, hom_functor(two, "0", "covariant"), const_set_functor(two, SINGLETON)):
            nats = enumerate_set_naturals(yc, X)
            raw = 0
            objs = sorted(two.objects)
            for choice in itertools.product(
                    *[all_maps(yc.on_obj[a], X.on_obj[a]) for a in objs]):
                t = SetNatTrans("t", yc, X, dict(zip(objs, choice)))
                if validate_set_natural(t).ok:
                    raw += 1
            assert raw == len(nats) == len(X.on_obj[c])


def test_yoneda_round_trips():
    two = walking_arrow()
    c = "0"
    yc = hom_functor(two, c, "covariant")
    # alpha on the identity transformation gives id_c
    assert yoneda_map("alpha", two, c, yc, identity_set_nat(yc)) == two.id_of(c)
    for X in (yc, hom_functor(two, "1", "covariant"), const_set_functor(two, FinSetObj(("p", "q")))):
        for x in X.on_obj[c].sorted():
            t = yoneda_map("beta", two, c, X, x)
            assert validate_set_natural(t).ok
            assert yoneda_map("alpha", two, c, X, t) == x
        for t in enumerate_set_naturals(yc, X):
            x = yoneda_map("alpha", two, c, X, t)
            assert yoneda_map("beta", two, c, X, x) == t


def test_yoneda_naturality_in_c_and_X():
    C = chain(3)
    X = hom_functor(C, "0", "covariant")
    Y = const_set_functor(C, FinSetObj(("u", "v")))
    for c in C.objects:
        yc = hom_functor(C, c, "covariant")
        for t in enumerate_set_naturals(yc, X):
            # commutes with the action of p: c -> d
            for d in C.objects:
                for p in C.hom(c, d):
                    yd = hom_functor(C, d, "covariant")
                    shifted = SetNatTrans("s", yd, X, {
                        a: FinSetMap(yd.on_obj[a], X.on_obj[a],
                                     {g: t.components[a](C.comp(g, p)) for g in C.hom(d, a)})
                        for a in C.objects})
                    lhs = yoneda_map("alpha", C, d, X, shifted)
                    rhs = X.on_mor[p](yoneda_map("alpha", C, c, X, t))
                    assert lhs == rhs
            # commutes with postcomposition by sigma: X => Y
            for sigma in enumerate_set_naturals(X, Y)[:3]:
                lhs = yoneda_map("alpha", C, c, Y, vcompose_set(sigma, t))
                rhs = sigma.components[c](yoneda_map("alpha", C, c, X, t))
                assert lhs == rhs


def test_yoneda_beta_rejects_foreign_element():
    two = walking_arrow()
    X = hom_functor(two, "0", "covariant")
    with pytest.raises(StructuralError):
        yoneda_map("beta", two, "0", X, "nonsense")


def test_yoneda_embedding_small_cases():
    one = terminal_category()
    img = yoneda_embedding(one)
    assert len(img.image.objects) == 1
    assert len(img.presheaves["y[*]"].on_obj["*"]) == 1

    two = walking_arrow()
    img = yoneda_embedding(two)
    assert fully_faithful_check(img.embedding).ok
    # |Nat(y_0, y_1)| = |hom(0,1)| = 1
    n01 = [m for m in img.image.morphisms if m.dom == "y[0]" and m.cod == "y[1]"
           and m.name != img.image.identity.get(m.dom)]
    assert len(n01) == 1

    # y_(gf) = y_g . y_f on a 3-object chain: table comparison
    C = chain(3)
    img = yoneda_embedding(C)
    f, g, gf = "c01", "c12", "c02"
    composed = vcompose_set(img.nats[f"y[{g}]"], img.nats[f"y[{f}]"])
    assert {a: m.table for a, m in composed.components.items()} == \
           {a: m.table for a, m in img.nats[f"y[{gf}]"].components.items()}


def test_yoneda_check_counts_every_element_and_transformation():
    rng = random.Random(11)
    cats = [terminal_category(), walking_arrow(), parallel_pair(), z2_monoid(), chain(3)]
    cats += [random_category(rng, 3, 6) for _ in range(4)]
    for C in cats:
        family = [hom_functor(C, c, "covariant") for c in C.sorted_objects()]
        family.append(random_representable_sum(rng, C))
        oracle = sum(len(X.on_obj[c]) + len(enumerate_set_naturals(
            hom_functor(C, c, "covariant"), X)) for c in C.objects for X in family)
        rep = yoneda_check(C, family)
        assert rep.ok and rep.checked == oracle, C.name


def test_yoneda_embedding_rejects_unrepresented_transformations(monkeypatch):
    def one_family_fewer(*args):
        tried, bad, n = nat_bijection(*args)
        return tried, bad, n - 1

    monkeypatch.setattr(fincat.finset, "nat_bijection", one_family_fewer)
    with pytest.raises(StructuralError, match="do not match the represented"):
        yoneda_embedding(walking_arrow())


def test_tensor_cotensor_sizes_and_adjunction():
    X = FinSetObj(("x1", "x2"))
    c = FinSetObj(("e1", "e2", "e3"))
    probes = [SINGLETON, FinSetObj(("p", "q"))]
    t = tensor_cotensor(X, c, "tensor", probes)
    assert len(t.object) == 6
    assert t.report.ok
    ct = tensor_cotensor(X, c, "cotensor", probes)
    assert len(ct.object) == 9
    assert ct.report.ok
    # singleton X: both reduce to c itself up to bijection
    t1 = tensor_cotensor(SINGLETON, c, "tensor", [FinSetObj(("p", "q"))])
    ct1 = tensor_cotensor(SINGLETON, c, "cotensor", [FinSetObj(("p", "q"))])
    assert len(t1.object) == len(c) == len(ct1.object)
    assert t1.report.ok and ct1.report.ok


def _count_all_maps(monkeypatch) -> list:
    """Record the (|X|, |Y|) of every all_maps call from here on."""
    calls, real = [], fincat.finset.all_maps
    monkeypatch.setattr(fincat.finset, "all_maps",
                        lambda X, Y: calls.append((len(X), len(Y))) or real(X, Y))
    return calls


def test_tensor_cotensor_lists_each_probe_hom_set_once(monkeypatch):
    # Set(c, c'), Set(X, c') and Set(X (x) c, c'): three lists per probe
    calls = _count_all_maps(monkeypatch)
    X, c = FinSetObj(("x1", "x2")), FinSetObj(("e1", "e2"))
    probes = [SINGLETON, FinSetObj(("p", "q"))]
    assert tensor_cotensor(X, c, "tensor", probes).report.ok
    assert calls == [(2, 1), (2, 1), (4, 1), (2, 2), (2, 2), (4, 2)]
    calls.clear()
    # the power object itself is one more list
    assert tensor_cotensor(X, c, "cotensor", probes).report.ok
    assert len(calls) == 1 + 3 * len(probes)


def test_tensor_cotensor_charges_a_probe_s_lists_before_building_any(monkeypatch):
    # 3^2 + 3^3 + 3^6 = 765 maps: each list passes budget(700) alone, the sum does not
    calls = _count_all_maps(monkeypatch)
    X, c = FinSetObj(("x1", "x2", "x3")), FinSetObj(("e1", "e2"))
    with budget(700), pytest.raises(GuardExceeded) as e:
        tensor_cotensor(X, c, "tensor", [FinSetObj(("p", "q", "r"))])
    assert str(e.value) == ("map enumeration for tensor adjunction at probe ('p', 'q', 'r'): "
                            "765 maps exceeds guard 700")
    assert calls == []


def test_presheaf_exponential_on_terminal_category():
    one = terminal_category()
    op1 = opposite(one)
    F = const_set_functor(op1, FinSetObj(("a", "b")), "F")
    G = const_set_functor(op1, FinSetObj(("u", "v", "w")), "G")
    exp = presheaf_exponential(F, G)
    # G^F(*) = Set(F*, G*): size |G|^|F|
    assert len(exp.functor.on_obj["*"]) == 3 ** 2
    rep = exponential_adjunction_check(F, G, exp, [F, G, const_set_functor(op1, SINGLETON)])
    assert rep.ok


def test_presheaf_exponential_terminal_weight_gives_G():
    two = walking_arrow()
    op2 = opposite(two)
    F = const_set_functor(op2, SINGLETON, "T")     # terminal presheaf
    G = hom_functor(two, "1", "contravariant")
    exp = presheaf_exponential(F, G)
    for a in two.objects:
        assert len(exp.functor.on_obj[a]) == len(G.on_obj[a])
    assert validate_set_functor(exp.functor).ok
    rep = exponential_adjunction_check(F, G, exp, [G, F])
    assert rep.ok


def test_presheaf_exponential_self_hom_on_walking_arrow():
    two = walking_arrow()
    F = hom_functor(two, "1", "contravariant")
    exp = presheaf_exponential(F, F)
    # |F^F(1)| equals |Nat(y_1 x F, F)| by the double-enumeration oracle
    y1 = hom_functor(two, "1", "contravariant")
    oracle = enumerate_set_naturals(product_set_functor(y1, F), F)
    assert len(exp.functor.on_obj["1"]) == len(oracle)
    assert validate_set_functor(exp.functor).ok


def test_presheaf_exponential_builds_each_base_once(monkeypatch):
    # y_c x F is built once per object c, not again for each arrow into c
    calls = []
    real = fincat.finset.product_set_functor
    monkeypatch.setattr(fincat.finset, "product_set_functor",
                        lambda *args: calls.append(args) or real(*args))
    for C in (walking_arrow(), chain(3), parallel_pair()):
        F = hom_functor(C, "1", "contravariant")
        calls.clear()
        exp = presheaf_exponential(F, F)
        assert len(calls) == len(C.objects)
        assert validate_set_functor(exp.functor).ok


def test_exponential_adjunction_check_refuses_a_foreign_exp():
    # exp must be built from the F and G checked: another exponential is named, not
    # read (its index has no (id_0, a), or its elements are not G's)
    two = walking_arrow()
    F, G = hom_functor(two, "1", "contravariant"), hom_functor(two, "0", "contravariant")
    for exp in (presheaf_exponential(G, F), presheaf_exponential(F, F)):
        with pytest.raises(StructuralError) as e:
            exponential_adjunction_check(F, G, exp, [F])
        assert str(e.value) == f"{exp.functor.name} is not the exponential (hom(0,-)^hom(1,-))"


def test_exponential_adjunction_check_failures_keep_their_payloads(monkeypatch):
    # each failure of the certificate at the second probe: the count check runs
    # before that probe's sources are counted, the other two after
    two = walking_arrow()
    F, G = hom_functor(two, "1", "contravariant"), hom_functor(two, "0", "contravariant")
    exp = presheaf_exponential(F, G)
    real = fincat.finset.nat_bijection

    def failing_second(change):
        calls = []

        def patched(*args):
            calls.append(args)
            tried, bad, n = real(*args)
            return change(tried, bad, n) if len(calls) == 2 else (tried, bad, n)
        return patched

    payloads = []
    for change in (lambda tried, bad, n: (tried, bad, n + 1),
                   lambda tried, bad, n: (tried, NOT_BIJECTIVE, n),
                   lambda tried, bad, n: (tried, "s", n)):
        monkeypatch.setattr(fincat.finset, "nat_bijection", failing_second(change))
        payloads.append(exponential_adjunction_check(F, G, exp, [G, G]).to_json())
    law = "exponential-adjunction"
    assert payloads == [
        {"ok": False, "checked": 1, "counterexample": {"law": law, "details": {
            "lhs": "1", "probe": "hom(0,-)", "rhs": "2"}}},
        {"ok": False, "checked": 2, "counterexample": {"law": law, "details": {
            "failure": "transpose not bijective", "probe": "hom(0,-)"}}},
        {"ok": False, "checked": 2, "counterexample": {"law": law, "details": {
            "failure": "transpose not natural", "probe": "hom(0,-)"}}}]


def test_nat_bijection_outcomes():
    # Yoneda on the walking arrow: x in Y(0) |-> (p |-> Y(p)(x)), onto Nat(hom(0,-), Y)
    two = walking_arrow()
    Y0, Y1 = FinSetObj(("x0", "x1")), FinSetObj(("y0", "y1"))
    Y = SetFunctor("Y", two, {"0": Y0, "1": Y1},
                   {"id_0": FinSetMap(Y0, Y0, {"x0": "x0", "x1": "x1"}),
                    "id_1": FinSetMap(Y1, Y1, {"y0": "y0", "y1": "y1"}),
                    "a": FinSetMap(Y0, Y1, {"x0": "y0", "x1": "y1"})})
    X = hom_functor(two, "0", "covariant")
    assert len(enumerate_set_naturals(X, Y)) == 2

    def yoneda(x, c, p):
        return Y.on_mor[p](x)

    assert nat_bijection(X, Y, ["x0", "x1"], yoneda) == (2, None, 2)

    def skewed(x, c, p):
        # x1's family sends a to y0 at 1 but id_0 to x1 at 0: not natural
        return "y0" if c == "1" else x

    assert nat_bijection(X, Y, ["x0", "x1"], skewed) == (2, "x1", 2)
    assert nat_bijection(X, Y, ["x1", "x0"], skewed) == (1, "x1", 2)
    # two sources, one image
    assert nat_bijection(X, Y, ["x0", "x1"],
                         lambda x, c, p: yoneda("x0", c, p)) == (2, NOT_BIJECTIVE, 2)
    # injective, but a member of the target is missed
    assert nat_bijection(X, Y, ["x1"], yoneda) == (1, NOT_BIJECTIVE, 2)
    assert nat_bijection(X, Y, [], yoneda) == (0, NOT_BIJECTIVE, 2)


def test_nat_bijection_names_an_image_outside_the_codomain():
    two = walking_arrow()
    X = hom_functor(two, "0", "covariant")
    with pytest.raises(StructuralError, match=r"^image zz outside codomain$"):
        nat_bijection(X, X, ["id_0"], lambda s, c, p: "zz" if c == "1" else p)


def test_nat_bijection_builds_no_map_or_transformation(monkeypatch):
    # the Yoneda bijection of chain(3) at 0 for X = hom(0,-) x {u, v}
    C = chain(3)
    yc = hom_functor(C, "0", "covariant")
    X = product_set_functor(yc, const_set_functor(C, FinSetObj(("u", "v"))))

    def refuse(*args, **kwargs):
        raise AssertionError("nat_bijection built a map or a transformation")

    monkeypatch.setattr(fincat.finset, "FinSetMap", refuse)
    monkeypatch.setattr(fincat.finset, "SetNatTrans", refuse)
    assert nat_bijection(yc, X, X.on_obj["0"].sorted(),
                         lambda x, c, p: X.on_mor[p](x)) == (2, None, 2)
