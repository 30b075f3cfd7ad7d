import pytest

from fincat.core import (
    Functor,
    StructuralError,
    compose_functors,
    identity_functor,
    make_category,
    validate_category,
    validate_functor,
    validate_natural,
)
from fincat.finset import (
    FinSetObj,
    SINGLETON,
    hom_functor,
    validate_set_functor,
)
from fincat.fixtures import discrete, pick_object, terminal_category, walking_arrow, chain
from fincat.universal import (
    UniversalWitness,
    comma_category,
    comma_from_object,
    comma_to_object,
    elements_category,
    essentially_unique,
    extremal_object,
    representability,
    universal_morphism,
    verify_universal,
)


def test_comma_K_down_d_shapes():
    two = walking_arrow()
    K = pick_object(two, "0", "K")
    for d, arrow in (("0", "id_0"), ("1", "a")):
        comma = comma_to_object(K, d)
        assert len(comma.cat.objects) == 1
        assert list(comma.pairs.values()) == [("*", arrow)]
        assert validate_category(comma.cat).ok
        assert validate_functor(comma.forgetful).ok
        assert validate_natural(comma.canonical).ok


def test_comma_id_down_d_over_walking_arrow():
    two = walking_arrow()
    comma = comma_to_object(identity_functor(two), "1")
    assert sorted(comma.pairs.values()) == [("0", "a"), ("1", "id_1")]
    non_id = [m for m in comma.cat.morphisms
              if comma.cat.identity[m.dom] != m.name]
    assert len(non_id) == 1
    assert validate_category(comma.cat).ok


def test_elements_category_equals_comma_lemma():
    # el(y^0) over the walking arrow coincides with the comma of 0 into id
    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    el = elements_category(y0)
    comma = comma_from_object("0", identity_functor(two))
    assert set(el.cat.objects) == set(comma.cat.objects)
    assert {m.name for m in el.cat.morphisms} == {m.name for m in comma.cat.morphisms}
    assert dict(el.cat.compose) == dict(comma.cat.compose)


def test_extremal_objects():
    two = walking_arrow()
    ini = extremal_object(two, "initial")
    ter = extremal_object(two, "terminal")
    assert ini.object == "0" and ini.connecting == {"0": "id_0", "1": "a"}
    assert ter.object == "1"
    d2 = discrete(2)
    assert extremal_object(d2, "initial") is None
    assert extremal_object(d2, "terminal") is None
    one = terminal_category()
    assert extremal_object(one, "initial").object == "*"
    assert extremal_object(one, "terminal").object == "*"


def test_universal_morphism_identity_functor():
    two = walking_arrow()
    for c in two.objects:
        w = universal_morphism(c, identity_functor(two))
        assert w.vertex == c and w.arrow == two.id_of(c)
        assert w.report.ok


def test_universal_morphism_pick_and_absent():
    two = walking_arrow()
    G = pick_object(two, "1", "G")
    w = universal_morphism("0", G)
    assert (w.vertex, w.arrow) == ("*", "a")
    # discrete target: no arrow from the other object
    d2 = discrete(2)
    G2 = pick_object(d2, "d0", "G2")
    assert universal_morphism("d1", G2) is None


def test_universal_arrows_are_found_without_building_a_comma(monkeypatch):
    from fincat import universal
    from fincat.adjunction import adjoint_from_universals, validate_adjunction

    def no_comma(*args, **kwargs):
        raise AssertionError("a comma category was built")

    monkeypatch.setattr(universal, "_build_comma", no_comma)
    two = walking_arrow()
    G = pick_object(two, "1", "G")
    w = universal_morphism("0", G)
    assert (w.vertex, w.arrow, w.report.ok) == ("*", "a", True)
    assert universal_morphism("1", G, "to-object").arrow == "id_1"
    assert universal_morphism("d1", pick_object(discrete(2), "d0", "G2")) is None
    for side in ("left", "right"):
        adj = adjoint_from_universals(identity_functor(chain(3)), side)
        assert validate_adjunction(adj.left, adj.right, adj.hom_iso).ok
    assert adjoint_from_universals(G, "left") is not None
    assert adjoint_from_universals(G, "right") is None


def test_verify_universal_detects_bad_witness():
    two = walking_arrow()
    G = identity_functor(two)
    # ⟨1, a⟩ is an object of 0↓id but not initial: factorizations of id_0 through a fail
    bad = UniversalWitness("1", "a", "from-object", None)
    rep = verify_universal(bad, "0", G)
    assert not rep.ok
    assert rep.counterexample.law == "universal-factorization"
    assert rep.counterexample.details["count"] != 1


def test_universal_yoneda_case():
    # ⟨y^c, id_c⟩ is universal from the singleton to evaluation at c, checked
    # over the materialized image: equivalently el(y^c) has initial ⟨c, id_c⟩
    C = chain(3)
    for c in C.objects:
        yc = hom_functor(C, c, "covariant")
        el = elements_category(yc)
        ext = extremal_object(el.cat, "initial")
        assert ext is not None
        assert el.pairs[ext.object] == (c, C.id_of(c))


def test_essential_uniqueness_on_parallel_candidates():
    # two isomorphic initial objects: category with objects i1, i2 isomorphic
    from fincat.core import make_category
    C = make_category(
        "twins", ["i1", "i2", "z"],
        [("f", "i1", "i2"), ("g", "i2", "i1"), ("p", "i1", "z"), ("q", "i2", "z")],
        {("g", "f"): "id_i1", ("f", "g"): "id_i2",
         ("q", "f"): "p", ("p", "g"): "q"},
    )
    assert validate_category(C).ok
    G = identity_functor(C)
    w1 = universal_morphism("i1", G)
    assert w1.vertex == "i1"
    w2 = UniversalWitness("i2", "f", "from-object", None)
    assert verify_universal(w2, "i1", G).ok
    assert essentially_unique("i1", G, w1, w2).ok


def test_universal_composition_lemma():
    # stacked functors: universal into G after universal into G' composes
    two = walking_arrow()
    one = terminal_category()
    G = pick_object(two, "1", "G")          # 1 -> 2
    Gp = identity_functor(one)               # 1 -> 1
    w_eta = universal_morphism("0", G)       # ⟨*, a⟩
    w_etap = universal_morphism(w_eta.vertex, Gp)
    # v = (G * eta') . eta with eta' the identity arrow here
    GG = compose_functors(G, Gp)
    w_v = universal_morphism("0", GG)
    v = two.comp(G.mor_map[Gp.cod.id_of(w_etap.vertex)], w_eta.arrow)
    assert w_v.arrow == v
    assert verify_universal(UniversalWitness(w_v.vertex, v, "from-object", None),
                            "0", GG).ok


def test_transport_along_invertible_functor():
    # relabeling iso P: 2 -> 2' transports universality
    from fincat.core import make_category
    two = walking_arrow()
    two_p = make_category("2p", ["x", "y"], [("b", "x", "y")], {})
    P = Functor("P", two, two_p, {"0": "x", "1": "y"},
                {"id_0": "id_x", "id_1": "id_y", "a": "b"})
    assert validate_functor(P).ok
    G = pick_object(two, "1", "G")
    w = universal_morphism("0", G)
    PG = compose_functors(P, G)
    wp = UniversalWitness(w.vertex, P.mor_map[w.arrow], "from-object", None)
    assert verify_universal(wp, P.obj_map["0"], PG).ok


def test_representability_cases():
    two = walking_arrow()
    y0 = hom_functor(two, "0", "covariant")
    rep = representability(y0)
    assert rep is not None and rep.object == "0"
    assert rep.iso.is_iso()
    # X(0) empty, X(1) singleton matches the value pattern of hom(1,-), so it
    # is representable after all
    from fincat.finset import FinSetMap
    X1 = type(y0)("X1", two,
                  {"0": FinSetObj(()), "1": SINGLETON},
                  {"id_0": FinSetMap(FinSetObj(()), FinSetObj(()), {}),
                   "id_1": FinSetMap(SINGLETON, SINGLETON, {"*": "*"}),
                   "a": FinSetMap(FinSetObj(()), SINGLETON, {})})
    assert validate_set_functor(X1).ok
    got = representability(X1)
    assert got is not None and got.object == "1"
    # a value pattern matching no hom pattern has no representation
    two_elt = FinSetObj(("p", "q"))
    X2 = type(y0)("X2", two,
                  {"0": two_elt, "1": SINGLETON},
                  {"id_0": FinSetMap(two_elt, two_elt, {"p": "p", "q": "q"}),
                   "id_1": FinSetMap(SINGLETON, SINGLETON, {"*": "*"}),
                   "a": FinSetMap(two_elt, SINGLETON, {"p": "*", "q": "*"})})
    assert validate_set_functor(X2).ok
    assert representability(X2) is None
    # representation found => category of elements has an initial object
    el = elements_category(y0)
    assert extremal_object(el.cat, "initial") is not None


def test_comma_dispatch_and_errors():
    two = walking_arrow()
    G = identity_functor(two)
    assert comma_category("c↓G", "0", G).cat.objects
    assert comma_category("G↓c", G, "0").cat.objects
    with pytest.raises(StructuralError):
        comma_category("weird", G, "0")
    with pytest.raises(StructuralError):
        comma_from_object("missing", G)


def _comma_over_comma_names(arrow: str):
    """Arrows out of c into G: disc{u, "u,v"} -> C, G(u) = p, G("u,v") = q,
    with arrow: c -> p and w: c -> q."""
    D = make_category("D", ["u", "u,v"], [], {})
    C = make_category("C", ["c", "p", "q"], [(arrow, "c", "p"), ("w", "c", "q")], {})
    G = Functor("G", D, C, {"u": "p", "u,v": "q"}, {"id_u": "id_p", "id_u,v": "id_q"})
    return comma_from_object("c", G)


def test_comma_ids_that_collide_are_structural():
    # ⟨u,v,w⟩ names both (u, "v,w") and ("u,v", w)
    with pytest.raises(StructuralError, match="⟨u,v,w⟩"):
        _comma_over_comma_names("v,w")
    comma = _comma_over_comma_names("vw")
    assert comma.cat.objects == ("⟨u,v,w⟩", "⟨u,vw⟩")
    assert comma.pairs == {"⟨u,v,w⟩": ("u,v", "w"), "⟨u,vw⟩": ("u", "vw")}
    assert validate_category(comma.cat).ok


def test_elements_canonical_family_is_natural():
    from fincat.finset import validate_set_natural, hom_functor
    two = walking_arrow()
    el = elements_category(hom_functor(two, "0", "covariant"))
    assert validate_set_natural(el.canonical).ok
