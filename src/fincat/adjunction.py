"""Adjunctions: hom-set bijections, unit/counit conversion, snake equations,
synthesis from universal morphisms, and equivalence upgrading."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .core import (
    Functor,
    NatTrans,
    Report,
    StructuralError,
    _check_natural,
    compose_functors,
    factorizations,
    fail_report,
    identity_functor,
    ok_report,
    opposite_functor,
)
from .finset import FinSetMap, FinSetObj
from .universal import FROM_OBJECT, universal_morphism


@dataclass(frozen=True, eq=False)
class Adjunction:
    """left -| right with the transposition tables and their derived unit/counit.

    hom_iso[(c, d)] maps D(Fc, d) to C(c, Gd); eta and epsilon are caches kept
    consistent by construction and re-derivable from hom_iso.
    """

    left: Functor
    right: Functor
    hom_iso: Mapping[tuple[str, str], FinSetMap]
    unit: NatTrans
    counit: NatTrans


def validate_adjunction(F: Functor, G: Functor,
                        hom_iso: Mapping[tuple[str, str], FinSetMap]) -> Report:
    """Check bijectivity of every component and naturality in both variables.

    Naturality instance: phi(h . f . Fg) = Gh . phi(f) . g for g: c' -> c in C,
    f: Fc -> d, h: d -> d'.
    """
    C, D = F.dom, F.cod
    if G.dom != D or G.cod != C:
        raise StructuralError("adjunction functors do not form a cycle")
    checked = 0
    for c in C.objects:
        for d in D.objects:
            if (c, d) not in hom_iso:
                raise StructuralError(f"hom_iso missing component at ({c},{d})")
            comp = hom_iso[(c, d)]
            want_dom = FinSetObj(D.hom(F.obj_map[c], d))
            want_cod = FinSetObj(C.hom(c, G.obj_map[d]))
            if comp.dom != want_dom or comp.cod != want_cod:
                raise StructuralError(f"hom_iso component at ({c},{d}) has wrong endpoints")
            checked += 1
            if not comp.is_bijection():
                return fail_report(checked, "transposition-bijectivity",
                                   at=f"({c},{d})",
                                   sizes=f"{len(comp.dom)}->{len(comp.cod)}")
    for c in C.sorted_objects():
        for d in D.sorted_objects():
            for f in D.hom(F.obj_map[c], d):
                for cp in C.sorted_objects():
                    for g in C.hom(cp, c):
                        for dp in D.sorted_objects():
                            for h in D.hom(d, dp):
                                checked += 1
                                lhs = hom_iso[(cp, dp)](
                                    D.comp_path(F.mor_map[g], f, h))
                                rhs = C.comp_path(g, hom_iso[(c, d)](f),
                                                  G.mor_map[h])
                                if lhs != rhs:
                                    return fail_report(
                                        checked, "transposition-naturality",
                                        at=f"({c},{d})", f=f, g=g, h=h)
    return ok_report(checked)


def unit_counit_from_phi(F: Functor, G: Functor,
                         hom_iso: Mapping[tuple[str, str], FinSetMap]
                         ) -> tuple[NatTrans, NatTrans]:
    C, D = F.dom, F.cod
    eta = NatTrans("unit", identity_functor(C), compose_functors(G, F),
                   {c: hom_iso[(c, F.obj_map[c])](D.id_of(F.obj_map[c]))
                    for c in C.objects})
    eps = NatTrans("counit", compose_functors(F, G), identity_functor(D),
                   {d: hom_iso[(G.obj_map[d], d)].inverse()(C.id_of(G.obj_map[d]))
                    for d in D.objects})
    return eta, eps


def phi_from_unit(F: Functor, G: Functor, eta: NatTrans
                  ) -> dict[tuple[str, str], FinSetMap]:
    """Transpose via the unit: f |-> Gf . eta_c."""
    C, D = F.dom, F.cod
    out = {}
    for c in C.objects:
        for d in D.objects:
            dom = FinSetObj(D.hom(F.obj_map[c], d))
            cod = FinSetObj(C.hom(c, G.obj_map[d]))
            out[(c, d)] = FinSetMap(dom, cod, {
                f: C.comp(G.mor_map[f], eta.components[c]) for f in dom.elements})
    return out


def convert(F: Functor, G: Functor, mode: str, *,
            hom_iso: Mapping[tuple[str, str], FinSetMap] | None = None,
            unit: NatTrans | None = None,
            counit: NatTrans | None = None) -> Adjunction:
    """Complete an adjunction record from either description.

    mode "phi->unit" derives eta and epsilon from the tables; "unit->phi"
    rebuilds the tables from eta.  Either way the finished record passes
    validate_adjunction and the round trip is an exact table identity.
    """
    if mode == "phi->unit":
        if hom_iso is None:
            raise StructuralError("mode phi->unit requires hom_iso")
        rep = validate_adjunction(F, G, hom_iso)
        if not rep.ok:
            raise StructuralError(f"invalid transposition tables: {rep.counterexample}")
        eta, eps = unit_counit_from_phi(F, G, hom_iso)
        return Adjunction(F, G, dict(hom_iso), eta, eps)
    if mode == "unit->phi":
        if unit is None:
            raise StructuralError("mode unit->phi requires the unit")
        iso = phi_from_unit(F, G, unit)
        rep = validate_adjunction(F, G, iso)
        if not rep.ok:
            raise StructuralError(
                f"unit does not induce a natural bijection: {rep.counterexample}")
        eta, eps = unit_counit_from_phi(F, G, iso)
        if dict(eta.components) != dict(unit.components):
            raise StructuralError("unit is not reproduced by its own transposition")
        if counit is not None and dict(eps.components) != dict(counit.components):
            raise StructuralError("supplied counit disagrees with the derived one")
        return Adjunction(F, G, iso, eta, eps)
    raise StructuralError(f"unknown conversion mode {mode!r}")


def snake_check(F: Functor, G: Functor, eta: NatTrans, eps: NatTrans) -> Report:
    """Both triangle identities, componentwise, with located counterexamples,
    for a unit id_C => G.F and a counit F.G => id_D (functors compared by key)."""
    C, D = F.dom, F.cod
    for alpha, law, src, tgt in ((eta, "unit", identity_functor(C), compose_functors(G, F)),
                                 (eps, "counit", compose_functors(F, G), identity_functor(D))):
        # Functor ==, part by part, so that no key is computed
        if any((X.dom, X.cod, X.obj_map, X.mor_map) != (Y.dom, Y.cod, Y.obj_map, Y.mor_map)
               for X, Y in ((alpha.src, src), (alpha.tgt, tgt))):
            raise StructuralError(f"{alpha.name}: the {law} is not {src.name} => {tgt.name}")
        _check_natural(alpha)
    checked = 0
    for d in D.sorted_objects():
        checked += 1
        lhs = C.comp(G.mor_map[eps.components[d]], eta.components[G.obj_map[d]])
        if lhs != C.id_of(G.obj_map[d]):
            return fail_report(checked, "snake-left", at=d, got=lhs)
    for c in C.sorted_objects():
        checked += 1
        lhs = D.comp(eps.components[F.obj_map[c]], F.mor_map[eta.components[c]])
        if lhs != D.id_of(F.obj_map[c]):
            return fail_report(checked, "snake-right", at=c, got=lhs)
    return ok_report(checked)


def adjoint_from_universals(G: Functor, side: str = "left") -> Optional[Adjunction]:
    """Synthesize the missing adjoint from a family of universal morphisms.

    side "left": G: D -> C, one universal morphism from each object of C into
    G; the functor action is the unique factorization making the family
    natural.  side "right": G is read as F: C -> D, and its right adjoint is
    the opposite of the left adjoint of F^op (the witnesses are terminal, the
    unit and counit trade places and each transposition table is inverted).
    Returns None (with no record) when some object lacks a witness.
    """
    if side == "right":
        F = G
        op = adjoint_from_universals(opposite_functor(F), "left")
        if op is None:
            return None
        C, D = F.dom, F.cod
        R = Functor(f"radj({F.name})", D, C, op.left.obj_map, op.left.mor_map)
        eta = NatTrans("unit", identity_functor(C), compose_functors(R, F),
                       op.counit.components)
        eps = NatTrans("counit", compose_functors(F, R), identity_functor(D),
                       op.unit.components)
        return Adjunction(F, R, {(c, d): op.hom_iso[(d, c)].inverse()
                                 for c in C.objects for d in D.objects}, eta, eps)
    if side != "left":
        raise StructuralError(f"unknown side {side!r}")
    D, C = G.dom, G.cod
    witnesses = {}
    for c in C.sorted_objects():
        w = universal_morphism(c, G, FROM_OBJECT)
        if w is None:
            return None
        witnesses[c] = w
    obj_map = {c: witnesses[c].vertex for c in C.objects}
    mor_map = {}
    for m in C.morphisms:
        target = C.comp(witnesses[m.cod].arrow, m.name)
        f, _ = factorizations(D.hom(obj_map[m.dom], obj_map[m.cod]),
                              lambda f: C.comp(G.mor_map[f], witnesses[m.dom].arrow))(target)
        if f is None:
            raise StructuralError(f"functor action at {m.name} not unique")
        mor_map[m.name] = f
    F = Functor(f"ladj({G.name})", C, D, obj_map, mor_map)
    eta = NatTrans("unit", identity_functor(C), compose_functors(G, F),
                   {c: witnesses[c].arrow for c in C.objects})
    return convert(F, G, "unit->phi", unit=eta)


def equivalence_to_adjunction(F: Functor, G: Functor,
                              eta: NatTrans, tau: NatTrans) -> Adjunction:
    """Upgrade an equivalence (unit and counit both iso) to an adjunction.

    The counit is corrected to eps_d = tau_d . F(etainv_Gd) . tauinv_FGd so
    that both snake equations hold while the unit stays exactly eta.
    """
    C, D = F.dom, F.cod
    for comp, cat in ((eta, C), (tau, D)):
        for a, m in comp.components.items():
            if not cat.is_iso(m):
                raise StructuralError(f"{comp.name}: component at {a} is not invertible")
    eta_inv = {c: C.inverse(eta.components[c]) for c in C.objects}
    tau_inv = {d: D.inverse(tau.components[d]) for d in D.objects}
    eps_comps = {}
    for d in D.objects:
        gd = G.obj_map[d]
        fgd = F.obj_map[gd]
        eps_comps[d] = D.comp_path(tau_inv[fgd], F.mor_map[eta_inv[gd]], tau.components[d])
    eps = NatTrans("counit", compose_functors(F, G), identity_functor(D), eps_comps)
    adj = convert(F, G, "unit->phi", unit=eta, counit=eps)
    rep = snake_check(F, G, adj.unit, adj.counit)
    if not rep.ok:
        raise StructuralError(f"equivalence upgrade failed the snake check: {rep.counterexample}")
    if dict(adj.unit.components) != dict(eta.components):
        raise StructuralError("upgrade changed the unit")
    return adj


def adjunction_uniqueness_iso(a1: Adjunction, a2: Adjunction) -> NatTrans:
    """The unique natural isomorphism between two left adjoints of the same functor.

    alpha_c = eps2_{F1 c} . F2(eta1 component transposed) ... computed as the
    factorization alpha_c with G(alpha_c) . eta1_c = eta2_c, then certified
    invertible.
    """
    F1, F2, G = a1.left, a2.left, a1.right
    if a2.right != G:
        raise StructuralError("adjunctions do not share the right adjoint")
    C, D = F1.dom, F1.cod
    comps = {}
    for c in C.objects:
        f, _ = factorizations(D.hom(F1.obj_map[c], F2.obj_map[c]),
                              lambda f: C.comp(G.mor_map[f], a1.unit.components[c])
                              )(a2.unit.components[c])
        if f is None:
            raise StructuralError(f"mediating component at {c} not unique")
        if not D.is_iso(f):
            raise StructuralError(f"mediating component at {c} not invertible")
        comps[c] = f
    return NatTrans("mediator", F1, F2, comps)
