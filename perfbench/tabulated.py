"""Workload tabulated: search over tabulated categories, with refutations.

Categories come from a small pool, as in a workspace: fixed small shapes,
chains, the monoids Z2 and Z3, seeded preorders and DAG categories, and
functor categories [J,C] with their limit functors.  Ops share the pool's
values.  Each op makes one verdict: a functor category or a
functor enumeration, a limit over a diagram or its preservation by a right
adjoint, a pointwise Kan extension with its universal check, an adjoint built
from universal morphisms with its adjunction and snake checks, a universal
morphism, a density verdict or a codensity monad.

About a quarter of the ops are perturbations that must be refuted with a
known law: swapped transposition tables, altered monad multiplications,
non-dense functors and functors with no left adjoint.  Set-up runs the
rejection filters that pick them.
"""
from __future__ import annotations

import random

from fincat.core import NatTrans, make_category
from fincat.finset import FinSetMap
from fincat.fixtures import chain, discrete, parallel_pair, walking_arrow, z2_monoid
from fincat.limits import COLIMIT, LIMIT
from fincat.universal import TO_OBJECT

from inputs import outcome, require

# One pass: (kind, parameters), repeated PASSES times with fresh picks.
# Slots naming pool categories ("on", "A", "B") are the same for every seed:
# they carry most of the work, so a pass costs about the same whatever the
# seed, and their outcomes are checked at every seed.  The other slots draw
# their inputs from the seeded pool.
SLOTS = [
    ("functor-category", {"A": "2", "B": "chain4"}),
    ("functor-category", {"A": "disc2", "B": "chain4"}),
    ("functor-category", {"A": "disc2", "B": "chain4"}),
    ("functor-category", {}),
    ("enumerate-functors", {}),
    ("limit", {"direction": LIMIT}),
    ("limit", {"direction": COLIMIT}),
    ("preservation", {}),
    ("kan", {"side": "left", "on": "chain4"}),
    ("kan", {"side": "left"}),
    ("kan", {"side": "right"}),
    ("adjoint", {}),
    ("universal", {}),
    ("density", {"on": "chain4"}),
    ("density", {}),
    ("codensity", {"on": "chain5"}),
    ("codensity", {}),
    # perturbations, each refuted with the law named in its outcome
    ("adjoint-absent", {}),
    ("adjoint-swapped", {}),
    ("adjoint-swapped", {}),
    ("density-refuted", {}),
    ("codensity-altered", {}),
]
# a pass over all recipes takes about 0.4 s (see run.py)
PASSES = 5
# bounds that keep every op small: functors enumerated by a functor-category
# or universal-check op, objects of the domain of an enumerate-functors op,
# candidate families in a density check, and the objects of a codensity
# functor's categories.  A single op over them takes at most a few ms, so
# which ones the seed draws moves a pass's cost little.
MAX_FUNCTORS = 6
MAX_ENUMERATE_OBJECTS = 3
MAX_DENSITY_FAMILIES = 300
MAX_CODENSITY_OBJECTS = 3


def z3_monoid():
    return make_category("Z3", ["*"], [("s", "*", "*"), ("s2", "*", "*")],
                         {("s", "s"): "s2", ("s", "s2"): "id_*",
                          ("s2", "s"): "id_*", ("s2", "s2"): "s"})


class Pool:
    """The shared categories, functor categories and functors between them."""

    def __init__(self, api, rng: random.Random):
        self.api = api
        self.rng = rng
        self.shapes = [walking_arrow(), parallel_pair(), discrete(2)]
        drawn = []
        while len(drawn) < 2:
            P = api.randgen.random_preorder_category(rng, 4, name=f"P{len(drawn)}")
            if len(P.objects) == 4:
                drawn.append(P)
        while len(drawn) < 4:
            R = api.randgen.random_dag_category(rng, 4, 8, name=f"R{len(drawn)}")
            if len(R.objects) == 4:
                drawn.append(R)
        # only these have hom-sets large enough to perturb
        self.monoids = [z2_monoid(), z3_monoid()]
        self.cats = self.shapes + self.monoids + [chain(4), chain(5)] + drawn
        self.by_name = {C.name: C for C in self.cats}
        # [J, C] with its limit functor, the right adjoint of the diagonal;
        # C has every limit of shape J
        self.functor_cats = []
        for J, C in ((walking_arrow(), chain(4)), (discrete(2), chain(3)),
                     (walking_arrow(), self.monoids[1])):
            fc = api.core.functor_category(J, C)
            lim = api.limits.limit_functor(J, C, LIMIT, fc=fc)
            self.functor_cats.append((fc, lim.functor))
        self._functors = {}

    def functors(self, A, B):
        key = (A.name, B.name)
        if key not in self._functors:
            self._functors[key] = self.api.core.enumerate_functors(A, B)
        return self._functors[key]

    def cat(self, max_objects: int = 4):
        return self.rng.choice([C for C in self.cats if len(C.objects) <= max_objects])

    def functor(self):
        """A seeded functor between two pool categories of <= 3 objects, or None."""
        fs = self.functors(self.cat(3), self.cat(3))
        return fs[self.rng.randrange(len(fs))] if fs else None

    def diagram_in_functor_category(self, need_limit: bool = False):
        """A diagram I -> [J,C] and the limit functor of [J,C]."""
        while True:
            fc, lim = self.rng.choice(self.functor_cats)
            ds = self.functors(self.rng.choice(self.shapes), fc.cat)
            D = ds[self.rng.randrange(len(ds))]
            if not need_limit or self.api.limits.limit(D, LIMIT) is not None:
                return D, lim


def _draw(pool: Pool, accept, targets=None):
    """A pool functor that passes `accept`, optionally into one of `targets`."""
    for _ in range(400):
        if targets is None:
            F = pool.functor()
        else:
            fs = pool.functors(pool.cat(2), pool.rng.choice(targets))
            F = fs[pool.rng.randrange(len(fs))] if fs else None
        if F is not None:
            found = accept(F)
            if found:
                return found
    raise RuntimeError("no pool functor passed the filter")


def gen(pool: Pool, kind: str, params: dict) -> dict:
    api, rng = pool.api, pool.rng
    spec = {"kind": kind, **params}
    if "on" in params or "A" in params:
        # the same at every seed: its recorded outcome is checked at every seed
        spec["fixed"] = " ".join([kind] + [f"{k}={v}" for k, v in sorted(params.items())])
    if "on" in params:
        C = pool.by_name[spec.pop("on")]
        spec["G"] = spec["K"] = spec["F"] = api.core.identity_functor(C)
    elif "A" in params:
        spec["A"], spec["B"] = pool.by_name[params["A"]], pool.by_name[params["B"]]
    elif kind == "functor-category":
        spec["A"], spec["B"] = rng.choice(pool.shapes), pool.cat()
        while len(pool.functors(spec["A"], spec["B"])) > MAX_FUNCTORS:
            spec["A"], spec["B"] = rng.choice(pool.shapes), pool.cat()
    elif kind == "enumerate-functors":
        spec["A"], spec["B"] = pool.cat(MAX_ENUMERATE_OBJECTS), pool.cat()
    elif kind == "limit":
        spec["D"], _ = pool.diagram_in_functor_category()
    elif kind == "preservation":
        spec["D"], spec["G"] = pool.diagram_in_functor_category(need_limit=True)
    elif kind == "kan":
        ks = fs = []
        while not ks or not fs or len(pool.functors(D, E)) > MAX_FUNCTORS:
            C, D, E = pool.cat(3), pool.cat(3), pool.cat(2)
            ks, fs = pool.functors(C, D), pool.functors(C, E)
        spec["K"], spec["F"] = ks[rng.randrange(len(ks))], fs[rng.randrange(len(fs))]
    elif kind == "adjoint":
        spec["G"] = _draw(pool, lambda G: G if api.adjunction.adjoint_from_universals(
            G, "left") is not None else None)
    elif kind == "universal":
        spec["G"] = _draw(pool, lambda G: G)
        spec["c"] = rng.choice(sorted(spec["G"].cod.objects))
    elif kind == "density":
        spec["G"] = _draw(pool, lambda K: K if _density_cost(K) <= MAX_DENSITY_FAMILIES
                          else None)
    elif kind == "codensity":
        spec["G"] = _draw(pool, lambda K: K if _small(K) else None)
    elif kind == "adjoint-absent":
        spec["G"] = _draw(pool, lambda G: G if api.adjunction.adjoint_from_universals(
            G, "left") is None else None)
    elif kind == "adjoint-swapped":
        def swap(G):
            adj = api.adjunction.adjoint_from_universals(G, "left")
            if adj is None:
                return None
            keys = [k for k in sorted(adj.hom_iso) if len(adj.hom_iso[k].dom) >= 2]
            if not keys:
                return None
            key = rng.choice(keys)
            i, j = rng.sample(range(len(adj.hom_iso[key].dom)), 2)
            rep = api.adjunction.validate_adjunction(adj.left, adj.right,
                                                     _swapped(adj.hom_iso, key, i, j))
            return (G, key, i, j) if not rep.ok else None
        spec["G"], spec["key"], spec["i"], spec["j"] = _draw(pool, swap, targets=pool.monoids)
    elif kind == "density-refuted":
        spec["G"] = _draw(pool, lambda K: K if _density_cost(K) <= MAX_DENSITY_FAMILIES
                          and not api.kan.density_check(K).ok else None)
    elif kind == "codensity-altered":
        def alter(K):
            if not _small(K):
                return None
            m = api.kan.codensity_monad(K)
            if m is None or not m.report.ok:
                return None
            d = rng.choice(sorted(K.cod.objects))
            alts = [f for f in K.cod.hom(m.mult.src.obj_map[d], m.mult.tgt.obj_map[d])
                    if f != m.mult.components[d]]
            if not alts:
                return None
            f = rng.choice(alts)
            return (K, d, f) if not api.kan.monad_laws(
                m.endofunctor, _altered(m.mult, d, f), m.unit).ok else None
        spec["G"], spec["at"], spec["to"] = _draw(pool, alter, targets=pool.monoids)
    return spec


def _density_cost(K) -> int:
    """Candidate families the density check's hom criterion enumerates."""
    C, D = K.dom, K.cod
    total = 0
    for d in D.objects:
        for dp in D.objects:
            n = 1
            for c in C.objects:
                n *= max(1, len(D.hom(K.obj_map[c], dp))) ** len(D.hom(K.obj_map[c], d))
            total += n
    return total


def _small(K) -> bool:
    return max(len(K.dom.objects), len(K.cod.objects)) <= MAX_CODENSITY_OBJECTS


def make_specs(api, seed: int, step=lambda: None) -> list[dict]:
    """The recipes of one seed; `step` is called after the pool and each recipe."""
    pool = Pool(api, random.Random(f"tabulated/{seed}"))
    step()
    specs = []
    for _ in range(PASSES):
        for kind, params in SLOTS:
            specs.append(gen(pool, kind, params))
            step()
    return specs


def _swapped(hom_iso, key, i: int, j: int):
    comp = hom_iso[key]
    xs = comp.dom.sorted()
    table = dict(comp.table)
    table[xs[i]], table[xs[j]] = table[xs[j]], table[xs[i]]
    out = dict(hom_iso)
    out[key] = FinSetMap(comp.dom, comp.cod, table)
    return out


def _altered(mult: NatTrans, d: str, f: str) -> NatTrans:
    comps = dict(mult.components)
    comps[d] = f
    return NatTrans(mult.name, mult.src, mult.tgt, comps)


# ---------------------------------------------------------------------------
# Ops

def _found(result, verdict: str = "found") -> dict:
    if result is None:
        return outcome("absent")
    rep = result.certificate
    return outcome(verdict if rep.ok else "refuted", checked=rep.checked,
                   law=None if rep.ok else rep.counterexample.law)


def op_functor_category(api, spec):
    fc = api.core.functor_category(spec["A"], spec["B"])
    rep = api.core.validate_category(fc.cat)
    require(rep.ok, "functor category is not a category")
    return outcome("found", size=len(fc.cat.morphisms), checked=rep.checked)


def op_enumerate_functors(api, spec):
    return outcome("found", size=len(api.core.enumerate_functors(spec["A"], spec["B"])))


def op_limit(api, spec):
    return _found(api.limits.limit(spec["D"], spec["direction"]))


def op_preservation(api, spec):
    rep = api.limits.preservation_check(spec["G"], spec["D"], LIMIT)
    require(rep.ok, "a right adjoint failed to preserve a limit")
    return outcome("preserved", checked=rep.checked)


def op_kan(api, spec):
    K, F, side = spec["K"], spec["F"], spec["side"]
    kr = api.kan.kan_pointwise(K, F, side)
    if kr.extension is None:
        return outcome("absent", law=kr.certificate.counterexample.law)
    require(kr.certificate.ok, "pointwise Kan extension not certified")
    rep = api.kan.kan_universal_check(kr.extension, kr.unit_or_counit, K, F, side)
    require(rep.ok, "pointwise Kan extension is not universal")
    return outcome("universal", checked=kr.certificate.checked + rep.checked)


def op_adjoint(api, spec):
    adj = api.adjunction.adjoint_from_universals(spec["G"], "left")
    if adj is None:
        return outcome("absent")
    rep = api.adjunction.validate_adjunction(adj.left, adj.right, adj.hom_iso)
    snake = api.adjunction.snake_check(adj.left, adj.right, adj.unit, adj.counit)
    require(rep.ok and snake.ok, "synthesized adjunction failed its checks")
    return outcome("adjunction", size=len(adj.hom_iso), checked=rep.checked + snake.checked)


def op_adjoint_absent(api, spec):
    require(api.adjunction.adjoint_from_universals(spec["G"], "left") is None,
            "a left adjoint was found where none exists")
    return outcome("absent")


def op_adjoint_swapped(api, spec):
    adj = api.adjunction.adjoint_from_universals(spec["G"], "left")
    require(adj is not None, "left adjoint missing")
    bad = _swapped(adj.hom_iso, spec["key"], spec["i"], spec["j"])
    rep = api.adjunction.validate_adjunction(adj.left, adj.right, bad)
    require(not rep.ok and rep.counterexample.law.startswith("transposition-"),
            "swapped transposition table not refuted")
    return outcome("refuted", law=rep.counterexample.law, checked=rep.checked)


def op_universal(api, spec):
    G, c = spec["G"], spec["c"]
    comma = api.universal.comma_to_object(G, c)
    w = api.universal.universal_morphism(c, G, TO_OBJECT)
    if w is None:
        return outcome("absent", size=len(comma.cat.objects))
    require(w.report.ok, "universal morphism not certified")
    return outcome("found", size=len(comma.cat.objects), checked=w.report.checked)


def op_density(api, spec):
    rep = api.kan.density_check(spec["G"])
    return outcome("dense" if rep.ok else "refuted", checked=rep.checked,
                   law=None if rep.ok else rep.counterexample.law)


def op_density_refuted(api, spec):
    rep = api.kan.density_check(spec["G"])
    require(not rep.ok and rep.counterexample.law == "density", "non-dense functor not refuted")
    return outcome("refuted", law=rep.counterexample.law, checked=rep.checked)


def op_codensity(api, spec):
    m = api.kan.codensity_monad(spec["G"])
    if m is None:
        return outcome("absent")
    require(m.report.ok, "codensity monad failed the monad laws")
    return outcome("monad", checked=m.report.checked)


def op_codensity_altered(api, spec):
    m = api.kan.codensity_monad(spec["G"])
    require(m is not None and m.report.ok, "codensity monad missing")
    rep = api.kan.monad_laws(m.endofunctor, _altered(m.mult, spec["at"], spec["to"]), m.unit)
    require(not rep.ok and rep.counterexample.law.startswith("monad-"),
            "altered multiplication not refuted")
    return outcome("refuted", law=rep.counterexample.law, checked=rep.checked)


OPS = {"functor-category": op_functor_category, "enumerate-functors": op_enumerate_functors,
       "limit": op_limit, "preservation": op_preservation, "kan": op_kan,
       "adjoint": op_adjoint, "adjoint-absent": op_adjoint_absent,
       "adjoint-swapped": op_adjoint_swapped, "universal": op_universal,
       "density": op_density, "density-refuted": op_density_refuted,
       "codensity": op_codensity, "codensity-altered": op_codensity_altered}


def run_op(api, spec: dict, salt: str) -> dict:
    """Tabulated ops share the pool's values, so the salt is not used."""
    return OPS[spec["kind"]](api, spec)
