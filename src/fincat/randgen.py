"""Seeded random generators for categories, Set-valued diagrams, and terms.

Categories come from families that are lawful by construction (free categories
on acyclic graphs, thin preorders, and small monoid tables); everything is
re-validated anyway.  All sampling is driven by an explicit random.Random so
runs are reproducible from the seed.
"""
from __future__ import annotations

import itertools
import random
from typing import Optional

from .core import FinCat, make_category, validate_category
from .finset import FinSetMap, FinSetObj, SetFunctor, hom_functor, product_set_functor
from .fixtures import z2_monoid


def random_dag_category(rng: random.Random, max_objects: int = 4,
                        max_arrows: int = 10, name: str = "R") -> FinCat:
    """The free category on a random acyclic graph, truncated by path count."""
    for _ in range(200):
        n = rng.randint(1, max_objects)
        objs = [f"o{i}" for i in range(n)]
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(rng.randint(0, 2)):
                    edges.append((f"g{len(edges)}", objs[i], objs[j]))
        # paths of length >= 1
        paths: dict[tuple, tuple[str, str]] = {}
        frontier = {(e[0],): (e[1], e[2]) for e in edges}
        paths.update(frontier)
        while frontier:
            new = {}
            for seq, (d, c) in frontier.items():
                for e in edges:
                    if e[1] == c:
                        new[seq + (e[0],)] = (d, e[2])
            frontier = new
            paths.update(frontier)
        if len(paths) > max_arrows:
            continue
        arrows = [("_".join(seq), d, c) for seq, (d, c) in sorted(paths.items())]
        compose = {}
        for s1, (d1, c1) in paths.items():
            for s2, (d2, c2) in paths.items():
                if c1 == d2:
                    compose[("_".join(s2), "_".join(s1))] = "_".join(s1 + s2)
        C = make_category(name, objs, arrows, compose)
        if validate_category(C).ok:
            return C
    raise RuntimeError("could not sample a category")


def random_preorder_category(rng: random.Random, max_objects: int = 4,
                             name: str = "P") -> FinCat:
    """A random finite preorder (reflexive-transitive closure of a random relation)."""
    n = rng.randint(1, max_objects)
    objs = [f"p{i}" for i in range(n)]
    rel = {(i, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                rel.add((i, j))
    changed = True
    while changed:
        changed = False
        for (i, j), (k, l) in itertools.product(list(rel), repeat=2):
            if j == k and (i, l) not in rel:
                rel.add((i, l))
                changed = True
    arrows = [(f"r{i}_{j}", objs[i], objs[j]) for (i, j) in sorted(rel) if i != j]
    compose = {}
    for (i, j) in rel:
        for (k, l) in rel:
            if j == k and i != j and k != l:
                nm = f"r{i}_{l}" if i != l else f"id_{objs[i]}"
                compose[(f"r{k}_{l}", f"r{i}_{j}")] = nm
    return make_category(name, objs, arrows, compose)


def random_category(rng: random.Random, max_objects: int = 4,
                    max_arrows: int = 10, name: str = "R") -> FinCat:
    kind = rng.randrange(3)
    if kind == 0:
        return random_preorder_category(rng, max_objects, name)
    if kind == 1 and max_objects >= 1:
        return z2_monoid()
    return random_dag_category(rng, max_objects, max_arrows, name)


def random_set_functor_on_free(rng: random.Random, C: FinCat, generators: list[str],
                               max_size: int = 4, name: str = "X") -> SetFunctor:
    """Arbitrary values on a free category: choose sets and generator tables,
    then extend to all paths by composition."""
    sizes = {a: rng.randint(0, max_size) for a in C.objects}
    # a map out of a nonempty set needs a nonempty target; grow to fixpoint
    changed = True
    while changed:
        changed = False
        for g in generators:
            if sizes[C.dom(g)] > 0 and sizes[C.cod(g)] == 0:
                sizes[C.cod(g)] = 1
                changed = True
    on_obj = {a: FinSetObj(tuple(f"{a}x{i}" for i in range(sizes[a])))
              for a in C.objects}
    gen_tables: dict[str, FinSetMap] = {}
    for g in generators:
        d, c = C.dom(g), C.cod(g)
        gen_tables[g] = FinSetMap(on_obj[d], on_obj[c],
                                  {x: rng.choice(on_obj[c].sorted())
                                   for x in on_obj[d].elements})
    on_mor = {}
    for m in C.morphisms:
        if C.is_identity(m.name):
            on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.dom],
                                       {x: x for x in on_obj[m.dom].elements})
        else:
            t = None
            for g in m.name.split("_"):
                step = gen_tables[g]
                t = step if t is None else t.then(step)
            on_mor[m.name] = t
    return SetFunctor(name, C, on_obj, on_mor)


def random_representable_sum(rng: random.Random, C: FinCat, max_size: int = 3,
                             name: str = "X") -> SetFunctor:
    """A small covariant Set-functor built from hom-functors and constants.

    Coproducts and products of representables are functorial on any category,
    so this sampler works uniformly; value sizes are capped by rejection.
    """
    for _ in range(100):
        pieces = []
        for _ in range(rng.randint(1, 2)):
            c = rng.choice(sorted(C.objects))
            pieces.append(hom_functor(C, c, "covariant"))
        if rng.random() < 0.4 and len(pieces) == 2:
            cand = product_set_functor(pieces[0], pieces[1], name)
        else:
            cand = _coproduct_set_functors(pieces, name)
        if all(len(v) <= max_size for v in cand.on_obj.values()):
            return cand
    # fall back to the first representable
    return hom_functor(C, sorted(C.objects)[0], "covariant")


def _coproduct_set_functors(pieces: list[SetFunctor], name: str) -> SetFunctor:
    C = pieces[0].dom
    on_obj = {}
    for a in C.objects:
        elems = []
        for i, X in enumerate(pieces):
            elems.extend(f"{i}.{x}" for x in X.on_obj[a].sorted())
        on_obj[a] = FinSetObj(tuple(elems))
    on_mor = {}
    for m in C.morphisms:
        table = {}
        for i, X in enumerate(pieces):
            for x in X.on_obj[m.dom].elements:
                table[f"{i}.{x}"] = f"{i}.{X.on_mor[m.name](x)}"
        on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod], table)
    return SetFunctor(name, C, on_obj, on_mor)


def random_set_diagram(rng: random.Random, max_shape_objects: int = 3,
                       max_size: int = 4, max_value: Optional[int] = None,
                       name: str = "D") -> SetFunctor:
    """A random diagram into Set over a random free shape.

    max_value, when given, rejection-samples until limit and colimit objects
    both stay at or under that many elements.
    """
    from .limits import COLIMIT, LIMIT, limit_finset
    for _ in range(300):
        J = random_dag_category(rng, max_shape_objects, 6, name=f"{name}shape")
        gens = [m for m in J.nonidentity_mor_names() if "_" not in m]
        D = random_set_functor_on_free(rng, J, gens, max_size, name)
        if max_value is not None:
            if len(limit_finset(D, LIMIT).object) > max_value:
                continue
            if len(limit_finset(D, COLIMIT).object) > max_value:
                continue
        return D
    raise RuntimeError("could not sample a diagram")
