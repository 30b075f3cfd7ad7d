"""One counted unique-factorization table: core.factorizations and
limits.through against the predicate scan they replaced, and first_terminal's
skip of apexes whose hom-set sizes rule them out against certifying every
candidate."""
import itertools
import random

from fincat import limits
from fincat.core import budget, enumerate_functors, factorizations, ok_report, op_product, opposite
from fincat.fixtures import (
    chain,
    discrete,
    empty_category,
    parallel_pair,
    terminal_category,
    walking_arrow,
    z2_monoid,
)
from fincat.kan import end_coend, enumerate_wedges
from fincat.limits import COLIMIT, LIMIT, enumerate_cones, limit, through
from fincat.randgen import random_dag_category, random_preorder_category

from helpers import scan_through, square_category, z3_monoid


def _targets(seed: int):
    """Z2, Z3, chains, a parallel pair, a commuting square and seeded random
    DAG and preorder categories."""
    rng = random.Random(seed)
    yield from (z2_monoid(), z3_monoid(), chain(3), chain(4), parallel_pair(), square_category())
    for _ in range(8):
        yield random_dag_category(rng, 4, 10)
        yield random_preorder_category(rng, 4)


def _sample(rng, xs, k):
    return xs if len(xs) <= k else rng.sample(xs, k)


def test_factorizations_and_through_match_the_scan():
    """Every source c, apex, leg family out of the apex to at most two
    objects, and target family from c: the factor and the count of through,
    and of factorizations on one leg, are the scan's, with 0, 1 and 2 or more
    matches all met."""
    seen = [0, 0, 0]  # cases with 0, 1 and 2 or more matches
    for C in _targets(21):
        objs = C.sorted_objects()
        ends = [(), *((t,) for t in objs), *itertools.combinations_with_replacement(objs, 2)]
        for c, apex, targets in itertools.product(objs, objs, ends):
            keys = [f"j{k}" for k in range(len(targets), 0, -1)]  # not in sorted order
            for legs in itertools.product(*[C.hom(apex, t) for t in targets]):
                legs = dict(zip(keys, legs))
                table = through(C, c, apex, legs)
                for fam in itertools.product(*[C.hom(c, t) for t in targets]):
                    fam = dict(zip(keys, fam))
                    want = scan_through(C, c, apex, legs, fam)
                    assert table(fam) == want
                    if len(legs) == 1:
                        (j, leg), = legs.items()
                        assert factorizations(C.hom(c, apex), lambda f: C.comp(leg, f))(
                            fam[j]) == want
                    seen[min(want[1], 2)] += 1
    assert all(seen), seen


def ref_first_terminal(C, cones):
    """first_terminal without the skip: every candidate certified in order
    against every listed cone, by the scan."""
    for n, (apex, legs) in enumerate(cones):
        if all(scan_through(C, c, apex, legs, fam)[0] is not None for c, fam in cones):
            return n, ok_report(len(cones))
    return None


def test_first_terminal_skips_only_apexes_that_cannot_be_terminal(monkeypatch):
    """limit in both directions and end_coend give the position, cone and
    certificate of certifying every candidate, while some runs certify
    fewer candidates than that."""
    certified = 0
    real = limits.certify_terminal

    def counted(*args):
        nonlocal certified
        certified += 1
        return real(*args)

    monkeypatch.setattr(limits, "certify_terminal", counted)
    rng = random.Random(22)
    tally = {"found": 0, "absent": 0, "skipped": 0}

    def compare(C, cones, run):
        nonlocal certified
        want = ref_first_terminal(C, cones)
        certified = 0
        got = run()
        if want is None:
            assert got is None
            tally["absent"] += 1
            tried = len(cones)
        else:
            n, cert = want
            assert got == (*cones[n], cert)
            tally["found"] += 1
            tried = n + 1
        assert certified <= tried
        tally["skipped"] += certified < tried

    def limit_of(D, direction):
        res = limit(D, direction)
        return res and (res.object, dict(res.cone.legs.components), res.certificate)

    def end_of(B, J, side):
        res = end_coend(B, J, side)
        return res and (res.object, dict(res.wedge.components), res.certificate)

    for C in _targets(22):
        for J in (empty_category(), terminal_category(), discrete(2), walking_arrow(),
                  parallel_pair()):
            for D in _sample(rng, enumerate_functors(J, C), 4):
                for direction in (LIMIT, COLIMIT):
                    compare(C if direction == LIMIT else opposite(C),
                            enumerate_cones(D, direction), lambda: limit_of(D, direction))
        for J in (terminal_category(), walking_arrow()):
            with budget(10**5):
                bifunctors = enumerate_functors(op_product(J), C)
            for B in _sample(rng, bifunctors, 3):
                for side in ("end", "coend"):
                    compare(C if side == "end" else opposite(C),
                            [(w.apex, dict(w.components)) for w in enumerate_wedges(B, J, side)],
                            lambda: end_of(B, J, side))
    assert all(tally.values()), tally
