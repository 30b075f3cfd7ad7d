import random

import pytest

from fincat.core import Functor
from fincat.diagram import (
    MAX_NESTING,
    DiagramSyntaxError,
    DiagramTypeError,
    Generator,
    HComp,
    Id,
    VComp,
    evaluate,
    normalize,
    parse_term,
    pretty,
    render_svg,
    typecheck,
)
from fincat.fixtures import bang
from helpers import fixture_env, random_term


def test_parse_shapes():
    t = parse_term("alpha ; beta")
    assert isinstance(t, VComp)
    assert t.parts == (Generator("alpha"), Generator("beta"))
    t2 = parse_term("(beta | alpha)")
    assert isinstance(t2, HComp)
    assert t2.parts == (Generator("beta"), Generator("alpha"))
    t3 = parse_term("gamma | (beta ; alpha)")
    assert isinstance(t3, HComp)
    assert t3.parts[0] == Generator("gamma")
    assert isinstance(t3.parts[1], VComp)
    assert parse_term("id(F)") == Id("F")


def test_parse_errors_carry_position():
    with pytest.raises(DiagramSyntaxError) as e:
        parse_term("alpha ; ; beta")
    assert e.value.line == 1
    with pytest.raises(DiagramSyntaxError):
        parse_term("(alpha")
    with pytest.raises(DiagramSyntaxError):
        parse_term("alpha beta")


def test_nesting_is_bounded_with_a_position():
    assert parse_term("(" * MAX_NESTING + "alpha" + ")" * MAX_NESTING) == Generator("alpha")
    # one level too deep, on the second line, and far past the interpreter's stack
    for depth in (MAX_NESTING + 1, 2000):
        with pytest.raises(DiagramSyntaxError) as e:
            parse_term("beta ;\n" + "(" * depth + "alpha" + ")" * depth)
        assert (e.value.line, e.value.col) == (2, MAX_NESTING + 1)
        assert f"nested deeper than {MAX_NESTING}" in str(e.value)


def test_pretty_parse_round_trip():
    for text in ("s ; t", "t | p", "id(F0)", "(u | q) ; (t | p)",
                 "s ; t ; u", "id(C)"):
        t = parse_term(text)
        assert parse_term(pretty(t)) == t


def test_typecheck_basics():
    env = fixture_env()
    face = typecheck(Id("F0"), env)
    assert face.bottom == face.top == ("F0",)
    # vertical: s: F0 => I then t: I => F1 stacks; reversed order fails
    assert typecheck(parse_term("s ; t"), env).top == ("F1",)
    with pytest.raises(DiagramTypeError):
        typecheck(parse_term("t ; s"), env)
    # horizontal: u | q has q inner (E -> C), u outer (C -> C)
    face = typecheck(parse_term("u | q"), env)
    assert face.bottom == ("P0", "F0")
    assert face.left == "E" and face.right == "C"
    # whiskering orientation: s | id(P0) needs cod(P0) = dom of s's functors
    assert typecheck(parse_term("s | id(P0)"), env).bottom == ("P0", "F0")
    with pytest.raises(DiagramTypeError):
        typecheck(parse_term("id(P0) | s"), env)  # cod of s's functors is C, not E


def test_evaluate_identity_and_components():
    env = fixture_env()
    v = evaluate(Id("F0"), env)
    assert all(env.categories["C"].is_identity(c) for c in v.components.values())
    # horizontal composite: (t | p) componentwise equals t_{P1*} . I(p_*)
    val = evaluate(parse_term("t | p"), env)
    two = env.categories["C"]
    t, p = env.generators["t"], env.generators["p"]
    expected = two.comp(t.components[env.functors["P1"].obj_map["*"]],
                        env.functors["I"].mor_map[p.components["*"]])
    assert val.components["*"] == expected


def test_evaluate_interchange_instance():
    env = fixture_env()
    lhs = evaluate(parse_term("(s ; t) | (q ; q)"), env)
    rhs = evaluate(parse_term("(s | q) ; (t | q)"), env)
    assert dict(lhs.components) == dict(rhs.components)


def test_normalize_layered_fixed_point():
    env = fixture_env()
    t = parse_term("(u | id(P0)) ; (id(F1) | q)")
    assert normalize(t, env) == normalize(normalize(t, env), env)


def test_normalize_disjoint_supports():
    env = fixture_env()
    t = parse_term("u | q")
    n = normalize(t, env)
    # one interchange step: (id | q) ; (u | id) with q lowest-leftmost
    assert pretty(n) == "u | q ; id(F1) | q" or isinstance(n, VComp)
    assert isinstance(n, VComp) and len(n.parts) == 2
    first, second = n.parts
    assert Generator("q") in getattr(first, "parts", (first,))
    assert Generator("u") in getattr(second, "parts", (second,))
    # evaluation preserved
    assert dict(evaluate(t, env).components) == dict(evaluate(n, env).components)


def test_normalize_preserves_pure_identities():
    env = fixture_env()
    assert normalize(Id("C"), env) == Id("C")
    n = normalize(parse_term("id(F0) ; id(F0)"), env)
    assert n == Id("F0")


def test_normalize_soundness_on_seeded_terms():
    env = fixture_env()
    rng = random.Random(20240817)
    seen = 0
    for _ in range(100):
        t = random_term(rng, env)
        n = normalize(t, env)
        assert dict(evaluate(t, env).components) == dict(evaluate(n, env).components)
        assert normalize(n, env) == n
        seen += 1
    assert seen == 100


def anti_normalize(term, env):
    """A syntactically different interchange-equal presentation: layers emitted
    rightmost-first instead of leftmost-first."""
    from fincat.diagram import _thread, _walk, hcomp_term, vcomp_term
    face, layers = _walk(term, env)
    rows, _ = _thread(face.bottom, sorted(layers, key=lambda l: -l.position), env)
    if not rows:
        return normalize(term, env)
    terms = []
    for left, gen, right in rows:
        parts = [Id(v) for v in reversed(right)] + [Generator(gen)] + \
                [Id(w) for w in reversed(left)]
        terms.append(hcomp_term(parts))
    return vcomp_term(terms)


def test_equal_normal_forms_evaluate_equally():
    env = fixture_env()
    rng = random.Random(7)
    by_nf = {}
    for _ in range(60):
        t = random_term(rng, env)
        t2 = anti_normalize(t, env)
        for cand in (t, t2):
            nf = pretty(normalize(cand, env))
            by_nf.setdefault(nf, []).append(cand)
    groups = 0
    for nf, terms in by_nf.items():
        if len(terms) < 2:
            continue
        groups += 1
        vals = [dict(evaluate(t, env).components) for t in terms]
        assert all(v == vals[0] for v in vals)
    assert groups > 0


def test_render_svg_shapes_and_stability(tmp_path):
    env = fixture_env()
    one_wire = render_svg(Id("F0"), env)
    assert one_wire.startswith('<?xml')
    assert "<svg" in one_wire and one_wire.rstrip().endswith("</svg>")
    assert one_wire.count("<circle") == 0
    assert one_wire.count("<line") >= 1
    side_by_side = render_svg(parse_term("u | q"), env)
    assert side_by_side.count("<circle") == 2
    # byte-identical across repeated runs
    assert render_svg(parse_term("u | q"), env) == side_by_side


def test_render_svg_golden():
    import pathlib
    env = fixture_env()
    out = render_svg(parse_term("(u | id(P0)) ; (id(F1) | q)"), env)
    golden = pathlib.Path(__file__).parent / "golden" / "diagram_u_q.svg"
    assert golden.exists(), "golden file missing; regenerate with scripts in README"
    assert out == golden.read_text()


def test_render_svg_is_wellformed_xml():
    import xml.dom.minidom
    env = fixture_env()
    for text in ("id(F0)", "u | q", "(u | id(P0)) ; (id(F1) | q)", "id(C)"):
        doc = xml.dom.minidom.parseString(render_svg(parse_term(text), env))
        assert doc.documentElement.tagName == "svg"
        assert doc.documentElement.getAttribute("version") == "1.1"


def pipeline_digest():
    """One SHA-256 over typecheck, normal form and SVG of the 100 seeded terms
    of test_normalize_soundness_on_seeded_terms and every term of terms.cat."""
    import hashlib
    import pathlib
    from fincat.catfile import load_workspace
    env = fixture_env()
    rng = random.Random(20240817)
    cases = [(random_term(rng, env), env) for _ in range(100)]
    ws = load_workspace([str(pathlib.Path(__file__).parent / "corpus" / "terms.cat")])
    cases += [(ws.terms[name], ws.env()) for name in sorted(ws.terms)]
    h = hashlib.sha256()
    for t, e in cases:
        for out in (repr(typecheck(t, e)), pretty(normalize(t, e)), render_svg(t, e)):
            h.update(out.encode("utf8") + b"\0")
    return h.hexdigest()


def test_term_pipeline_outputs_are_pinned():
    assert pipeline_digest() == (
        "e6b3369963633230604398446632fea845100bbb4c706ad5ae24ad3c068378f6")
