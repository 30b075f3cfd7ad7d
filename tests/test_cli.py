import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout


import pytest

import fincat
from fincat import catfile, cli, core, diagram, kan
from fincat.catfile import (
    CatSyntaxError,
    LawViolation,
    Workspace,
    load_workspace,
    parse_workspace,
    serialize,
)
from fincat.cli import main
from fincat.core import (
    Functor,
    StructuralError,
    make_category,
    opposite,
    product,
    renamed,
    same_structure,
)
from fincat.finset import FinSetObj, const_set_functor

CORPUS = pathlib.Path(__file__).parent / "corpus"
SRC = str(pathlib.Path(fincat.__file__).resolve().parent.parent)


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def cat(name: str) -> str:
    return str(CORPUS / name)


def test_validate_ok_and_exit_codes():
    code, out = run("validate", cat("two.cat"))
    assert code == 0 and "ok" in out
    code, out = run("validate", cat("bad_law.cat"))
    assert code == 1
    code, out = run("validate", cat("bad_missing.cat"))
    assert code == 2
    assert "incomplete composition table" in out
    code, out = run("validate", cat("bad_syntax.cat"))
    assert code == 2


def test_workspace_round_trip():
    for name in ("two.cat", "kan.cat", "terms.cat", "bifunctor.cat", "snake.cat"):
        ws = load_workspace([cat(name)])
        text = serialize(ws)
        ws2 = parse_workspace([("<serialized>", text)])
        assert set(ws.categories) == set(ws2.categories)
        for k in ws.categories:
            assert same_structure(ws.categories[k], ws2.categories[k])
        assert set(ws.functors) == set(ws2.functors)
        for k in ws.functors:
            assert dict(ws.functors[k].obj_map) == dict(ws2.functors[k].obj_map)
            assert dict(ws.functors[k].mor_map) == dict(ws2.functors[k].mor_map)
        assert {k: v for k, v in ws.terms.items()} == ws2.terms


def test_serialize_reproduces_each_loading_corpus_file():
    loaded = 0
    for path in sorted(CORPUS.glob("*.cat")):
        text = path.read_text()
        try:
            ws = parse_workspace([(path.name, text)])
        except (StructuralError, LawViolation):
            continue
        assert serialize(ws) == text, path.name
        loaded += 1
    assert loaded == 13


def test_hash_inside_a_quoted_name_is_not_a_comment():
    text = """category "C#1" {  # a comment with a "quote
  objects: "a#1", b;
  mor "f#": "a#1" -> b;
}
functor "F#": "C#1" -> "C#1" { obj "a#1" |-> "a#1"; obj b |-> b; mor "f#" |-> "f#"; }
nat "t#": "F#" => "F#" { at "a#1": "id_a#1"; at b: id_b; }
setfunctor "X#": "C#1" -> Set {
  obj "a#1" |-> {"x#"}; obj b |-> {"y#", z}; mor "f#" |-> ["x#" -> "y#"];
}
"""
    ws = parse_workspace([("hash.cat", text)])
    assert ws.categories["C#1"].objects == ("a#1", "b")
    assert dict(ws.setfunctors["X#"].on_mor["f#"].table) == {"x#": "y#"}
    again = serialize(ws)
    ws2 = parse_workspace([("<serialized>", again)])
    assert serialize(ws2) == again
    assert set(ws2.functors) == {"F#"} and set(ws2.nats) == {"t#"}
    assert dict(ws2.nats["t#"].components) == {"a#1": "id_a#1", "b": "id_b"}


def test_limit_commands():
    code, out = run("limit", "D", cat("pair_diagram.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["size"] == 1
    code, out = run("colimit", "D", cat("pair_diagram.cat"), "--json")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2
    code, out = run("limit", "Dg", cat("poset_diagram.cat"), "--json")
    assert code == 0
    assert json.loads(out)["result"]["object"] == "0"


def test_end_coend_commands():
    code, out = run("end", "H", cat("bifunctor.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    # end of hom(-,=) over the walking arrow = natural transformations of id
    assert doc["result"]["size"] == 1
    code, out = run("coend", "H", cat("bifunctor.cat"), "--json")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2


def test_kan_commands():
    code, out = run("kan-left", "K", "F", cat("kan.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["sizes"] == [2, 2]
    code, out = run("kan-right", "K", "F", cat("kan.cat"), "--json")
    assert code == 0


def test_adjoint_commands():
    code, out = run("adjoint-of", "G", cat("adjoint.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["adjoint_on_objects"] == {"0": "*", "1": "*"}
    code, out = run("adjoint-of", "G2", cat("adjoint_absent.cat"))
    assert code == 1


def test_snake_command():
    code, out = run("snake", "Iz", "Iz", "etaS", "epsS", cat("snake.cat"))
    assert code == 0
    code, out = run("snake", "Iz", "Iz", "etaS", "epsE", cat("snake.cat"), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["counterexample"]["law"].startswith("snake")
    code, out = run("snake", "Iz", "Iz", "nope", "epsS", cat("snake.cat"))
    assert code == 2


MISTYPED_SNAKE = """category one {
  objects: "*";
}
category two {
  objects: "0", "1";
  mor a: "0" -> "1";
}
functor F: two -> one {
  obj "0" |-> "*";
  obj "1" |-> "*";
  mor a |-> "id_*";
}
functor G: one -> two {
  obj "*" |-> "1";
}
functor I1: one -> one {
  obj "*" |-> "*";
}
functor I2: two -> two {
  obj "0" |-> "0";
  obj "1" |-> "1";
  mor a |-> a;
}
nat e1: I1 => I1 {
  at "*": "id_*";
}
nat e2: I2 => I2 {
  at "0": "id_0";
  at "1": "id_1";
}
"""


def test_snake_rejects_a_unit_or_counit_of_the_wrong_type(tmp_path):
    # e2 is no unit id_two => G.F (its component at 0 is id_0, not an arrow
    # 0 -> GF(0) = 1), and no counit I1.I1 => id_one
    path = tmp_path / "mistyped.cat"
    path.write_text(MISTYPED_SNAKE)
    code, out = run("snake", "F", "G", "e2", "e1", str(path))
    assert code == 2 and "e2: the unit is not id_two => G*F" in out
    code, out = run("snake", "I1", "I1", "e1", "e2", str(path), "--json")
    assert code == 2
    assert json.loads(out)["message"] == "e2: the counit is not I1*I1 => id_one"
    assert run("snake", "I1", "I1", "e1", "e1", str(path))[0] == 0


def test_yoneda_density_codensity():
    assert run("yoneda-check", "two", cat("two.cat"))[0] == 0
    assert run("yoneda-check", "z2", cat("z2.cat"))[0] == 0
    assert run("density", "Itwo", cat("density.cat"))[0] == 0
    code, out = run("density", "Kpick", cat("density.cat"), "--json")
    assert code == 1
    assert run("codensity", "Itwo", cat("density.cat"))[0] == 0
    assert run("codensity", "Kpick", cat("density.cat"))[0] == 0


SETFUNCTORS_ON_TWO = """category two {
  objects: "0", "1";
  mor a: "0" -> "1";
}
setfunctor X: two -> Set {
  obj "0" |-> {p, q};
  obj "1" |-> {r};
  mor a |-> [p -> r, q -> r];
}
setfunctor Y: two -> Set {
  obj "0" |-> {};
  obj "1" |-> {s, t};
  mor a |-> [];
}
"""


def test_yoneda_check_on_setfunctors_and_guard(tmp_path):
    path = tmp_path / "setfunctors.cat"
    path.write_text(SETFUNCTORS_ON_TWO)
    code, out = run("yoneda-check", "two", str(path), "--json")
    assert code == 0 and json.loads(out)["result"] == {"checked": 16, "functors": 4}
    code, out = run("yoneda-check", "two", str(path), "--guard", "1", "--json")
    assert code == 2
    assert json.loads(out)["message"] == \
        "map enumeration for natural-family search hom(0,-) => hom(0,-): 2 maps exceeds guard 1"


def test_yoneda_check_failures_keep_their_messages(monkeypatch):
    import fincat.finset as finset

    def payload(*argv):
        code, out = run("yoneda-check", *argv, "--json")
        assert code == 1
        doc = json.loads(out)
        return {k: doc[k] for k in doc if k not in ("schema", "command", "seed", "exit", "ok")}

    real = finset.nat_bijection

    def one_family_fewer(*args):
        tried, bad, n = real(*args)
        return tried, bad, n - 1

    monkeypatch.setattr(finset, "nat_bijection", one_family_fewer)
    assert payload("two", cat("two.cat")) == {
        "message": "transformation count mismatch",
        "at": "0", "functor": "hom(0,-)", "nats": 0, "value": 1}
    monkeypatch.setattr(finset, "nat_bijection", lambda *a: (1, "id_0", real(*a)[2]))
    assert payload("two", cat("two.cat")) == {
        "message": "round trip broke", "at": "0", "element": "id_0"}
    monkeypatch.setattr(finset, "nat_bijection",
                        lambda *a: (1, finset.NOT_BIJECTIVE, real(*a)[2]))
    assert payload("z2", cat("z2.cat")) == {"message": "round trip broke", "at": "*"}


def test_weighted_limit_command():
    code, out = run("weighted-limit", "W", "Fy", cat("weighted.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["size"] == 1


def test_diagram_commands(tmp_path):
    code, out = run("diagram-eval", "stack", cat("terms.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["components"] == {"0": "a", "1": "a"}
    code, out = run("diagram-normalize", "side", cat("terms.cat"), "--json")
    assert code == 0
    nf = json.loads(out)["result"]["normal_form"]
    assert nf.count(";") == 1
    # literal term text also accepted
    code, out = run("diagram-eval", "s ; t", cat("terms.cat"), "--json")
    assert code == 0
    # typing error is structural
    code, out = run("diagram-eval", "t ; s", cat("terms.cat"))
    assert code == 2
    svg = tmp_path / "out.svg"
    code, out = run("render", "mixed", cat("terms.cat"), "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_diagram_commands_accept_a_functor_out_of_an_opposite(tmp_path):
    # op(C) is a source no category block names; terms that never use P still run
    f = tmp_path / "opfunctor.cat"
    f.write_text("""category C { objects: x; }
functor F: C -> C { obj x |-> x; }
nat t: F => F { at x: id_x; }
functor P: "op(C)" -> C { obj x |-> x; }
term tt = "t ; t";
""")
    assert run("validate", str(f))[0] == 0
    code, out = run("diagram-eval", "tt", str(f), "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"components": {"x": "id_x"},
                                         "source": "F", "target": "F"}
    code, out = run("diagram-normalize", "tt", str(f), "--json")
    assert code == 0 and json.loads(out)["result"] == {"normal_form": "t ; t"}


VALIDATORS = ("validate_category", "validate_functor", "validate_natural")
REAL_VALIDATORS = {name: getattr(core, name) for name in VALIDATORS}


def _validator_calls(monkeypatch, *argv) -> dict:
    """Validator calls made by one run of the CLI, by kind."""
    calls = dict.fromkeys(VALIDATORS, 0)

    def counted(name):
        def call(value):
            calls[name] += 1
            return REAL_VALIDATORS[name](value)
        return call

    for mod in (core, catfile, diagram):
        for name in VALIDATORS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name))
    assert run(*argv)[0] == 0
    return calls


def test_diagram_commands_use_the_workspace_as_validated_on_load(monkeypatch):
    loaded = _validator_calls(monkeypatch, "validate", cat("terms.cat"))
    assert loaded == {"validate_category": 2, "validate_functor": 5, "validate_natural": 4}
    for command in ("diagram-eval", "diagram-normalize"):
        assert _validator_calls(monkeypatch, command, "side", cat("terms.cat")) == loaded


def test_json_byte_stability():
    for argv in (
        ("kan-left", "K", "F", cat("kan.cat"), "--json", "--seed", "7"),
        ("limit", "D", cat("pair_diagram.cat"), "--json", "--seed", "7"),
        ("end", "H", cat("bifunctor.cat"), "--json"),
        ("diagram-normalize", "mixed", cat("terms.cat"), "--json"),
        ("adjoint-of", "G", cat("adjoint.cat"), "--json"),
    ):
        a = run(*argv)
        b = run(*argv)
        assert a == b
        assert json.loads(a[1])["schema"] == "fincat-report/1"


def _exit_of(parse, argv) -> tuple:
    """(exit code, stdout, stderr) of a parse that ends the program, as help and
    usage errors do."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as stop:
        parse(list(argv))
    return stop.value.code, out.getvalue(), err.getvalue()


def test_the_shared_parser_answers_like_a_fresh_one():
    usage_error = ("limit", "--seed", "x", cat("pair_diagram.cat"))
    for argv in [("--help",), usage_error, ("nope",)] + [(c, "--help") for c in cli.COMMANDS]:
        fresh = _exit_of(lambda a: cli.build_parser().parse_args(a), argv)
        assert _exit_of(main, argv) == fresh, argv
        assert fresh[0] == (2 if argv[-1] != "--help" else 0)
    # after a usage error the same parser answers every argv as before
    ok = ("limit", "D", cat("pair_diagram.cat"), "--json")
    before = run(*ok)
    assert _exit_of(main, usage_error) == _exit_of(main, usage_error)
    assert run(*ok) == before


def test_a_command_imports_only_its_own_modules():
    unused = ("fincat.adjunction", "fincat.kan", "fincat.limits", "fincat.universal")
    program = f"""import contextlib, io, sys
from fincat import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["validate", {cat("two.cat")!r}])
print(code, [m for m in {unused!r} if m in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout == "0 []\n", proc.stderr


def test_corpus_covers_every_subcommand():
    # exercised above: validate, limit, colimit, end, coend, kan-left,
    # kan-right, adjoint-of, snake, yoneda-check, density, codensity,
    # weighted-limit, diagram-eval, diagram-normalize, render
    assert len(list(CORPUS.glob("*.cat"))) >= 12


def test_end_command_on_tabulated_bifunctor():
    code, out = run("end", "Bf", cat("bifunctor_poset.cat"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["object"] == "0"
    code, out = run("coend", "Bf", cat("bifunctor_poset.cat"), "--json")
    assert code == 0
    assert json.loads(out)["result"]["object"] == "1"


def test_end_builds_op_j_times_j_once(monkeypatch):
    # the shape search and the end share one op(J) x J
    calls = []
    real = core.product
    for mod in (core, cli, kan):
        if getattr(mod, "product", None) is real:
            monkeypatch.setattr(mod, "product", lambda *cats: calls.append(cats) or real(*cats))
    for argv in (("end", "H", cat("bifunctor.cat")), ("coend", "H", cat("bifunctor.cat")),
                 ("end", "Bf", cat("bifunctor_poset.cat"))):
        calls.clear()
        assert run(*argv)[0] == 0
        assert len(calls) == 1, argv


def _shape_workspace() -> str:
    """J, a parallel pair f, g: 0 -> 1 beside an isolated object 2; S, op(J) x J
    written out under its own identity names; B: S -> Set and Bt: S -> T, both
    constant at a point."""
    J = make_category("J", ["0", "1", "2"], [("f", "0", "1"), ("g", "0", "1")], {})
    S = renamed(product(opposite(J), J), "S")
    T = make_category("T", ["t"], [], {})
    Bt = Functor("Bt", S, T, {o: "t" for o in S.objects}, {m.name: "id_t" for m in S.morphisms})
    B = const_set_functor(S, FinSetObj(("x",)), "B")
    return serialize(Workspace({"J": J, "S": S, "T": T}, {"Bt": Bt}, {}, {"B": B}, {}))


def _reordered(text: str, block: str) -> str:
    """text with the clauses of one category block in reverse order."""
    head, rest = text.split(f"category {block} {{\n")
    body, tail = rest.split("}\n", 1)
    return f"{head}category {block} {{\n" + "".join(reversed(body.splitlines(True))) + "}\n" + tail


def test_bifunctor_source_must_be_op_j_times_j(tmp_path):
    text = _shape_workspace()
    composite = 'compose "(f,id_1)"."(id_1,f)" = "(f,f)";'
    arrow = 'mor "(f,id_2)": "(1,2)" -> "(0,2)";'
    assert composite in text and arrow in text
    mutants = {
        "composite": text.replace(composite, composite.replace('"(f,f)"', '"(f,g)"')),
        "endpoint": text.replace(arrow, arrow.replace('-> "(0,2)"', '-> "(2,2)"')),
        "missing": "".join(line for line in text.splitlines(True) if '"(f,id_2)"' not in line),
    }
    f = tmp_path / "shape.cat"
    for kind, mutant in mutants.items():
        f.write_text(mutant)
        assert run("validate", str(f))[0] == 0, kind
        for argv in (("end", "B"), ("coend", "B"), ("end", "Bt"), ("coend", "Bt")):
            code, out = run(*argv, str(f))
            assert code == 2, (kind, argv)
            assert "bifunctor source is not op(J) x J for any workspace category J" in out
    # the same arrows and composites declared in another order
    for name, block, text in (("B", "S", text), ("Bt", "S", text),
                              ("H", "homshape", (CORPUS / "bifunctor.cat").read_text()),
                              ("Bf", "homshape2", (CORPUS / "bifunctor_poset.cat").read_text())):
        g = tmp_path / "reordered.cat"
        g.write_text(_reordered(text, block))
        f.write_text(text)
        assert g.read_text() != text
        for command in ("end", "coend"):
            for flags in ((), ("--json",)):
                code, out = run(command, name, str(f), *flags)
                assert code == 0, (name, command)
                assert run(command, name, str(g), *flags) == (code, out)


def test_workspace_merging_across_files(tmp_path):
    a = tmp_path / "a.cat"
    b = tmp_path / "b.cat"
    a.write_text("category C { objects: x, y; mor f: x -> y; }\n")
    b.write_text("functor F: C -> C { obj x |-> x; obj y |-> y; mor f |-> f; }\n")
    ws = load_workspace([str(a), str(b)])
    assert "C" in ws.categories and "F" in ws.functors
    code, out = run("validate", str(a), str(b))
    assert code == 0


def test_a_name_declared_twice_is_structural(tmp_path):
    base = ("category C { objects: x; }\n"
            "functor F: C -> C { obj x |-> x; }\n"
            "nat t: F => F { at x: id_x; }\n"
            "setfunctor X: C -> Set { obj x |-> {e}; }\n"
            'term s = "t";\n')
    for kind, line in (("category", "category C { objects: y; }"),
                       ("functor", "functor F: C -> C { obj x |-> x; }"),
                       ("nat", "nat t: F => F { at x: id_x; }"),
                       ("setfunctor", "setfunctor X: C -> Set { obj x |-> {d}; }"),
                       ("term", 'term s = "t ; t";')):
        parse_workspace([("one.cat", base)])
        with pytest.raises(StructuralError, match=f"^duplicate {kind} "):
            parse_workspace([("one.cat", base), ("two.cat", line + "\n")])
        path = tmp_path / f"{kind}.cat"
        path.write_text(base + line + "\n")
        code, out = run("validate", str(path))
        assert code == 2 and f"duplicate {kind}" in out, (kind, code, out)


def test_cat_syntax_error_carries_position():
    from fincat.catfile import parse_workspace, CatSyntaxError
    try:
        parse_workspace([("f.cat", "category C { objects x; }")])
        raised = False
    except CatSyntaxError as e:
        raised = True
        assert "f.cat:1:" in str(e)
    assert raised


SYNTAX_ERRORS = [
    ("category C { objects: a; }\nwidget W { }\n", "f.cat:2:1: unknown declaration 'widget'"),
    ("category C {\n  objects: a;\n  arrow f: a -> a;\n}\n",
     "f.cat:3:3: unknown category clause 'arrow'"),
    ("functor F: C -> C { ob a |-> a; }\n", "f.cat:1:21: unknown functor clause 'ob'"),
    ("setfunctor X: C -> Set {\n  obj a |-> {x};\n  objs b |-> {};\n}\n",
     "f.cat:3:3: unknown setfunctor clause 'objs'"),
    ("nat t: F => G { on a: u; }\n", "f.cat:1:17: expected 'at', found 'on'"),
    ("nat t: F => G {", "f.cat:1:15: expected 'at' (at end of file)"),
    ("category C { objects: a, ; }\n", "f.cat:1:26: expected a name, found ';'"),
    ("category C { objects a; }\n", "f.cat:1:22: expected ':', found 'a'"),
    ("category C { objects: a;\n", "f.cat:1:24: unexpected end of file (at end of file)"),
    ("functor F: C -> C\n", "f.cat:1:17: expected '{' (at end of file)"),
    ("setfunctor X: C -> Cat { }\n", "f.cat:1:20: setfunctor target must be Set"),
    ("setfunctor X: op(C -> Set { }\n", "f.cat:1:20: expected ')', found '->'"),
    ("term t = alpha;\n", "f.cat:1:10: term body must be a quoted string"),
    ("term t = ", "f.cat:1:8: unexpected end of file (at end of file)"),
]


def test_every_syntax_error_message_is_pinned():
    for text, message in SYNTAX_ERRORS:
        try:
            parse_workspace([("f.cat", text)])
        except CatSyntaxError as e:
            assert str(e) == message, text
        else:
            raise AssertionError(f"no syntax error for {text!r}")


def test_declared_unit_violation_is_flagged(tmp_path):
    f = tmp_path / "badunit.cat"
    f.write_text("""category C {
  objects: x, y;
  mor f: x -> y;
  mor g: x -> y;
  compose f.id_x = g;
}
""")
    code, out = run("validate", str(f), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["report"]["counterexample"]["law"] == "unit"


def _run_cli_process(tmp_path, text: str | bytes, *command: str) -> subprocess.CompletedProcess:
    f = tmp_path / "input.cat"
    if isinstance(text, bytes):
        f.write_bytes(text)
    else:
        f.write_text(text)
    return subprocess.run([sys.executable, "-m", "fincat.cli", *(command or ("validate",)),
                           str(f)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_a_file_that_is_not_utf8_is_structural(tmp_path):
    text = (CORPUS / "two.cat").read_bytes()
    for data, offset in ((b"\xff\xfe" + text, 0), (text + b"# \xe9\n", len(text) + 2)):
        proc = _run_cli_process(tmp_path, data)
        assert proc.returncode == 2
        assert f"input.cat: not UTF-8 text (byte offset {offset})" in proc.stdout
        assert "Traceback" not in proc.stderr


def test_deeply_nested_terms_are_a_syntax_error(tmp_path):
    deep = "(" * 400 + "s" + ")" * 400
    where = (f"parentheses nested deeper than {diagram.MAX_NESTING}"
             f" at line 1, column {diagram.MAX_NESTING + 1}")
    code, out = run("diagram-eval", deep, cat("terms.cat"), "--json")
    assert code == 2
    assert json.loads(out)["message"] == where
    proc = _run_cli_process(tmp_path, (CORPUS / "terms.cat").read_text()
                            + f'term deep = "{deep}";\n')
    assert proc.returncode == 2
    assert where in proc.stdout
    assert "Traceback" not in proc.stderr


def test_a_bad_term_in_a_file_names_the_file_line_and_term(tmp_path):
    deep = "(" * 400 + "s" + ")" * 400
    text = (CORPUS / "terms.cat").read_text()
    line = text.count("\n") + 2  # the `term` line, after one blank line
    proc = _run_cli_process(tmp_path, text + f'\nterm\n  deep =\n  "{deep}";\n', "validate", "--json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["message"] == (
        f"{tmp_path / 'input.cat'}:{line}: term deep: parentheses nested deeper than"
        f" {diagram.MAX_NESTING} at line 1, column {diagram.MAX_NESTING + 1}")
    assert "Traceback" not in proc.stderr


def test_arrow_to_undeclared_object_is_structural(tmp_path):
    proc = _run_cli_process(tmp_path, "category C { objects: a; mor f: a -> b; }\n")
    assert proc.returncode == 2
    assert "f has unresolved endpoints" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_functor_image_outside_codomain_is_structural(tmp_path):
    proc = _run_cli_process(tmp_path, """category C { objects: a, b; }
category D { objects: a, b; }
functor F: C -> D { obj a |-> a; obj b |-> c; }
""")
    assert proc.returncode == 2
    assert "F: object map sends b outside D" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_functor_map_naming_a_missing_arrow_is_structural(tmp_path):
    # density.cat without its arrow a, while Itwo still maps a
    text = (CORPUS / "density.cat").read_text()
    assert 'mor a: "0" -> "1";' in text
    text = text.replace('mor a: "0" -> "1";', "")
    for command in (("validate",), ("density", "Itwo"), ("codensity", "Itwo")):
        proc = _run_cli_process(tmp_path, text, *command)
        assert proc.returncode == 2, command
        assert "Itwo: morphism map names a, which is not in two" in proc.stdout
        assert "Traceback" not in proc.stderr


def test_functor_object_map_with_a_stray_entry_is_structural(tmp_path):
    proc = _run_cli_process(tmp_path, """category C { objects: a; }
functor F: C -> C { obj a |-> a; obj q |-> a; }
""")
    assert proc.returncode == 2
    assert "F: object map names q, which is not in C" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_nat_component_at_a_stray_object_is_structural(tmp_path):
    proc = _run_cli_process(tmp_path, """category C { objects: a; }
functor F: C -> C { obj a |-> a; }
nat t: F => F { at a: id_a; at q: id_a; }
""")
    assert proc.returncode == 2
    assert "t: component family names q, which is not in C" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_setfunctor_with_stray_entries_is_structural(tmp_path):
    for clause, message in (('obj q |-> {x};', "X: object values names q, which is not in C"),
                            ("mor g |-> [x -> x];", "X: table at g, which is not in C")):
        proc = _run_cli_process(tmp_path, "category C { objects: a; }\n"
                                f"setfunctor X: C -> Set {{ obj a |-> {{x}}; {clause} }}\n")
        assert proc.returncode == 2, clause
        assert message in proc.stdout
        assert "Traceback" not in proc.stderr


def _cyclic_group_diagram() -> str:
    """Z/6 as a one-object category, the discrete category on 9 objects, and
    a diagram D between them: 6^9 leg families and no arrow to prune them."""
    names = ["id_o"] + [f"g{k}" for k in range(1, 6)]
    lines = ["category Z6 {", "  objects: o;"] + [f"  mor g{k}: o -> o;" for k in range(1, 6)]
    lines += [f"  compose g{a}.g{b} = {names[(a + b) % 6]};"
              for a in range(1, 6) for b in range(1, 6)]
    lines += ["}", "category N9 {", "  objects: " + ", ".join(f"n{k}" for k in range(9)) + ";",
              "}", "functor D: N9 -> Z6 {"] + [f"  obj n{k} |-> o;" for k in range(9)] + ["}"]
    return "\n".join(lines) + "\n"


def test_an_unbounded_cone_search_ends_at_the_guard(tmp_path):
    f = tmp_path / "z6.cat"
    f.write_text(_cyclic_group_diagram())
    for guard, charged in (("100", 103), (None, 1000003)):
        argv = ["limit", "D", str(f), "--json"] + (["--guard", guard] if guard else [])
        proc = subprocess.run([sys.executable, "-m", "fincat.cli", *argv],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["message"] == (
            f"limit cone search over D exceeds guard {guard or 1000000}:"
            f" {charged} candidates charged")
    # the guard reaches the colimit, end and coend searches too
    code, out = run("colimit", "D", str(f), "--guard", "100", "--json")
    assert code == 2 and "colimit cone search over D exceeds guard 100" in out
    for side in ("end", "coend"):
        code, out = run(side, "Bf", cat("bifunctor_poset.cat"), "--guard", "1", "--json")
        assert code == 2
        assert json.loads(out)["message"] == \
            f"{side} wedge search over Bf exceeds guard 1: 2 candidates charged"


def test_a_guard_below_one_is_a_usage_error():
    for guard in ("0", "-3"):
        code, out, err = _exit_of(main, ("limit", "D", cat("pair_diagram.cat"), "--guard", guard))
        assert code == 2 and out == "", (guard, out)
        assert err.endswith(f"fincat limit: error: argument --guard: must be at least 1, "
                            f"not {guard}\n"), err
    assert run("limit", "D", cat("pair_diagram.cat"), "--guard", "1")[0] == 2


def test_the_guard_reaches_every_command():
    # density and codensity run their comma (co)limit searches on the budget
    for command, search in (("density", "colimit cone search over Kpick*P((Kpick↓0))"),
                            ("codensity", "limit cone search over Kpick*P((0↓Kpick))")):
        code, out = run(command, "Kpick", cat("density.cat"), "--guard", "1", "--json")
        assert code == 2
        assert json.loads(out)["message"] == f"{search} exceeds guard 1: 2 candidates charged"
    # the Set Kan extensions charge their probe-cone tables, summed, and their
    # limit tuples on it
    for command, listing in (
            ("kan-left", "map enumeration for colimit probe cone search over F*P((K↓0)): 4 maps"),
            ("kan-right", "tuple enumeration 2 elements")):
        code, out = run(command, "K", "F", cat("kan.cat"), "--guard", "1", "--json")
        assert code == 2
        assert json.loads(out)["message"] == f"{listing} exceeds guard 1"
    # every other corpus command above ends with an exit code and a message
    for *argv, name in (
            ("validate", "two.cat"), ("limit", "D", "pair_diagram.cat"),
            ("colimit", "D", "pair_diagram.cat"), ("limit", "Dg", "poset_diagram.cat"),
            ("end", "H", "bifunctor.cat"), ("coend", "H", "bifunctor.cat"),
            ("end", "Bf", "bifunctor_poset.cat"), ("coend", "Bf", "bifunctor_poset.cat"),
            ("adjoint-of", "G", "adjoint.cat"), ("adjoint-of", "G2", "adjoint_absent.cat"),
            ("snake", "Iz", "Iz", "etaS", "epsS", "snake.cat"),
            ("snake", "Iz", "Iz", "etaS", "epsE", "snake.cat"),
            ("yoneda-check", "two", "two.cat"), ("yoneda-check", "z2", "z2.cat"),
            ("density", "Itwo", "density.cat"), ("codensity", "Itwo", "density.cat"),
            ("weighted-limit", "W", "Fy", "weighted.cat"),
            ("diagram-eval", "stack", "terms.cat"), ("diagram-normalize", "side", "terms.cat")):
        code, out = run(*argv, cat(name), "--guard", "1", "--json")
        doc = json.loads(out)
        assert code in (0, 1, 2) and doc["exit"] == code, argv
        assert ("result" in doc) if code == 0 else doc["message"], argv
        if code == 2:
            assert "exceeds guard 1" in doc["message"], argv
