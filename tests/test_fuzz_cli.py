"""Seeded single-edit mutations of the corpus, run in process through the CLI.

Whatever the edit, a command must end with exit code 0, 1 or 2 and a
message; no exception may escape main().
"""
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout

import fincat
from fincat.catfile import Workspace, serialize
from fincat.cli import main
from fincat.core import identity_functor, renamed
from fincat.fixtures import chain

CORPUS = pathlib.Path(__file__).parent / "corpus"
SRC = str(pathlib.Path(fincat.__file__).resolve().parent.parent)

# the commands run on each corpus file (render writes a file and is left out)
COMMANDS = {
    "adjoint.cat": [("adjoint-of", "G"), ("adjoint-of", "G", "--side", "right")],
    "adjoint_absent.cat": [("adjoint-of", "G2"), ("adjoint-of", "G2", "--side", "right")],
    "bad_law.cat": [("validate",)],
    "bad_missing.cat": [("validate",)],
    "bad_syntax.cat": [("validate",)],
    "bifunctor.cat": [("end", "H"), ("coend", "H")],
    "bifunctor_poset.cat": [("end", "Bf"), ("coend", "Bf")],
    "density.cat": [("density", "Itwo"), ("codensity", "Itwo"), ("density", "Kpick"),
                    ("codensity", "Kpick")],
    "kan.cat": [("kan-left", "K", "F"), ("kan-right", "K", "F")],
    "pair_diagram.cat": [("limit", "D"), ("colimit", "D")],
    "poset_diagram.cat": [("limit", "Dg"), ("colimit", "Dg")],
    "snake.cat": [("snake", "Iz", "Iz", "etaS", "epsS"), ("snake", "Iz", "Iz", "etaS", "epsE")],
    "terms.cat": [("validate",), ("diagram-eval", "stack"), ("diagram-normalize", "mixed")],
    "two.cat": [("validate",), ("yoneda-check", "two")],
    "weighted.cat": [("weighted-limit", "W", "Fy"),
                     ("weighted-limit", "W", "Fy", "--side", "colimit")],
    "z2.cat": [("yoneda-check", "z2")],
}
TOKEN = re.compile(r'"[^"]*"|\|->|->|=>|\w+|\S')
MUTANTS = 1200


def _mutate(rng: random.Random, text: str) -> str:
    """One seeded edit: delete, replace or duplicate a token, or delete a line."""
    kind = rng.randrange(4)
    if kind == 3:
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    spans = [m.span() for m in TOKEN.finditer(text)]
    a, b = spans[rng.randrange(len(spans))]
    if kind == 0:
        return text[:a] + text[b:]
    if kind == 1:
        # a token of the same class (name, quoted name or symbol) keeps most
        # edits past the parser
        same = [text[c:d] for c, d in spans if _klass(text[c:d]) == _klass(text[a:b])]
        return text[:a] + rng.choice(same) + text[b:]
    return text[:b] + " " + text[a:b] + text[b:]


def _klass(token: str) -> int:
    return 0 if token.startswith('"') else 1 if token[0].isalnum() or token[0] == "_" else 2


def _run(path, command) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*command, str(path)])
    return code, buf.getvalue()


def test_every_corpus_file_has_fuzz_commands():
    assert sorted(p.name for p in CORPUS.glob("*.cat")) == sorted(COMMANDS)


def test_stray_arrow_in_functor_map_exits_2(tmp_path):
    path = tmp_path / "density.cat"
    path.write_text((CORPUS / "density.cat").read_text().replace('mor a: "0" -> "1";', ""))
    for command in COMMANDS["density.cat"]:
        code, out = _run(path, command)
        assert code == 2, command
        assert "morphism map names a" in out


def test_corpus_mutations_end_with_an_exit_code(tmp_path):
    rng = random.Random(7)
    texts = {name: (CORPUS / name).read_text() for name in sorted(COMMANDS)}
    names = sorted(texts)
    for i in range(MUTANTS):
        name = names[i % len(names)]
        mutant = _mutate(rng, texts[name])
        command = rng.choice(COMMANDS[name])
        path = tmp_path / name
        path.write_text(mutant)
        try:
            code, _ = _run(path, command)
        except Exception as exc:  # report the mutant that escaped
            raise AssertionError(f"mutant {i} of {name}, {command}: {exc!r}\n{mutant}") from exc
        assert code in (0, 1, 2), (i, name, command, mutant)


TERMS = re.compile(r'term \w+ = "([^"]*)";')
TERM_TOKEN = re.compile(r"\w+|\S")
TERM_MUTANTS = 200


def _mutate_term(rng: random.Random, term: str, vocabulary: list[str]) -> str:
    """One seeded edit of a term string: delete, replace or duplicate a token."""
    spans = [m.span() for m in TERM_TOKEN.finditer(term)]
    a, b = spans[rng.randrange(len(spans))]
    kind = rng.randrange(3)
    if kind == 0:
        return term[:a] + term[b:]
    if kind == 1:
        return term[:a] + rng.choice(vocabulary) + term[b:]
    return term[:b] + " " + term[a:b] + term[b:]


def test_term_string_mutations_end_with_an_exit_code(tmp_path):
    path = CORPUS / "terms.cat"
    terms = TERMS.findall(path.read_text())
    assert len(terms) == 3
    vocabulary = sorted({t for term in terms for t in TERM_TOKEN.findall(term)} | {"(", ")"})
    svg = tmp_path / "out.svg"
    rng = random.Random(11)
    codes = set()
    for i in range(TERM_MUTANTS):
        mutant = _mutate_term(rng, terms[i % len(terms)], vocabulary)
        for command in (("diagram-eval", mutant), ("diagram-normalize", mutant),
                        ("render", mutant, "-o", str(svg))):
            try:
                code, _ = _run(path, command)
            except Exception as exc:  # report the mutant that escaped
                raise AssertionError(f"mutant {i}, {command}: {exc!r}") from exc
            assert code in (0, 1, 2), (i, command)
            codes.add(code)
    # some mutants still typecheck and some do not parse
    assert {0, 2} <= codes


def _cyclic_group_diagram(n: int, m: int) -> str:
    """Z/n as a one-object category, the discrete category on m objects and
    a diagram D between them: n^m leg families and no arrow to prune them."""
    names = ["id_o"] + [f"g{k}" for k in range(1, n)]
    lines = ["category Z {", "  objects: o;"] + [f"  mor g{k}: o -> o;" for k in range(1, n)]
    lines += [f"  compose g{a}.g{b} = {names[(a + b) % n]};"
              for a in range(1, n) for b in range(1, n)]
    lines += ["}", "category N {", "  objects: " + ", ".join(f"n{k}" for k in range(m)) + ";",
              "}", "functor D: N -> Z {"] + [f"  obj n{k} |-> o;" for k in range(m)] + ["}"]
    return "\n".join(lines) + "\n"


def _ends_with_a_message(code: int, out: str, argv) -> None:
    doc = json.loads(out)
    assert code in (0, 1, 2) and doc["exit"] == code, argv
    assert ("result" in doc) if code == 0 else doc["message"], argv
    if code == 2:
        assert "exceeds guard" in doc["message"], argv


def test_growing_categories_end_with_an_exit_code_under_a_guard(tmp_path):
    """Size grows instead of tokens being edited: every command on chain(n)
    and its identity, and the unpruned cone searches of Z/n -> discrete(m),
    end with an exit code and a message, a guard message on exit 2."""
    for n in (3, 6, 9):
        C = renamed(chain(n), "C")
        path = tmp_path / f"chain{n}.cat"
        path.write_text(serialize(Workspace({"C": C}, {"I": identity_functor(C)}, {}, {}, {})))
        for command in (("density", "I"), ("codensity", "I"), ("limit", "I"), ("colimit", "I"),
                        ("adjoint-of", "I"), ("yoneda-check", "C")):
            argv = [*command, "--guard", "10000", "--json"]
            _ends_with_a_message(*_run(path, argv), argv)
    codes = set()
    for n, m in ((2, 2), (3, 5), (6, 9)):
        path = tmp_path / f"z{n}_{m}.cat"
        path.write_text(_cyclic_group_diagram(n, m))
        for command in ("limit", "colimit"):
            argv = [command, "D", str(path), "--guard", "1000", "--json"]
            proc = subprocess.run([sys.executable, "-m", "fincat.cli", *argv],
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": SRC})
            assert "Traceback" not in proc.stderr, argv
            _ends_with_a_message(proc.returncode, proc.stdout, argv)
            codes.add(proc.returncode)
    assert 2 in codes, codes


def _discrete_set_diagram(n: int, k: int) -> str:
    """The discrete category on n objects and a Set diagram X sending each
    to the same k-element set: k^n limit tuples, and probe cones with no
    arrow to prune them."""
    elements = "{" + ", ".join(f"e{i}" for i in range(k)) + "}"
    lines = ["category Dk {", "  objects: " + ", ".join(f"o{i}" for i in range(n)) + ";", "}",
             "setfunctor X: Dk -> Set {"] + [f"  obj o{i} |-> {elements};" for i in range(n)]
    return "\n".join(lines + ["}"]) + "\n"


def test_growing_set_limits_stop_at_the_guard(tmp_path):
    """The Set limit lists its tuples and its certificate searches its probe
    cones on the budget: the 216 tuples of discrete(3) exceed a guard of 100,
    and at discrete(4) the 1,296 tuples fit a guard of 10,000 but the probe
    cones of two-element apexes do not."""
    for n, guard, message in (
            (3, 100, "tuple enumeration 6 x 6 x 6 elements exceeds guard 100"),
            (4, 10000, "limit probe cone search over X exceeds guard 10000: "
                       "10008 candidates charged")):
        path = tmp_path / f"discrete{n}.cat"
        path.write_text(_discrete_set_diagram(n, 6))
        argv = ["limit", "X", str(path), "--guard", str(guard), "--json"]
        proc = subprocess.run([sys.executable, "-m", "fincat.cli", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2, (argv, proc.stderr)
        assert json.loads(proc.stdout)["message"] == message
