"""Seeded single-edit mutations of the corpus, run in process through the CLI.

Whatever the edit, a command must end with exit code 0, 1 or 2 and a
message; no exception may escape main().
"""
import io
import pathlib
import random
import re
from contextlib import redirect_stdout

from fincat.cli import main

CORPUS = pathlib.Path(__file__).parent / "corpus"

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
