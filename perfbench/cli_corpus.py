"""Workload cli-corpus: the front end, heavy on construction, light on search.

Each op is one of: a `fincat` command run in process over tests/corpus/ (all
16 subcommands, in text and --json, including the files that exit 1 and 2),
one `parse_workspace` of a corpus file, or one seeded string-diagram term
through parse, typecheck, evaluate, normalize and render.  Many values are
built and validated once and few are compared, so up-front work that pays off
in the search workloads shows its cost here.  The seed draws the terms and
the order of the ops.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

from fincat.catfile import LawViolation, parse_workspace
from fincat.core import StructuralError
from fincat.diagram import Generator, HComp, Id, VComp, pretty, typecheck

from inputs import outcome, require

CORPUS = Path("tests") / "corpus"
RENDER_TO = str(Path(".perfbench") / "render.svg")

# (argv without --json); every subcommand, with the files that exit 1 and 2
COMMANDS = [
    ("validate", "two.cat"),
    ("validate", "terms.cat"),
    ("validate", "bad_law.cat"),
    ("validate", "bad_missing.cat"),
    ("validate", "bad_syntax.cat"),
    ("limit", "D", "pair_diagram.cat"),
    ("colimit", "D", "pair_diagram.cat"),
    ("limit", "Dg", "poset_diagram.cat"),
    ("end", "H", "bifunctor.cat"),
    ("coend", "H", "bifunctor.cat"),
    ("end", "Bf", "bifunctor_poset.cat"),
    ("coend", "Bf", "bifunctor_poset.cat"),
    ("kan-left", "K", "F", "kan.cat"),
    ("kan-right", "K", "F", "kan.cat"),
    ("adjoint-of", "G", "adjoint.cat"),
    ("adjoint-of", "G2", "adjoint_absent.cat"),
    ("snake", "Iz", "Iz", "etaS", "epsS", "snake.cat"),
    ("snake", "Iz", "Iz", "etaS", "epsE", "snake.cat"),
    ("snake", "Iz", "Iz", "missing", "epsS", "snake.cat"),
    ("yoneda-check", "two", "two.cat"),
    ("yoneda-check", "z2", "z2.cat"),
    ("density", "Itwo", "density.cat"),
    ("density", "Kpick", "density.cat"),
    ("codensity", "Itwo", "density.cat"),
    ("codensity", "Kpick", "density.cat"),
    ("weighted-limit", "W", "Fy", "weighted.cat"),
    ("diagram-eval", "stack", "terms.cat"),
    ("diagram-eval", "t ; s", "terms.cat"),
    ("diagram-normalize", "mixed", "terms.cat"),
    ("diagram-normalize", "side", "terms.cat"),
    ("render", "mixed", "-o", RENDER_TO, "terms.cat"),
]
TERMS_PER_PASS = 40
# atoms per term; longer terms would outweigh the fixed commands at the top
# of the latency distribution and make it depend on the seed
MAX_ATOMS = 6


def _argv(cmd: tuple, json_out: bool) -> list[str]:
    argv = [str(CORPUS / a) if a.endswith(".cat") else a for a in cmd]
    return argv + ["--json"] if json_out else argv


def random_term(rng: random.Random, env, max_atoms: int):
    """A well-typed term grown by stacking and nesting typed atoms."""
    atoms = ([Generator(g) for g in sorted(env.generators)]
             + [Id(f) for f in sorted(env.functors)] + [Id(c) for c in sorted(env.categories)])
    typed = [(a, typecheck(a, env)) for a in atoms]
    term, face = rng.choice(typed)
    size = 1
    for _ in range(8 * max_atoms):
        if size >= max_atoms:
            break
        atom, aface = rng.choice(typed)
        moves = []
        if (face.top, face.left, face.right) == (aface.bottom, aface.left, aface.right):
            moves.append(VComp((term, atom)))
        if aface.left == face.right:
            moves.append(HComp((atom, term)))
        if face.left == aface.right:
            moves.append(HComp((term, atom)))
        if moves:
            term = rng.choice(moves)
            face = typecheck(term, env)
            size += 1
    return term


def make_specs(api, seed: int, step=lambda: None) -> list[dict]:
    """The recipes of one seed; `step` is called after the corpus and each term.

    Commands and parses are the same at every seed and carry a `fixed` name, under
    which their outcomes are recorded and checked at every seed.
    """
    rng = random.Random(f"cli-corpus/{seed}")
    texts = {p.name: p.read_text(encoding="utf8") for p in sorted(CORPUS.glob("*.cat"))}
    env = parse_workspace([("terms.cat", texts["terms.cat"])]).env()
    specs = []
    for cmd in COMMANDS:
        for json_out in (False, True):
            argv = _argv(cmd, json_out)
            specs.append({"kind": "cli", "argv": argv, "fixed": "fincat " + " ".join(argv)})
    specs += [{"kind": "parse", "file": name, "text": text, "fixed": "parse " + name}
              for name, text in texts.items()]
    step()
    for _ in range(TERMS_PER_PASS):
        specs.append({"kind": "term", "env": env,
                      "text": pretty(random_term(rng, env, MAX_ATOMS))})
        step()
    rng.shuffle(specs)
    return specs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf8")).hexdigest()


def op_cli(api, spec):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(spec["argv"]))
    return outcome(f"exit-{code}", digest=_digest(buf.getvalue()))


def op_parse(api, spec):
    try:
        ws = api.catfile.parse_workspace([(spec["file"], spec["text"])])
    except StructuralError as err:
        return outcome("rejected", law=type(err).__name__)
    except LawViolation as err:
        return outcome("rejected", law=err.report.counterexample.law,
                       checked=err.report.checked)
    sizes = [len(ws.categories), len(ws.functors), len(ws.nats), len(ws.setfunctors),
             len(ws.terms)]
    return outcome("parsed", size=sum(sizes), digest=_digest(repr(sizes)))


def op_term(api, spec):
    env = spec["env"]
    t = api.diagram.parse_term(spec["text"])
    api.diagram.typecheck(t, env)
    value = api.diagram.evaluate(t, env)
    nf = api.diagram.normalize(t, env)
    require(dict(api.diagram.evaluate(nf, env).components) == dict(value.components),
            "normalization changed the value of a term")
    require(api.diagram.normalize(nf, env) == nf, "normal form is not idempotent")
    svg = api.diagram.render_svg(t, env)
    return outcome("normalized", size=len(svg), digest=_digest(pretty(nf) + "\n" + svg))


OPS = {"cli": op_cli, "parse": op_parse, "term": op_term}


def run_op(api, spec: dict, salt: str) -> dict:
    """Corpus commands are fixed text, so the salt is not used."""
    return OPS[spec["kind"]](api, spec)
