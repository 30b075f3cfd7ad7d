"""String-diagram term calculus: parse, typecheck, evaluate, normalize, render.

Terms compose generators vertically (';', bottom to top) and horizontally
('|').  In "x | y" the left operand is the outer transformation, so the term
order matches the operator order of the horizontal-composite notation.
Normalization slides every generator as low and as far left as the
interchange law permits, producing one generator per layer.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    FinCat,
    Functor,
    NatTrans,
    StructuralError,
    hcompose,
    identity_functor,
    identity_nat,
    validate_category,
    validate_functor,
    validate_natural,
    vcompose,
)


@dataclass(frozen=True)
class Generator:
    name: str


@dataclass(frozen=True)
class Id:
    name: str


@dataclass(frozen=True)
class VComp:
    parts: tuple  # bottom to top


@dataclass(frozen=True)
class HComp:
    parts: tuple  # first element is the outer transformation


Term = Union[Generator, Id, VComp, HComp]


def _flattened(kind, parts) -> Term:
    flat = [q for p in parts for q in (p.parts if isinstance(p, kind) else (p,))]
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def vcomp_term(parts) -> Term:
    return _flattened(VComp, parts)


def hcomp_term(parts) -> Term:
    return _flattened(HComp, parts)


# ---------------------------------------------------------------------------
# Parsing

class DiagramSyntaxError(StructuralError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[();|]|\S")


def _tokenize(text: str):
    tokens = []
    for ln, line in enumerate(text.splitlines() or [""], start=1):
        for m in _TOKEN.finditer(line):
            tokens.append((m.group(0), ln, m.start() + 1))
    return tokens


# parentheses nested deeper than this are rejected before they exhaust the stack
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self):
        if self.pos < len(self.tokens):
            _, ln, col = self.tokens[self.pos]
            return ln, col
        lines = self.text.splitlines() or [""]
        return len(lines), len(lines[-1]) + 1

    def take(self, expect: str | None = None):
        if self.pos >= len(self.tokens):
            ln, col = self.where()
            raise DiagramSyntaxError(
                f"unexpected end of input, expected {expect!r}" if expect
                else "unexpected end of input", ln, col)
        tok, ln, col = self.tokens[self.pos]
        if expect is not None and tok != expect:
            raise DiagramSyntaxError(f"expected {expect!r}, found {tok!r}", ln, col)
        self.pos += 1
        return tok

    def term(self) -> Term:
        parts = [self.hterm()]
        while self.peek() == ";":
            self.take(";")
            parts.append(self.hterm())
        return vcomp_term(parts)

    def hterm(self) -> Term:
        parts = [self.atom()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.atom())
        return hcomp_term(parts)

    def atom(self) -> Term:
        tok = self.peek()
        ln, col = self.where()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise DiagramSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", ln, col)
            self.take("(")
            self.depth += 1
            inner = self.term()
            self.depth -= 1
            self.take(")")
            return inner
        if tok is None:
            raise DiagramSyntaxError("unexpected end of input", ln, col)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise DiagramSyntaxError(f"unexpected token {tok!r}", ln, col)
        self.take()
        if tok == "id":
            self.take("(")
            name = self.take()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise DiagramSyntaxError(f"bad identity argument {name!r}", ln, col)
            self.take(")")
            return Id(name)
        return Generator(tok)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    out = p.term()
    if p.peek() is not None:
        ln, col = p.where()
        raise DiagramSyntaxError(f"trailing input {p.peek()!r}", ln, col)
    return out


def pretty(term: Term) -> str:
    if isinstance(term, Generator):
        return term.name
    if isinstance(term, Id):
        return f"id({term.name})"
    if isinstance(term, VComp):
        return " ; ".join(pretty(p) for p in term.parts)
    if isinstance(term, HComp):
        return " | ".join(f"({pretty(p)})" if isinstance(p, VComp) else pretty(p)
                          for p in term.parts)
    raise StructuralError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Environments and typechecking

@dataclass(frozen=True, eq=False)
class Environment:
    categories: dict[str, FinCat]
    functors: dict[str, Functor]
    generators: dict[str, NatTrans]

    def validate(self) -> None:
        for name, C in self.categories.items():
            if C.name != name:
                raise StructuralError(f"category registered as {name} is named {C.name}")
            rep = validate_category(C)
            if not rep.ok:
                raise StructuralError(f"category {name} invalid: {rep.counterexample}")
        for name, F in self.functors.items():
            if F.name != name:
                raise StructuralError(f"functor registered as {name} is named {F.name}")
            if F.dom.name not in self.categories or F.cod.name not in self.categories:
                raise StructuralError(f"functor {name} uses unregistered categories")
            rep = validate_functor(F)
            if not rep.ok:
                raise StructuralError(f"functor {name} invalid: {rep.counterexample}")
        for name, t in self.generators.items():
            rep = validate_natural(t)
            if not rep.ok:
                raise StructuralError(f"generator {name} invalid: {rep.counterexample}")
            for side in (t.src, t.tgt):
                if side.name not in self.functors or self.functors[side.name] != side:
                    raise StructuralError(
                        f"generator {name} uses functor {side.name} not in the environment")


@dataclass(frozen=True)
class Interface:
    """Wire lists of the bottom and top boundaries, innermost functor first."""

    bottom: tuple[str, ...]
    top: tuple[str, ...]
    left: str
    right: str


class DiagramTypeError(StructuralError):
    def __init__(self, message: str, node: Term):
        super().__init__(f"{message} in {pretty(node)}")
        self.node = node


def _gen_wires(env: Environment, name: str) -> tuple[str, str, str, str]:
    if name not in env.generators:
        raise StructuralError(f"unknown generator {name}")
    t = env.generators[name]
    return t.src.name, t.tgt.name, t.src.dom.name, t.src.cod.name


@dataclass(frozen=True)
class _Layer:
    position: int   # wire slot of the generator, counted from the left
    gen: str


def _walk(term: Term, env: Environment) -> tuple[Interface, tuple[_Layer, ...]]:
    """The term's interface and, from the same walk, its generators as layers
    at their wire slots, bottom to top in term order."""
    if isinstance(term, Generator):
        src, tgt, left, right = _gen_wires(env, term.name)
        return Interface((src,), (tgt,), left, right), (_Layer(0, term.name),)
    if isinstance(term, Id):
        if term.name in env.functors:
            F = env.functors[term.name]
            return Interface((term.name,), (term.name,), F.dom.name, F.cod.name), ()
        if term.name in env.categories:
            return Interface((), (), term.name, term.name), ()
        raise StructuralError(f"unknown name {term.name}")
    if not isinstance(term, (VComp, HComp)):
        raise StructuralError(f"not a term: {term!r}")
    walks = [_walk(p, env) for p in term.parts]
    faces = [face for face, _ in walks]
    if isinstance(term, VComp):
        for a, b in zip(faces, faces[1:]):
            if a.top != b.bottom or a.left != b.left or a.right != b.right:
                raise DiagramTypeError(
                    f"vertical mismatch: {a.top} does not meet {b.bottom}", term)
        return (Interface(faces[0].bottom, faces[-1].top, faces[0].left, faces[0].right),
                tuple(l for _, layers in walks for l in layers))
    for outer, inner in zip(faces, faces[1:]):
        if outer.left != inner.right:
            raise DiagramTypeError(
                f"horizontal mismatch: {outer.left} does not meet {inner.right}", term)
    # the innermost part comes first; each outer part sits right of the wires before it
    layers, bottom, top = [], (), ()
    for face, inner in reversed(walks):
        layers += [_Layer(l.position + len(bottom), l.gen) for l in inner]
        bottom, top = bottom + face.bottom, top + face.top
    return Interface(bottom, top, faces[-1].left, faces[0].right), tuple(layers)


def typecheck(term: Term, env: Environment) -> Interface:
    return _walk(term, env)[0]


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(term: Term, env: Environment) -> NatTrans:
    typecheck(term, env)
    return _eval(term, env)


def _eval(term: Term, env: Environment) -> NatTrans:
    if isinstance(term, Generator):
        return env.generators[term.name]
    if isinstance(term, Id):
        if term.name in env.functors:
            return identity_nat(env.functors[term.name])
        return identity_nat(identity_functor(env.categories[term.name]))
    if isinstance(term, VComp):
        val = _eval(term.parts[0], env)
        for p in term.parts[1:]:
            val = vcompose(_eval(p, env), val)
        return val
    if isinstance(term, HComp):
        val = _eval(term.parts[-1], env)
        for p in term.parts[-2::-1]:
            val = hcompose(_eval(p, env), val)
        return val
    raise StructuralError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# Normalization by interchange

def _thread(bottom: tuple[str, ...], layers, env: Environment):
    """Contexts (left, gen, right) for each layer, recomputed by threading the
    wire states upward from bottom, and the top boundary they reach."""
    boundary = list(bottom)
    out = []
    for layer in layers:
        src, tgt, _, _ = _gen_wires(env, layer.gen)
        if boundary[layer.position] != src:
            raise StructuralError(
                f"layer for {layer.gen} sits on wire {boundary[layer.position]}, "
                f"expected {src}")
        left = tuple(boundary[:layer.position])
        right = tuple(boundary[layer.position + 1:])
        out.append((left, layer.gen, right))
        boundary[layer.position] = tgt
    return out, tuple(boundary)


def _layered(term: Term, env: Environment):
    """The term's interface, with the contexts and top boundary that _thread
    computes for its layers stably sorted by wire position."""
    face, layers = _walk(term, env)
    return (face, *_thread(face.bottom, sorted(layers, key=lambda l: l.position), env))


def normalize(term: Term, env: Environment) -> Term:
    """Canonical layered form: one generator per layer, lowest-then-leftmost.

    Layers at distinct wire positions always commute by interchange, so the
    normal form is the stable sort of the layer sequence by position; layers
    stacked on the same wire keep their order.  The result is idempotent and
    evaluation-preserving.
    """
    face, rows, _ = _layered(term, env)
    if not rows:
        if not face.bottom:
            return Id(face.left)
        return hcomp_term([Id(w) for w in reversed(face.bottom)])
    terms = []
    for left, gen, right in rows:
        parts = [Id(v) for v in reversed(right)] + [Generator(gen)] + \
                [Id(w) for w in reversed(left)]
        terms.append(hcomp_term(parts))
    return vcomp_term(terms)


# ---------------------------------------------------------------------------
# Rendering

def _palette(name: str) -> str:
    h = int(hashlib.md5(name.encode("utf8")).hexdigest(), 16)
    hue = h % 360
    return f"hsl({hue},45%,88%)"


def render_svg(term: Term, env: Optional[Environment] = None) -> str:
    """Deterministic layered layout; byte-identical across runs.

    One row per normal-form layer, vertical wires, generators as labeled
    circles, regions colored by a stable category-name palette.
    """
    if env is None:
        env = Environment({}, {}, {})
    face, rows, top = _layered(term, env)

    n = len(face.bottom)
    cell, rowh, margin = 70, 70, 30
    width = 2 * margin + (n + 1) * cell
    nrows = max(len(rows), 1)
    height = 2 * margin + nrows * rowh

    def wx(i: int) -> int:
        return margin + (i + 1) * cell

    regions = [face.left]
    for w in face.bottom:
        regions.append(env.functors[w].cod.name)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    x0 = margin
    for i, reg in enumerate(regions):
        x1 = wx(i) if i < n else width - margin
        parts.append(f'<rect x="{x0}" y="{margin}" width="{x1 - x0}" '
                     f'height="{height - 2 * margin}" fill="{_palette(reg)}" '
                     f'stroke="none"/>')
        parts.append(f'<text x="{(x0 + x1) // 2}" y="{margin + 14}" '
                     f'font-size="11" text-anchor="middle" fill="#555">{reg}</text>')
        x0 = x1
    # wires: one vertical segment per row, generator circles on their slots
    for r in range(nrows):
        y1 = height - margin - r * rowh
        y0 = y1 - rowh
        row = rows[r] if r < len(rows) else None
        for i in range(n):
            parts.append(f'<line x1="{wx(i)}" y1="{y1}" x2="{wx(i)}" y2="{y0}" '
                         f'stroke="#333" stroke-width="2"/>')
        if row is not None:
            left, gen, right = row
            pos = len(left)
            cy = (y0 + y1) // 2
            parts.append(f'<circle cx="{wx(pos)}" cy="{cy}" r="16" fill="#fff" '
                         f'stroke="#333" stroke-width="2"/>')
            parts.append(f'<text x="{wx(pos)}" y="{cy + 4}" font-size="12" '
                         f'text-anchor="middle">{gen}</text>')
    for i, w in enumerate(face.bottom):
        parts.append(f'<text x="{wx(i)}" y="{height - margin + 14}" font-size="11" '
                     f'text-anchor="middle">{w}</text>')
    for i, w in enumerate(top):
        parts.append(f'<text x="{wx(i)}" y="{margin - 6}" font-size="11" '
                     f'text-anchor="middle">{w}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
