"""The .cat workspace format: parse, validate, serialize.

Line-oriented declarations; '#' starts a comment that runs to the end of the
line, except inside a quoted name:

    category C { objects: a, b; mor f: a -> b; compose g.f = h; }
    functor F: C -> D { obj a |-> x; mor f |-> u; }
    nat t: F => G { at a: u; }
    setfunctor X: C -> Set { obj a |-> {e1,e2}; mor f |-> [e1->d1, e2->d1]; }
    term name = "alpha ; (beta | id(F))";

Identities are implicit; composition tables must cover every non-identity
composable pair.  op(C) is allowed as a setfunctor source.  Names may be bare
identifiers or double-quoted strings (needed for constructed ids like
"(0,0)").
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .core import (
    FinCat,
    Functor,
    NatTrans,
    StructuralError,
    make_category,
    opposite,
    validate_category,
    validate_functor,
    validate_natural,
)
from .diagram import DiagramSyntaxError, Environment, Term, parse_term, pretty
from .finset import FinSetMap, FinSetObj, SetFunctor, validate_set_functor


class CatSyntaxError(StructuralError):
    def __init__(self, message: str, file: str, line: int, col: int):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.file = file
        self.line = line
        self.col = col


class LawViolation(Exception):
    """A well-formed declaration that fails its law check; carries the Report."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


_PUNCT = ["|->", "->", "=>", "{", "}", ";", ":", ",", ".", "=", "(", ")", "[", "]"]
_TOKEN = re.compile(
    r'"(?:[^"\\]|\\.)*"|' + "|".join(re.escape(p) for p in _PUNCT) +
    r"|[A-Za-z_][A-Za-z0-9_]*|\S")


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Tok]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            if m.group(0) == "#":  # a comment; a '#' inside a quoted name is part of it
                break
            out.append(_Tok(m.group(0), ln, m.start() + 1))
    return out


@dataclass(frozen=True, eq=False)
class Workspace:
    categories: dict[str, FinCat]
    functors: dict[str, Functor]
    nats: dict[str, NatTrans]
    setfunctors: dict[str, SetFunctor]
    terms: dict[str, Term]

    def env(self) -> Environment:
        """The diagram environment of the workspace, as validated on load."""
        return Environment(dict(self.categories), dict(self.functors), dict(self.nats))


N = None  # a name place in a _WorkspaceParser.read pattern


class _WorkspaceParser:
    def __init__(self, text: str, filename: str):
        self.toks = _tokenize(text, filename)
        self.pos = 0
        self.file = filename

    def error(self, message: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise CatSyntaxError(message, self.file, t.line, t.col)
        last = self.toks[-1] if self.toks else _Tok("", 1, 1)
        raise CatSyntaxError(message + " (at end of file)", self.file, last.line, last.col)

    def reject(self, message: str):
        """Fail at the token just taken."""
        self.pos -= 1
        self.error(message)

    def peek(self) -> Optional[str]:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def take(self, expect: Optional[str] = None) -> str:
        if self.pos >= len(self.toks):
            self.error(f"expected {expect!r}" if expect else "unexpected end of file")
        t = self.toks[self.pos]
        if expect is not None and t.text != expect:
            self.error(f"expected {expect!r}, found {t.text!r}")
        self.pos += 1
        return t.text

    def name(self) -> str:
        t = self.take()
        if t.startswith('"') and t.endswith('"') and len(t) >= 2:
            return t[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            return t
        self.reject(f"expected a name, found {t!r}")

    def read(self, *pattern) -> list[str]:
        """Take the pattern's literal tokens in turn; return the names at its N places."""
        names = []
        for part in pattern:
            if part is N:
                names.append(self.name())
            else:
                self.take(part)
        return names

    def commas(self, item) -> list:
        """One or more item() results separated by ','."""
        items = [item()]
        while self.peek() == ",":
            self.take(",")
            items.append(item())
        return items

    def block(self, kind: str, clauses: dict) -> dict:
        """Read `{ keyword ...; ... }`; clauses[keyword]() reads what lies between.

        Returns the values each keyword's clauses read, in order.
        """
        got = {key: [] for key in clauses}
        self.take("{")
        while self.peek() != "}":
            key = self.take()
            if key not in clauses:
                self.reject(f"unknown {kind} clause {key!r}")
            got[key].append(clauses[key]())
            self.take(";")
        self.take("}")
        return got

    def parse(self) -> dict:
        decls = {"category": [], "functor": [], "nat": [], "setfunctor": [], "term": []}
        while self.peek() is not None:
            kind = self.take()
            if kind not in decls:
                self.reject(f"unknown declaration {kind!r}")
            decls[kind].append(getattr(self, f"parse_{kind}")())
        return decls

    def parse_category(self):
        cname = self.name()
        got = self.block("category", {
            "objects": lambda: self.read(":") + self.commas(self.name),
            "mor": lambda: tuple(self.read(N, ":", N, "->", N)),
            "compose": lambda: self.read(N, ".", N, "=", N)})
        return (cname, [a for names in got["objects"] for a in names], got["mor"],
                {(g, f): h for g, f, h in got["compose"]})

    def parse_functor(self):
        fname, dom, cod = self.read(N, ":", N, "->", N)
        got = self.block("functor", {"obj": lambda: self.read(N, "|->", N),
                                     "mor": lambda: self.read(N, "|->", N)})
        return fname, dom, cod, dict(got["obj"]), dict(got["mor"])

    def parse_nat(self):
        tname, src, tgt = self.read(N, ":", N, "=>", N, "{")
        comps = []
        while self.peek() != "}":
            comps.append(self.read("at", N, ":", N, ";"))
        self.take("}")
        return tname, src, tgt, dict(comps)

    def parse_setfunctor(self):
        xname, src = self.read(N, ":", N)
        if src == "op" and self.peek() == "(":
            src = "op({})".format(*self.read("(", N, ")"))
        self.take("->")
        if self.take() != "Set":
            self.reject("setfunctor target must be Set")

        def entry(opening, closing, item):
            """`a |-> <opening> item, ... <closing>`: a name and its zero or more items."""
            a, = self.read(N, "|->", opening)
            items = self.commas(item) if self.peek() != closing else []
            self.take(closing)
            return a, items

        got = self.block("setfunctor", {
            "obj": lambda: entry("{", "}", self.name),
            "mor": lambda: entry("[", "]", lambda: self.read(N, "->", N))})
        return (xname, src, {a: tuple(xs) for a, xs in got["obj"]},
                {f: dict(pairs) for f, pairs in got["mor"]})

    def parse_term(self):
        line = self.toks[self.pos - 1].line  # of the `term` keyword
        tname, = self.read(N, "=")
        body = self.take()
        if not (body.startswith('"') and body.endswith('"')):
            self.reject("term body must be a quoted string")
        self.take(";")
        return tname, body[1:-1], f"{self.file}:{line}"


def parse_workspace(files: list[tuple[str, str]]) -> Workspace:
    """Build a workspace from (filename, text) pairs; one name per kind, all validated on load."""
    merged = {"category": [], "functor": [], "nat": [], "setfunctor": [], "term": []}
    for filename, text in files:
        decls = _WorkspaceParser(text, filename).parse()
        for k, v in decls.items():
            merged[k].extend(v)
    for kind, entries in merged.items():
        seen = set()
        for entry in entries:
            if entry[0] in seen:
                raise StructuralError(f"duplicate {kind} {entry[0]}")
            seen.add(entry[0])

    categories: dict[str, FinCat] = {}
    for cname, objects, arrows, compose in merged["category"]:
        C = make_category(cname, objects, arrows, compose)
        rep = validate_category(C)
        if not rep.ok:
            raise LawViolation(f"category {cname} violates a law", rep)
        categories[cname] = C

    def resolve_cat(name: str) -> FinCat:
        if name.startswith("op(") and name.endswith(")") and name[3:-1] in categories:
            return opposite(categories[name[3:-1]])
        if name not in categories:
            raise StructuralError(f"unresolved category reference {name}")
        return categories[name]

    functors: dict[str, Functor] = {}
    for fname, dom, cod, obj_map, mor_map in merged["functor"]:
        D, C = resolve_cat(dom), resolve_cat(cod)
        full = dict(mor_map)
        for a in D.objects:
            if a in obj_map:
                full.setdefault(D.id_of(a), C.id_of(obj_map[a]))
        F = Functor(fname, D, C, obj_map, full)
        rep = validate_functor(F)
        if not rep.ok:
            raise LawViolation(f"functor {fname} violates a law", rep)
        functors[fname] = F

    nats: dict[str, NatTrans] = {}
    for tname, src, tgt, comps in merged["nat"]:
        if src not in functors or tgt not in functors:
            raise StructuralError(f"nat {tname}: unresolved functor reference")
        t = NatTrans(tname, functors[src], functors[tgt], comps)
        rep = validate_natural(t)
        if not rep.ok:
            raise LawViolation(f"nat {tname} violates naturality", rep)
        nats[tname] = t

    setfunctors: dict[str, SetFunctor] = {}
    for xname, src, on_obj_raw, on_mor_raw in merged["setfunctor"]:
        C = resolve_cat(src)
        on_obj = {a: FinSetObj(v) for a, v in on_obj_raw.items()}
        for f in on_mor_raw:
            if f not in C.mor:
                raise StructuralError(
                    f"setfunctor {xname}: table at {f}, which is not in {C.name}")
        for a in C.objects:
            if a not in on_obj:
                raise StructuralError(f"setfunctor {xname}: no value at object {a}")
        on_mor = {}
        for m in C.morphisms:
            if C.is_identity(m.name) and m.name not in on_mor_raw:
                on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.dom],
                                           {x: x for x in on_obj[m.dom].elements})
            elif m.name in on_mor_raw:
                on_mor[m.name] = FinSetMap(on_obj[m.dom], on_obj[m.cod],
                                           on_mor_raw[m.name])
            else:
                raise StructuralError(f"setfunctor {xname}: no table at {m.name}")
        X = SetFunctor(xname, C, on_obj, on_mor)
        rep = validate_set_functor(X)
        if not rep.ok:
            raise LawViolation(f"setfunctor {xname} violates functoriality", rep)
        setfunctors[xname] = X

    terms: dict[str, Term] = {}
    for tname, body, where in merged["term"]:
        try:
            terms[tname] = parse_term(body)
        except DiagramSyntaxError as err:  # its line and column are inside the body
            raise StructuralError(f"{where}: term {tname}: {err}") from None

    return Workspace(categories, functors, nats, setfunctors, terms)


def load_workspace(paths: list[str]) -> Workspace:
    files = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf8") as fh:
                files.append((p, fh.read()))
        except UnicodeDecodeError as err:
            raise StructuralError(f"{p}: not UTF-8 text (byte offset {err.start})") from None
    return parse_workspace(files)


def _q(name: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize(ws: Workspace) -> str:
    """Emit a workspace as .cat text that reparses to a structurally equal one."""
    out = []
    for cname in sorted(ws.categories):
        C = ws.categories[cname]
        out.append(f"category {_q(cname)} {{")
        out.append("  objects: " + ", ".join(_q(a) for a in C.sorted_objects()) + ";")
        for m in sorted(C.morphisms, key=lambda m: m.name):
            if not C.is_identity(m.name):
                out.append(f"  mor {_q(m.name)}: {_q(m.dom)} -> {_q(m.cod)};")
        for (g, f), h in sorted(C.compose.items()):
            if not C.is_identity(g) and not C.is_identity(f):
                out.append(f"  compose {_q(g)}.{_q(f)} = {_q(h)};")
        out.append("}")
    for fname in sorted(ws.functors):
        F = ws.functors[fname]
        out.append(f"functor {_q(fname)}: {_q(F.dom.name)} -> {_q(F.cod.name)} {{")
        for a in sorted(F.obj_map):
            out.append(f"  obj {_q(a)} |-> {_q(F.obj_map[a])};")
        for f in sorted(F.mor_map):
            if not F.dom.is_identity(f):
                out.append(f"  mor {_q(f)} |-> {_q(F.mor_map[f])};")
        out.append("}")
    for tname in sorted(ws.nats):
        t = ws.nats[tname]
        out.append(f"nat {_q(tname)}: {_q(t.src.name)} => {_q(t.tgt.name)} {{")
        for a in sorted(t.components):
            out.append(f"  at {_q(a)}: {_q(t.components[a])};")
        out.append("}")
    for xname in sorted(ws.setfunctors):
        X = ws.setfunctors[xname]
        src = X.dom.name
        out.append(f"setfunctor {_q(xname)}: {_q_src(src)} -> Set {{")
        for a in sorted(X.on_obj):
            elems = ", ".join(_q(x) for x in X.on_obj[a].sorted())
            out.append(f"  obj {_q(a)} |-> {{{elems}}};")
        for f in sorted(X.on_mor):
            if not X.dom.is_identity(f):
                entries = ", ".join(f"{_q(x)} -> {_q(y)}"
                                    for x, y in sorted(X.on_mor[f].table.items()))
                out.append(f"  mor {_q(f)} |-> [{entries}];")
        out.append("}")
    for tname in sorted(ws.terms):
        out.append(f'term {_q(tname)} = "{pretty(ws.terms[tname])}";')
    return "\n".join(out) + "\n"


def _q_src(src: str) -> str:
    if src.startswith("op(") and src.endswith(")"):
        return f"op({_q(src[3:-1])})"
    return _q(src)
