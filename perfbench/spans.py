"""In-memory span recorder and the traced view of fincat's public functions.

Workloads call fincat through an `Api` object.  Untraced, its attributes are
the library functions themselves, so the untraced run pays nothing.  Traced,
each attribute is a wrapper that records one span per call: name, start, end,
parent span, op id, and the `checked` count, refutation and error read from
the result.  One block of benchmark code, the materializing of a subcategory
of Set, calls many constructors directly and gets a span of its own through
`Recorder.block`.  Per-layer metrics are derived from the spans afterwards.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time

# fincat modules that are layers of the system, in dependency order
LAYERS = ("core", "finset", "universal", "limits", "adjunction", "kan",
          "diagram", "catfile", "cli")
# input generation is measured, but it is the benchmark's work, not a layer
GENERATOR = "randgen"

# layer -> functions whose own call count and busy time are reported
HOT = {
    "finset": ("enumerate_set_naturals", "presheaf_exponential",
               "exponential_adjunction_check", "yoneda_map", "materialize"),
    "limits": ("limit_finset", "interchange_check_finset", "limit", "preservation_check"),
    "core": ("enumerate_functors", "functor_category", "validate_category"),
    "universal": ("universal_morphism", "comma_to_object"),
    "adjunction": ("adjoint_from_universals", "validate_adjunction", "snake_check"),
    "kan": ("kan_pointwise", "kan_universal_check", "end_coend", "lan_via_coend",
            "density_check", "codensity_monad"),
    "diagram": ("normalize", "evaluate", "render_svg"),
    "catfile": ("parse_workspace",),
    "cli": ("main",),
}

# span fields
NAME, START, END, PARENT, OP, CHECKED, REFUTED, ERROR = range(8)


def _outcome_of(result) -> tuple[int, bool, bool]:
    """(checked, refuted, error) read from a fincat result.

    A Report, or a result carrying one as `certificate` or `report`, gives its
    `checked` count and is refuted when not ok.  `None` from a search is a
    verified absence and counts as refuted.  The CLI's exit code 1 is its
    refutation and exit code 2 its error.
    """
    from fincat.core import Report
    if result is None:
        return 0, True, False
    if isinstance(result, Report):
        return result.checked, not result.ok, False
    for attr in ("certificate", "report"):
        rep = getattr(result, attr, None)
        if isinstance(rep, Report):
            return rep.checked, not rep.ok, False
    if isinstance(result, int) and not isinstance(result, bool):
        return 0, result == 1, result == 2
    return 0, False, False


class Recorder:
    """Holds every span of a run in memory; `dump` writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0, False, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> list:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        # an exception may unwind several open spans at once
        while self._stack and self._stack[-1] >= idx:
            self._stack.pop()
        return span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)[ERROR] = True
                raise
            span = self._close(idx)
            span[CHECKED], span[REFUTED], span[ERROR] = _outcome_of(result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def block(self, name: str):
        idx = self._open(name)
        try:
            yield
        except BaseException:
            self._close(idx)[ERROR] = True
            raise
        self._close(idx)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP],
                                     "checked": s[CHECKED], "refuted": s[REFUTED],
                                     "error": s[ERROR]}) + "\n")


class _NoRecorder:
    @contextlib.contextmanager
    def block(self, name: str):
        yield


class _Module:
    def __init__(self, name: str, recorder):
        self._mod = importlib.import_module(f"fincat.{name}")
        self._name = name
        self._recorder = recorder

    def __getattr__(self, fn: str):
        f = getattr(self._mod, fn)
        if self._recorder is not None:
            f = self._recorder.wrap(f"{self._name}.{fn}", f)
        setattr(self, fn, f)
        return f


class Api:
    """fincat's modules as attributes, e.g. `api.limits.limit_finset(D)`."""

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder if recorder is not None else _NoRecorder()
        for name in LAYERS + (GENERATOR,):
            setattr(self, name, _Module(name, recorder))

    def block(self, name: str):
        return self.recorder.block(name)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every per-layer metric, derived from the spans of one traced run.

    Layer metrics count the spans of timed ops (op id >= 0); input generation
    happens in set-up (op id -1) and is reported as randgen.busy_s.  busy_s is
    the time covered by a layer's spans; self_s subtracts the part of it
    covered by spans of other layers nested inside them.
    """
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    out: dict[str, float] = {}
    for mod in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[OP] >= 0 and layer(s[NAME]) == mod]
        busy = _covered([(spans[i][START], spans[i][END]) for i in mine])
        # direct children in another layer; deeper spans lie inside them
        foreign = [(s[START], s[END]) for s in spans
                   if s[OP] >= 0 and layer(s[NAME]) != mod and s[PARENT] >= 0
                   and layer(spans[s[PARENT]][NAME]) == mod]
        out[f"{mod}.calls"] = len(mine)
        out[f"{mod}.busy_s"] = busy
        out[f"{mod}.self_s"] = busy - _covered(foreign)
        out[f"{mod}.checked"] = sum(spans[i][CHECKED] for i in mine)
        out[f"{mod}.refuted"] = sum(1 for i in mine if spans[i][REFUTED])
        out[f"{mod}.errors"] = sum(1 for i in mine if spans[i][ERROR])
        for fn in HOT[mod]:
            name = f"{mod}.{fn}"
            same = [spans[i] for i in mine if spans[i][NAME] == name]
            out[f"{name}.calls"] = len(same)
            out[f"{name}.busy_s"] = _covered([(s[START], s[END]) for s in same])
    out[f"{GENERATOR}.busy_s"] = _covered(
        [(s[START], s[END]) for s in spans if layer(s[NAME]) == GENERATOR])
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for mod in LAYERS:
        names += [(f"{mod}.calls", "count"), (f"{mod}.busy_s", "s"),
                  (f"{mod}.self_s", "s"), (f"{mod}.checked", "count"),
                  (f"{mod}.refuted", "count"), (f"{mod}.errors", "count")]
        for fn in HOT[mod]:
            names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.busy_s", "s")]
    names += [(f"{GENERATOR}.busy_s", "s"), ("trace.overhead_ratio", "ratio")]
    return names
