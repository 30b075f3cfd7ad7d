"""fincat benchmark: seeded closed-loop workloads with a correctness gate.

    python3 perfbench/run.py --workload set-certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client in one process and one thread
runs the workload's recipes over and over for --seconds.  Each op yields one
verdict, checked against invariants that hold for any seed, against the
recorded outcome of every recipe that is the same at every seed and, at the
default seed, against the recorded outcome of every recipe; the outcomes are
in perfbench/expected.json.  The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  `--record` rewrites
expected.json from the current program.

Times are best-of-repeats.  On a shared virtual machine (measured on a
2-vCPU Xeon at 2.1 GHz) the speed of both vCPUs changes, as other tenants load
the host, in spells of 5-20 s between full speed and about 1.7 times slower,
with faster flicker within them.  A total wall time follows the share of slow
time; the fastest of an op's repeats does not, provided that every recipe
runs in a fast spell.  So the workloads keep a pass over their recipes well
under a second, each recipe's verdict time is the fastest of its ops in the
run, pooled over the recipes that do the same work, and set-up time is the
sum, over its steps, of each step's fastest time in several fresh
interpreters spread over the run.
"""
import time

# set-up is timed from the first statement of a fresh interpreter
_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = {"set-certify": "set_certify", "tabulated": "tabulated",
             "cli-corpus": "cli_corpus"}
DEFAULT_SEED = 1
# set-up runs in this many fresh interpreters, this one included
SETUPS = 21
# an op that runs longer than this fails; no recipe comes near it
OP_LIMIT_S = 5.0


class OpTimeout(Exception):
    pass


class OutcomeMismatch(Exception):
    """An op's outcome differs from the one recorded for its recipe."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


class Steps:
    """Marks the end of each set-up step: the imports, a unit of input
    generation, a warm-up op."""

    def __init__(self):
        self.ends: list[float] = []

    def __call__(self) -> None:
        self.ends.append(time.perf_counter())

    def durations(self) -> list[float]:
        return [b - a for a, b in zip([_T0] + self.ends, self.ends)]


def _no_step() -> None:
    pass


class Workload:
    """A workload's recipes, ready to run; built by `setup`.

    Recipes that are the same at every seed carry a `fixed` name; their outcomes
    are checked at every seed.  At the default seed every recipe's outcome is
    checked, by position.
    """

    def __init__(self, name: str, seed: int, api, step=_no_step):
        self.module = importlib.import_module(WORKLOADS[name])
        step()
        self.specs = self.module.make_specs(api, seed, step)
        recorded = json.loads(EXPECTED.read_text()).get(name, {}) if EXPECTED.exists() else {}
        self.fixed = recorded.get("fixed", {})
        self.expected = recorded.get("default_seed") if seed == DEFAULT_SEED else None

    def identity(self, r: int):
        """Recipes of one identity do the same work: fixed recipes of one name."""
        return self.specs[r].get("fixed", r)

    def expected_for(self, r: int):
        if self.expected is not None:
            return self.expected[r]
        key = self.specs[r].get("fixed")
        if key is None:
            return None
        if key not in self.fixed:
            raise OutcomeMismatch(f"no outcome recorded for {key!r}")
        return self.fixed[key]

    def run(self, api, i: int):
        """Run op i; return its outcome, or raise if it broke a check."""
        r = i % len(self.specs)
        out = self.module.run_op(api, self.specs[r], f"c{i // len(self.specs)}.")
        want = self.expected_for(r)
        if want is not None and out != want:
            raise OutcomeMismatch(f"op {i}: {out} differs from the recorded {want}")
        return out

    def warm_up(self, api, step=_no_step) -> None:
        """Run the first op of every kind once, outside the timed loop."""
        seen = set()
        for spec in self.specs:
            if spec["kind"] not in seen:
                seen.add(spec["kind"])
                self.module.run_op(api, spec, "w.")
                step()


def setup(name: str, seed: int, api, step=_no_step) -> Workload:
    wl = Workload(name, seed, api, step)
    wl.warm_up(api, step)
    return wl


class Tally:
    """Per-op results of one timed loop, or of one mode within it."""

    def __init__(self):
        self.latencies: list[float] = []
        # recipe identity -> fastest time of its ops
        self.best: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def timed_loop(wl: Workload, seconds: float, apis: tuple, recorder=None, pauses=()):
    """Closed loop: the next op starts when the previous one has ended.

    With two apis, ops alternate between them, and a recipe's op takes the
    other api on the next pass, so both see the same recipes under the same
    conditions.  Each of `pauses` is called once, the calls spread evenly over
    the loop; the time they take is not part of it.  Passes take the allowed
    CPUs in turn, so that a slow spell of one CPU does not reach every repeat
    of a recipe.  Returns one Tally per api and the wall time of the loop.
    """
    n = len(wl.specs)
    tallies = [Tally() for _ in apis]
    cpus = sorted(os.sched_getaffinity(0))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(pauses)
    paused = 0.0
    i = 0
    while time.perf_counter() < deadline:
        if pending and time.perf_counter() - start - paused >= (
                seconds * (len(pauses) - len(pending) + 0.5) / len(pauses)):
            t0 = time.perf_counter()
            pending.pop(0)()
            dt = time.perf_counter() - t0
            paused += dt
            deadline += dt
            continue
        if i % n == 0:
            os.sched_setaffinity(0, {cpus[i // n % len(cpus)]})
        mode = (i + i // n) % len(apis)
        tally = tallies[mode]
        if recorder is not None:
            recorder.op = i
        tally.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0 = time.perf_counter()
        try:
            wl.run(apis[mode], i)
        except Exception as exc:  # any raise is a failed op, reported below
            tally.failed += 1
            if len(tally.errors) < 5:
                tally.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            tally.latencies.append(dt)
            key = wl.identity(i % n)
            tally.best[key] = min(dt, tally.best.get(key, dt))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        i += 1
    signal.signal(signal.SIGALRM, previous)
    os.sched_setaffinity(0, cpus)
    elapsed = time.perf_counter() - start - paused
    for pause in pending:  # a loop shorter than one op leaves some
        pause()
    return tallies, elapsed


def _result(tallies: list[Tally], metrics: dict) -> dict:
    for t in tallies:
        for e in t.errors:
            print(f"failed op: {e}", file=sys.stderr)
    failed = sum(t.failed for t in tallies)
    return {"correct": failed == 0, "attempted": sum(t.attempted for t in tallies),
            "failed": failed, "metrics": metrics}


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up step times of a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["steps"]


def best_setup(runs: list[list[float]]) -> float:
    """Sum over set-up steps of each step's fastest time across the runs."""
    if len({len(r) for r in runs}) != 1:
        raise RuntimeError("set-up took a different number of steps in two interpreters")
    return sum(min(step) for step in zip(*runs))


def recipe_times(wl: Workload, tally: Tally) -> list[float]:
    """Verdict time in ms of every recipe that ran: the fastest op of its identity."""
    keys = [wl.identity(r) for r in range(len(wl.specs))]
    return sorted(tally.best[k] * 1000 for k in keys if k in tally.best)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> dict:
    from spans import Api
    steps = Steps()
    api = Api()
    wl = setup(args.workload, args.seed, api, steps)
    setups = [steps.durations()]
    # the other set-ups run between ops, spread over the loop, so that a slow
    # spell of the machine does not reach all of them
    probes = [lambda: setups.append(probe_setup(args.workload, args.seed))] * (SETUPS - 1)
    (tally,), elapsed = timed_loop(wl, args.seconds, (api,), pauses=probes)
    best = recipe_times(wl, tally) or [0.0]
    p95 = statistics.quantiles(best, n=20, method="inclusive")[18] if len(best) > 1 else best[0]
    print(f"{args.workload}: {len(tally.latencies)} verdicts in {elapsed:.2f} s "
          f"({len(tally.latencies) / elapsed:.1f}/s wall) over {len(best)} of "
          f"{len(wl.specs)} recipes; set-up runs "
          f"{[round(sum(s), 3) for s in setups]}, {len(setups[0])} steps",
          file=sys.stderr)
    return _result([tally], {
        "setup_s": _metric(best_setup(setups), "s"),
        "verdicts_per_s": _metric(len(best) * 1000 / sum(best) if tally.best else 0.0, "1/s"),
        "verdict_ms_p50": _metric(statistics.median(best), "ms"),
        "verdict_ms_p95": _metric(p95, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def per_layer(args) -> dict:
    """Ops alternate between untraced and traced; metrics come from the spans.

    Traced and untraced ops are counted alike in `attempted` and `failed`.
    """
    from spans import Api, Recorder, layer_metrics, per_layer_names
    recorder = Recorder()
    plain, traced = Api(), Api(recorder)
    wl = Workload(args.workload, args.seed, traced)
    wl.warm_up(plain)
    tallies, _ = timed_loop(wl, args.seconds, (plain, traced), recorder)
    recorder.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    values = layer_metrics(recorder.spans)
    # verdicts per second of op time, traced ops over untraced ones
    rate = [len(t.latencies) / sum(t.latencies) if t.latencies else 0.0 for t in tallies]
    values["trace.overhead_ratio"] = rate[1] / rate[0] if rate[0] else 0.0
    return _result(tallies, {name: _metric(values[name], unit)
                             for name, unit in per_layer_names()})


def record(workloads: list[str]) -> None:
    """Write the outcome of every recipe at the default seed to expected.json."""
    from spans import Api
    api = Api()
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in workloads:
        wl = Workload(name, DEFAULT_SEED, api)
        outs = [wl.module.run_op(api, spec, "c0.") for spec in wl.specs]
        fixed = {s["fixed"]: out for s, out in zip(wl.specs, outs) if "fixed" in s}
        data[name] = {"default_seed": outs, "fixed": dict(sorted(fixed.items()))}
        print(f"{name}: recorded {len(outs)} outcomes, {len(fixed)} seed-independent",
              file=sys.stderr)
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json at the default seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fincat" / "__init__.py").is_file():
        print(f"run from a fincat checkout: {ROOT / 'src' / 'fincat'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.record:
        ap.error("--workload is required")
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)

    if args.record:
        record([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if args.setup_probe:
        from spans import Api
        steps = Steps()
        setup(args.workload, args.seed, Api(), steps)
        print(json.dumps({"steps": steps.durations()}))
        return 0
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
