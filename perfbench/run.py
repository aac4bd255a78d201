"""Cold-process benchmark of the cayley-lift command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Rule: closed loop, one client, cold process.  The client sends one request
at a time and waits for it to finish; every request is a fresh
``python -m cayley_lift.cli ... --no-header`` process, because the
library's lru_caches make in-process repeats meaningless.  Only one child
runs at any moment.

A workload is a fixed list of requests.  The seed only shuffles their order
and picks ``--format text|json`` for each; the same plan is used for every
pass of a run.  A run repeats passes over the plan while another whole pass
still fits in ``--seconds`` (at least one pass), and reports per-request
times averaged over passes.  Every answer is checked against independent
expected values and against the stdout digests in perfbench/digests.json.

--trace 0 reports the end-to-end metrics of untraced passes.  Each pass
also spawns SETUP_SPAWNS cold ``import cayley_lift.cli`` processes for
setup_s.  An untraced pass runs perfbench/reference.py, a fixed program that
uses only the standard library, before its first child and after every
child.  Each child's wall and CPU time is divided by the mean of the two
reference runs next to it and multiplied by REFERENCE_S: the end-to-end
times are seconds on a host where the reference takes REFERENCE_S.  The
shared host's speed swings by tens of percent over seconds and minutes,
and these ratios swing far less.  The raw times are printed above the
result line.

--trace 1 runs one untraced pass, then passes through
perfbench/trace_child.py, and reports the per-layer metrics: counts are
those of one pass and must repeat exactly in every traced pass; times are
per-pass sums, median over traced passes.

Stdout carries a metadata line, one row per request and a summary, then
the result as one JSON object on the last line.  Without the program's
sources next to perfbench/ the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
TRACE_CHILD = BENCH_DIR / "trace_child.py"
REFERENCE = BENCH_DIR / "reference.py"

SETUP_SPAWNS = 2
# Nominal time of one reference run, about what it takes on a 2.1 GHz Xeon
# vCPU; end-to-end times are reported at this reference speed.
REFERENCE_S = 0.15
REQUEST_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Request:
    args: Tuple[str, ...]
    # Expected answer from outside the code under test: (kind, *values), or
    # None when only the stdout digest is checked.
    oracle: Optional[tuple] = None


def _group(family: str, rank: Optional[int]) -> Tuple[str, ...]:
    return ("--family", family) if rank is None else ("--family", family, "--rank", str(rank))


def _positive_roots(family: str, rank: Optional[int]) -> int:
    """|Phi+| from the classification: A_{n-1} for SL(n), D_n, E6/E7/E8."""
    if family == "A":
        return rank * (rank - 1) // 2
    if family == "D":
        return rank * (rank - 1)
    return {"E6": 36, "E7": 63, "E8": 120}[family]


def _requests(verb: str, groups, oracle=None) -> List[Request]:
    return [Request((verb,) + _group(f, r), oracle(f, r) if oracle else None) for f, r in groups]


# Small-representation counts, as in acceptance criterion 1 (CLI ranks: A n is SL(n)).
SMALL_COUNTS = {("A", 6): 4, ("A", 7): 1, ("D", 4): 16, ("D", 5): 4, ("E6", None): 1}
# Genuine central quotient orders, as in acceptance criterion 5.
QUOTIENT_ORDERS = {("A", 4): 2, ("A", 5): 1, ("E7", None): 2, ("E8", None): 1}
# Replayed witnesses: imaginary count m and whether golden data exists.
REPLAYS = {"E6-022-s35": (0, True), "E6-030": (3, True), "E7-320": (23, True),
           "E8-230": (13, False)}

# Each workload's reason is its "why" in BENCHMARK.json.
WORKLOADS: Dict[str, List[Request]] = {
    "classify": _requests("count-small", SMALL_COUNTS, lambda f, r: ("count", SMALL_COUNTS[(f, r)])),
    "tower": _requests("klv-check", [("A", 6), ("D", 4), ("D", 5), ("D", 7)], lambda f, r: ("pass", True))
    + _requests("lift", [("D", 6), ("E7", None)]),
    "describe": _requests("roots", [("A", 4), ("A", 10), ("E6", None), ("E8", None)],
                          lambda f, r: ("positive_roots", _positive_roots(f, r)))
    + _requests("centers", QUOTIENT_ORDERS, lambda f, r: ("quotient_order", QUOTIENT_ORDERS[(f, r)]))
    + _requests("cartans", [("A", 6)])
    + [Request(("replay-witness", "--id", wid), ("replay",) + m_golden)
       for wid, m_golden in REPLAYS.items()],
}


@dataclass(frozen=True)
class Planned:
    request: Request
    fmt: str

    @property
    def key(self) -> str:
        return " ".join(self.request.args + ("--format", self.fmt))

    def cli_args(self) -> List[str]:
        return list(self.request.args) + ["--format", self.fmt, "--no-header"]


def plan(workload: str, seed: int) -> List[Planned]:
    rng = random.Random("%s/%d" % (workload, seed))
    requests = list(WORKLOADS[workload])
    rng.shuffle(requests)
    return [Planned(r, rng.choice(("text", "json"))) for r in requests]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    trace: bytes
    wall_s: float
    cpu_s: float
    rss_kb: int


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: Sequence[str], env: Dict[str, str], trace_pipe: bool = False) -> Outcome:
    """Run one child to completion; time it and read its rusage with wait4.

    With trace_pipe, the argument "{fd}" in argv becomes the number of the
    write end of a pipe passed to the child; what the child writes there is
    returned as Outcome.trace.
    """
    read_fd = write_fd = None
    pass_fds: Tuple[int, ...] = ()
    if trace_pipe:
        read_fd, write_fd = os.pipe()
        argv = [a.replace("{fd}", str(write_fd)) for a in argv]
        pass_fds = (write_fd,)
    chunks = {"stderr": b"", "trace": b""}

    def drain(name, stream):
        chunks[name] = stream.read()

    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=str(ROOT), pass_fds=pass_fds)
    readers = [threading.Thread(target=drain, args=("stderr", proc.stderr))]
    trace_file = None
    if trace_pipe:
        os.close(write_fd)
        trace_file = os.fdopen(read_fd, "rb")
        readers.append(threading.Thread(target=drain, args=("trace", trace_file)))
    for reader in readers:
        reader.start()
    killer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
    for reader in readers:
        reader.join()
    for stream in (proc.stdout, proc.stderr, trace_file):
        if stream is not None:
            stream.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out, chunks["stderr"], chunks["trace"], wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def cli_argv(item: Planned) -> List[str]:
    return [sys.executable, "-m", "cayley_lift.cli"] + item.cli_args()


def traced_argv(item: Planned, request_id: str) -> List[str]:
    return [sys.executable, str(TRACE_CHILD), "{fd}", request_id] + item.cli_args()


SETUP_ARGV = [sys.executable, "-c", "import cayley_lift.cli"]
REFERENCE_ARGV = [sys.executable, str(REFERENCE)]


# ---------------------------------------------------------------------------
# Answer oracle
# ---------------------------------------------------------------------------

def _text_value(lines: List[str], prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError("no line starting with %r" % prefix)


def _oracle_answer(kind: str, fmt: str, stdout: str):
    """The answer the oracle compares, read from the request's stdout."""
    if fmt == "json":
        data = json.loads(stdout)
        if kind == "count":
            return (data["count"],)
        if kind == "pass":
            return (data["passed"],)
        if kind == "positive_roots":
            return (len(data["positive_roots"]),)
        if kind == "quotient_order":
            return (data["genuine_quotient_order"],)
        return (data["imaginary_count"], data["golden_checked"])
    lines = stdout.splitlines()
    if kind == "count":
        return (int(stdout.strip()),)
    if kind == "pass":
        return (lines[-1] == "PASS",)
    if kind == "positive_roots":
        return (int(_text_value(lines, "positive roots:")),)
    if kind == "quotient_order":
        return (int(_text_value(lines, "genuine quotient order (= genuine central characters):")),)
    m = int(_text_value(lines, "m =").split(",")[0])
    return (m, _text_value(lines, "golden data checked:") == "yes")


def verdict(item: Planned, outcome: Outcome, digests: Dict[str, str]) -> str:
    """'ok', or the reason the request counts as failed."""
    if b"Traceback" in outcome.stderr:
        return "traceback"
    if outcome.code != 0:
        return "exit code %d" % outcome.code
    oracle = item.request.oracle
    if oracle is not None:
        try:
            got = _oracle_answer(oracle[0], item.fmt, outcome.stdout.decode())
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            return "unreadable answer (%s)" % exc
        if got != oracle[1:]:
            return "answer %r, expected %r" % (got, oracle[1:])
    digest = digests.get(item.key)
    if digest is None:
        return "no stored digest"
    if hashlib.sha256(outcome.stdout).hexdigest() != digest:
        return "stdout differs from stored digest"
    return "ok"


def load_digests() -> Dict[str, str]:
    with open(DIGESTS) as f:
        return json.load(f)["sha256"]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Row:
    index: int
    item: Planned
    outcome: Outcome
    verdict: str
    # Wall and CPU time of the reference runs next to the request, averaged;
    # None in traced passes, which run no reference.
    reference: Optional[Tuple[float, float]] = None


@dataclass
class PassResult:
    traced: bool
    rows: List[Row]
    # (wall time, reference wall time) of each set-up spawn.
    setup_s: List[Tuple[float, float]]

    @property
    def failed(self) -> int:
        return sum(row.verdict != "ok" for row in self.rows)

    @property
    def wall_s(self) -> float:
        return sum(row.outcome.wall_s for row in self.rows)


def run_pass(items: List[Planned], traced: bool, digests: Dict[str, str], env: Dict[str, str],
             spawn=spawn) -> PassResult:
    """One pass over the plan.  An untraced pass also times set-up and runs
    the reference program before its first child and after every child."""
    if traced:
        rows = []
        for index, item in enumerate(items):
            outcome = spawn(traced_argv(item, str(index)), env, trace_pipe=True)
            rows.append(Row(index, item, outcome, verdict(item, outcome, digests)))
        return PassResult(True, rows, [])

    after = spawn(REFERENCE_ARGV, env)

    def measured(argv):
        nonlocal after
        before = after
        outcome = spawn(argv, env)
        after = spawn(REFERENCE_ARGV, env)
        return outcome, ((before.wall_s + after.wall_s) / 2, (before.cpu_s + after.cpu_s) / 2)

    setup = []
    for _ in range(SETUP_SPAWNS):
        outcome, reference = measured(SETUP_ARGV)
        setup.append((outcome.wall_s, reference[0]))
    rows = []
    for index, item in enumerate(items):
        outcome, reference = measured(cli_argv(item))
        rows.append(Row(index, item, outcome, verdict(item, outcome, digests), reference))
    return PassResult(False, rows, setup)


def run_passes(items, seconds: float, trace: bool, digests, env) -> List[PassResult]:
    """Passes while another whole pass still fits in `seconds`.  With trace,
    the first pass is untraced, for the overhead, and the rest are traced."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        traced = trace and bool(passes)
        pass_start = time.perf_counter()
        passes.append(run_pass(items, traced, digests, env))
        now = time.perf_counter()
        if traced == trace and (now - start) + (now - pass_start) > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def trimmed_mean(values) -> float:
    """Mean of the values without the lowest and the highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.mean(values[cut:len(values) - cut])


def end_to_end(passes: List[PassResult], normalise: bool = True
               ) -> Tuple[Dict[str, Tuple[float, str]], Planned]:
    """End-to-end metrics, and the request behind latency_max_s.

    Each request's time is its trimmed mean over the run's passes: a burst
    on the shared host can slow any one child, and a run has only a few
    passes, too few for a steady median.  With normalise, every time is
    first divided by that of its neighbouring reference runs and multiplied
    by REFERENCE_S; without, the raw times.
    """
    def scale(raw, reference):
        return raw / reference * REFERENCE_S if normalise else raw

    def per_request(field, ref_index):
        return [trimmed_mean(scale(getattr(p.rows[k].outcome, field),
                                   p.rows[k].reference[ref_index]) for p in passes)
                for k in range(len(passes[0].rows))]

    wall, cpu = per_request("wall_s", 0), per_request("cpu_s", 1)
    slowest = passes[0].rows[wall.index(max(wall))].item
    return {
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "latency_p50_s": (statistics.median(wall), "s"),
        "latency_max_s": (max(wall), "s"),
        "setup_s": (statistics.median(scale(s, ref) for p in passes for s, ref in p.setup_s), "s"),
        "peak_rss_mb": (max(r.outcome.rss_kb for p in passes for r in p.rows) / 1024.0, "MB"),
    }, slowest


def self_times(trace: dict) -> Tuple[Dict[str, int], Dict[str, float]]:
    """Calls and self time per span name: duration minus the time its
    child spans cover."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for k, (index, start, end, _) in enumerate(spans):
        name = names[index]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
    return calls, self_s


# Per-layer metrics: (name, unit).  Units: count, s, ratio, bytes.
_CALLS = ["root_system.build_root_system", "root_system.mat_mul", "root_system.mat_apply",
          "root_system.reflection_matrix", "root_system.canonical_reflection_word",
          "root_system.integral_system", "cartan.signature_from_involution",
          "cartan.involution_from_pairs", "cartan.root_type", "cartan.cover_center_data",
          "parameters.make_parameter", "parameters.length", "parameters.theta",
          "parameters.tower_parameter", "coherent.rule_out", "coherent.stabilizer",
          "coherent.chain_types", "coherent.matrix_to_word", "coherent.replay_witness",
          "klv_poset.tower_poset", "klv_poset.verify_inversion", "klv_poset.M_entry",
          "klv_poset.m_entry", "klv_poset.in_tower_scope", "lifting.lift_trivial",
          "lifting.K_coefficient", "lifting.cartan_constant"]
_SELF = ["root_system.build_root_system", "root_system.mat_mul", "root_system.mat_apply",
         "root_system.canonical_reflection_word", "root_system.integral_system",
         "cartan.signature_from_involution", "cartan.involution_from_pairs",
         "cartan.hasse_diagram", "cartan.cover_center_data", "cartan.cartan_classes",
         "parameters.make_parameter", "parameters.length", "parameters.theta",
         "parameters.orbit_representatives", "coherent.count_small", "coherent.rule_out",
         "coherent.stabilizer", "coherent.chain_types", "coherent.matrix_to_word",
         "coherent.replay_witness", "klv_poset.tower_poset", "klv_poset.verify_inversion",
         "klv_poset.M_entry", "lifting.lift_trivial", "lifting.K_coefficient", "cli.main"]
_COUNTERS = ["root_system.build_root_system.misses", "root_system.mat_mul.scalar_mults",
             "cartan.signature_from_involution.misses",
             "coherent.rule_out.method.catalog", "coherent.rule_out.method.real_reflection",
             "coherent.rule_out.method.complex_search", "coherent.rule_out.method.full_sweep",
             "coherent.elements_checked", "coherent.chain_types.steps",
             "coherent.matrix_to_word.letters", "parameters.length.distinct_args"]
_LRU = ["root_system.build_root_system", "root_system.reflection_matrix",
        "cartan.signature_from_involution"]

PER_LAYER: List[Tuple[str, str]] = (
    [(n + ".calls", "count") for n in _CALLS]
    + [(n + ".self_s", "s") for n in _SELF]
    + [(n, "count") for n in _COUNTERS]
    + [("parameters.length.distinct_ratio", "ratio")]
    + [(n + ".lru_lookups", "count") for n in _LRU]
    + [(n + ".lru_hit_ratio", "ratio") for n in _LRU]
    + [("cli.import_s", "s"), ("cli.output_bytes", "bytes"), ("trace.overhead_s", "s")]
)


def pass_layers(p: PassResult) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Exact counts and summed times of one traced pass."""
    counts: Dict[str, float] = {"cli.output_bytes": 0}
    times: Dict[str, float] = {"cli.import_s": 0.0}
    for row in p.rows:
        if not row.outcome.trace:
            continue            # the child died before writing; its verdict says why
        trace = json.loads(row.outcome.trace)
        calls, self_s = self_times(trace)
        for name, n in calls.items():
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + n
        for name, t in self_s.items():
            times[name + ".self_s"] = times.get(name + ".self_s", 0.0) + t
        for name, n in trace["counters"].items():
            counts[name] = counts.get(name, 0) + n
        for name, (hits, misses) in trace["lru"].items():
            counts[name + ".hits"] = counts.get(name + ".hits", 0) + hits
            counts[name + ".misses"] = counts.get(name + ".misses", 0) + misses
        times["cli.import_s"] += trace["import_s"]
        counts["cli.output_bytes"] += len(row.outcome.stdout)
    return counts, times


def per_layer(passes: List[PassResult]) -> Tuple[Dict[str, Tuple[float, str]], bool]:
    """Per-layer metrics, and whether every traced pass gave the same counts."""
    traced = [p for p in passes if p.traced]
    layers = [pass_layers(p) for p in traced]
    counts = layers[0][0]
    repeat = all(c == counts for c, _ in layers)
    values: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "s" and name != "trace.overhead_s":
            values[name] = statistics.median(t.get(name, 0.0) for _, t in layers)
        elif unit in ("count", "bytes"):
            values[name] = counts.get(name, 0)
    for name in _LRU:
        hits, misses = counts.get(name + ".hits", 0), counts.get(name + ".misses", 0)
        values[name + ".lru_lookups"] = hits + misses
        values[name + ".lru_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    length_calls = counts.get("parameters.length.calls", 0)
    values["parameters.length.distinct_ratio"] = (
        counts.get("parameters.length.distinct_args", 0) / length_calls if length_calls else 0.0)
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in passes if not p.traced))
    return {name: (values[name], unit) for name, unit in PER_LAYER}, repeat


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def preflight(env: Dict[str, str]) -> Optional[str]:
    """Why the program cannot be benchmarked here, or None.  Also compiles
    the byte code, so that setup_s measures warm imports."""
    for needed in (SRC / "cayley_lift" / "cli.py", DIGESTS, SPEC):
        if not needed.is_file():
            return "missing %s" % needed
    for argv in (SETUP_ARGV, REFERENCE_ARGV):
        outcome = spawn(argv, env)
        if outcome.code != 0:
            return "%s failed: %s" % (" ".join(argv[1:]), outcome.stderr.decode(errors="replace"))
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    problem = preflight(env)
    if problem is not None:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 2
    digests = load_digests()
    items = plan(args.workload, args.seed)
    passes = run_passes(items, args.seconds, bool(args.trace), digests, env)

    with open(SPEC) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}[args.workload]
    print("# workload=%s seed=%d seconds=%g trace=%d python=%s nproc=%d rule=closed-loop,"
          "1-client,cold-process-per-request passes=%d why=%s"
          % (args.workload, args.seed, args.seconds, args.trace, sys.version.split()[0],
             os.cpu_count(), len(passes), why))
    print("# pass\ttraced\treq\twall_s\tcpu_s\tref_wall_s\trss_mb\texit\tverdict\tformat\targv")
    for k, p in enumerate(passes):
        for row in p.rows:
            o = row.outcome
            ref = "%.4f" % row.reference[0] if row.reference else "-"
            print("%d\t%d\t%d\t%.4f\t%.4f\t%s\t%.1f\t%d\t%s\t%s\t%s"
                  % (k, p.traced, row.index, o.wall_s, o.cpu_s, ref, o.rss_kb / 1024.0, o.code,
                     row.verdict, row.item.fmt, " ".join(row.item.request.args)))

    attempted = sum(len(p.rows) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    if args.trace:
        metrics, repeat = per_layer(passes)
        if not repeat:
            print("# per-layer counts differ between traced passes")
            correct = False
    else:
        metrics, slowest = end_to_end(passes)
        print("# latency_max_s request: %s" % " ".join(slowest.request.args))
        for name, (value, unit) in end_to_end(passes, normalise=False)[0].items():
            print("# raw %s %.6g %s" % (name, value, unit))
    print("# error_rate %.4f (%d of %d requests failed)" % (failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("# %s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
