"""Outside-in benchmark of the ramsums CLI.

    python3 perfbench/run.py --workload {count,sxy,check} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --compare A B     # A, B: result files or directories

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``.  Each CLI invocation runs in a fresh process, its
output is checked against the oracles in ``oracles.py``, and its wall time,
CPU time and peak RSS are read from ``os.wait4``.  A run repeats whole
rounds of its workload's invocations until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced round with a round under ``traced.py`` and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw samples go to
a result file under ``perfbench/results/`` (or ``--out``).  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: A run, with its set-up probes and its last round, must end well inside
#: the 180 s a run may take.
RUN_BUDGET_S = 165.0
SETUP_PROBES = 10
CHECK_TRIALS = 100

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "items/s",
}

PER_LAYER = {
    "monoid.extend.self_s": "s",
    "monoid.extend.calls": "count",
    "monoid.atoms": "count",
    "monoid.norm_counts.self_s": "s",
    "monoid.norm_counts.builds": "count",
    "monoid.norm_counts.bytes": "bytes",
    "monoid.scan_up_to.self_s": "s",
    "monoid.scan_up_to.elements": "count",
    "monoid.enumerate_up_to.self_s": "s",
    "monoid.enumerate_up_to.elements": "count",
    "monoid.divisors.self_s": "s",
    "monoid.divisors.calls": "count",
    "fields.split_prime.self_s": "s",
    "fields.split_prime.calls": "count",
    "fields.sieve_primes.self_s": "s",
    "fields.factor_integer.calls": "count",
    "csums.ramanujan_sum.self_s": "s",
    "csums.ramanujan_sum.calls": "count",
    "csums.double_sum.self_s": "s",
    "csums.identities.self_s": "s",
    "arith.mobius.calls": "count",
    "arith.convolve.self_s": "s",
    "checks.suite_th1.self_s": "s",
    "checks.suite_th2.self_s": "s",
    "checks.suite_apostol.self_s": "s",
    "checks.suite_holder.self_s": "s",
    "checks.suite_oracle.self_s": "s",
    "checks.checked": "count",
    "cli.output.self_s": "s",
    "cli.output.bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the work it covers, and its output check."""

    args: tuple[str, ...]
    items: int
    verify: Callable[[str], str | None]  # stdout -> problem, or None


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    instances: tuple[str, ...]  # instance specs timed by the set-up probes


def _scan_points(limit: int) -> list[int]:
    points, v = [], 10
    while v < limit:
        points.append(v)
        v *= 10
    return points + [limit]


def _csv_rows(stdout: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(stdout))
    if reader.fieldnames != header:
        raise ValueError(f"header {reader.fieldnames} != {header}")
    return list(reader)


def _verify_count(stdout: str, x: int, disc: int) -> str | None:
    rows = _csv_rows(stdout, ["x", "count", "count_over_x"])
    if [int(r["x"]) for r in rows] != _scan_points(x):
        return f"scan points {[r['x'] for r in rows]}"
    for r in rows:
        xi, n = int(r["x"]), int(r["count"])
        want = oracles.ideal_count(xi, disc)
        if n != want:
            return f"count({xi}) = {n}, hyperbola sum {want}"
        if not math.isclose(float(r["count_over_x"]), n / xi, rel_tol=1e-11):
            return f"count_over_x({xi}) = {r['count_over_x']}, want {n / xi}"
    return None


SXY_Y = (2, 5, 10, 20, 50)


def _verify_sxy(stdout: str, x: int) -> str | None:
    rows = _csv_rows(stdout, ["x", "y", "s", "s_minus_cx", "bound_ref"])
    grid = [(xi, y) for xi in _scan_points(x) for y in SXY_Y]
    if [(int(r["x"]), int(r["y"])) for r in rows] != grid:
        return "grid differs from the scan"
    for r, (xi, y) in zip(rows, grid):
        s = int(r["s"])
        want = oracles.double_sum(xi, y)
        if s != want:
            return f"S({xi}, {y}) = {s}, definitional sum {want}"
        if float(r["s_minus_cx"]) != s - xi:
            return f"s_minus_cx({xi}, {y}) = {r['s_minus_cx']}, want {s - xi}"
        if float(r["bound_ref"]) != y * y:
            return f"bound_ref({xi}, {y}) = {r['bound_ref']}, want {y * y}"
        if abs(s - xi) > 3 * y * y:
            return f"|S - x| = {abs(s - xi)} > 3 y^2 at ({xi}, {y})"
    return None


def _expected_checked(spec: str, bound: int) -> dict[str, int]:
    disc = oracles.field_discriminant(spec)
    n = oracles.ideal_count(bound, disc)
    want = {
        "th1": n,
        "th2": n * n,
        "apostol": 2 * CHECK_TRIALS,
        "holder": oracles.divisor_pair_count(bound, disc) + min(2000, n * n),
    }
    if spec == "z":
        want["oracle"] = bound * bound
    return want


def _verify_check(stdout: str, want: dict[str, int]) -> str | None:
    report = json.loads(stdout)
    if report.get("failures_total") != 0:
        return f"failures_total = {report.get('failures_total')}"
    got = {part["suite"]: part["checked"] for part in report["suites"]}
    if got != want:
        return f"checked counts {got}, want {want}"
    if any(part["failures"] for part in report["suites"]):
        return "a suite lists failures"
    return None


def count_workload(seed: int) -> Workload:
    """Decade scans to x = 1e7 over Z and Q(i): one large counting table."""
    x = 10**7
    ops = tuple(
        Op(
            ("count", "--instance", spec, "--x", str(x), "--scan"),
            items=x,
            verify=lambda out, d=oracles.field_discriminant(spec): _verify_count(out, x, d),
        )
        for spec in ("z", "q:-1")
    )
    return Workload(ops, ("z", "q:-1"))


def sxy_workload(seed: int) -> Workload:
    """The S(x, y) grid over Z: decades of x to 1e6 times y in SXY_Y."""
    x = 10**6
    pairs = sum(xi * y for xi in _scan_points(x) for y in SXY_Y)
    op = Op(
        ("sxy", "--instance", "z", "--x", str(x), "--y", str(max(SXY_Y)), "--scan"),
        items=pairs,
        verify=lambda out: _verify_sxy(out, x),
    )
    return Workload((op,), ("z",))


def check_workload(seed: int) -> Workload:
    """Every identity suite on Z and Q(sqrt(-23)) with two workers; the
    seed of the random suites is drawn from the benchmark seed."""
    cli_seed = random.Random(seed).randrange(1, 2**31)
    ops = []
    for spec, bound in (("z", 400), ("q:-23", 200)):
        want = _expected_checked(spec, bound)
        ops.append(
            Op(
                ("check", "--suite", "all", "--workers", "2", "--instance", spec,
                 "--bound", str(bound), "--trials", str(CHECK_TRIALS), "--seed", str(cli_seed)),
                items=sum(want.values()),
                verify=lambda out, w=want: _verify_check(out, w),
            )
        )
    return Workload(tuple(ops), ("z", "q:-23"))


WORKLOADS = {"count": count_workload, "sxy": sxy_workload, "check": check_workload}


# -- processes ---------------------------------------------------------------


@dataclass
class Sample:
    args: tuple[str, ...]
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None
    stdout: bytes
    layers: dict | None = None

    def record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "stdout"}


class Runner:
    """Starts one child at a time, waits for it with a pidfd, and reaps it
    with ``os.wait4`` so each reading belongs to that child alone."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, bytes, bytes]:
        """Run argv to completion: (exit code, wall s, cpu s, peak RSS MB,
        stdout, stderr).  A child still running at the deadline is killed."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            ready = []
            try:
                ready, _, _ = select.select([pidfd], [], [], max(self.deadline - time.monotonic(), 0.1))
            finally:  # also on interrupt: never leave the child running
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, stdout, stderr

    def invoke(self, op: Op, traced: bool) -> Sample:
        stats_path = os.path.join(self.workdir, "layers.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), stats_path, *op.args]
            if os.path.exists(stats_path):
                os.unlink(stats_path)
        else:
            argv = [sys.executable, "-m", "ramsums", *op.args]
        code, wall, cpu, rss, stdout, stderr = self.spawn(argv)
        problem, layers = None, None
        if code != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            problem = f"exit code {code}: {' '.join(tail)}"
        else:
            try:
                problem = op.verify(stdout.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if traced and problem is None:
                try:
                    with open(stats_path, encoding="utf-8") as fh:
                        layers = json.load(fh)
                except (OSError, ValueError) as exc:
                    problem = f"no layer table: {exc!r}"
        return Sample(op.args, traced, code, wall, cpu, rss, problem, stdout, layers)

    def setup_probe(self, spec: str) -> float:
        """Seconds from launching the interpreter to a constructed instance."""
        code = (
            "import sys, time\n"
            "import ramsums\n"
            "from ramsums import cli\n"
            "cli.make_instance(sys.argv[1])\n"
            "print(time.clock_gettime(time.CLOCK_MONOTONIC), ramsums.__file__)\n"
        )
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        exit_code, _, _, _, stdout, stderr = self.spawn([sys.executable, "-c", code, spec])
        if exit_code != 0:
            raise BenchError(f"set-up probe for {spec} failed: {stderr.decode(errors='replace').strip()}")
        stamp, module_file = stdout.decode().split()
        if not os.path.abspath(module_file).startswith(SRC + os.sep):
            raise BenchError(f"ramsums was imported from {module_file}, not from {SRC}")
        return float(stamp) - t0


# -- runs ----------------------------------------------------------------------


def _another_round(start: float, deadline: float, rounds: list, seconds: float) -> bool:
    """Whether to start another round: the run is still inside its measured
    seconds, and one more round as long as the last one ends before the
    deadline."""
    if not rounds:
        return True
    now = time.monotonic()
    last = sum(s.wall_s for s in rounds[-1])
    return now - start < seconds and now + last < deadline


def run_untraced(runner: Runner, wl: Workload, seconds: float) -> tuple[list, list[float]]:
    setup = [runner.setup_probe(wl.instances[i % len(wl.instances)]) for i in range(SETUP_PROBES)]
    rounds: list[list[Sample]] = []
    start = time.monotonic()
    while _another_round(start, runner.deadline, rounds, seconds):
        rounds.append([runner.invoke(op, traced=False) for op in wl.ops])
    return rounds, setup


def run_traced(runner: Runner, wl: Workload, seconds: float) -> list:
    """Pairs of rounds: untraced, then traced."""
    rounds: list[list[Sample]] = []
    start = time.monotonic()
    while _another_round(start, runner.deadline, rounds, seconds):
        plain = [runner.invoke(op, traced=False) for op in wl.ops]
        traced = [runner.invoke(op, traced=True) for op in wl.ops]
        for p, t in zip(plain, traced):
            if p.problem is None and t.problem is None and p.stdout != t.stdout:
                t.problem = "traced stdout differs from the untraced stdout"
        rounds.append(plain + traced)
    return rounds


def end_to_end_metrics(wl: Workload, rounds: list, setup: list[float]) -> dict:
    items = sum(op.items for op in wl.ops)
    walls = [sum(s.wall_s for s in r) for r in rounds]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(sum(s.cpu_s for s in r) for r in rounds),
        "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in r) for r in rounds),
        "items_per_s": statistics.median(items / w for w in walls),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(rounds: list) -> tuple[dict, list[dict]]:
    """Median over round pairs of the layer totals summed over a round's
    traced invocations, and the per-round tables."""
    tables = []
    for r in rounds:
        plain = [s for s in r if not s.traced]
        traced = [s for s in r if s.traced]
        table = {name: 0.0 for name in PER_LAYER}
        for s in traced:
            for name, value in (s.layers or {}).items():
                if name in table:
                    table[name] += value
        table["trace.overhead_s"] = sum(s.wall_s for s in traced) - sum(s.wall_s for s in plain)
        tables.append(table)
    metrics = {}
    for name, unit in PER_LAYER.items():
        value = statistics.median(t[name] for t in tables)
        metrics[name] = {"value": value if unit == "s" else round(value), "unit": unit}
    return metrics, tables


def machine_info() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "mem_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ramsums", "cli.py")):
        raise BenchError(f"no ramsums sources under {SRC}")
    oracles.self_test()
    wl = WORKLOADS[args.workload](args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        runner = Runner(workdir, deadline)
        runner.setup_probe(wl.instances[0])  # writes bytecode caches; not timed
        if args.trace:
            rounds, setup = run_traced(runner, wl, args.seconds), []
            metrics, tables = layer_metrics(rounds)
        else:
            rounds, setup = run_untraced(runner, wl, args.seconds)
            metrics, tables = end_to_end_metrics(wl, rounds, setup), []
    samples = [s for r in rounds for s in r]
    for s in samples:
        if s.problem:
            print(f"failed: ramsums {' '.join(s.args)}: {s.problem}", file=sys.stderr)
    summary = {
        "correct": True,  # every operation that did not fail passed its checks
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.problem),
        "metrics": metrics,
    }
    out_path = args.out or os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "setup_samples_s": setup,
        "rounds": [[s.record() for s in r] for r in rounds],
        "layer_tables": tables,
        **summary,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


# -- comparing result files --------------------------------------------------------


def _load_results(path: str) -> list[dict]:
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        paths = [os.path.join(path, n) for n in names]
    else:
        paths = [path]
    out = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def _median_of(results: list[dict], name: str) -> float | None:
    values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
    return statistics.median(values) if values else None


def _cell(value: float | None) -> str:
    return f"{value:14.6g}" if value is not None else f"{'-':>14}"


def compare(path_a: str, path_b: str) -> int:
    """Print the medians of two sets of result files side by side, per
    workload, end-to-end metrics first and then the layers."""
    a, b = _load_results(path_a), _load_results(path_b)
    keys = sorted({(r["workload"], r["trace"]) for r in a + b})
    print(f"A = {path_a}\nB = {path_b}")
    for workload, trace in keys:
        ra = [r for r in a if (r["workload"], r["trace"]) == (workload, trace)]
        rb = [r for r in b if (r["workload"], r["trace"]) == (workload, trace)]
        kind = "layers (traced)" if trace else "end to end"
        print(f"\n{workload}: {kind}, runs A={len(ra)} B={len(rb)}")
        print(f"  {'metric':34} {'A median':>14} {'B median':>14} {'B/A':>8}")
        names = PER_LAYER if trace else END_TO_END
        for name, unit in names.items():
            ma = _median_of(ra, name)
            mb = _median_of(rb, name)
            ratio = f"{mb / ma:8.3f}" if ma and mb is not None else f"{'-':>8}"
            print(f"  {name + ' (' + unit + ')':34} {_cell(ma)} {_cell(mb)} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default perfbench/results/<workload>-seed<n>-trace<t>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print two result sets side by side")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
