"""Run one ramsums CLI command with timing spans around the library's layers.

    python3 perfbench/traced.py STATS_PATH CLI_ARG...

The spans are installed from outside the program: the public functions of
``monoid``, ``fields``, ``arith``, ``csums``, ``checks`` and ``cli`` are
replaced by wrappers under their module attribute and under every name a
``ramsums`` module binds to them with ``from ... import``.  The command then
runs through ``ramsums.cli.main``, so its stdout is the CLI's own.  At exit
the per-layer totals (self seconds and counters, summed over threads) are
written to STATS_PATH as one JSON object.

A span's self time is its duration minus the time of the spans it called in
the same thread.  Each thread keeps its own span stack.  Work that
``checks._pmap`` hands to pool threads is accounted to the suite that
submitted it, and the submitting thread's wait is a span of its own
(``checks.pool``), so no interval is counted twice.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Per-thread span stacks and counters, merged when the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._instances: dict[int, object] = {}
        self._last_counts: dict[int, object] = {}

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], defaultdict(float))
            with self._lock:
                self._tables.append(state[1])
            return state

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(stats, args, result)``
        may add counters once the call returns."""
        state, clock = self._state, time.perf_counter
        self_key, calls_key = name + ".self_s", name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats = state()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[self_key] += elapsed - frame[1]
                stats[calls_key] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(stats, args, result)
            return result

        return wrapper

    def generator_span(self, name, fn):
        """Wrap a generator function: every resume is a span, and the
        number of yielded items is counted as ``<name>.elements``."""
        state, clock = self._state, time.perf_counter
        self_key, calls_key, items_key = name + ".self_s", name + ".calls", name + ".elements"

        def resumes(gen):
            while True:
                stack, stats = state()
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    stats[self_key] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                stats[items_key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state()[1][calls_key] += 1
            return resumes(fn(*args, **kwargs))

        return wrapper

    def counter(self, name, fn):
        """Count calls without a span; the time stays with the caller."""
        state, calls_key = self._state, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state()[1][calls_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool(self, pmap):
        """Wrap ``checks._pmap``: items run under the caller's span name, in
        whichever thread executes them; the caller waits in ``checks.pool``."""
        waiting = self.span("checks.pool", pmap)

        @functools.wraps(pmap)
        def wrapper(fn, items, workers):
            stack = self._state()[0]
            owner = stack[-1][0] if stack else "checks.pool"
            return waiting(self.span(owner, fn), items, workers)

        return wrapper

    # -- counters read from results -------------------------------------

    def note_instance(self, stats, args, result):
        inst = args[0]
        with self._lock:
            self._instances[id(inst)] = inst

    def note_counts(self, stats, args, result):
        inst = args[0]
        with self._lock:
            if self._last_counts.get(id(inst)) is result:
                return
            self._last_counts[id(inst)] = result
        stats["monoid.norm_counts.builds"] += 1
        stats["monoid.norm_counts.bytes"] += result.nbytes

    def totals(self) -> dict:
        out: dict = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    out[key] += value
            out["monoid.atoms"] = sum(len(inst.atoms) for inst in self._instances.values())
        return dict(out)


def _note_elements(stats, args, result):
    stats["monoid.enumerate_up_to.elements"] += operator.length_hint(result)


def _note_checked(stats, args, result):
    stats["checks.checked"] += result["checked"]


def _note_output(stats, args, result):
    stats["cli.output.bytes"] += len(args[0].encode("utf-8"))


def install(tracer: Tracer):
    """Replace the layer functions of the imported ramsums modules."""
    from ramsums import arith, checks, cli, csums, fields, monoid

    modules = [m for n, m in list(sys.modules.items()) if n == "ramsums" or n.startswith("ramsums.")]

    def rebind(module, attr, wrap):
        original = getattr(module, attr)
        wrapper = wrap(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    inst_cls = monoid.MonoidInstance
    inst_cls.extend = tracer.span("monoid.extend", inst_cls.extend, tracer.note_instance)
    inst_cls.norm_counts = tracer.span("monoid.norm_counts", inst_cls.norm_counts, tracer.note_counts)
    inst_cls.scan_up_to = tracer.generator_span("monoid.scan_up_to", inst_cls.scan_up_to)
    inst_cls.enumerate_up_to = tracer.span(
        "monoid.enumerate_up_to", inst_cls.enumerate_up_to, _note_elements
    )
    inst_cls.divisors = tracer.span("monoid.divisors", inst_cls.divisors)

    rebind(fields, "split_prime", functools.partial(tracer.span, "fields.split_prime"))
    rebind(fields, "sieve_primes", functools.partial(tracer.span, "fields.sieve_primes"))
    rebind(fields, "factor_integer", functools.partial(tracer.counter, "fields.factor_integer"))

    rebind(arith, "mobius", functools.partial(tracer.counter, "arith.mobius"))
    rebind(arith, "convolve", functools.partial(tracer.span, "arith.convolve"))

    rebind(csums, "ramanujan_sum", functools.partial(tracer.span, "csums.ramanujan_sum"))
    rebind(csums, "double_sum", functools.partial(tracer.span, "csums.double_sum"))
    for attr in (
        "divisor_sum_identity",
        "divisibility_identity",
        "first_argument_convolution",
        "second_argument_convolution",
    ):
        rebind(csums, attr, functools.partial(tracer.span, "csums.identities"))

    for suite in checks.SUITES:
        rebind(checks, f"suite_{suite}", lambda fn, s=suite: tracer.span(f"checks.suite_{s}", fn, _note_checked))
    rebind(checks, "_pmap", tracer.pool)

    for attr in ("emit_rows", "emit_json"):
        rebind(cli, attr, functools.partial(tracer.span, "cli.output"))
    rebind(cli, "_write", lambda fn: tracer.span("cli.output", fn, _note_output))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py STATS_PATH CLI_ARG...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[1:]
    from ramsums import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
