"""Command-line front end: instances, sums, identity suites, and scans.

Exit codes: 0 on success, 1 when a check suite reports failures, 2 on
input errors, 3 on an internal error.  All numeric output is
locale-independent; floats are printed with 12 significant digits in CSV
mode, and rows are emitted in a deterministic scan order, so outputs are
byte-identical across runs and worker counts for a fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from itertools import chain, repeat

from . import fields
from .monoid import ZERO, Element, MonoidInstance

MAX_X = 10**7
MAX_Y = 10**3
#: Most rows ``table`` builds, with or without --allow-large.  1e6 rows peak
#: near 130 MB in CSV and 340 MB in JSON on Z, and 168 and 372 MB on q:-23,
#: whose labels are longer; 3.9e6 rows on q:-23 peak at 571 MB in CSV.
MAX_TABLE_ROWS = 4 * 10**6

#: The suites of ``check`` (``checks.SUITES``), here so that building the
#: parser does not load the suites and numpy.
SUITES = ("th1", "th2", "apostol", "holder", "oracle")


class CLIError(Exception):
    pass


# -- element specs ----------------------------------------------------

_LABEL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9]*?)(?:\^(\d+))?$")


def parse_element(inst: MonoidInstance, text: str) -> Element:
    """Parse an element spec: a positive integer (rational-integer instance
    only), or a product of atom-label powers like ``p2r^2*p5a``."""
    t = text.strip()
    if not t:
        raise CLIError("empty element spec")
    if t.isdigit():
        n = int(t)
        if inst.parses_integers:
            return fields.factor_integer(inst, n)
        if n == 1:
            return ZERO
        raise CLIError(
            f"integer specs are only parsed over Z; use atom labels for {inst.name}"
        )
    exps: dict[int, int] = {}
    for part in t.split("*"):
        m = _LABEL_RE.match(part.strip())
        if not m:
            raise CLIError(f"bad atom power {part.strip()!r}")
        label, power = m.group(1), int(m.group(2) or 1)
        atom = inst.atom_by_label(label)
        if atom is None:
            raise CLIError(f"unknown atom label {label!r} in {inst.name}")
        exps[atom.id] = exps.get(atom.id, 0) + power
    return Element.of(exps)


def format_element(inst: MonoidInstance, e: Element) -> str:
    """Canonical spec: the integer itself over Z, label powers elsewhere."""
    if e.is_zero:
        return "1"
    if inst.parses_integers:
        return str(inst.norm(e))
    return "*".join(inst.label(a) if x == 1 else f"{inst.label(a)}^{x}" for a, x in e.exps)


def make_instance(spec: str) -> MonoidInstance:
    s = spec.strip().lower()
    if s == "z":
        return fields.rational_integers()
    if s.startswith("q:"):
        try:
            d = int(s[2:])
        except ValueError:
            raise CLIError(f"bad quadratic-field selector {spec!r}") from None
        try:
            return fields.quadratic_field(d)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    raise CLIError(f"unknown instance {spec!r}; use 'z' or 'q:<d>'")


# -- output helpers ---------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write --out: {exc}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except (AttributeError, OSError) as exc:  # AttributeError: stdout closed, sys.stdout None
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # the flush at exit cannot fail again
            raise CLIError(f"cannot write stdout: {exc if sys.stdout else 'closed'}") from None


def _check_out(path: str) -> None:
    """CLIError unless ``path`` is a writable file or a new name in a
    writable directory; it runs before any work and creates nothing."""
    parent = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise CLIError(f"cannot write --out {path!r}: not a writable file in an existing directory")


def emit_rows(header: list[str], rows, args: argparse.Namespace) -> None:
    if args.format == "json":
        emit_json([dict(zip(header, row)) for row in rows], args)
    else:
        lines = [",".join(header), *(",".join(_cell(v) for v in row) for row in rows), ""]
        _write("\n".join(lines), args.out)


def emit_json(obj, args: argparse.Namespace) -> None:
    import json
    buf = io.StringIO()
    json.dump(obj, buf, sort_keys=True, indent=2)
    buf.write("\n")
    _write(buf.getvalue(), args.out)


def _check_bounds(args: argparse.Namespace) -> None:
    """x and y must be finite and >= 1, and within the caps unless
    --allow-large is given; check's --bound and --trials must be >= 0 and
    its --workers >= 1.  Subcommands that read these options alone declare
    them."""
    for name, cap in (("x", MAX_X), ("y", MAX_Y)):
        v = getattr(args, name, None)
        if v is None:
            continue
        if not math.isfinite(v) or v < 1:
            raise CLIError(f"{name}={v} must be a finite number >= 1")
        if v > cap and not args.allow_large:
            raise CLIError(f"{name}={v} exceeds the cap {cap}; pass --allow-large to override")
    for name, low in (("bound", 0), ("trials", 0), ("workers", 1)):
        v = getattr(args, name, None)
        if v is not None and v < low:
            raise CLIError(f"{name}={v} must be >= {low}")


def refuse_pairs(inst: MonoidInstance, bounds, limit: int, refusal) -> None:
    """ValueError(refusal(*counts)) when the counts of elements of norm <= b,
    for each b of ``bounds``, multiply past ``limit``.  Each b is counted at
    min(b, 2**20) first (tables near 9 MB on any field), then at doubling
    bounds up to b, each once; the first product past ``limit`` refuses."""
    count, t = functools.cache(inst.count_up_to), 2**20
    while True:
        counts = [count(min(b, t)) for b in bounds]
        if math.prod(counts) > limit:
            raise ValueError(refusal(*counts))
        if t >= max(bounds):
            return
        t *= 2


def _scan_points(limit) -> list:
    pts, v = [], 10
    while v < limit:
        pts.append(v)
        v *= 10
    pts.append(limit)
    return pts


def _largest_first(fn, points: list) -> list:
    """[fn(p) for p in points], evaluated from the last (largest) point
    back, so the first call grows the instance's tables for all the rest.

    On the built-in instances the only tables a ``count`` scan grows are the
    character tables of ``fields._ideal_counter``, min(|D|, x + 1) entries;
    z and q:-1 grow nothing.  ``count --instance q:-1000003 --x 1e7 --scan``
    takes 0.52-0.57 s this way and 0.89-1.00 s in ascending order
    (quartiles of 10 fresh processes each, interleaved; 2-core x86-64,
    Python 3.11), with the same stdout, because ascending order rebuilds
    the numpy table at each larger point below |D|.
    """
    return [fn(p) for p in reversed(points)][::-1]


# -- subcommands ------------------------------------------------------


def cmd_atoms(inst, args) -> int:
    inst.extend(args.x)
    rows = ((aid, inst.label(aid), n) for aid, n in enumerate(inst.norms) if n <= args.x)
    emit_rows(["id", "label", "norm"], rows, args)
    return 0


def cmd_csum(inst, args) -> int:
    from . import csums
    k = parse_element(inst, args.k)
    m = parse_element(inst, args.m)
    _write(str(csums.ramanujan_sum(inst, k, m)) + "\n", args.out)
    return 0


def cmd_table(inst, args) -> int:
    from . import csums
    refuse_pairs(inst, (args.y, args.x), MAX_TABLE_ROWS, lambda n_k, n_m: (
        f"--x {args.x} and --y {args.y} give at least {n_k} x {n_m} rows, above the limit of "
        f"{MAX_TABLE_ROWS}; lower --x or --y"))
    ks = list(inst.enumerate_up_to(args.y))
    ms = csums.CsumSide(inst, inst.enumerate_up_to(args.x))
    mtext, step = [format_element(inst, m) for m in ms], csums.chunk_width(len(ms))
    chunks = (ks[r0 : r0 + step] for r0 in range(0, len(ks), step))
    rows = chain.from_iterable(
        zip(repeat(format_element(inst, k)), mtext, values)
        for chunk in chunks for k, values in zip(chunk, csums.csum_block(inst, chunk, ms).tolist()))
    emit_rows(["k", "m", "csum"], rows, args)
    return 0


def cmd_check(inst, args) -> int:
    from . import checks
    report = checks.run_suite(
        inst, args.suite, bound=args.bound, trials=args.trials, seed=args.seed
    )
    emit_json(report, args)
    return 1 if report.get("failures_total", len(report.get("failures", []))) else 0


def cmd_count(inst, args) -> int:
    points = _scan_points(args.x) if args.scan else [args.x]
    counts = _largest_first(inst.count_up_to, points)
    rows = [(x, n, n / float(x)) for x, n in zip(points, counts)]
    emit_rows(["x", "count", "count_over_x"], rows, args)
    return 0


def cmd_residue(inst, args) -> int:
    from . import csums
    k = parse_element(inst, args.k)
    if k.is_zero:
        raise CLIError("k must be a nonzero element")
    mode = "direct" if args.direct else "grouped"
    target = csums.residue_target(inst, k)
    points = _scan_points(args.x) if args.scan else [args.x]
    ests = csums.residue_scan(inst, k, points, mode=mode)
    err = [None if target is None else abs(est - target) for est in ests]
    rows = [(x, est, target, e) for x, est, e in zip(points, ests, err)]
    emit_rows(["x", "estimate", "target", "abs_err"], rows, args)
    return 0


def cmd_sxy(inst, args) -> int:
    from . import csums
    if args.scan:
        grid = [(x, y) for x in _scan_points(args.x) for y in (2, 5, 10, 20, 50) if y <= args.y]
    else:
        grid = [(args.x, args.y)]
    reps = csums.double_sums(inst, grid)
    rows = [(x, y, r.value, r.residual, r.bound_ref) for (x, y), r in zip(grid, reps)]
    emit_rows(["x", "y", "s", "s_minus_cx", "bound_ref"], rows, args)
    return 0


def cmd_invariants(inst, args) -> int:
    inv = inst.invariants
    if inv is None or inst.descriptor is None:
        raise CLIError(f"{inst.name} carries no field invariants; use a q:<d> instance")
    est, h_rounded = fields.class_number_from_counting(inst, args.x)
    c_f = fields.residue_constant(inv._replace(h=inv.h or h_rounded))
    payload = {
        "instance": inst.name,
        "d": inst.descriptor.d,
        "discriminant": inst.descriptor.discriminant,
        "r1": inv.r1,
        "r2": inv.r2,
        "regulator": inv.regulator,
        "roots_of_unity": inv.roots_of_unity,
        "abs_disc": inv.abs_disc,
        "class_number_exact": inv.h,
        "x": args.x,
        "count": inst.count_up_to(args.x),
        "h_estimate": est,
        "h_rounded": h_rounded,
        "residue_constant": c_f,
    }
    emit_json(payload, args)
    return 0


# -- argument parsing -------------------------------------------------


def _num(text: str):
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsums",
        description="Exact Ramanujan-type sums over normed free abelian monoids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, x_default=None, rows=False):
        """Subcommand ``name``, run as ``run(inst, args)``, with the options all
        read, plus --x and --allow-large when it reads x, --format for rows."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--instance", default="z", help="'z' or 'q:<d>' (default z)")
        p.add_argument("--out", default=None, metavar="PATH")
        if x_default is not None:
            p.add_argument("--x", type=_num, default=x_default)
            p.add_argument("--allow-large", action="store_true", help="lift the x/y caps")
        if rows:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    command("atoms", cmd_atoms, "list materialized atoms up to --x", x_default=100, rows=True)

    p = command("csum", cmd_csum, "print the exact Ramanujan-type sum")
    p.add_argument("--k", required=True)
    p.add_argument("--m", required=True)

    p = command("table", cmd_table, "csum grid over norms <= --y by <= --x", x_default=30,
                rows=True)
    p.add_argument("--y", type=_num, default=30)

    p = command("check", cmd_check, "run an identity or oracle suite")
    p.add_argument(
        "--suite", default="all", choices=SUITES + ("all",),
        help="th1: divisor-sum identity, th2: divisibility identity, "
        "apostol: bilinear convolution identities, holder: closed form vs "
        "definition, oracle: trigonometric sums (Z only)",
    )
    p.add_argument("--bound", type=int, default=200)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted (N >= 1) and has no effect; suites run in one thread",
    )

    p = command("count", cmd_count, "norm-bounded element counts", x_default=1000, rows=True)
    p.add_argument("--scan", action="store_true", help="emit decade scan up to --x")

    p = command("residue", cmd_residue, "norm-ordered series estimating -c*Lambda(k)",
                x_default=10**6, rows=True)
    p.add_argument("--k", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--grouped", action="store_true", default=True)
    group.add_argument("--direct", action="store_true", default=False)
    p.add_argument("--scan", action="store_true")

    p = command("sxy", cmd_sxy, "exact double sum S(x, y) and its residual", x_default=10**4,
                rows=True)
    p.add_argument("--y", type=_num, default=50)
    p.add_argument("--scan", action="store_true", help="decades of x times y in {2,5,10,20,50}")

    command("invariants", cmd_invariants, "field invariants, residue constant, class number",
            x_default=10**6)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        if args.out:
            _check_out(args.out)
        inst = make_instance(args.instance)
        return args.run(inst, args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: 1 is reserved for suites
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
