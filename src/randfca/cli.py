"""Command-line interface.

Subcommands: gen, concepts, expect, mc, asymptotic, verify. By default a
human-readable summary goes to stdout; --json wraps the result in a
versioned report envelope (validated by report_schema.json, shipped with
the package). Exit codes: 0 success, 1 input error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from .asymptotics import DEFAULT_TABLE_NS, round_half_up, table_report
from .context import Concept, FormalContext, count_concepts, enumerate_concepts
from .context import _default_labels, _members
from .cxt import CxtDocument, cross_rows, read_cxt, write_cxt
from .errors import InputError, InternalError, RandFcaError, fraction_text, quote
from .expectation import (
    MAX_BRUTEFORCE_N,
    MAX_EXACT_BITS,
    MAX_EXACT_N,
    MAX_EXPECT_N,
    expected_concepts,
    expected_concepts_bruteforce,
    expected_concepts_exact,
)
from .model import MAX_DRAW_N, ModelParams, _draw
from .montecarlo import MAX_MC_N, MAX_MC_SAMPLES, MAX_MC_WORK, compare_with_exact, estimate

DEFAULT_VERIFY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_VERIFY_MAX_N = 4

# --ns values are parsed only below 2**_MAX_NS_BITS, so that a form like
# 10^1000000000 is refused before the power is built.
_MAX_NS_BITS = 64

# A --rational probability's decimal exponent is bounded by this. Fraction
# parses a mantissa of at most 2 x 4300 digits (the interpreter's int
# limit), so past the bound a probability is 0, above 1, or has a
# denominator over MAX_EXACT_BITS bits, which the exact sum refuses anyway.
_MAX_EXPONENT = MAX_EXACT_BITS

# Per-case agreement bound on |formula - oracle| / max(|oracle|, 1).
VERIFY_TOL = 1e-12

# Stands in for the concept listing while the `concepts --json` envelope is
# encoded; no argv string can hold NUL.
_LISTING_PLACEHOLDER = "\0concepts\0"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> Any:  # noqa: D102  (argparse hook)
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _envelope_json(args: argparse.Namespace, payload: dict, started: float) -> str:
    """The report envelope; its params are the command's options as parsed."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "json", "func")}
    envelope = {
        "schema_version": "1",
        "command": args.command,
        "params": params,
        "payload": payload,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    return json.dumps(envelope, indent=2, allow_nan=False)


def _emit(args: argparse.Namespace, started: float, payload: dict, text: str) -> None:
    """Print one report: its envelope under --json, its text otherwise."""
    print(_envelope_json(args, payload, started) if args.json else text)


def _concept_listing(ctx: FormalContext, concepts: Sequence[Concept]) -> str:
    """The elements of the payload's "concepts" array, without its brackets,
    byte for byte as json.dumps(indent=2) writes them at that depth, from
    labels encoded once instead of per use."""
    objects = ["          " + json.dumps(label) for label in ctx.objects]
    attributes = ["          " + json.dumps(label) for label in ctx.attributes]

    def side(lines: list[str], mask: int) -> str:
        if not mask:
            return "[]"
        return "[\n" + ",\n".join(_members(lines, mask)) + "\n        ]"

    # Never empty: every context has at least the concept closing the empty set.
    return ",\n".join([
        f'      {{\n        "extent": {side(objects, c._extent)},'
        f'\n        "intent": {side(attributes, c._intent)}\n      }}'
        for c in concepts
    ])


def _parse_prob(option: str, text: str, rational: bool) -> float | Fraction:
    """A probability, as a float or, with --rational, as a Fraction in [0, 1]."""
    try:
        if not rational:
            return float(text)
        # Fraction builds 10**exponent: bound the exponent before that.
        _, marker, exponent = text.lower().rpartition("e")
        value = Fraction(text) if not marker or abs(int(exponent)) <= _MAX_EXPONENT else None
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse probability {quote(text)}") from None
    if value is None:
        raise InputError(f"probability {quote(text)} has an exponent beyond ±{_MAX_EXPONENT}")
    # Checked here, before float() meets a value out of its range.
    if not 0 <= value <= 1:
        raise InputError(f"{option} must be in [0, 1], got {quote(text)}")
    return value


def _parse_n(token: str) -> int:
    """One --ns value: an integer, or a 10^8 or 1e8 form, below 2**64 in size."""
    try:
        if "^" in token:
            base, _, exponent = token.partition("^")
            base, exponent = int(base), int(exponent)
            # |base|**exponent >= 2**((bits - 1) * exponent): bound it before computing it.
            if 0 <= exponent and (abs(base).bit_length() - 1) * exponent < _MAX_NS_BITS:
                return base**exponent
        elif "e" in token or "E" in token:
            as_float = float(token)
            if abs(as_float) < 2.0**_MAX_NS_BITS and as_float == int(as_float):
                return int(as_float)
        else:
            return int(token)
    except ValueError:
        pass
    raise InputError(f"n value {quote(token)} is not an integer below 2^{_MAX_NS_BITS}")


def _parse_ns(text: str) -> list[int]:
    ns = [_parse_n(token.strip()) for token in text.split(",") if token.strip()]
    if not ns:
        raise InputError(f"--ns {quote(text)} lists no n value")
    return ns


def _read_input(path: str | None) -> bytes:
    """The input bytes, undecoded: read_cxt decodes them, whatever the source."""
    if path is None:
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _label_set(labels: Sequence[str], mask: int) -> str:
    return "{" + ", ".join(_members(labels, mask)) + "}"


def _cmd_gen(args: argparse.Namespace, started: float) -> None:
    sides, digits = _draw(ModelParams(args.n, args.p, args.q), args.seed)
    g = sides.count("1")
    ctx = FormalContext(*_default_labels(g, len(sides) - g), digits)
    if args.format == "cxt":
        text = write_cxt(CxtDocument(ctx))
    else:
        document = {
            "objects": list(ctx.objects),
            "attributes": list(ctx.attributes),
            "rows": cross_rows(ctx),
        }
        text = json.dumps(document, indent=2) + "\n"
    _write_output(args.out, text)


def _cmd_concepts(args: argparse.Namespace, started: float) -> None:
    ctx = read_cxt(_read_input(getattr(args, "in"))).context
    if args.count_only:
        count = count_concepts(ctx, algorithm=args.algo)
        _emit(args, started, {"count": count}, str(count))
        return
    concepts = enumerate_concepts(ctx, algorithm=args.algo)
    if args.json:
        # The envelope is encoded around a placeholder, which is then replaced
        # by the listing text. The placeholder is the envelope's last string,
        # so its last occurrence is the one to replace.
        payload = {"count": len(concepts), "concepts": _LISTING_PLACEHOLDER}
        text = _envelope_json(args, payload, started)
        head, _, tail = text.rpartition(json.dumps(_LISTING_PLACEHOLDER))
        print(head, "[\n", _concept_listing(ctx, concepts), "\n    ]", tail, sep="")
        return
    print(f"concepts: {len(concepts)}")
    for concept in concepts:
        extent = _label_set(ctx.objects, concept._extent)
        intent = _label_set(ctx.attributes, concept._intent)
        print(f"  {extent} / {intent}")


def _cmd_expect(args: argparse.Namespace, started: float) -> None:
    p = _parse_prob("--p", args.p, args.rational)
    q = _parse_prob("--q", args.q, args.rational)
    params = ModelParams(args.n, float(p), float(q))
    # The exact sum refuses an input past its size bounds before any work,
    # so it runs first.
    exact = expected_concepts_exact(args.n, p, q) if args.rational else None
    report = expected_concepts(params)
    payload = {
        "n": params.n,
        "p": params.p,
        "q": params.q,
        "value": report.value,
        "log_value": report.log_value,
        "is_zero": False,  # every context has the concept (G, G'), so E >= 1
        "terms_evaluated": report.terms_evaluated,
        "terms_skipped_zero": report.terms_skipped_zero,
    }
    lines = [f"expected concepts: {_fmt(report.value)}"]
    if args.rational:
        payload["exact"] = fraction_text(exact)
        lines.append(f"exact: {payload['exact']}")
    total = report.terms_evaluated + report.terms_skipped_zero
    lines += [
        f"log: {_fmt(report.log_value)}",
        f"terms: {total} total = {report.terms_evaluated} evaluated"
        f" + {report.terms_skipped_zero} zero",
    ]
    _emit(args, started, payload, "\n".join(lines))


def _cmd_mc(args: argparse.Namespace, started: float) -> None:
    params = ModelParams(args.n, args.p, args.q)
    run = compare_with_exact if args.compare_exact else estimate
    outcome = run(params, args.samples, args.seed, workers=args.workers)
    result = outcome.estimate if args.compare_exact else outcome
    payload = {
        "n": params.n,
        "p": params.p,
        "q": params.q,
        "samples": result.samples,
        "seed": result.seed,
        "workers": args.workers,
        "mean": result.mean,
        "stderr": result.stderr,
        "ci95_low": result.ci95_low,
        "ci95_high": result.ci95_high,
        "min_count": result.min_count,
        "max_count": result.max_count,
    }
    lines = [
        f"mean: {_fmt(result.mean)}",
        f"stderr: {_fmt(result.stderr)}",
        f"ci95: [{_fmt(result.ci95_low)}, {_fmt(result.ci95_high)}]",
        f"count range: [{result.min_count}, {result.max_count}]",
        f"samples: {result.samples}  seed: {result.seed}  workers: {args.workers}",
    ]
    if args.compare_exact:
        payload.update(exact=outcome.exact, z=outcome.z if math.isfinite(outcome.z) else None)
        lines += [f"exact: {_fmt(outcome.exact)}", f"z: {_fmt(outcome.z)}"]
    _emit(args, started, payload, "\n".join(lines))


def _cmd_asymptotic(args: argparse.Namespace, started: float) -> None:
    # The report's params carry the parsed values.
    args.ns = _parse_ns(args.ns) if args.ns is not None else list(DEFAULT_TABLE_NS)
    rows = table_report(args.ns)
    payload = {
        "rows": [
            {
                "n": row.n,
                **vars(row.split),  # a, b, c, d
                "log_term": row.log_term,
                "gap": row.gap,
                "gap_3dp": round_half_up(row.gap, 3),
                "exceeds_threshold": row.exceeds_threshold,
            }
            for row in rows
        ]
    }
    lines = [
        f"{'n':>12} {'a':>4} {'b':>4} {'c':>12} {'d':>12}"
        f" {'log_term':>14} {'gap':>8} {'threshold':>10}"
    ]
    lines += [
        f"{row['n']:>12} {row['a']:>4} {row['b']:>4} {row['c']:>12} {row['d']:>12}"
        f" {_fmt(row['log_term']):>14} {row['gap_3dp']:>8.3f}"
        f" {'yes' if row['exceeds_threshold'] else 'no':>10}"
        for row in payload["rows"]
    ]
    _emit(args, started, payload, "\n".join(lines))


def _cmd_verify(args: argparse.Namespace, started: float) -> None:
    if not 1 <= args.max_n <= MAX_BRUTEFORCE_N:
        raise InputError(f"--max-n must be in 1..{MAX_BRUTEFORCE_N}, got {args.max_n}")
    grid = DEFAULT_VERIFY_GRID
    cases = []  # (normalized error, case)
    for n in range(1, args.max_n + 1):
        for p in grid:
            for q in grid:
                params = ModelParams(n, p, q)
                formula = expected_concepts(params).value
                oracle = expected_concepts_bruteforce(params)
                case = {"n": n, "p": p, "q": q, "formula": formula, "bruteforce": oracle}
                cases.append((abs(formula - oracle) / max(abs(oracle), 1.0), case))
    # max keeps the first of equal errors it meets: reversed, the last case.
    max_error, worst = max(reversed(cases), key=lambda error_case: error_case[0])
    ok = all(error <= VERIFY_TOL for error, _ in cases)
    if not ok:
        raise InternalError(
            f"formula disagrees with brute force: worst case {worst},"
            f" normalized error {max_error:.3e}"
        )
    payload = {
        "max_n": args.max_n,
        "grid": args.grid,
        "cases": len(cases),
        "max_normalized_error": max_error,
        "ok": ok,
        "worst": worst,
    }
    text = (
        f"cases: {len(cases)} (n <= {args.max_n}, {len(grid)}x{len(grid)} probability grid)\n"
        f"max relative error: {max_error:.3e}\nOK"
    )
    _emit(args, started, payload, text)


# Built once per process; parse_args returns a new namespace and leaves the
# parser unchanged, so every main call can share it.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="randfca",
        description="Formal concept enumeration and average-case analysis of random contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = sub.add_parser("gen", help="sample a random context and write it out")
    gen.add_argument("--n", type=int, required=True, help=f"universe size, at most {MAX_DRAW_N}")
    gen.add_argument("--p", type=float, required=True, help="object probability")
    gen.add_argument("--q", type=float, required=True, help="incidence probability")
    gen.add_argument("--seed", type=int, required=True, help="64-bit master seed")
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.add_argument("--format", choices=("cxt", "json"), default="cxt")
    gen.set_defaults(func=_cmd_gen)

    concepts = sub.add_parser("concepts", help="enumerate concepts of a context file")
    concepts.add_argument("--in", default=None, help="input .cxt file (default stdin)")
    concepts.add_argument("--algo", choices=("intersection", "cbo", "scan"), default="intersection")
    concepts.add_argument("--count-only", action="store_true")
    concepts.add_argument("--json", action="store_true")
    concepts.set_defaults(func=_cmd_concepts)

    expect = sub.add_parser("expect", help="exact average concept count")
    n_help = f"universe size, at most {MAX_EXPECT_N} ({MAX_EXACT_N} with --rational)"
    expect.add_argument("--n", type=int, required=True, help=n_help)
    expect.add_argument("--p", required=True, help="probability (float, or fraction with --rational)")
    expect.add_argument("--q", required=True, help="probability (float, or fraction with --rational)")
    expect.add_argument("--rational", action="store_true", help="also evaluate exactly over rationals")
    expect.add_argument("--json", action="store_true")
    expect.set_defaults(func=_cmd_expect)

    mc = sub.add_parser("mc", help="Monte Carlo estimate of the average concept count")
    mc.add_argument("--n", type=int, required=True, help=f"universe size, at most {MAX_MC_N}")
    mc.add_argument("--p", type=float, required=True)
    mc.add_argument("--q", type=float, required=True)
    samples_help = f"2 to {MAX_MC_SAMPLES}, with samples * n^2 at most {MAX_MC_WORK}"
    mc.add_argument("--samples", type=int, required=True, help=samples_help)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--compare-exact", action="store_true")
    mc.add_argument("--json", action="store_true")
    mc.set_defaults(func=_cmd_mc)

    asymptotic = sub.add_parser("asymptotic", help="growth diagnostics of the dominant summand")
    asymptotic.add_argument(
        "--ns",
        default=None,
        help="comma-separated n values, 2 <= n <= 10^12 (default 10^1..10^10);"
        " 1e8 and 10^8 forms accepted",
    )
    asymptotic.add_argument("--json", action="store_true")
    asymptotic.set_defaults(func=_cmd_asymptotic)

    verify = sub.add_parser("verify", help="cross-check the exact formula against brute force")
    verify.add_argument("--max-n", type=int, default=DEFAULT_VERIFY_MAX_N)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify, grid="default")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args, time.perf_counter())
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return 0
    except BrokenPipeError:
        # stdout's reader is gone: no message, and stdout points at devnull
        # so that the interpreter's final flush writes nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, RandFcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: any other failure, without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
