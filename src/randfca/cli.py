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
from decimal import Decimal
from fractions import Fraction
from typing import Any, Sequence

from .asymptotics import DEFAULT_TABLE_NS, round_half_up, table_report
from .context import Concept, FormalContext, count_concepts, enumerate_concepts
from .context import _default_labels, _members
from .cxt import CxtDocument, cross_rows, read_cxt, write_cxt
from .errors import InputError, InternalError, RandFcaError, quote
from .expectation import (
    MAX_BRUTEFORCE_N,
    expected_concepts,
    expected_concepts_bruteforce,
    expected_concepts_exact,
)
from .model import ModelParams, Seed, sample_context
from .montecarlo import compare_with_exact, estimate

DEFAULT_VERIFY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_VERIFY_MAX_N = 4

# --ns values are parsed only below 2**_MAX_NS_BITS, so that a form like
# 10^1000000000 is refused before the power is built.
_MAX_NS_BITS = 64

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


def _json_safe(value: Any) -> Any:
    """Replace non-finite floats with null so output is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


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
    return json.dumps(_json_safe(envelope), indent=2, allow_nan=False)


def _concept_listing(ctx: FormalContext, concepts: Sequence[Concept]) -> str:
    """The payload's "concepts" array, byte for byte as json.dumps(indent=2)
    writes it at that depth, from labels encoded once instead of per use."""
    objects = ["          " + json.dumps(label) for label in ctx.objects]
    attributes = ["          " + json.dumps(label) for label in ctx.attributes]

    def side(lines: list[str], mask: int) -> str:
        if not mask:
            return "[]"
        return "[\n" + ",\n".join(_members(lines, mask)) + "\n        ]"

    # Never empty: every context has at least the concept closing the empty set.
    blocks = [
        f'      {{\n        "extent": {side(objects, c._extent)},'
        f'\n        "intent": {side(attributes, c._intent)}\n      }}'
        for c in concepts
    ]
    return "[\n" + ",\n".join(blocks) + "\n    ]"


def _fraction_text(value: Fraction) -> str:
    """str(value), with each integer written through Decimal, whose
    conversion has no digit limit."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def _parse_prob(text: str, rational: bool) -> float | Fraction:
    try:
        return Fraction(text) if rational else float(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse probability {quote(text)}") from None


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
    return [_parse_n(token.strip()) for token in text.split(",") if token.strip()]


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
    params = ModelParams(args.n, args.p, args.q)
    sampled = sample_context(params, Seed(args.seed))
    ctx = sampled._relabelled(*_default_labels(sampled.object_count, sampled.attribute_count))
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
        print(_envelope_json(args, {"count": count}, started) if args.json else count)
        return
    concepts = enumerate_concepts(ctx, algorithm=args.algo)
    if args.json:
        # The envelope is encoded around a placeholder, which is then replaced
        # by the listing text. The placeholder is the envelope's last string,
        # so its last occurrence is the one to replace.
        payload = {"count": len(concepts), "concepts": _LISTING_PLACEHOLDER}
        text = _envelope_json(args, payload, started)
        head, _, tail = text.rpartition(json.dumps(_LISTING_PLACEHOLDER))
        print(head + _concept_listing(ctx, concepts) + tail)
        return
    print(f"concepts: {len(concepts)}")
    for concept in concepts:
        extent = _label_set(ctx.objects, concept._extent)
        intent = _label_set(ctx.attributes, concept._intent)
        print(f"  {extent} / {intent}")


def _cmd_expect(args: argparse.Namespace, started: float) -> None:
    p = _parse_prob(args.p, args.rational)
    q = _parse_prob(args.q, args.rational)
    params = ModelParams(args.n, float(p), float(q))
    report = expected_concepts(params)
    exact: str | None = None
    if args.rational:
        exact = _fraction_text(expected_concepts_exact(args.n, Fraction(p), Fraction(q)))
    if args.json:
        payload = {
            "n": params.n,
            "p": params.p,
            "q": params.q,
            "value": report.value,
            "log_value": None if report.log_value.is_zero else report.log_value.log,
            "is_zero": report.log_value.is_zero,
            "terms_evaluated": report.terms_evaluated,
            "terms_skipped_zero": report.terms_skipped_zero,
        }
        if exact is not None:
            payload["exact"] = exact
        print(_envelope_json(args, payload, started))
        return
    print(f"expected concepts: {_fmt(report.value)}")
    if exact is not None:
        print(f"exact: {exact}")
    log_text = "-inf (zero)" if report.log_value.is_zero else _fmt(report.log_value.log)
    print(f"log: {log_text}")
    total = report.terms_evaluated + report.terms_skipped_zero
    print(
        f"terms: {total} total = {report.terms_evaluated} evaluated"
        f" + {report.terms_skipped_zero} zero"
    )


def _cmd_mc(args: argparse.Namespace, started: float) -> None:
    params = ModelParams(args.n, args.p, args.q)
    if args.compare_exact:
        comparison = compare_with_exact(
            params, args.samples, Seed(args.seed), workers=args.workers
        )
        result = comparison.estimate
    else:
        comparison = None
        result = estimate(params, args.samples, Seed(args.seed), workers=args.workers)
    if args.json:
        payload = {
            "n": params.n,
            "p": params.p,
            "q": params.q,
            "samples": result.samples,
            "seed": result.seed.master,
            "workers": args.workers,
            "mean": result.mean,
            "stderr": result.stderr,
            "ci95_low": result.ci95_low,
            "ci95_high": result.ci95_high,
            "min_count": result.min_count,
            "max_count": result.max_count,
        }
        if comparison is not None:
            payload["exact"] = comparison.exact
            payload["z"] = comparison.z
        print(_envelope_json(args, payload, started))
        return
    print(f"mean: {_fmt(result.mean)}")
    print(f"stderr: {_fmt(result.stderr)}")
    print(f"ci95: [{_fmt(result.ci95_low)}, {_fmt(result.ci95_high)}]")
    print(f"count range: [{result.min_count}, {result.max_count}]")
    print(f"samples: {result.samples}  seed: {result.seed.master}  workers: {args.workers}")
    if comparison is not None:
        print(f"exact: {_fmt(comparison.exact)}")
        print(f"z: {_fmt(comparison.z)}")


def _cmd_asymptotic(args: argparse.Namespace, started: float) -> None:
    # The report's params carry the parsed values.
    args.ns = _parse_ns(args.ns) if args.ns is not None else list(DEFAULT_TABLE_NS)
    rows = table_report(args.ns)
    if args.json:
        payload = {
            "rows": [
                {
                    "n": row.n,
                    "a": row.split.a,
                    "b": row.split.b,
                    "c": row.split.c,
                    "d": row.split.d,
                    "log_term": row.log_term,
                    "gap": row.gap,
                    "gap_3dp": round_half_up(row.gap, 3),
                    "exceeds_threshold": row.exceeds_threshold,
                }
                for row in rows
            ]
        }
        print(_envelope_json(args, payload, started))
        return
    header = (
        f"{'n':>12} {'a':>4} {'b':>4} {'c':>12} {'d':>12}"
        f" {'log_term':>14} {'gap':>8} {'threshold':>10}"
    )
    print(header)
    for row in rows:
        print(
            f"{row.n:>12} {row.split.a:>4} {row.split.b:>4} {row.split.c:>12}"
            f" {row.split.d:>12} {_fmt(row.log_term):>14}"
            f" {round_half_up(row.gap, 3):>8.3f}"
            f" {'yes' if row.exceeds_threshold else 'no':>10}"
        )


def _cmd_verify(args: argparse.Namespace, started: float) -> None:
    if not 1 <= args.max_n <= MAX_BRUTEFORCE_N:
        raise InputError(f"--max-n must be in 1..{MAX_BRUTEFORCE_N}, got {args.max_n}")
    grid = DEFAULT_VERIFY_GRID
    cases = 0
    max_error = 0.0
    worst: dict[str, Any] | None = None
    all_ok = True
    for n in range(1, args.max_n + 1):
        for p in grid:
            for q in grid:
                params = ModelParams(n, p, q)
                formula = expected_concepts(params).value
                oracle = expected_concepts_bruteforce(params)
                normalized = abs(formula - oracle) / max(abs(oracle), 1.0)
                ok = normalized <= VERIFY_TOL
                cases += 1
                all_ok = all_ok and ok
                if normalized >= max_error:
                    max_error = normalized
                    worst = {
                        "n": n,
                        "p": p,
                        "q": q,
                        "formula": formula,
                        "bruteforce": oracle,
                    }
    if not all_ok:
        raise InternalError(
            f"formula disagrees with brute force: worst case {worst},"
            f" normalized error {max_error:.3e}"
        )
    if args.json:
        payload = {
            "max_n": args.max_n,
            "grid": args.grid,
            "cases": cases,
            "max_normalized_error": max_error,
            "ok": all_ok,
            "worst": worst,
        }
        print(_envelope_json(args, payload, started))
        return
    print(f"cases: {cases} (n <= {args.max_n}, {len(grid)}x{len(grid)} probability grid)")
    print(f"max relative error: {max_error:.3e}")
    print("OK")


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
    gen.add_argument("--n", type=int, required=True, help="universe size")
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
    expect.add_argument("--n", type=int, required=True)
    expect.add_argument("--p", required=True, help="probability (float, or fraction with --rational)")
    expect.add_argument("--q", required=True, help="probability (float, or fraction with --rational)")
    expect.add_argument("--rational", action="store_true", help="also evaluate exactly over rationals")
    expect.add_argument("--json", action="store_true")
    expect.set_defaults(func=_cmd_expect)

    mc = sub.add_parser("mc", help="Monte Carlo estimate of the average concept count")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--p", type=float, required=True)
    mc.add_argument("--q", type=float, required=True)
    mc.add_argument("--samples", type=int, required=True)
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
