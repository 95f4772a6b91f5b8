"""Command-line front end.

Exit codes are part of the contract:

  0  success
  2  usage problem: bad flags, malformed word file, infeasible parameters
  3  corrupt codeword encountered while decoding
  4  a checked constraint or invariant was violated (invalid word found,
     formula/exact-count mismatch, mean-step bound exceeded)
  5  requested work exceeds the budget of q**n words (--budget) that
     exact counts and exhaustive statistics may cover

Word files hold one word per line: contiguous digits for q <= 10,
comma-separated integers for larger alphabets.  Blank lines and lines
starting with '#' are ignored.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import cardinality, codec, segmented
from .cardinality import CountQuery, Family
from .errors import BudgetExceededError, CorruptCodewordError
from .periodicity import Word, _check_run_length, _leftmost_run, first_violation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_VIOLATION = 4
EXIT_BUDGET = 5


def read_words(path: str, q: int, expected_len: int | None = None) -> list[Word]:
    words = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word = Word(line, q)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if expected_len is not None and len(word) != expected_len:
            raise ValueError(
                f"{path}:{lineno}: expected {expected_len} symbols, got {len(word)}"
            )
        words.append(word)
    return words


def _run_words(
    args, expected_len: int | None, convert, fail_code: int = EXIT_OK
) -> int:
    """Read ``--in``, turn each word into its output text and a pass flag
    with ``convert(i, word)`` (i counts words from 1), and write the texts
    to ``--out`` (stdout for '-' or none).  A corrupt codeword becomes one
    ``!corrupt <reason>`` line.  Returns ``fail_code`` if any word failed.
    """
    texts: list[str] = []
    failed = False
    for i, word in enumerate(read_words(args.infile, args.q, expected_len), start=1):
        try:
            text, ok = convert(i, word)
        except CorruptCodewordError as exc:
            text, ok = f"!corrupt {exc}", False
        texts.append(text)
        failed = failed or not ok
    out = "\n".join(texts) + ("\n" if texts else "")
    if args.outfile is None or args.outfile == "-":
        sys.stdout.write(out)
    else:
        Path(args.outfile).write_text(out)
    return fail_code if failed else EXIT_OK


# str() renders ints up to 2,048 bits (617 digits) itself: below 640, the
# least digit limit Python accepts, and near where it stops being faster.
_STR_BITS = 2048


def _decimal_digits(value: int) -> str:
    """str(value) in subquadratic time and past any digit limit, as CPython
    3.12's ``_pylong.int_to_decimal_string`` does it: split the int in
    binary, rebuild it as an exact Decimal (whose multiply is subquadratic)
    and print that.  A 10**6-bit int takes about 0.1 s against 1.4 s by
    str() on Python 3.11."""
    power = functools.cache(lambda w: decimal.Decimal(2) ** w)

    def build(v, w):  # v as a Decimal, split at bit w // 2 until w <= 128
        if w <= 128:
            return decimal.Decimal(v)
        half = w >> 1
        hi = v >> half
        return build(v - (hi << half), half) + build(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(build(value, value.bit_length()))


def _print_report(pairs: list[tuple[str, object]], as_json: bool) -> None:
    """Print ``pairs`` as ``key=value`` lines or as one JSON object, the
    bytes of ``f"{key}={value}"`` and ``json.dumps(dict(pairs))``.  Counts
    can pass the 4,300 digits to which Python limits str() of an int by
    default, so an int (not a bool) of more than ``_STR_BITS`` bits is
    rendered by ``_decimal_digits``, which has no limit and is subquadratic."""

    def render(value, text):
        if type(value) is int and value.bit_length() > _STR_BITS:
            return _decimal_digits(value)
        return text(value)

    if as_json:
        fields = (f"{json.dumps(k)}: {render(v, json.dumps)}" for k, v in dict(pairs).items())
        text = "{" + ", ".join(fields) + "}"
    else:
        text = "\n".join(f"{key}={render(value, format)}" for key, value in pairs)
    print(text)


def _seed_to_int(seed: str) -> int:
    try:
        return int(seed)
    except ValueError:
        import zlib

        return zlib.crc32(seed.encode("utf-8"))


# ---------------------------------------------------------------- commands


def cmd_params(args) -> int:
    params = codec.derive_params(args.q, args.n, args.p)
    feasible = cardinality.min_window_feasible(args.q, args.n + 1, args.p)
    _print_report(
        [
            ("q", params.q),
            ("n", params.n),
            ("p", params.p),
            ("l", params.l),
            ("index_width", params.index_width),
            ("redundancy", 1),
            ("min_feasible_l", feasible),
            ("gap", params.l - feasible),
        ],
        args.json,
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    params = codec.derive_params(args.q, args.n, args.p)

    def convert(i: int, x: Word) -> tuple[str, bool]:
        y, trace = codec.encode(x, params)
        steps = trace.steps if args.trace else []
        lines = [
            f"# word={i} step={j} index={step.index} "
            f"period={step.least_period} kernel={step.kernel.to_text()}"
            for j, step in enumerate(steps, start=1)
        ]
        return "\n".join([*lines, y.to_text()]), True

    return _run_words(args, args.n, convert)


def cmd_decode(args) -> int:
    params = codec.derive_params(args.q, args.n, args.p)
    return _run_words(
        args,
        args.n + 1,
        lambda i, y: (codec.decode(y, params).to_text(), True),
        EXIT_CORRUPT,
    )


def cmd_check(args) -> int:
    if (args.l, args.p).count(None) != (0 if args.rll is None else 2):
        print("check: need either --l and --p, or --rll K", file=sys.stderr)
        return EXIT_USAGE
    if args.rll is not None:
        _check_run_length(args.rll)

    def verdict(i: int, w: Word) -> tuple[str, bool]:
        if args.rll is not None:
            index = _leftmost_run(w.symbols == 0, args.rll)
            return ("valid", True) if index < 0 else (f"invalid index={index}", False)
        v = first_violation(w, args.l, args.p)
        if v is None:
            return "valid", True
        return f"invalid index={v.index} period={v.least_period}", False

    return _run_words(args, None, verdict, EXIT_VIOLATION)


def cmd_count(args) -> int:
    family = Family(args.family)
    query = CountQuery(family, args.q, args.n, l=args.l, p=args.p, k=args.k)
    report = cardinality.build_report(
        query,
        include_exact=args.mode in ("brute", "both"),
        include_formula=args.mode in ("formula", "both"),
        budget=args.budget,
    )
    pairs: list[tuple[str, object]] = [
        ("family", family.value),
        ("q", args.q),
        ("n", args.n),
    ]
    if family is Family.RLL:
        pairs.append(("k", args.k))
    else:
        pairs.extend([("l", args.l), ("p", args.p)])
    pairs.extend(
        [
            ("exact", report.exact),
            ("formula", report.formula),
            ("lower_bound", report.lower_bound),
            ("upper_bound", report.upper_bound),
            ("provenance", report.provenance),
        ]
    )
    problems = report.violations()
    if args.mode == "both":
        pairs.append(("consistent", not problems))
    _print_report(pairs, args.json)
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    return EXIT_VIOLATION if problems else EXIT_OK


def cmd_stats(args) -> int:
    params = codec.derive_params(args.q, args.n, args.p)
    if args.exhaustive:
        cardinality._check_budget(args.q, args.n, args.budget)
        source = cardinality.all_words(args.q, args.n)
    elif args.infile is not None:
        source = read_words(args.infile, args.q, expected_len=args.n)
        if not source:
            print("stats: input file holds no words", file=sys.stderr)
            return EXIT_USAGE
    else:
        if args.samples < 1:
            print("stats: need at least one sample", file=sys.stderr)
            return EXIT_USAGE
        rng = np.random.default_rng(_seed_to_int(args.seed))
        source = (
            Word(rng.integers(0, args.q, size=args.n, dtype=np.int64), args.q)
            for _ in range(args.samples)
        )
    stats = codec.step_statistics(params, source)
    mean_bound = args.q - 1
    pairs = [
        ("q", args.q),
        ("n", args.n),
        ("p", args.p),
        ("l", params.l),
        ("words", stats.total_words),
        ("mean_steps", float(stats.mean_steps)),
        ("mean_steps_exact", str(stats.mean_steps)),
        ("max_steps", stats.max_steps),
        ("histogram", {str(k): v for k, v in stats.histogram.items()}),
        ("mean_bound", mean_bound),
    ]
    exceeded = args.exhaustive and stats.mean_steps > mean_bound
    pairs.append(("mean_bound_satisfied", not exceeded))
    _print_report(pairs, args.json)
    return EXIT_VIOLATION if exceeded else EXIT_OK


def cmd_segmented(args) -> int:
    extras: list[tuple[str, object]] = []
    if args.variant == "auto":
        selection = segmented.select_construction(args.q, args.n, args.l, args.p)
        sp = selection.params
        costs = {v.name: c.total_redundancy for v, c in selection.candidates.items()}
        extras = [("candidates", costs)]
    else:
        sp = segmented.plan(
            args.q, args.n, args.l, args.p, segmented.Variant(args.variant)
        )
    if args.action == "encode":
        return _run_words(
            args, sp.n, lambda i, x: (segmented.encode(x, sp).to_text(), True)
        )
    if args.action == "decode":
        return _run_words(
            args,
            sp.n + sp.total_redundancy,
            lambda i, y: (segmented.decode(y, sp).to_text(), True),
            EXIT_CORRUPT,
        )
    _print_report(
        [
            ("variant", sp.variant.name),
            ("q", sp.q),
            ("n", sp.n),
            ("l", sp.l),
            ("p", sp.p),
            ("k", sp.k),
            ("segment_lengths", list(sp.segment_lengths)),
            ("segment_window", sp.base[0].l),
            ("total_redundancy", sp.total_redundancy),
        ]
        + extras,
        args.json,
    )
    return EXIT_OK


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built on the first call and
    shared after it: building it takes milliseconds, parsing microseconds."""
    parser = argparse.ArgumentParser(
        prog="lpacodes",
        description="Window-periodicity-constrained codes: encode, decode, "
        "check, count, and plan segmented layouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qnp(p):
        p.add_argument("--q", type=int, required=True, help="alphabet size")
        p.add_argument("--n", type=int, required=True, help="message length")
        p.add_argument("--p", type=int, required=True, help="least-period target")

    p = sub.add_parser("params", help="derive code parameters")
    add_qnp(p)
    p.add_argument("--json", action="store_true", help="print JSON")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("encode", help="encode a word file")
    add_qnp(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument(
        "--trace", action="store_true", help="emit repair steps as comments"
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a word file")
    add_qnp(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("check", help="report the first offending window per word")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--rll", type=int, help="check zero runs of this length instead")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check, outfile=None)

    p = sub.add_parser("count", help="count a word family")
    p.add_argument("--family", choices=["A", "B", "R"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["brute", "formula", "both"], default="both")
    p.add_argument("--budget", type=int, default=cardinality.DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("stats", help="repair-step statistics")
    add_qnp(p)
    p.add_argument("--json", action="store_true", help="print JSON")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int, default=0)
    group.add_argument("--in", dest="infile", help="take inputs from a word file")
    p.add_argument("--seed", default="0", help="sampling seed (any string)")
    p.add_argument("--budget", type=int, default=cardinality.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_stats, infile=None)

    p = sub.add_parser("segmented", help="plan or run a segmented layout")
    p.set_defaults(func=cmd_segmented)
    actions = p.add_subparsers(dest="action", required=True)
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument(
        "--variant", choices=["half", "sep", "glue", "auto"], default="auto"
    )
    layout.add_argument("--q", type=int, required=True)
    layout.add_argument("--n", type=int, required=True)
    layout.add_argument("--l", type=int, required=True)
    layout.add_argument("--p", type=int, required=True)
    p = actions.add_parser("plan", parents=[layout], help="report the layout")
    p.add_argument("--json", action="store_true")
    for action in ("encode", "decode"):
        p = actions.add_parser(action, parents=[layout], help=f"{action} a word file")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
