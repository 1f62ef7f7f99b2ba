"""Command-line front end.

Subcommands: check, witness, constant, count, verify, factors.  Input is
a JSON document {"k": int, "conditions": [{"indices": [ints],
"gcd": int-or-decimal-string}]} with 1-based indices; a path of "-" reads
standard input.  Text output is line-oriented and stable, with floats
printed to 12 significant digits; --format json emits one JSON object.

Exit codes: 0 success, 1 inadmissible system, 2 parse or validation
error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import counting, density
from .admissibility import is_admissible, witness
from .errors import CutoffTooSmallError, InadmissibleError, ResourceLimitError
from .model import Condition, ConditionSet, find_cover
from .padic import local_view, relevant_primes


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _report(args, fields: dict) -> None:
    """Print `fields` as one JSON object, or as `name value` lines."""
    if args.format == "json":
        print(json.dumps(fields))
        return
    for name, value in fields.items():
        print(f"{name} {_fmt(value) if isinstance(value, float) else value}")


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i) for i in sorted(indices)) + "}"


def parse_document(text: str) -> ConditionSet:
    """Parse a condition-system document, anchoring errors to fields."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ValueError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValueError("top-level document must be a JSON object")
    for field in ("k", "conditions"):
        if field not in doc:
            raise ValueError(f"missing field: {field}")
    k = doc["k"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"field k: expected an integer, got {k!r}")
    raw = doc["conditions"]
    if not isinstance(raw, list):
        raise ValueError("field conditions: expected a list")
    conds = []
    for pos, entry in enumerate(raw):
        where = f"conditions[{pos}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object")
        for field in ("indices", "gcd"):
            if field not in entry:
                raise ValueError(f"{where}: missing field {field}")
        indices = entry["indices"]
        if not isinstance(indices, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in indices
        ):
            raise ValueError(f"{where}.indices: expected a list of integers")
        value = entry["gcd"]
        if isinstance(value, str):
            digits = value.strip()
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"{where}.gcd: expected digits, got {value!r}")
            try:
                value = int(digits)
            except ValueError as exc:  # integer digit limit
                raise ValueError(f"{where}.gcd: {exc}")
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where}.gcd: expected an integer or digit string, got {value!r}")
        try:
            conds.append(Condition(frozenset(indices), value))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}")
    try:
        return ConditionSet(k, tuple(conds))
    except ValueError as exc:
        raise ValueError(f"invalid condition system: {exc}")


def document_dict(cs: ConditionSet) -> dict:
    """The JSON form of a condition system; reparsing gives an equal system."""
    return {
        "k": cs.k,
        "conditions": [{"indices": sorted(c.indices), "gcd": c.value} for c in cs.conditions],
    }


def _load(path: str) -> ConditionSet:
    if path == "-":
        return parse_document(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def _parse_ints(raw: str | None, flag: str):
    if raw is None:
        return None
    try:
        return [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, got {raw!r}")


def _cmd_check(args) -> int:
    cs = _load(args.file)
    report = is_admissible(cs)
    if report:
        print("admissible")
        return 0
    p, t = report.violation
    print(f"inadmissible: p={p}, T={_fmt_indices(t)}")
    return 1


def _cmd_witness(args) -> int:
    cs = _load(args.file)
    print(" ".join(str(n) for n in witness(cs)))
    return 0


def _cmd_constant(args) -> int:
    cs = _load(args.file)
    result = density.constant(cs, prime_cutoff=args.prime_bound)
    fields = {
        "value": result.value,
        "lower": result.lower,
        "upper": result.upper,
        "prime_cutoff": result.prime_cutoff,
    }
    if args.format == "json":
        trace = [
            {"p": p, "factor": f"{f.numerator}/{f.denominator}", "value": float(f)}
            for p, f in result.factor_trace
        ]
        _report(args, {**fields, "factor_trace": trace if args.trace else None})
        return 0
    _report(args, fields)
    if args.trace:
        for p, f in result.factor_trace:
            print(f"factor {p} {f.numerator}/{f.denominator} {_fmt(float(f))}")
    return 0


def _cmd_count(args) -> int:
    cs = _load(args.file)
    n = counting.count(cs, args.limit)
    _report(args, {"x": args.limit, "count": n, "density": n / args.limit**cs.k})
    return 0


def _cmd_verify(args) -> int:
    cs = _load(args.file)
    result = density.constant(cs, prime_cutoff=args.prime_bound)
    report = counting.empirical_report(cs, args.limit, result)
    _report(
        args,
        {
            "x": report.x,
            "count": report.count,
            "density": report.density,
            "constant": report.constant,
            "gap": abs(report.density - report.constant),
            "normalized_error": report.normalized_error,
            "sharper_log_exponent": report.sharper_log_exponent,
            "sharper_normalized_error": report.sharper_normalized_error,
        },
    )
    return 0


def _view_json(view, factor: Fraction) -> dict:
    return {
        "p": view.p,
        "g": [{"indices": sorted(t), "order": e} for t, e in sorted(view.g.items(), key=lambda kv: sorted(kv[0]))],
        "v": [view.v[i] for i in range(1, max(view.v) + 1)],
        "z_set": sorted(view.z_set),
        "s_p": sorted(view.s_p),
        "reduced": [sorted(c.indices) for c in view.reduced.conditions],
        "i_set": sorted(view.i_set),
        "w_p": sorted(view.w_p),
        "local_factor": {
            "fraction": f"{factor.numerator}/{factor.denominator}",
            "value": float(factor),
        },
    }


def _cmd_factors(args) -> int:
    cs = _load(args.file)
    witness(cs)  # raises InadmissibleError
    primes = _parse_ints(args.primes, "--primes")
    if primes is None:
        primes = list(relevant_primes(cs))
    if not primes:
        raise ValueError("no primes requested and no prime divides any condition target")
    w = find_cover(cs)
    views = [local_view(cs, p, w) for p in primes]
    factors = [density.local_factor(v) for v in views]
    if args.format == "json":
        print(json.dumps([_view_json(v, f) for v, f in zip(views, factors)]))
        return 0
    for view, factor in zip(views, factors):
        print(f"p {view.p}")
        for t, e in sorted(view.g.items(), key=lambda kv: sorted(kv[0])):
            print(f"g {_fmt_indices(t)} {e}")
        for i in sorted(view.v):
            print(f"v {i} {view.v[i]}")
        print(f"z_set {_fmt_indices(view.z_set)}")
        print(f"s_p {_fmt_indices(view.s_p)}")
        print(f"reduced {' '.join(_fmt_indices(c.indices) for c in view.reduced.conditions)}")
        print(f"i_set {_fmt_indices(view.i_set)}")
        print(f"w_p {_fmt_indices(view.w_p)}")
        print(f"local_factor {factor.numerator}/{factor.denominator} {_fmt(float(factor))}")
    return 0


def _add_common(sub, fmt=True):
    sub.add_argument("file", help="condition-system JSON document ('-' for stdin)")
    if fmt:
        sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdcensus",
        description="Decide, witness, count, and measure systems of exact-gcd conditions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="decide whether the system has any solution")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("witness", help="print the canonical solution tuple")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("constant", help="evaluate the density constant")
    _add_common(p)
    p.add_argument("--prime-bound", type=int, default=density.DEFAULT_PRIME_CUTOFF)
    p.add_argument("--trace", action="store_true", help="list per-prime factors")
    p.set_defaults(func=_cmd_constant)

    p = subs.add_parser("count", help="count satisfying tuples up to a bound")
    _add_common(p)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = subs.add_parser("verify", help="compare the exact count against the constant")
    _add_common(p)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--prime-bound", type=int, default=density.DEFAULT_PRIME_CUTOFF)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("factors", help="print the per-prime views")
    _add_common(p)
    p.add_argument("--primes", default=None, help="comma-separated primes (default: target primes)")
    p.set_defaults(func=_cmd_factors)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, CutoffTooSmallError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
