"""Command-line pipeline: certificates, tables, CSV/JSON artifacts.

Exit codes: 0 all asserted checks pass, 1 a check failed, 2 input error,
3 numeric failure.  Report-only items never fail a run.  Inputs are
checked before any work, the estimated size of an exact table included
(MAX_TABLE_BYTES); a is not bounded otherwise, and a certificate value
that its float field cannot hold is a numeric failure.

Commands raise _InputError for input they refuse and let other failures
propagate; main alone maps them to exit codes: _InputError 2 with its kind,
OSError 2 (kind io: an unreadable --in, an unwritable --out), MemoryError 3
(out-of-memory), ArithmeticError 3 with the subparser's numeric kind.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from mpmath import mp

from . import __version__
from .certificates import (
    RATE_CSV_COLUMNS,
    provenance,
    rate_report_json,
    rate_report_rows,
    saddle_json,
    write_csv,
    write_csv_rows,
    write_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3

# Largest estimated exact table (linear_forms.table_bytes) that forms and
# rates build.  Completed forms runs peaked at 1.0-1.9 times the estimate
# above a 22 MB base (1.05 at (7,1,960): 97 MiB estimated), so a table at
# the bound fits a 3 GB address space; (50001,1,1), estimated at 14 GiB,
# ran out of 3 GB there after 7.5 s.
MAX_TABLE_BYTES = 1 << 30


def _emit(doc: dict, out: str | None, csv_payload=None) -> None:
    """doc as JSON, or csv_payload (header, rows) as CSV where given, to
    the file out or else to stdout."""
    if csv_payload is not None:
        if out:
            write_csv(out, *csv_payload)
        else:
            write_csv_rows(sys.stdout, *csv_payload)
    elif out:
        write_json(out, doc)
    else:
        print(json.dumps(doc, indent=2))


def _error_block(code: int, kind: str, message: str, extra: dict | None = None) -> int:
    print(json.dumps({"error": {"kind": kind, "message": message, **(extra or {})}}, indent=2),
          file=sys.stderr)
    return code


class _InputError(Exception):
    """Input that no computation can accept: exit 2, its kind and extra fields."""

    def __init__(self, kind: str, message: str, **extra):
        super().__init__(message)
        self.kind = kind
        self.extra = extra


def _checked_r(a: int, r: int) -> int:
    """r, or r_of_a(a) for r = 0, for odd a >= 3 (of any size) with 6r <= a."""
    from .saddle import r_of_a

    if a % 2 == 0 or a < 3:
        raise _InputError("invalid-a", f"a must be odd and >= 3, got {a}")
    if r < 0:
        raise _InputError("invalid-r", f"r must be >= 1 (0 takes r(a)), got {r}")
    if r == 0:
        r = r_of_a(a)
        if 6 * r > a:
            raise _InputError(
                "no-admissible-r",
                f"a={a} admits no r with 6r <= a; the oscillation law needs odd a >= 7 "
                "and is an asymptotic statement (outside its regime here)")
    elif 6 * r > a:
        raise _InputError("invalid-r", f"need 6r <= a, got a={a}, r={r}")
    return r


def _checked_table(a: int, r: int, n: int) -> None:
    """Refuse (a, r, n) whose exact table is estimated past MAX_TABLE_BYTES."""
    from .linear_forms import table_bytes

    size = table_bytes(a, r, n)
    if size > MAX_TABLE_BYTES:
        raise _InputError("table-too-large",
                          f"the exact table at (a, r, n) = ({a}, {r}, {n}) would hold about "
                          f"2^{size.bit_length()} bytes, past the bound of "
                          f"2^{MAX_TABLE_BYTES.bit_length() - 1}")


def cmd_forms(args) -> int:
    from .highprec import PrecisionContext, form_residual
    from .linear_forms import (FormSpec, denominator_check, smallest_clearing_exponent,
                               form_to_json, table_for, zeta_form_derived, zeta_form_plain)

    try:
        spec = FormSpec(a=args.a, r=args.r, n=args.n)
    except ValueError as exc:
        raise _InputError("invalid-spec", str(exc)) from exc
    _checked_table(spec.a, spec.r, spec.n)
    ctx = None
    if args.residual_digits:
        try:
            ctx = PrecisionContext(digits=args.residual_digits, guard=20)
        except ValueError as exc:
            raise _InputError("invalid-digits", str(exc)) from exc
    table = table_for(spec)
    try:
        plain = zeta_form_plain(table)
        derived = zeta_form_derived(table)
    except ArithmeticError as exc:
        return _error_block(EXIT_CHECK_FAILED, "structure", str(exc))
    checks = []
    payload_forms = []
    for form in (plain, derived):
        rep = denominator_check(form)
        doc = form_to_json(form)
        doc["denominator_check"] = {
            "d2n": str(rep.d2n),
            "exponent": rep.exponent,
            "pass": rep.passed,
            "smallest_clearing_exponent": smallest_clearing_exponent(form),
        }
        payload_forms.append(doc)
        checks.append(rep.passed)
    residual_digits = None
    if ctx is not None:
        res_p = form_residual(plain, ctx)
        res_d = form_residual(derived, ctx)
        bound = mp.mpf(10) ** (-args.residual_digits // 2)
        checks.append(res_p < bound and res_d < bound)
        residual_digits = {
            "digits": args.residual_digits,
            "plain": mp.nstr(res_p, 6),
            "double_derived": mp.nstr(res_d, 6),
            "pass_threshold": mp.nstr(bound, 3),
        }
    doc = {
        "schema": "zetaforms/forms-certificate@1",
        "provenance": provenance("forms", {"a": args.a, "r": args.r, "n": args.n}),
        "forms": payload_forms,
        "residuals": residual_digits,
        "pass": all(checks),
    }
    _emit(doc, args.out)
    return EXIT_OK if all(checks) else EXIT_CHECK_FAILED


def cmd_asymptotics(args) -> int:
    from .saddle import check_assumptions, compute_constants

    r = _checked_r(args.a, args.r)
    if args.dps < 0:
        raise _InputError("invalid-digits",
                          f"dps must be >= 0 (0 takes the default), got {args.dps}")
    data = compute_constants(args.a, r, args.dps or None)
    assumptions = check_assumptions(args.a, r, data)
    doc = saddle_json(data, assumptions)
    doc["provenance"] = provenance("asymptotics", {"a": args.a, "r": r}, data.dps)
    asserted = bool(data.log_eps_gap > 0 and data.log_eps_a < 0)
    doc["pass"] = asserted
    _emit(doc, args.out)
    return EXIT_OK if asserted else EXIT_CHECK_FAILED


def cmd_rank_bound(args) -> int:
    from .criterion import zeta_rank_bound

    if args.a % 2 == 0 or args.a < 7:
        raise _InputError("invalid-a", "a must be odd and >= 7")
    cert = zeta_rank_bound(args.a)
    doc = {
        "schema": "zetaforms/rank-bound-certificate@1",
        "provenance": provenance("rank-bound", {"a": args.a}),
        **cert,
        "pass": mp.mpf(cert["tau_gap"]) > 0 and cert["tau1"] > 0,
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["pass"] else EXIT_CHECK_FAILED


def _parse_range(text: str) -> range:
    """LO..HI as the range of n from LO to HI, with 1 <= LO <= HI."""
    lo, _, hi = text.partition("..")
    try:
        nrange = range(int(lo), int(hi) + 1)
    except ValueError:
        raise _InputError("invalid-range", f"cannot parse n-range {text!r}; expected LO..HI")
    if not nrange or nrange[0] < 1:
        raise _InputError("invalid-range", f"n-range {text!r} must satisfy 1 <= LO <= HI")
    return nrange


def cmd_rates(args) -> int:
    from .highprec import measure_rates
    from .saddle import compute_constants

    r = _checked_r(args.a, args.r)
    nrange = _parse_range(args.n_range)
    _checked_table(args.a, r, nrange[-1])
    report = measure_rates(args.a, r, list(nrange), compute_constants(args.a, r))
    doc = rate_report_json(report)
    doc["provenance"] = provenance("rates", {"a": args.a, "r": r, "n_range": args.n_range})
    csv_payload = None
    if args.format == "csv" or (args.out or "").endswith(".csv"):
        csv_payload = (RATE_CSV_COLUMNS, rate_report_rows(report))
    _emit(doc, args.out, csv_payload)
    return EXIT_OK


def cmd_criterion(args) -> int:
    try:
        doc = json.loads(Path(args.infile).read_text())
    except json.JSONDecodeError as exc:
        raise _InputError("malformed-json", exc.msg, line=exc.lineno, column=exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise _InputError("malformed-json", str(exc)) from exc
    readers = {"rational_rank": _criterion_rank, "type2": _criterion_type2,
               "projective_distance": _criterion_projective_distance,
               "oscillation": _criterion_oscillation}
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in readers:
        raise _InputError("unknown-kind", f"instance kind {kind!r} not supported")
    try:
        report = readers[kind](doc)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise _InputError("malformed-instance", repr(exc)) from exc
    report["provenance"] = provenance("criterion", {"in": str(args.infile)})
    _emit(report, args.out)
    return EXIT_OK if report.get("pass", True) else EXIT_CHECK_FAILED


def _criterion_rank(doc: dict) -> dict:
    from fractions import Fraction

    from .symbolic import SymbolField, rational_rank

    fld = SymbolField(symbols=tuple(doc["symbols"]),
                      values=doc.get("symbol_values", {}))
    cols = []
    for col in doc["columns"]:
        vec = []
        for ent in col:
            vec.append({s: Fraction(int(v["num"]), int(v["den"])) for s, v in ent.items()})
        cols.append(vec)
    res = rational_rank(cols, fld)
    expected = doc.get("expected_rank")
    out = {
        "schema": "zetaforms/criterion-report@1",
        "kind": "rational_rank",
        "rank": res.rank,
        "rank_via_pivots": res.rank_via_pivots,
        "rank_via_kernel": res.rank_via_kernel,
        "routes_agree": res.routes_agree,
        "pass": res.routes_agree and (expected is None or res.rank == expected),
    }
    if expected is not None:
        out["expected_rank"] = expected
    return out


def _criterion_type2(doc: dict) -> dict:
    from .diophantine import type2_box_check

    report = type2_box_check(
        xis=list(doc["xi"]),                # decimal strings keep precision
        forms=doc["forms"],
        qseq=doc["Q_sequence"],
        taus=doc["tau"],
        eps=float(doc["eps"]),
        Q=int(doc["Q"]),
    )
    return {
        "schema": "zetaforms/criterion-report@1",
        "kind": "type2",
        "hypothesis_ok": report.hypothesis_ok,
        "decay_slopes": list(report.decay_slopes),
        "boxes_checked": report.boxes_checked,
        "violations": [list(v[0]) for v in report.violations],
        "pass": report.passed,
    }


def _criterion_projective_distance(doc: dict) -> dict:
    from .diophantine import projective_distance_sweep

    # without a norm_threshold key the library's default burn-in applies
    optional = {"norm_threshold": float(doc["norm_threshold"])} if "norm_threshold" in doc else {}
    report = projective_distance_sweep(
        xi=doc["xi"],                       # a decimal string is the exact rational it states
        tau=float(doc["tau"]),
        eps=float(doc["eps"]),
        p_max=int(doc["p_max"]),
        **optional,
    )
    return {
        "schema": "zetaforms/criterion-report@1",
        "kind": "projective_distance",
        "checked": report.checked,
        "violations": [list(v) for v in report.violations],
        "best_exponent": report.best_exponent,
        "pass": report.passed,
    }


def _criterion_oscillation(doc: dict) -> dict:
    from .criterion import oscillation_subsequence

    rep = oscillation_subsequence(
        omegas=[float(x) for x in doc["omega"]],
        varphis=[float(x) for x in doc["varphi"]],
        eps=float(doc["eps"]),
        horizon=int(doc["horizon"]),
    )
    return {
        "schema": "zetaforms/criterion-report@1",
        "kind": "oscillation",
        "accepted_fraction": rep.accepted_fraction,
        "lambda_estimate": rep.lambda_estimate,
        "count": rep.count,
        "pass": True,
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zetaforms",
                                 description="Exact zeta linear forms, saddle asymptotics, "
                                             "and criterion checkers")
    ap.add_argument("--version", action="version", version=f"zetaforms {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forms", help="exact linear-form certificates")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--residual-digits", type=int, default=0,
                   help="also check the numeric residual at this precision")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forms, numeric="residual")

    p = sub.add_parser("asymptotics", help="saddle constants and assumption report")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--dps", type=int, default=0,
                   help="working decimal precision (default scales with a)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asymptotics, numeric="root-finding")

    p = sub.add_parser("rank-bound", help="rank lower-bound certificate")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank_bound, numeric="rank-bound")

    p = sub.add_parser("rates", help="empirical decay rates against the constants")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--n-range", required=True, help="e.g. 20..40")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_rates, numeric="rates")

    p = sub.add_parser("criterion", help="run a checker on an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_criterion, numeric="criterion")
    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact coefficients are written past the 4300-digit default cap
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        failure = EXIT_INPUT_ERROR, exc.kind, str(exc), exc.extra
    except OSError as exc:
        failure = EXIT_INPUT_ERROR, "io", str(exc)
    except MemoryError:
        failure = EXIT_NUMERIC_ERROR, "out-of-memory", f"{args.command} ran out of memory"
    except ArithmeticError as exc:
        failure = EXIT_NUMERIC_ERROR, args.numeric, str(exc)
    # reported once the except clause has let go of the failed run's frames
    return _error_block(*failure)


if __name__ == "__main__":
    raise SystemExit(main())
