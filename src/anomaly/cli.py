"""Command-line interface.

Subcommands:

* ``verify``   - assemble the catalog cases along both routes, fit the modular
  basis form, check every catalog identity and report divisibility moduli.
* ``expand``   - print the q-expansion of a named series or theta quotient.
* ``evaluate`` - pair the catalog index forms with characteristic numbers of a
  manifold supplied as JSON.
* ``moduli``   - print the divisibility moduli of the catalog corollaries.

Exit codes: 0 success, 1 a verification or divisibility check failed,
2 usage error, 3 no case matched the filters, 4 malformed input data.

Two entries: `main(argv)` parses and runs one command and returns its exit
code; it changes no interpreter state, so tests call it in-process.  `run()`
is the process entry, named by both the ``anomaly`` console script and
``python -m anomaly.cli``.  It turns the cyclic collector off for the run and
freezes the heap when `main` is done.  A run leaves few cycles, so the
collector's passes during it are wasted.  The collections at interpreter exit
skip frozen objects, and what they would have freed is left to the OS.
Output is still flushed, atexit handlers still run and the exit code is kept,
which `os._exit` would not give.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .algebra import pontryagin_table
from .bundles import tangent_complexification, theta_series
from .genera import ahat_form
from .qseries import modular_basis
from .theta import theta_quotient
from .verifier import (
    CASE_DIMS,
    CASES,
    CaseSpec,
    ManifoldData,
    ManifoldDataError,
    corollaries_for,
    corollary_modulus,
    evaluate_report,
    report_jsonable,
    run_cases,
)

_CASE_FLAGS = {case.replace("_", "-"): case for case in CASES}
_SERIES_WEIGHTS = {"E4": 4, "E6": 6, "E4^2": 8, "E4E6": 10}
_SERIES = (
    "E4", "E6", "E4^2", "E4E6",
    "theta1-ch", "theta2-ch", "theta3-ch",
    "A", "B1", "B2", "B3", "L",
    "Ahat",
)


def _usage_error(message: str) -> int:
    print(f"anomaly: error: {message}", file=sys.stderr)
    return 2


def _default_order() -> int:
    raw = os.environ.get("ANOMALY_QCAP")
    if raw is None:
        return 3
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(_usage_error(f"ANOMALY_QCAP must be an integer, got {raw!r}"))
    if value < 0:
        raise SystemExit(_usage_error("ANOMALY_QCAP must be nonnegative"))
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomaly",
        description="Verify modular anomaly-cancellation identities and their divisibility corollaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the dual-route verification over the case catalog")
    verify.add_argument("--case", choices=sorted(_CASE_FLAGS) + ["all"], default="all")
    verify.add_argument("--dim", type=int, default=None, help="restrict to one dimension")
    verify.add_argument("--order", type=int, default=None, help="q-expansion cap (default: ANOMALY_QCAP or 3)")
    verify.add_argument("--route", choices=("bundle", "theta", "both"), default="both")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    expand = sub.add_parser("expand", help="print the expansion of a named series")
    expand.add_argument("--series", choices=_SERIES, required=True)
    expand.add_argument("--order", type=int, default=None, help="q-expansion cap (default: ANOMALY_QCAP or 3)")
    expand.add_argument("--dim", type=int, default=8, help="manifold dimension for bundle-valued series")
    expand.add_argument("--tcap", type=int, default=6, help="t-power cap for the two-variable quotients")
    expand.add_argument("--format", choices=("text", "json"), default="text")

    evaluate = sub.add_parser("evaluate", help="evaluate index forms against manifold data")
    evaluate.add_argument("--input", required=True, help="path to a manifold JSON file, or - for stdin")
    evaluate.add_argument("--format", choices=("text", "json"), default="text")

    moduli = sub.add_parser("moduli", help="print the catalog divisibility moduli")
    moduli.add_argument("--case", choices=sorted(_CASE_FLAGS) + ["all"], default="all")
    moduli.add_argument("--dim", type=int, default=None)
    moduli.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _selected_cases(args) -> list[tuple[str, int]]:
    cases = CASES if args.case == "all" else [_CASE_FLAGS[args.case]]
    pairs = []
    for case in cases:
        for dim in CASE_DIMS[case]:
            if args.dim is None or args.dim == dim:
                pairs.append((case, dim))
    return pairs


def _cmd_verify(args) -> int:
    qcap = _default_order() if args.order is None else args.order
    if qcap < 0:
        return _usage_error("--order must be nonnegative")
    pairs = _selected_cases(args)
    if not pairs:
        print("anomaly: no catalog case matches the given filters", file=sys.stderr)
        return 3
    reports = run_cases([CaseSpec(case, dim, qcap, args.route) for case, dim in pairs])
    if args.format == "json":
        print(json.dumps(report_jsonable(reports), sort_keys=True, indent=2))
    else:
        for r in reports:
            print(f"case {r.case} dim {r.dim} (weight {r.weight}, qcap {r.qcap}, route {r.route})")
            print(f"  routes: {'ok' if r.route_ok else 'MISMATCH'} ({r.route_detail})")
            if r.route_ok:
                print(f"  fit: lambda = {r.lam}; residual = {r.fit_residual}: {'ok' if r.fit_ok else 'FAIL'}")
            for res in r.identities:
                print(f"  {res.ident}: {res.status}")
            for ident, target, modulus in r.moduli:
                print(f"  {ident}: {target} = 0 (mod {modulus})")
            for note in r.notes:
                print(f"  note: {note}")
        print(f"overall: {'pass' if all(r.passed for r in reports) else 'fail'}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_expand(args) -> int:
    order = _default_order() if args.order is None else args.order
    if order < 0:
        return _usage_error("--order must be nonnegative")
    name = args.series
    if name in _SERIES_WEIGHTS:
        text = modular_basis(_SERIES_WEIGHTS[name], order).render()
    elif name.endswith("-ch"):
        if args.dim % 4 or args.dim < 4:
            return _usage_error("--dim must be a positive multiple of 4 for bundle-valued series")
        table = pontryagin_table(args.dim)
        TX = tangent_complexification(table, args.dim)
        text = theta_series(name[:-3], TX, cap=order).render()
    elif name == "Ahat":
        if args.dim % 4 or args.dim < 4:
            return _usage_error("--dim must be a positive multiple of 4 for Ahat")
        text = ahat_form(pontryagin_table(args.dim), args.dim).render()
    else:
        if args.tcap < 0:
            return _usage_error("--tcap must be nonnegative")
        text = theta_quotient(name, args.tcap, order).render()
    if args.format == "json":
        print(json.dumps({"series": name, "order": order, "value": text}, sort_keys=True, indent=2))
    else:
        print(f"{name} = {text}")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except OSError as err:
        print(f"anomaly: cannot read input: {err}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as err:
        print(f"anomaly: cannot read input: not valid UTF-8: {err}", file=sys.stderr)
        return 4
    try:
        data = ManifoldData.from_json(raw)
        report = evaluate_report(data)
    except (json.JSONDecodeError, ManifoldDataError) as err:
        print(f"anomaly: bad manifold data: {err}", file=sys.stderr)
        return 4
    ok = all(row["balanced"] for row in report["identities"]) and all(row["ok"] for row in report["checks"])
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"manifold: dim {report['dim']}, case {report['case']}")
        for row in report["indices"]:
            print(f"  {row['label']} = {row['value']}")
        for row in report["identities"]:
            print(f"  {row['id']}: {'balanced' if row['balanced'] else 'NOT balanced'}")
        for row in report["checks"]:
            verdict = "ok" if row["ok"] else "FAIL"
            print(f"  {row['corollary']}: {row['target']} = {row['value']} = 0 (mod {row['modulus']}): {verdict}")
    return 0 if ok else 1


def _cmd_moduli(args) -> int:
    pairs = _selected_cases(args)
    if not pairs:
        print("anomaly: no catalog case matches the given filters", file=sys.stderr)
        return 3
    rows = []
    for case, dim in pairs:
        for cor in corollaries_for(case, dim):
            rows.append(
                {
                    "corollary": cor.ident,
                    "source": cor.source,
                    "target": cor.target,
                    "modulus": corollary_modulus(cor.ident),
                    "case": case,
                    "dim": dim,
                }
            )
    if args.format == "json":
        print(json.dumps({"moduli": rows}, sort_keys=True, indent=2))
    else:
        for row in rows:
            print(
                f"{row['corollary']}: {row['target']} = 0 (mod {row['modulus']}) "
                f"[{row['case']} dim {row['dim']}, from {row['source']}]"
            )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "expand":
        return _cmd_expand(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    return _cmd_moduli(args)


def run() -> int:
    """`main()` as a whole process: the collector off, then the heap frozen for exit."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
