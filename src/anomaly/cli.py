"""Command-line interface.

Subcommands:

* ``verify``   - assemble the catalog cases along both routes, compare them,
  fit the echelon modular basis, check every catalog identity and report
  divisibility moduli; ``--dim`` past the catalog runs the routes and the
  fit of each case that admits it.
* ``expand``   - print the q-expansion of a named series or theta quotient.
* ``evaluate`` - pair the catalog index forms with characteristic numbers of a
  manifold supplied as JSON.
* ``moduli``   - print the divisibility moduli of the catalog corollaries.

Exit codes: 0 success, 1 a verification or divisibility check failed,
2 usage error, 3 no case matched the filters, 4 malformed input data,
5 the manifold's numbers break the case condition, 141 the output pipe was
closed before the output was written.

Parsing is table-driven: `_COMMANDS` gives each command's options with their
converters, choices, defaults and help, `parse_args` reads the arguments
against it in one pass, and the help and usage lines are rendered from it.
Every CLI run is a fresh process, mostly start-up for `evaluate`, and the
standard library's generic option parser would add a few milliseconds to
each: its import (with the gettext message catalogs it loads) and building
its parsers.  An option is ``--opt value`` or ``--opt=value``, a unique
prefix names it, the last repeat wins, and ``-h`` prints help before or
after the command.  A command reads its arguments and its input alone, no
environment variable, so its output is a function of them.

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

import gc
import json
import os
import re
import sys
import types

from .algebra import pontryagin_table
from .bundles import tangent_complexification, theta_series
from .genera import ahat_form
from .qseries import modular_basis
from .theta import quotient_series, render_quotient
from .verifier import (
    CASE_DIMS,
    CASES,
    CaseConditionError,
    CaseSpec,
    ManifoldData,
    ManifoldDataError,
    case_admits,
    check_case_condition,
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


_FORMATS = ("text", "json")
_CASE_CHOICES = (*sorted(_CASE_FLAGS), "all")
_ORDER_HELP = "q-expansion cap (default: 3)"
_REQUIRED = object()  # the default of an option that must be given
_DESCRIPTION = "Verify modular anomaly-cancellation identities and their divisibility corollaries."

# The option table.  Each command has its help line and its options; each
# option is (flag, converter, choices or None, default or _REQUIRED, help).
# The flag without its dashes names the attribute that the handler reads.
_COMMANDS = {
    "verify": (
        "run the dual-route verification over the case catalog",
        (
            ("--case", str, _CASE_CHOICES, "all", ""),
            ("--dim", int, None, None, "restrict to one dimension; past the catalog, only the routes and the fit run"),
            ("--order", int, None, 3, _ORDER_HELP),
            ("--format", str, _FORMATS, "text", ""),
        ),
    ),
    "expand": (
        "print the expansion of a named series",
        (
            ("--series", str, _SERIES, _REQUIRED, ""),
            ("--order", int, None, 3, _ORDER_HELP),
            ("--dim", int, None, 8, "manifold dimension for bundle-valued series"),
            ("--tcap", int, None, 6, "t-power cap for the two-variable quotients"),
            ("--format", str, _FORMATS, "text", ""),
        ),
    ),
    "evaluate": (
        "evaluate index forms against manifold data",
        (
            ("--input", str, None, _REQUIRED, "path to a manifold JSON file, or - for stdin"),
            ("--format", str, _FORMATS, "text", ""),
        ),
    ),
    "moduli": (
        "print the catalog divisibility moduli",
        (
            ("--case", str, _CASE_CHOICES, "all", ""),
            ("--dim", int, None, None, ""),
            ("--format", str, _FORMATS, "text", ""),
        ),
    ),
}


def _metavar(flag: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else flag[2:].upper()


def _usage(command) -> str:
    """The usage line of the top level (command None) or of one command."""
    if command is None:
        return "usage: anomaly [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [f"usage: anomaly {command} [-h]"]
    for flag, _, choices, default, _ in _COMMANDS[command][1]:
        word = f"{flag} {_metavar(flag, choices)}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command) -> str:
    """The help text of the top level (command None) or of one command."""
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        about = [_DESCRIPTION, "", "commands:", *(f"  {name:<10}{text}" for name, (text, _) in _COMMANDS.items())]
    else:
        text, options = _COMMANDS[command]
        about = [text]
        rows += [(f"{flag} {_metavar(flag, choices)}", help_text) for flag, _, choices, _, help_text in options]
    lines = [_usage(command), "", *about, "", "options:"]
    for left, right in rows:
        if len(left) < 22:
            lines.append(f"  {left:<22}{right}".rstrip())
        else:
            lines += [f"  {left}", f"{'':24}{right}"] if right else [f"  {left}"]
    return "\n".join(lines)


def _fail(command, message: str):
    """Report a usage error under the usage line of `command` (None for the top level)."""
    print(_usage(command), file=sys.stderr)
    raise SystemExit(_usage_error(message))


# A token of this form is a value, not an option: `--order -1` reads -1.
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _option(token: str, command, flags) -> tuple | None:
    """What `token` is where `flags` are the long options: None for a value
    (and for "--", which the caller reads), else (flag, its inline value or
    None), with flag None for an unknown option.  A long option may be named
    by a unique prefix, its value inline after "="; the one short option is
    -h."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "h":
        return "--help", token[2:] or None
    name, eq, inline = token.partition("=")
    if name in flags:
        return name, inline if eq else None
    matches = [flag for flag in flags if flag.startswith(name)] if name.startswith("--") else []
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], inline if eq else None
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _converted(command, option: tuple, raw: str):
    """The value of `option` read from `raw`: converted, and one of its choices."""
    flag, convert, choices, _, _ = option
    try:
        value = convert(raw)
    except ValueError:
        _fail(command, f"argument {flag}: invalid {convert.__name__} value: {raw!r}")
    if choices is not None and value not in choices:
        _fail(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def parse_args(argv=None) -> types.SimpleNamespace:
    """The command and its option values, from `argv` (default: the process's
    arguments) read once, left to right, against the option table.

    The first value is the command; each option takes the next token as its
    value, and the last repeat wins.  After "--" every token is a value.
    Help goes to stdout and raises SystemExit(0) when it is reached; a bad
    value or choice, a missing value or an ambiguous prefix raises
    SystemExit(2) when it is reached; a missing required option, an unknown
    option or a value that no option takes raises SystemExit(2) at the end.
    """
    tokens = iter(sys.argv[1:] if argv is None else argv)
    command, options, values, extras = None, {}, {}, []
    flags = ("--help",)
    for token in tokens:
        option = _option(token, command, flags)
        if option is None and command is None:
            if token not in _COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} (choose from {', '.join(map(repr, _COMMANDS))})")
            command = token
            options = {spec[0]: spec for spec in _COMMANDS[command][1]}
            values = {flag[2:]: spec[3] for flag, spec in options.items() if spec[3] is not _REQUIRED}
            flags = ("--help", *options)
            continue
        if option is None or option[0] is None:
            extras.append(token)
            if token == "--":
                extras.extend(tokens)  # every later token is a value too; this drains the loop
            continue
        flag, raw = option
        if flag == "--help":
            if raw is not None:
                _fail(command, f"argument -h/--help: ignored explicit argument {raw!r}")
            print(_help(command))
            raise SystemExit(0)
        if raw is None:
            raw = next(tokens, None)
            if raw is None or raw == "--" or _option(raw, command, flags) is not None:
                _fail(command, f"argument {flag}: expected one argument")
        values[flag[2:]] = _converted(command, options[flag], raw)
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [flag for flag in options if flag[2:] not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return types.SimpleNamespace(command=command, **values)


def _selected_cases(args) -> list[tuple[str, int]]:
    """The (case, dim) pairs of the filters: each case at its catalog
    dimensions, or at --dim where the case admits it (`case_admits`)."""
    cases = CASES if args.case == "all" else [_CASE_FLAGS[args.case]]
    if args.dim is None:
        return [(case, dim) for case in cases for dim in CASE_DIMS[case]]
    return [(case, args.dim) for case in cases if case_admits(case, args.dim)]


def _cmd_verify(args) -> int:
    if args.order < 0:
        return _usage_error("--order must be nonnegative")
    pairs = _selected_cases(args)
    if not pairs:  # only --dim empties it: every case has catalog dimensions
        print(f"anomaly: no selected case admits dimension {args.dim}", file=sys.stderr)
        return 3
    reports = run_cases([CaseSpec(case, dim, args.order) for case, dim in pairs])
    if args.format == "json":
        print(json.dumps(report_jsonable(reports), sort_keys=True, indent=2))
    else:
        for r in reports:
            print(f"case {r.case} dim {r.dim} (weight {r.weight}, qcap {r.qcap}, route both)")
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
    if args.order < 0:
        return _usage_error("--order must be nonnegative")
    name = args.series
    if name in _SERIES_WEIGHTS:
        (form,) = modular_basis(_SERIES_WEIGHTS[name], args.order)
        text = form.render()
    elif name.endswith("-ch"):
        if args.dim % 4 or args.dim < 4:
            return _usage_error("--dim must be a positive multiple of 4 for bundle-valued series")
        table = pontryagin_table(args.dim)
        TX = tangent_complexification(table, args.dim)
        text = theta_series(name[:-3], TX, cap=args.order).render()
    elif name == "Ahat":
        if args.dim % 4 or args.dim < 4:
            return _usage_error("--dim must be a positive multiple of 4 for Ahat")
        text = ahat_form(pontryagin_table(args.dim), args.dim).render()
    else:
        if args.tcap < 0:
            return _usage_error("--tcap must be nonnegative")
        text = render_quotient(quotient_series(name, args.tcap, args.order))
    if args.format == "json":
        print(json.dumps({"series": name, "order": args.order, "value": text}, sort_keys=True, indent=2))
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
        check_case_condition(data)
        report = evaluate_report(data)
    except (json.JSONDecodeError, ManifoldDataError) as err:
        print(f"anomaly: bad manifold data: {err}", file=sys.stderr)
        return 4
    except CaseConditionError as err:
        print(f"anomaly: {err}", file=sys.stderr)
        return 5
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
    rows = []
    for case, dim in _selected_cases(args):
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
    if not rows:
        print("anomaly: no catalog case matches the given filters", file=sys.stderr)
        return 3
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
    args = parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "expand":
        return _cmd_expand(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    return _cmd_moduli(args)


def run() -> int:
    """`main()` as a whole process: the collector off, then the heap frozen for
    exit.  Output to a closed pipe exits 141 (128 + SIGPIPE), quietly."""
    gc.disable()
    try:
        try:
            return main()
        finally:
            gc.freeze()
            sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's exit flush
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush stays quiet
        return 141


if __name__ == "__main__":
    sys.exit(run())
