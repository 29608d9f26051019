"""Workload definitions: the invocations of one round and their reference checks.

A round is the unit the benchmark repeats: one ``verify`` invocation, one
``spin_wide.py`` invocation, or one ``evaluate`` invocation per manifold.
Every invocation carries the check that decides whether its output is right.
The checks never import ``anomaly``; they read only the program's output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# sha256 of the stdout of each fixed invocation, recorded from the seed engine.
DIGESTS = {
    "verify-q3": "b853379feb2a294652f16489cd102590df4569cfa06a99218a67b8c13d03dd34",
    "verify-q7": "5c915fc7ea07d935926bc6257f73c00e76e41647737a935680b3fd8439fb60d8",
    "spin-wide": "650a9e5fd3d0f2cbaeeee74299b4defc0f6adf2939c786b4b81e7767a8280ca5",
}

# The paper's divisibility moduli, by corollary (spin: 8/16, 4/8, 16/32, 4/8;
# line case: 240/2160, 504/16632, 480, 264).
PAPER_MODULI = {
    "Cor1.2-a": 8, "Cor1.2-b": 16,
    "Cor1.4-a": 4, "Cor1.4-b": 8,
    "Cor1.6-a": 16, "Cor1.6-b": 32,
    "Cor1.8-a": 4, "Cor1.8-b": 8,
    "Cor1.22-a": 240, "Cor1.22-b": 2160,
    "Cor1.24-a": 504, "Cor1.24-b": 16632,
    "Cor1.26-a": 480,
    "Cor1.28-a": 264,
}
MODULI_BY_DIM = {
    8: ("Cor1.2-a", "Cor1.2-b"),
    12: ("Cor1.4-a", "Cor1.4-b"),
    16: ("Cor1.6-a", "Cor1.6-b"),
    20: ("Cor1.8-a", "Cor1.8-b"),
    10: ("Cor1.22-a", "Cor1.22-b"),
    14: ("Cor1.24-a", "Cor1.24-b"),
    18: ("Cor1.26-a",),
    22: ("Cor1.28-a",),
}
SPIN_DIMS = (8, 12, 16, 20)
SPINC_DIMS = (10, 14, 18, 22)

# The quaternionic plane: pX1^2 = 4, pX2 = 7.
HP2 = {"dim": 8, "numbers": {"pX1^2": "4", "pX2": "7"}}
HP2_INDICES = {"Â-genus": "0", "ind(D⊗Δ)": "1"}
HP2_VALUES = {"Cor1.2-a": "-8", "Cor1.2-b": "112"}


@dataclass(frozen=True)
class Invocation:
    """One process: the command after the interpreter, its stdin, its check.

    ``check(returncode, stdout)`` returns the problems found; none means the
    invocation succeeded.
    """

    label: str
    args: tuple[str, ...]
    check: Callable[[int, str], list[str]]
    stdin: bytes = b""


@dataclass(frozen=True)
class Workload:
    entry_module: str  # imported by the set-up probe
    make_round: Callable[[int], list[Invocation]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(expected: str) -> Callable[[int, str], list[str]]:
    def check(returncode: int, stdout: str) -> list[str]:
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}, expected 0")
        if digest(stdout) != expected:
            problems.append("stdout digest differs from the reference")
        return problems

    return check


def check_verify(expected: str) -> Callable[[int, str], list[str]]:
    by_digest = check_digest(expected)

    def check(returncode: int, stdout: str) -> list[str]:
        problems = by_digest(returncode, stdout)
        try:
            passed = json.loads(stdout).get("passed")
        except (ValueError, AttributeError):
            return problems + ["stdout is not a JSON report"]
        if passed is not True:
            problems.append('report does not say "passed": true')
        return problems

    return check


# -- evaluate: seeded characteristic numbers ------------------------------------


def top_monomials(dim: int, line: bool) -> list[tuple[int, ...]]:
    """Exponents (pX1..pXk[, cL]) of every monomial of degree ``dim``.

    The generator order is the engine's: pX1..pX_{dim//4}, then cL.
    """
    degrees = [4 * i for i in range(1, dim // 4 + 1)] + ([2] if line else [])
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], rest: int):
        i = len(prefix)
        if i == len(degrees):
            if rest == 0:
                out.append(tuple(prefix))
            return
        for e in range(rest // degrees[i] + 1):
            extend(prefix + [e], rest - e * degrees[i])

    extend([], dim)
    return out


def monomial_key(expts: tuple[int, ...], line: bool) -> str:
    names = [f"pX{i}" for i in range(1, len(expts) + 1 - line)] + (["cL"] if line else [])
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, expts) if e)


def manifold_numbers(dim: int, rng: random.Random) -> dict[str, str]:
    """Random integral characteristic numbers for every top-degree monomial.

    In the spin-c dimensions pX1 is folded into cL^2: a monomial with pX1^b
    takes the value of the one with pX1 removed and cL^(a+2b), so the data
    satisfy pX1 = cL^2 and the identity balances are checks that can fail.
    """
    line = dim % 4 == 2
    monomials = top_monomials(dim, line)
    free = {m: rng.randint(-1000, 1000) for m in monomials if not (line and m[0])}
    numbers = {}
    for m in monomials:
        if line and m[0]:
            folded = (0,) + m[1:-1] + (m[-1] + 2 * m[0],)
            numbers[monomial_key(m, line)] = str(free[folded])
        else:
            numbers[monomial_key(m, line)] = str(free[m])
    return numbers


def evaluate_inputs(seed: int) -> list[dict]:
    """The manifolds of one evaluate round: one per catalog dimension, then HP²."""
    rng = random.Random(seed)
    return [{"dim": d, "numbers": manifold_numbers(d, rng)} for d in SPIN_DIMS + SPINC_DIMS] + [HP2]


def check_evaluate(manifold: dict) -> Callable[[int, str], list[str]]:
    dim = manifold["dim"]
    is_hp2 = manifold == HP2

    def check(returncode: int, stdout: str) -> list[str]:
        try:
            report = json.loads(stdout)
            identities, checks = report["identities"], report["checks"]
        except (ValueError, KeyError, TypeError):
            return [f"exit code {returncode}; stdout is not an evaluate report"]
        problems = []
        if report.get("dim") != dim or report.get("case") != ("spin" if dim % 4 == 0 else "spinc_l"):
            problems.append("report names the wrong dimension or case")
        balanced = bool(identities) and all(row.get("balanced") is True for row in identities)
        if not balanced:
            problems.append("an identity is not balanced")
        if [row.get("corollary") for row in checks] != list(MODULI_BY_DIM[dim]):
            problems.append("report lists the wrong corollaries")
        all_ok = True
        for row in checks:
            cor = row.get("corollary")
            if row.get("modulus") != PAPER_MODULI.get(cor):
                problems.append(f"{cor}: modulus {row.get('modulus')} is not the paper's")
            try:
                value = Fraction(row["value"])
                ok = value.denominator == 1 and value.numerator % row["modulus"] == 0
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                problems.append(f"{cor}: malformed value or modulus")
                continue
            if row.get("ok") is not ok:
                problems.append(f"{cor}: ok={row.get('ok')} but {value} mod {row['modulus']} says {ok}")
            all_ok = all_ok and ok
        # A manifold that fails a divisibility check exits 1: expected, not a failure.
        expected_code = 0 if balanced and all_ok else 1
        if returncode != expected_code:
            problems.append(f"exit code {returncode}, expected {expected_code}")
        if is_hp2:
            indices = {row.get("label"): row.get("value") for row in report.get("indices", [])}
            values = {row.get("corollary"): row.get("value") for row in checks}
            if indices != HP2_INDICES or values != HP2_VALUES:
                problems.append(f"HP² gives indices {indices} and values {values}")
        return problems

    return check


# -- the workloads -----------------------------------------------------------------


def _verify_round(order: int, name: str) -> Callable[[int], list[Invocation]]:
    def make_round(seed: int) -> list[Invocation]:
        args = ("-m", "anomaly.cli", "verify", "--format", "json", "--order", str(order))
        return [Invocation(name, args, check_verify(DIGESTS[name]))]

    return make_round


def _spin_wide_round(seed: int) -> list[Invocation]:
    return [Invocation("spin-wide", ("bench/spin_wide.py",), check_digest(DIGESTS["spin-wide"]))]


def _evaluate_round(seed: int) -> list[Invocation]:
    args = ("-m", "anomaly.cli", "evaluate", "--format", "json", "--input", "-")
    return [
        Invocation(
            f"evaluate dim {m['dim']}" + (" HP²" if m == HP2 else ""),
            args,
            check_evaluate(m),
            json.dumps(m).encode("utf-8"),
        )
        for m in evaluate_inputs(seed)
    ]


WORKLOADS = {
    "verify-q3": Workload("anomaly.cli", _verify_round(3, "verify-q3")),
    "verify-q7": Workload("anomaly.cli", _verify_round(7, "verify-q7")),
    "spin-wide": Workload("anomaly.verifier", _spin_wide_round),
    "evaluate": Workload("anomaly.cli", _evaluate_round),
}
