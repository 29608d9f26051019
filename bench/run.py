"""Benchmark of the anomaly engine: end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-q3 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Every invocation is a fresh process, as a CLI user pays for it, started one
at a time from this process with the source tree under ``src`` first on
``PYTHONPATH``.  A fresh process also matters because the engine memoizes
``theta_quotient``, ``modular_basis`` and ``ahat_genus`` per process.  Each
invocation's output is checked against its reference (see ``workloads.py``).

``--trace 0`` repeats rounds of the workload for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
round (``tracer.py``) for ``--seconds``, at least once each, and reports the
per-layer metrics.  The metric names and units come from ``BENCHMARK.json``.
The output is readable lines, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import RoundTrace
from workloads import WORKLOADS, Invocation, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = "bench/tracer.py"
PROBE = "bench/speed_probe.py"
LAUNCHER = "bench/launch.py"
SETUP_PER_ROUND = 2
INVOCATION_TIMEOUT_S = 150
# Speed-probe units per CPU second at which scaled seconds equal raw seconds.
REFERENCE_RATE = 16000.0


@dataclass
class Outcome:
    label: str
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str
    problems: list[str] = field(default_factory=list)
    dump: dict | None = None
    speed: float = 1.0  # the speed probe's rate over the round, relative to REFERENCE_RATE

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.speed


def child_env() -> dict[str, str]:
    """The caller's environment without ANOMALY_QCAP and PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if k != "ANOMALY_QCAP" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


ENV = child_env()


def spawn(args, stdin: bytes = b"") -> tuple[float, float, float, int, str, str]:
    """Run the interpreter on args through ``launch.py``.

    Returns wall and CPU seconds, peak RSS in MB, exit code, stdout, stderr.
    The launcher leads its own process group, so a timeout kills the whole
    group.  It stays in this session: a new session would get its own
    scheduler autogroup, and the nice-19 speed probe would then take half
    the CPU instead of about 1.5%.
    """
    report_r, report_w = os.pipe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", LAUNCHER, str(report_w), sys.executable, *args],
        cwd=ROOT,
        env=ENV,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(report_w,),
        process_group=0,
    )
    os.close(report_w)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        out, err = proc.communicate(stdin)
    finally:
        killer.cancel()
        with os.fdopen(report_r, "rb") as report:
            fields = report.read().split()
    if len(fields) != 4:  # the launcher was killed
        return time.perf_counter() - start, 0.0, 0.0, proc.returncode, "", err.decode("utf-8", "replace")
    code, wall, cpu, rss_kb = int(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])
    return wall, cpu, rss_kb / 1024, code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace")


def run_invocation(inv: Invocation, traced: bool) -> Outcome:
    args = (TRACER, *inv.args) if traced else inv.args
    wall, cpu, rss, code, stdout, stderr = spawn(args, inv.stdin)
    outcome = Outcome(inv.label, wall, cpu, rss, code, stdout)
    if traced:
        try:
            outcome.dump = json.loads(stdout)
            outcome.returncode, outcome.stdout = outcome.dump["exit"], outcome.dump["stdout"]
        except (ValueError, KeyError, TypeError):
            outcome.problems.append(f"tracer exit code {code}; no trace on stdout")
    if not outcome.problems:
        outcome.problems = inv.check(outcome.returncode, outcome.stdout)
    if outcome.problems and stderr.strip():
        outcome.problems.append("stderr: " + stderr.strip().splitlines()[-1])
    return outcome


class SpeedProbe:
    """Runs ``speed_probe.py`` on this CPU while the block runs.

    ``speed`` is the probe's units per CPU second over the block, relative to
    ``REFERENCE_RATE``; a wall time times ``speed`` is in reference seconds.
    """

    def __enter__(self) -> "SpeedProbe":
        self.proc = subprocess.Popen(
            [sys.executable, PROBE], cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        if self.proc.stdout.readline() != b"ready\n":
            self.proc.kill()
            self.proc.wait()
            raise SystemExit("bench: the speed probe did not start")
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        fields = self.proc.stdout.read().split()
        self.proc.wait()
        if len(fields) != 2:
            raise SystemExit(f"bench: the speed probe exited with {self.proc.returncode} and no rate")
        units, cpu = int(fields[0]), float(fields[1])
        self.speed = units / cpu / REFERENCE_RATE if units else 1.0


def run_round(workload: Workload, seed: int, traced: bool, setups: int = 0) -> tuple[list[Outcome], list[float]]:
    """One round under one speed probe; also the scaled times of ``setups``
    set-up samples taken at its start."""
    with SpeedProbe() as probe:
        setup = [setup_time(workload.entry_module) for _ in range(setups)]
        outcomes = [run_invocation(inv, traced) for inv in workload.make_round(seed)]
    for o in outcomes:
        o.speed = probe.speed
    return outcomes, [t * probe.speed for t in setup]


def setup_time(entry_module: str) -> float:
    """Wall seconds for a fresh interpreter to start and import the entry module.

    Also checks that the import resolves to this source tree.
    """
    args = ("-c", f"import {entry_module} as m, sys; sys.stdout.write(m.__file__)")
    wall, _, _, code, out, err = spawn(args)
    if code != 0 or not Path(out).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: cannot import {entry_module} from {SRC}: {err.strip() or out}")
    return wall


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/75/90/95/99 with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, percentile(values, p))
    return best


def environment(workload: str, seed: int) -> str:
    uname = platform.uname()
    digest = hashlib.sha256()
    for path in sorted((SRC / "anomaly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (
        f"env: machine={uname.machine} {uname.system} {uname.release} host={uname.node} "
        f"python={platform.python_version()} nproc={os.cpu_count()} cpu={sorted(os.sched_getaffinity(0))} "
        f"commit={git_commit()} "
        f"src_sha256={digest.hexdigest()[:16]} workload={workload} seed={seed}"
    )


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def report_failures(outcomes: list[Outcome]):
    for o in outcomes:
        for problem in o.problems:
            print(f"FAIL {o.label}: {problem}")


def run_plain(workload: Workload, seed: int, seconds: float, spec: dict) -> dict:
    setup_time(workload.entry_module)  # unmeasured: compiles bytecode, as an installed package has it
    outcomes: list[Outcome] = []
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        round_outcomes, round_setup = run_round(workload, seed, traced=False, setups=SETUP_PER_ROUND)
        outcomes += round_outcomes
        setup += round_setup
    walls = [o.scaled_wall for o in outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    report_failures(outcomes)
    tail = tail_percentile(walls)
    tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ", no percentile with 10 samples beyond it"
    print(
        f"wall_s: median {metrics['wall_s']:.4f} s (reference speed) over {len(walls)} invocations{tail_text}; "
        f"raw median {statistics.median(o.wall for o in outcomes):.4f} s, "
        f"speed median {statistics.median(o.speed for o in outcomes):.3f}"
    )
    print(
        f"setup_s: median {metrics['setup_s']:.4f} s (reference speed) over {len(setup)} fresh imports "
        f"of {workload.entry_module}, {SETUP_PER_ROUND} at the start of each round"
    )
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.2f} MB, the largest of {len(outcomes)} invocations")
    print(f"fail_frac: {failed}/{len(outcomes)} = {failed / len(outcomes):.4f} count/count")
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
    }


def run_traced(workload: Workload, seed: int, seconds: float, spec: dict) -> dict:
    plain_rounds: list[list[Outcome]] = []
    traced_rounds: list[list[Outcome]] = []
    start = pair_s = time.perf_counter()
    while not traced_rounds or time.perf_counter() + pair_s <= start + seconds:
        pair_start = time.perf_counter()
        plain_rounds.append(run_round(workload, seed, traced=False)[0])
        traced_rounds.append(run_round(workload, seed, traced=True)[0])
        pair_s = time.perf_counter() - pair_start
    outcomes = [o for r in plain_rounds + traced_rounds for o in r]
    failed = sum(1 for o in outcomes if o.problems)
    report_failures(outcomes)

    per_round: list[dict[str, float]] = []
    absent: set[str] = set()
    for plain, traced in zip(plain_rounds, traced_rounds):
        trace = RoundTrace()
        for o in traced:
            if o.dump is not None:
                trace.add(o.dump)
        speed = traced[0].speed
        plain_wall = sum(o.scaled_wall for o in plain)
        values = {
            "cli.cpu_s": sum(o.cpu * o.speed for o in plain),
            "trace.total_s": trace.total_s * speed,
            "trace.overhead_frac": sum(o.scaled_wall for o in traced) / plain_wall - 1,
        }
        for m in spec["per_layer"]:
            if m["name"] not in values:
                value = trace.value(m["name"])
                if value is None:
                    absent.add(m["name"])
                values[m["name"]] = 0 if value is None else value * speed if m["unit"] == "s" else value
        per_round.append(values)
        print(
            f"self times: {trace.self_sum:.6f} s summed over {trace.span_count} spans; "
            f"top-level spans {trace.total_s:.6f} s (difference {trace.self_sum - trace.total_s:+.2e} s, raw seconds)"
        )
    metrics = {}
    for m in spec["per_layer"]:
        value = statistics.median(r[m["name"]] for r in per_round)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "absent at this commit" if m["name"] in absent else f"{value:.6g} {m['unit']}"
        print(f"{m['name']}: {shown}")
    print(
        f"rounds: {len(per_round)} untraced + {len(per_round)} traced; medians reported, "
        f"times in reference-speed seconds"
    )
    return {"attempted": len(outcomes), "failed": failed, "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    print(environment(name, seed))
    runner = run_traced if trace else run_plain
    return runner(WORKLOADS[name], seed, seconds, spec)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anomaly" / "cli.py").is_file():
        print(f"bench: no anomaly source tree at {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and every child, so the speed probe shares it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = results[names[0]]["metrics"] if len(names) == 1 else {n: r["metrics"] for n, r in results.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
