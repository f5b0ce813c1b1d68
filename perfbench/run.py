"""End-to-end and per-layer benchmark of the semiring-lab CLI.

    python3 perfbench/run.py --workload verify-lab3 --seed 1 --seconds 30 --trace 0

Every measured run is a fresh interpreter running ``python -m
semiring_lab.cli`` with the repository's ``src`` on PYTHONPATH, one run at a
time (closed loop).  Each run's exit code, counts and stdout sha256 are
checked against frozen values.  ``--trace 1`` runs the traced passes of
``traced.py`` instead and reports per-layer metrics.  ``--workload all``
interleaves the workloads round-robin in an order set by ``--seed``;
``--smoke`` runs the same harness at reduced order.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NODE_BUDGET = 10 ** 7
# A stalled enumeration exits 4 well inside the 180 s a benchmark run may take.
SECS_BUDGET = 120
MIN_RUNS = 3
SETUP_RUNS = 11
# On a shared host the speed of each core swings by up to 2x within seconds
# and drifts by 20-30% over minutes.  So while a child runs, this process
# times a short fixed pure-Python loop (a reference slice) on the child's
# cores every SAMPLE_EVERY seconds, in CPU time, and every time is reported
# in seconds at reference speed: a slice takes REF_SECONDS of CPU on a quiet
# core of the 2-core host this benchmark was tuned on (Python 3.11).
REF_REPS = 2_000
REF_SECONDS = 0.0024
SAMPLE_EVERY = 0.1
CPUS = sorted(os.sched_getaffinity(0))

SETUP_CODE = ("import time; t = time.perf_counter(); import semiring_lab.cli as cli; "
              "cli._build_parser(); print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation plus the values its output must reproduce."""

    command: str        # "verify" or "enumerate"
    max_order: int      # verify sweeps orders 1..max_order; enumerate only max_order
    iso: bool
    workers: int
    instances: int      # instances (verify) or classes (enumerate) emitted
    checks: int         # theorem checks of the sweep (traced-only for enumerate)
    digest: str         # sha256 of stdout, frozen from a --workers 1 run
    labelled_top: int   # labelled semirings of order max_order
    classes_top: int    # isomorphism classes among them

    def argv(self) -> List[str]:
        iso = ["--iso"] if self.iso else []
        budget = ["--budget-nodes", str(NODE_BUDGET), "--budget-secs", str(SECS_BUDGET)]
        if self.command == "verify":
            return ["verify", "--suite", "all", "--max-order", str(self.max_order),
                    *iso, "--workers", str(self.workers), *budget]
        return ["enumerate", "-n", str(self.max_order), *iso, "--count-only", *budget]


WORKLOADS = {
    "verify-lab3": Workload(
        "verify", 3, False, 1, 396, 7128,
        "2ed9fb69171a872fac1c91b18ba39f3ba65caaa403e90ef9d5d3f925972f1424", 379, 81),
    "verify-iso4-w2": Workload(
        "verify", 4, True, 2, 927, 16686,
        "9ea8491842e5ea875c8a9862ca5d3ced2e9c04694d8f38c8901b600202857e7f", 15108, 835),
    "enumerate-iso4": Workload(
        "enumerate", 4, True, 1, 835, 15030,
        "2656eb1532f2488b42af1f615f65cc2df9570a3cde47976bd83c447c12077e7a", 15108, 835),
}

SMOKE = {
    "verify-lab3": Workload(
        "verify", 2, False, 1, 17, 306,
        "f8003f4386d40d47078e7de1f669fff6a3dea46503180f957037cfca3a9a4ff7", 16, 10),
    "verify-iso4-w2": Workload(
        "verify", 3, True, 2, 92, 1656,
        "69f809b5b185b4d572013eaed439fdd24263db62cb15b1d8654ae54efdec2069", 379, 81),
    "enumerate-iso4": Workload(
        "enumerate", 3, True, 1, 81, 1458,
        "ce516e29a2ccfe4bab40e4e6adab7661cd695680482c00b1faa738fc0df62698", 379, 81),
}


def cpus_for(w: Workload) -> List[int]:
    """Cores a run is pinned to, one per worker, so that the reference
    slices time the cores the run uses."""
    return CPUS[:w.workers]


def reference_slice(cpu: int) -> float:
    """CPU seconds this process spends on a fixed pure-Python loop on cpu."""
    os.sched_setaffinity(0, {cpu})
    table = tuple(tuple((3 * i + 5 * j + i * j) % 7 for j in range(7)) for i in range(7))
    seen: Dict[tuple, int] = {}
    start = time.process_time()
    for r in range(REF_REPS):
        a, b = r % 7, r // 7 % 7
        row = tuple(table[table[a][c]][b] for c in range(7))
        seen[row] = seen.get(row, 0) + 1
    return time.process_time() - start


def child_env() -> Dict[str, str]:
    """The caller's environment minus anything that could change a workload."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SEMIRING_LAB_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


@dataclass
class Child:
    code: int
    out: bytes
    err: str
    wall: float
    cpu: float
    rss_mb: float
    scale: float  # REF_SECONDS over the mean reference slice during the run


def run_child(args: List[str], cpus: List[int]) -> Child:
    """Run the interpreter on args, pinned to cpus, taking reference slices
    on those cores until it exits.  The child is reaped with wait4, so
    user+sys time and ru_maxrss cover its whole process tree."""
    slices = [reference_slice(cpu) for cpu in cpus]
    os.sched_setaffinity(0, cpus)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SAMPLE_EVERY)[0]:
                    slices.append(reference_slice(cpus[len(slices) % len(cpus)]))
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, tail = out.read(), err.read()[-2000:].decode(errors="replace")
    return Child(proc.returncode, stdout, tail, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, REF_SECONDS / statistics.fmean(slices))


def check_output(w: Workload, code: int, out: bytes) -> str:
    """Why a CLI run is wrong, or "" when it reproduces the frozen results."""
    if code != 0:
        return "exit code %d" % code
    try:
        if w.command == "verify":
            r = json.loads(out)["results"]
            got = (r["instances"], r["checks"], r["inconsistencies"])
            want = (w.instances, w.checks, 0)
        else:
            got, want = int(out), w.instances
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    if got != want:
        return "counts %s, frozen %s" % (got, want)
    if hashlib.sha256(out).hexdigest() != w.digest:
        return "stdout sha256 differs from the frozen --workers 1 digest"
    return ""


@dataclass
class Run:
    child: Child
    problem: str


def run_cli(name: str, w: Workload) -> Run:
    child = run_child(["-m", "semiring_lab.cli", *w.argv()], cpus_for(w))
    problem = check_output(w, child.code, child.out)
    if problem:
        print("%s: FAILED: %s\n%s" % (name, problem, child.err), file=sys.stderr)
    return Run(child, problem)


def setup_seconds() -> float:
    """Median of fresh-interpreter `import semiring_lab.cli` + parser builds."""
    samples = []
    for _ in range(SETUP_RUNS):
        child = run_child(["-c", SETUP_CODE], CPUS[:1])
        if child.code != 0:
            raise SystemExit("setup probe failed:\n" + child.err)
        samples.append(float(child.out) * child.scale)
    return statistics.median(samples)


def measure(table: Dict[str, Workload], names: List[str], seconds: int,
            rng: random.Random) -> Dict[str, List[Run]]:
    """Round-robin CLI runs, each round in a seeded order, until the next
    round would overrun `seconds` (but at least MIN_RUNS rounds)."""
    runs: Dict[str, List[Run]] = {name: [] for name in names}
    start = time.perf_counter()
    last_round = 0.0
    while True:
        rounds = len(runs[names[0]])
        if rounds >= MIN_RUNS and time.perf_counter() - start + last_round > seconds:
            return runs
        round_start = time.perf_counter()
        for name in rng.sample(names, len(names)):
            runs[name].append(run_cli(name, table[name]))
        last_round = time.perf_counter() - round_start


Metrics = Dict[str, Tuple[float, str]]


def end_to_end(name: str, w: Workload, runs: List[Run]) -> Metrics:
    wall = statistics.median(r.child.wall * r.child.scale for r in runs)
    print("%s: %d runs, median raw wall %.3f s, median reference scale %.3f" % (
        name, len(runs), statistics.median(r.child.wall for r in runs),
        statistics.median(r.child.scale for r in runs)), file=sys.stderr)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(r.child.cpu * r.child.scale for r in runs), "s"),
        "instances_per_s": (w.instances / wall, "1/s"),
        "peak_rss_mb": (statistics.median(r.child.rss_mb for r in runs), "MiB"),
        "ok_frac": (sum(not r.problem for r in runs) / len(runs), "ratio"),
    }


def run_phase(phase: str, w: Workload) -> Tuple[Child, dict]:
    spec = dict(asdict(w), budget_nodes=NODE_BUDGET, budget_secs=SECS_BUDGET)
    child = run_child([str(HERE / "traced.py"), phase, json.dumps(spec)], cpus_for(w))
    if child.code != 0:
        raise SystemExit("traced %s pass failed:\n%s" % (phase, child.err))
    return child, json.loads(child.out)


def _durations(child: Child, spans: List[list]) -> Dict[str, List[float]]:
    """Normalized span durations by name."""
    out: Dict[str, List[float]] = {}
    for name, start, end, _ in spans:
        out.setdefault(name, []).append((end - start) * child.scale)
    return out


def _p98(values: List[float]) -> float:
    return statistics.quantiles(values, n=50)[-1]


def traced(name: str, w: Workload, seed: int) -> Tuple[Metrics, List[str]]:
    """One untraced CLI run, then the traced pipeline and probe passes, each
    in a fresh process; per-layer metrics come from the recorded spans."""
    cli = run_cli(name, w)
    pipe_child, pipe = run_phase("pipeline", w)
    probe_child, probe = run_phase("probe", w)
    p, q = _durations(pipe_child, pipe["spans"]), _durations(probe_child, probe["spans"])
    pc, qc = pipe["counts"], probe["counts"]
    problems = ["cli: " + cli.problem] if cli.problem else []
    for phase, checks in (
            ("pipeline", (("emitted", pc["emitted"], w.instances),
                          ("checks", pc["checks"], w.checks),
                          ("inconsistencies", pc["inconsistencies"], 0))),
            ("probe", (("instances", qc["instances"], w.instances),
                       ("labelled", qc["labelled"], w.labelled_top),
                       ("classes", qc["classes"], w.classes_top)))):
        wrong = ["%s %d, frozen %d" % check for check in checks if check[1] != check[2]]
        if wrong:
            problems.append("%s: %s" % (phase, "; ".join(wrong)))
    # The pipeline pass mirrors the CLI inside its root span "cli"; other root
    # spans (the theorem sweep of an enumerate workload) are off the CLI path.
    extra = sum(end - start for span_name, start, end, parent in pipe["spans"]
                if parent < 0 and span_name != "cli")
    traced_wall = (pipe_child.wall - extra) * pipe_child.scale
    gaps = p["enumeration.next"]
    m: Metrics = {
        "enumeration.stream_s": (sum(p["enumeration.stream"]), "s"),
        "enumeration.emitted": (pc["emitted"], "count"),
        "enumeration.emit_gap_p50_ms": (1000 * statistics.median(gaps), "ms"),
        "enumeration.emit_gap_p98_ms": (1000 * _p98(gaps), "ms"),
        "enumeration.labelled_s": (sum(q["enumeration.labelled"]), "s"),
        "enumeration.labelled_count": (qc["labelled"], "count"),
        "enumeration.canonical_form_s": (sum(q["enumeration.canonical_form"]), "s"),
        "enumeration.canonical_form_calls": (len(q["enumeration.canonical_form"]), "count"),
        "enumeration.iso_useful_ratio": (qc["classes"] / qc["labelled"], "ratio"),
    }
    for tid in pc["theorems"]:
        m["varieties.verify_theorem.%s_s" % tid] = (
            sum(p["varieties.verify_theorem." + tid]), "s")
    instance = p["varieties.instance"]
    m.update({
        "varieties.sweep_s": (sum(p["varieties.sweep"]), "s"),
        "varieties.checks": (pc["checks"], "count"),
        "varieties.instance_p50_ms": (1000 * statistics.median(instance), "ms"),
        "varieties.instance_p98_ms": (1000 * _p98(instance), "ms"),
    })
    for layer in ("core.validate_semiring", "relations.green", "relations.quasi_orders",
                  "congruences.sigma", "congruences.sigma_star", "congruences.eta",
                  "congruences.all_congruences", "varieties.in_variety",
                  "structure.malcev_membership"):
        m[layer + "_s"] = (sum(q[layer]), "s")
    m.update({
        "congruences.lattice_size_total": (qc["lattice_size_total"], "count"),
        "varieties.in_variety_calls": (len(q["varieties.in_variety"]), "count"),
        "structure.malcev_calls": (len(q["structure.malcev_membership"]), "count"),
        "structure.malcev_members": (qc["malcev_members"], "count"),
        "cli.enumerate_share": (sum(p["enumeration.stream"]) / sum(p["cli"]), "ratio"),
        "cli.parallel_efficiency": (
            cli.child.cpu / (cli.child.wall * w.workers), "ratio"),
        "cli.tracing_overhead_s": (traced_wall - cli.child.wall * cli.child.scale, "s"),
    })
    trace_file = OUT / ("trace-%s.json" % name)
    trace_file.write_text(json.dumps({
        "workload": name, "seed": seed, "spec": asdict(w),
        "cli_wall_s": cli.child.wall,
        "pipeline": {"wall_s": pipe_child.wall, "scale": pipe_child.scale,
                     "spans": pipe["spans"]},
        "probe": {"wall_s": probe_child.wall, "scale": probe_child.scale,
                  "spans": probe["spans"]},
    }))
    print("%s: spans written to %s" % (name, trace_file.relative_to(ROOT)),
          file=sys.stderr)
    return m, problems


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"nproc": len(CPUS), "python": platform.python_version(),
            "commit": commit or "unknown", "loadavg": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced orders, finishing in seconds")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "semiring_lab" / "cli.py").is_file():
        print("no semiring_lab sources under %s" % SRC, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    table = SMOKE if args.smoke else WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    print("env start:", json.dumps(environment()), file=sys.stderr)

    metrics: Metrics = {}
    per_workload: Dict[str, Metrics] = {}
    attempted = failed = 0
    if args.trace:
        for name in names:
            per_workload[name], problems = traced(name, table[name], args.seed)
            for problem in problems:
                print("%s: FAILED: %s" % (name, problem), file=sys.stderr)
            attempted += 3
            failed += len(problems)
    else:
        metrics["setup_s"] = (setup_seconds(), "s")
        runs = measure(table, names, args.seconds, random.Random(args.seed))
        for name in names:
            per_workload[name] = end_to_end(name, table[name], runs[name])
            attempted += len(runs[name])
            failed += sum(bool(r.problem) for r in runs[name])
    for name, workload_metrics in per_workload.items():
        prefix = name + "." if len(names) > 1 else ""
        metrics.update((prefix + k, v) for k, v in workload_metrics.items())

    print("env end:", json.dumps(environment()), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
