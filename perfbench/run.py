"""Benchmark harness for the `tml` command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke --workload NAME --trace 0|1

Run from the root of a source checkout; the CLI is imported from `src/`.
Each CLI call is a fresh interpreter, started only after the previous one
ended (a closed loop with one caller).  The harness starts no threads; the
CLI keeps its defaults (`--threads` = cpu count, BLAS threading as found).

`--seed N` is a workload seed offset added to the acceptance seeds.  At
offset 0 the outputs are compared with values frozen at the seed commit
(`expected.json`); at any other offset only the invariants are checked.

`--trace 0` repeats the workload for S seconds with tracing off and reports
the end-to-end metrics.  `--trace 1` alternates untraced, traced (through
`tracer.py`) and, where the calls take `--threads`, single-threaded runs,
and reports the per-layer metrics.  Every run writes a result file with an
environment block under `.perfbench_out/`; the last line of standard output
is the JSON summary.  Linux only (pidfd, ru_maxrss in KiB).

Wall-clock figures are net of stolen time: on a virtual machine whose host
is oversubscribed, the hypervisor takes the CPUs away for a share of the
time, which the kernel reports as steal in /proc/stat.  Each pass's wall
time is scaled by the share of busy CPU time that was not stolen.  Raw wall
times and stolen shares are kept in the result file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

RUN_DEADLINE_S = 170.0  # every run must end within 180 s
LAMBDA_ABS_TOL = 1e-8  # Lanczos runs at tol=1e-10; this leaves room for BLAS order
MC_REL_TOL = 1e-9

# What the shipped `tml` console script runs, plus one time stamp (CLOCK_MONOTONIC,
# shared with the parent) once `tml.cli` is imported: the end of set-up.
ENTRY = (
    "import sys, time; from tml.cli import main; "
    "open('setup.stamp', 'w').write(repr(time.monotonic())); sys.exit(main())"
)


# ---------- workloads ----------


@dataclass
class Call:
    label: str
    argv: list[str]
    items: int
    table: str  # file name of the table the call writes
    check: Callable[["Call", "Output", dict | None], list[str]]  # -> failures
    threads_flag: bool = False


@dataclass
class Output:
    stdout: str
    rows: list[dict]


def bell(m: int) -> int:
    """Number of set partitions of m items (first-occurrence patterns)."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def check_edge(call: Call, out: Output, expected) -> list[str]:
    rows = out.rows
    trials = int(call.argv[call.argv.index("--trials") + 1])
    if len(rows) != trials:
        return [f"{len(rows)} rows, expected {trials}"]
    lam = [float(r["lambda_max"]) for r in rows]
    threshold = float(rows[0]["threshold"])
    bad = []
    if not _finite(threshold, *lam):
        bad.append("non-finite value")
    if any((v > threshold) != (r["exceeded"] == "1") for v, r in zip(lam, rows)):
        bad.append("exceeded column disagrees with lambda_max > threshold")
    if expected:
        frozen = expected["lambda_max"]
        if len(frozen) != len(lam) or any(abs(a - b) > LAMBDA_ABS_TOL for a, b in zip(lam, frozen)):
            bad.append("lambda_max differs from the frozen values")
        if abs(threshold - expected["threshold"]) > 1e-12:
            bad.append("threshold differs from the frozen value")
        if sum(v > threshold for v in lam) != expected["exceed_count"]:
            bad.append("exceed count differs from the frozen value")
    return bad


def check_trace_mc(call: Call, out: Output, expected) -> list[str]:
    (row,) = out.rows
    mean, stderr = float(row["mean"]), float(row["stderr"])
    bad = []
    if not (_finite(mean, stderr) and stderr > 0):
        bad.append("non-finite mean or stderr")
    # E[Tr A^4] for skew12 at n=3 is 22 exactly (acceptance 01); 6 standard
    # errors is a check that a correct sampler fails with odds ~1e-9.
    if abs(mean - 22.0) > 6 * stderr:
        bad.append(f"mean {mean} is more than 6 stderr from the exact 22")
    if expected:
        for key in ("mean", "stderr"):
            if abs(float(row[key]) - expected[key]) > MC_REL_TOL * abs(expected[key]):
                bad.append(f"{key} differs from the frozen value")
    return bad


def check_dyck(call: Call, out: Output, expected) -> list[str]:
    (row,) = out.rows
    value = float(row["value"])
    s = int(row["s"])
    if not _finite(value):
        return ["non-finite value"]
    low, high = (2 * s, s * (2 * s + 1)) if row["functional"] == "windows" else (1, s + 1)
    bad = [] if low <= value <= high else [f"value {value} outside [{low}, {high}]"]
    if expected and value != expected["value"]:
        bad.append("value differs from the frozen value")
    return bad


def check_trace_exact(call: Call, out: Output, expected) -> list[str]:
    (row,) = out.rows
    value, even, odd = (float(row[k]) for k in ("value", "even_part", "odd_part"))
    bad = [] if _finite(value, even, odd) and odd == value - even else ["inconsistent parts"]
    if expected and (value, even) != (expected["value"], expected["even_part"]):
        bad.append("value or even part differs from the frozen value")
    return bad


def check_gluing(call: Call, out: Output, expected) -> list[str]:
    n = int(call.argv[call.argv.index("--n") + 1])
    s = int(call.argv[call.argv.index("--s") + 1])
    walks = n ** (2 * s)
    bad = []
    if f"checked {walks} walks, 0 violations" not in out.stdout:
        bad.append("walk count or violations line missing")
    if sum(int(r["count"]) for r in out.rows) != walks:
        bad.append("histogram does not sum to the walk count")
    return bad


def workload_calls(name: str, offset: int, smoke: bool) -> list[Call]:
    """The CLI calls of one workload at seed offset `offset`."""
    if name == "edge-large":
        n, trials = (100, 2) if smoke else (2000, 3)
        argv = ["edge-exceed", "--dist", "skew12", "--n", str(n), "--epsilon", "0.05",
                "--seed", str(11 + offset), "--trials", str(trials)]
        return [Call("edge-exceed", argv, trials, "edge-exceed.csv", check_edge, True)]
    if name == "mc-small":
        trials = 200 if smoke else 4000
        argv = ["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2",
                "--seed", str(42 + offset), "--trials", str(trials)]
        return [Call("trace-mc", argv, trials, "trace-mc.csv", check_trace_mc, True)]
    if name == "dyck-windows":
        sizes, trials, stay_s, stay_trials = (
            ((4, 8), 20, 8, 20) if smoke else ((16, 32, 64, 128, 256), 600, 256, 200)
        )
        calls = [
            Call(f"windows-s{s}",
                 ["dyck-stats", "--functional", "windows", "--mode", "mc", "--s", str(s),
                  "--seed", str(1000 + s + offset), "--trials", str(trials)],
                 trials, "dyck-stats.csv", check_dyck)
            for s in sizes
        ]
        calls.append(Call(f"stay-s{stay_s}",
                          ["dyck-stats", "--functional", "stay", "--mode", "mc",
                           "--s", str(stay_s), "--seed", str(77 + offset),
                           "--trials", str(stay_trials)],
                          stay_trials, "dyck-stats.csv", check_dyck))
        return calls
    if name == "exact-walks":
        # No seed: both calls are exhaustive enumerations.
        n, s, gn, gs = (10, 3, 2, 3) if smoke else (100, 5, 3, 4)
        return [
            Call("trace-exact",
                 ["trace-exact", "--dist", "skew12", "--n", str(n), "--s", str(s),
                  "--route", "patterns"],
                 2 * bell(2 * s), "trace-exact.csv", check_trace_exact),
            Call("verify-gluing", ["verify-gluing", "--n", str(gn), "--s", str(gs)],
                 gn ** (2 * gs), "verify-gluing.csv", check_gluing),
        ]
    raise KeyError(name)


# workload -> what one item of its work is
WORKLOADS = {
    "edge-large": "matrix",
    "mc-small": "trial",
    "dyck-windows": "Dyck path",
    "exact-walks": "walk",
}


# ---------- processes ----------


@dataclass
class Proc:
    code: int
    spawned: float  # time.monotonic() just before the child was started
    wall: float
    cpu: float
    rss_mb: float


def run_process(argv: list[str], cwd: Path, env: dict, deadline: float) -> Proc:
    """Run one child to completion; wall time, CPU and peak RSS from wait4."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        reaped = False
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            if not reaped:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(code if ready else -9, spawned, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def host_cpu_times() -> tuple[float, float]:
    """(busy, stolen) CPU seconds of the machine since boot, from /proc/stat.

    Stolen time is time a virtual CPU wanted to run while the hypervisor ran
    something else; it is zero on bare metal and where the kernel does not
    report it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0.0, 0.0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return (user + nice + system + irq + softirq) / tick, steal / tick


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TML_OUTPUT_DIR", None)
    return env


# ---------- one pass over a workload's calls ----------


@dataclass
class Iteration:
    mode: str  # "plain", "traced" or "threads1"
    wall: float = 0.0  # as the clock on the wall saw it
    stolen_share: float = 0.0  # of the busy CPU time, taken by the hypervisor
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    bytes_written: int = 0

    @property
    def net_wall(self) -> float:
        """Wall time less the share the hypervisor stole from the busy CPUs:
        what the same pass takes on a host that is not oversubscribed."""
        return self.wall * (1.0 - self.stolen_share)


class Runner:
    """Runs passes of one workload, checks every call and keeps the tallies."""

    def __init__(self, workload: str, offset: int, smoke: bool, run_id: str, deadline: float):
        self.workload = workload
        self.calls = workload_calls(workload, offset, smoke)
        self.items = sum(c.items for c in self.calls)
        frozen = json.loads((HERE / "expected.json").read_text())
        self.expected = {} if smoke or offset else frozen.get(workload, {})
        self.workdir = OUT / workload
        self.run_id = run_id
        self.deadline = deadline
        self.env = child_env()
        self.bodies: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        shutil.rmtree(self.workdir, ignore_errors=True)
        for c in self.calls:
            (self.workdir / c.label).mkdir(parents=True)

    def iterate(self, mode: str, index: int) -> Iteration:
        it = Iteration(mode)
        procs = []
        busy0, stolen0 = host_cpu_times()
        first = time.perf_counter()
        for c in self.calls:
            cwd = self.workdir / c.label
            for stale in cwd.iterdir():
                stale.unlink()
            args = c.argv + (["--threads", "1"] if mode == "threads1" else [])
            if mode == "traced":
                argv = [sys.executable, str(HERE / "tracer.py"), "spans.json",
                        f"{self.run_id}:{index}:{c.label}", "--", *args]
            else:
                argv = [sys.executable, "-c", ENTRY, *args]
            procs.append(run_process(argv, cwd, self.env, self.deadline))
        it.wall = time.perf_counter() - first
        busy1, stolen1 = host_cpu_times()
        busy, stolen = busy1 - busy0, stolen1 - stolen0
        it.stolen_share = stolen / (busy + stolen) if busy + stolen > 0 else 0.0
        it.cpu = sum(p.cpu for p in procs)
        it.rss_mb = max(p.rss_mb for p in procs)
        for c, p in zip(self.calls, procs):
            stamp = self.workdir / c.label / "setup.stamp"
            if mode == "plain" and stamp.is_file():
                setup = float(stamp.read_text()) - p.spawned
                it.setup.append(setup * (1.0 - it.stolen_share))
            self.attempted += 1
            problems = self.check(c, p, it)
            if problems:
                self.failed += 1
                it.failures.extend(f"{c.label} ({mode}): {msg}" for msg in problems)
        return it

    def check(self, c: Call, p: Proc, it: Iteration) -> list[str]:
        cwd = self.workdir / c.label
        if p.code != 0:
            return [f"exit code {p.code}"]
        table = cwd / c.table
        manifest = cwd / (Path(c.table).stem + ".manifest.json")
        if not (table.is_file() and manifest.is_file()):
            return ["table or manifest missing"]
        body = table.read_bytes()
        with open(table, newline="") as fh:
            out = Output((cwd / "stdout.txt").read_text(), list(csv.DictReader(fh)))
        digest = hashlib.sha256(body).hexdigest()
        expected = self.expected.get(c.label)
        try:
            problems = c.check(c, out, expected)
        except (KeyError, ValueError) as exc:
            problems = [f"unreadable table: {exc!r}"]
        if expected and expected.get("sha256", digest) != digest:
            problems.append("table body differs from the frozen body")
        if self.bodies.setdefault(c.label, digest) != digest:
            problems.append("table body differs from this run's first body")
        if it.mode == "traced":
            problems += self.read_spans(cwd, it)
            it.bytes_written += table.stat().st_size + manifest.stat().st_size
        return problems

    def read_spans(self, cwd: Path, it: Iteration) -> list[str]:
        try:
            data = json.loads((cwd / "spans.json").read_text())
        except (OSError, ValueError):
            return ["spans file missing"]
        for sp in data["spans"]:  # span ids restart in every process
            sp["id"] = (cwd.name, sp["id"])
            sp["parent"] = None if sp["parent"] is None else (cwd.name, sp["parent"])
        it.spans.extend(data["spans"])
        it.absent.update(data["absent"])
        for name, value in data["counts"].items():
            it.counts[name] = it.counts.get(name, 0) + value
        bad = tracer.nesting_violations(data["spans"])
        return [f"{bad} spans outside their parent"] if bad else []


# ---------- statistics ----------


def summary(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "runs": len(vals),
            "values": vals}


# ---------- end-to-end run ----------

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "fraction",
}


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    iterations = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        iterations.append(runner.iterate("plain", len(iterations)))
    setup = [t for it in iterations for t in it.setup]
    walls = [it.net_wall for it in iterations]
    stats = {
        "wall_s": summary(walls),
        "raw_wall_s": summary([it.wall for it in iterations]),
        "stolen_share": summary([it.stolen_share for it in iterations]),
        "items_per_s": summary([runner.items / w for w in walls]),
        "cpu_s": summary([it.cpu for it in iterations]),
        "setup_s": summary(setup),
        "peak_rss_mb": summary([it.rss_mb for it in iterations]),
    }
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS if name in stats}
    metrics["ok_frac"] = (runner.attempted - runner.failed) / runner.attempted
    detail = {"stats": stats, "failures": [f for it in iterations for f in it.failures]}
    return metrics, detail


# ---------- traced run ----------

SPECTRAL_EXPERIMENTS = (
    "spectral.mc_expected_trace",
    "spectral.edge_exceedance_experiment",
    "spectral.concentration_experiment",
)

# metric -> (unit, kind, source): kind "time" sums span durations, "calls"
# counts spans, "self" sums self times, "attr" sums a span attribute,
# "count" reads a call counter; "harness" metrics are measured by this file.
LAYER_METRICS = {
    "ensemble.sample_s": ("s", "time", "ensemble.sample_symmetric_matrix"),
    "ensemble.sample_calls": ("count", "calls", "ensemble.sample_symmetric_matrix"),
    "ensemble.normalize_s": ("s", "time", "ensemble.MatrixSample.normalized_view"),
    "ensemble.bytes_computed": (
        "bytes", "attr",
        ("bytes", ("ensemble.sample_symmetric_matrix", "ensemble.MatrixSample.normalized_view")),
    ),
    "spectral.largest_eigenvalue_s": ("s", "time", "spectral.largest_eigenvalue"),
    "spectral.largest_eigenvalue_calls": ("count", "calls", "spectral.largest_eigenvalue"),
    "spectral.trace_power_s": ("s", "time", "spectral.trace_power"),
    "spectral.trace_power_calls": ("count", "calls", "spectral.trace_power"),
    "spectral.experiment_self_s": ("s", "self", SPECTRAL_EXPERIMENTS),
    "spectral.thread_gain": ("ratio", "harness", None),
    "dyck.sample_dyck_s": ("s", "time", "dyck.sample_dyck"),
    "dyck.sample_dyck_calls": ("count", "calls", "dyck.sample_dyck"),
    "dyck.k_functional_s": ("s", "time", "dyck.k_functional"),
    "dyck.k_functional_calls": ("count", "calls", "dyck.k_functional"),
    "dyck.stay_above_s": ("s", "self", ("dyck.stay_above_full_window_expectation",)),
    "dyck.experiment_self_s": ("s", "self", ("dyck.expected_k_functional",)),
    "paths.patterns_s": ("s", "time", "paths.exact_expected_trace_patterns"),
    "paths.patterns_calls": ("count", "calls", "paths.exact_expected_trace_patterns"),
    "paths.moment_calls": ("count", "count", "ensemble.moment"),
    "gluing.suite_s": ("s", "time", "gluing.run_invariant_suite"),
    "gluing.suite_self_s": ("s", "self", ("gluing.run_invariant_suite",)),
    "gluing.walks_checked": ("count", "attr", ("walks", ("gluing.run_invariant_suite",))),
    "gluing.glue_s": ("s", "time", "gluing.glue"),
    "gluing.cycle_decomposition_s": ("s", "time", "gluing.cycle_decomposition"),
    "gluing.count_gluings_s": ("s", "time", "gluing.count_gluings"),
    "gluing.odd_interval_decomposition_calls": ("count", "count", "gluing.odd_interval_decomposition"),
    "cli.main_s": ("s", "time", "cli.main"),
    "cli.self_s": ("s", "self", ("cli.main",)),
    "cli.bytes_written": ("bytes", "harness", None),
    "trace.overhead_s": ("s", "harness", None),
}

# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = [
    m for m, (_, kind, _) in LAYER_METRICS.items() if kind in ("calls", "count", "attr")
] + ["cli.bytes_written"]


def _sources(kind: str, source) -> tuple[str, ...]:
    if kind == "attr":
        return tuple(source[1]) + tuple(f"{s}:attributes" for s in source[1])
    return (source,) if isinstance(source, str) else tuple(source or ())


def layer_values(it: Iteration) -> dict:
    """Per-layer values of one traced pass; None where a name is absent."""
    self_s = tracer.self_times(it.spans)
    values = {}
    for metric, (_, kind, source) in LAYER_METRICS.items():
        if kind == "harness":
            continue
        if any(s in it.absent for s in _sources(kind, source)):
            values[metric] = None
        elif kind == "time":
            values[metric] = sum(sp["end"] - sp["start"] for sp in it.spans if sp["name"] == source)
        elif kind == "calls":
            values[metric] = sum(1 for sp in it.spans if sp["name"] == source)
        elif kind == "self":
            values[metric] = sum(self_s[sp["id"]] for sp in it.spans if sp["name"] in source)
        elif kind == "attr":
            key, names = source
            values[metric] = sum(sp.get(key, 0) for sp in it.spans if sp["name"] in names)
        else:
            values[metric] = it.counts.get(source)
    values["cli.bytes_written"] = it.bytes_written
    by_name: dict[str, float] = {}
    for sp in it.spans:
        by_name[sp["name"]] = by_name.get(sp["name"], 0.0) + self_s[sp["id"]]
    values["_self_by_span"] = by_name
    return values


def count_bases(runner: Runner, metrics: dict) -> dict:
    """Each nonzero count with its base: per item of the workload, and for
    the enumeration counters per walk of the call that makes them."""
    item = WORKLOADS[runner.workload]
    pattern_walks = sum(c.items for c in runner.calls if c.argv[0] == "trace-exact")
    special = {
        "paths.moment_calls": ("pattern walk", pattern_walks),
        "gluing.odd_interval_decomposition_calls": (
            "walk checked", metrics.get("gluing.walks_checked") or 0,
        ),
    }
    out = {}
    for m in EXACT_COUNTS:
        value = metrics.get(m)
        if not value:
            continue
        base_name, base = special.get(m, (item, runner.items))
        out[m] = {"value": value, "per": base_name, "base": base, "ratio": value / base}
    return out


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    threads = all(c.threads_flag for c in runner.calls)
    modes = ("plain", "traced", "threads1") if threads else ("plain", "traced")
    passes: dict[str, list[Iteration]] = {m: [] for m in modes}
    start = time.perf_counter()
    while len(passes["traced"]) < 2 or time.perf_counter() - start < seconds:
        for m in modes:
            passes[m].append(runner.iterate(m, len(passes[m])))
    plain = statistics.median(it.net_wall for it in passes["plain"])
    traced = statistics.median(it.net_wall for it in passes["traced"])
    per_pass = [layer_values(it) for it in passes["traced"]]
    failures = [f for its in passes.values() for it in its for f in it.failures]
    for metric in EXACT_COUNTS:
        seen = {v[metric] for v in per_pass}
        if len(seen) > 1:
            runner.failed += 1
            failures.append(f"{metric} differs between traced passes: {sorted(seen, key=str)}")
    metrics = {}
    for metric in LAYER_METRICS:
        vals = [v[metric] for v in per_pass if metric in v]
        if None in vals:
            metrics[metric] = None
        elif metric in EXACT_COUNTS:
            metrics[metric] = vals[0]  # identical in every pass, checked above
        elif vals:
            metrics[metric] = statistics.median(vals)
    metrics["trace.overhead_s"] = traced - plain
    # Calls without --threads run the trial loop on one thread only.
    metrics["spectral.thread_gain"] = (
        statistics.median(it.net_wall for it in passes["threads1"]) / plain if threads else 1.0
    )
    self_sum = statistics.median(sum(v["_self_by_span"].values()) for v in per_pass)
    self_by_span = {
        name: statistics.median(v["_self_by_span"].get(name, 0.0) for v in per_pass)
        for name in sorted(set().union(*(v["_self_by_span"] for v in per_pass)))
    }
    traced_raw = statistics.median(it.wall for it in passes["traced"])
    outside = statistics.median(
        it.wall - v["cli.main_s"] for it, v in zip(passes["traced"], per_pass)
    )
    detail = {
        "net_walls": {m: summary([it.net_wall for it in its]) for m, its in passes.items()},
        "raw_walls": {m: summary([it.wall for it in its]) for m, its in passes.items()},
        "accounting": {
            "untraced_wall_s": plain,
            "traced_wall_s": traced,
            "overhead_s": traced - plain,
            "self_s_by_span": self_by_span,
            "self_sum_s": self_sum,
            "outside_cli_main_s": outside,  # interpreter start, imports, spawn and exit
            "self_sum_plus_outside_s": self_sum + outside,
            "traced_raw_wall_s": traced_raw,
            "note": "spans use the raw clock, so self_sum_plus_outside_s compares with "
                    "traced_raw_wall_s; self times are thread time and exceed it when "
                    "pool threads overlap",
        },
        "count_bases": count_bases(runner, metrics),
        "bytes_note": "ensemble.bytes_computed is computed from array sizes (nbytes of every "
                      "sampled matrix and normalized copy), not measured traffic",
        "absent": sorted(set().union(*(it.absent for it in passes["traced"]))),
        "failures": failures,
    }
    return metrics, detail


# ---------- environment ----------

# Also the first import of the CLI in the run: it writes the byte code and
# shows where `tml` is imported from.
ENV_PROBE = r"""
import json, os, platform, sys
import numpy, scipy
import tml.cli as cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
cpu = platform.processor()
try:
    with open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
except OSError:
    pass
args = cli.build_parser().parse_args(["trace-mc", "--dist", "skew12", "--n", "3", "--s", "2"])
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version")},
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    "cpu_count": os.cpu_count(),
    "cpu_model": cpu,
    "cli_default_threads": args.threads,
    "tml_cli": cli.__file__,
}))
"""


def environment(runner: Runner) -> dict:
    """Versions, BLAS, thread settings and CPU; stops the run unless the CLI
    is imported from this checkout."""
    cwd = runner.workdir / runner.calls[0].label
    p = run_process([sys.executable, "-c", ENV_PROBE], cwd, runner.env, runner.deadline)
    env = json.loads((cwd / "stdout.txt").read_text()) if p.code == 0 else {}
    if not env.get("tml_cli", "").startswith(str(SRC)):
        raise SystemExit(f"tml.cli does not import from {SRC}: {(cwd / 'stderr.txt').read_text()}")
    env["tml_cli"] = str(Path(env["tml_cli"]).relative_to(ROOT))
    env["platform"] = platform.platform()
    env["git_commit"] = git_commit()
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        # The ceiling keeps git from looking above the checkout for a repository.
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------- main ----------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="workload seed offset")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tml" / "cli.py").is_file():
        print(f"run.py: no tml sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, args.smoke, run_id, deadline)
    env = environment(runner)
    if args.trace:
        metrics, detail = run_traced(runner, args.seconds)
        units = {m: u for m, (u, _, _) in LAYER_METRICS.items()}
    else:
        metrics, detail = run_end_to_end(runner, args.seconds)
        units = END_TO_END_UNITS
    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": args.workload,
        "seed_offset": args.seed,
        "frozen_checks": bool(runner.expected),
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "calls": [{"label": c.label, "argv": c.argv, "items": c.items} for c in runner.calls],
        "items": runner.items,
        "environment": env,
        **detail,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in detail["failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
