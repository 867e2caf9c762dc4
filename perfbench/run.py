"""Benchmark of the kljn-sim command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  Every workload command runs in a fresh
process through ``kljnsim.cli.main`` with the sources under ``src/``, and
every output it writes is checked.  With ``--trace 0`` the command is
repeated for about S seconds, pinned to one vCPU next to a reference kernel
that gives the host's speed, and the end-to-end metrics are reported; with
``--trace 1`` one untraced and one traced run (``traced.py``) give the
per-layer metrics.  ``--tiny`` shrinks every workload for the self-test.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full record (stamp, per-run times, output digests, problems) is written
to ``perfbench/out/<workload>-seed<N>-trace<T>/result.json``.  See
``perfbench/README.md`` for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from importlib.metadata import version
from pathlib import Path

import numpy as np

import traced

ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
TRACER = Path(__file__).resolve().parent / "traced.py"

# Default PhysicalConfig: R_H, R_L, Z0, and the time step fly_time/100.
R_H, R_L, Z0, DT = 11e3, 2e3, 50.0, 1e-7
TAU_STEPS = (100, 200, 300, 400)
SEGMENT_SAMPLES = 2**21
# Eavesdropper success at one fly time without defense (README, criterion 3).
LEAK_AT_TF = 2 / math.pi * math.atan(math.sqrt(R_L / R_H) * (R_H + Z0) / (R_L + Z0))
LEAK_SE_LIMIT = 4.0
# validate flags its HL-LH and power clauses at 3 SE, a test that fires by
# chance on a few percent of seeds at this size; a clause fails here beyond
# 5 SE (see README).
STEADY_SE_LIMIT = 5.0
SETUP_IMPORTS = 7
# Every command is killed past this many seconds from the start of a run,
# so that a run ends within 180 s even when the program hangs.
RUN_BUDGET_S = 165.0
CSV_HEADER = "scenario,tau_s,p_ev,se_v,p_ei,se_i,n,loosened_fraction"
# The host's speed drifts by up to 2x over minutes, and each vCPU drifts on
# its own.  A timed command is pinned to one vCPU, a fixed reference kernel
# is timed on a background thread pinned to the same vCPU while it runs, and
# the command's wall time is also given scaled by REFERENCE_NOMINAL_S, the
# kernel's typical CPU time on the 2-vCPU machine of the baseline, over the
# kernel's mean CPU time during the command (see README).
REFERENCE_NOMINAL_S = 0.06
REFERENCE_GAP_S = 0.3


@dataclass(frozen=True)
class Workload:
    command: str           # "tables" or "validate"
    scenario: int = 0
    jobs: int = 1
    n_cal: int = 50
    n_trials: int = 20
    segments: int = 0      # steady-state segments of 2^21 samples per state
    record_len: int = 2**20
    pool_jobs: int = 0     # jobs of an extra traced run that measures the process pool

    @property
    def units(self) -> int:
        """Trials (tables) or steady-state segments (validate) one command runs."""
        if self.command == "tables":
            return self.n_cal + self.n_trials
        return 2 * self.segments

    @property
    def line_samples(self) -> int:
        if self.command == "tables":
            return self.units * max(TAU_STEPS)
        return self.units * SEGMENT_SAMPLES

    def argv(self, seed: int, config: Path, out: Path) -> list[str]:
        args = [self.command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
        if self.command == "tables":
            return args + ["--scenario", str(self.scenario), "--trials", str(self.n_trials),
                           "--jobs", str(self.jobs)]
        return args + ["--duration", f"{self.segments * SEGMENT_SAMPLES * DT:.7f}"]

    def config_text(self) -> str:
        return f"n_cal = {self.n_cal}\nrecord_len = {self.record_len}\n"


WORKLOADS = {
    "nodefense-s1": Workload("tables", scenario=1, pool_jobs=2),
    "defense-s4": Workload("tables", scenario=4),
    "steady-state": Workload("validate", segments=4),
}


def tiny(wl: Workload) -> Workload:
    return replace(wl, n_trials=4, record_len=2**16, segments=min(wl.segments, 1))


@dataclass
class CommandRun:
    wall_s: float
    rss_mib: float
    code: int
    problems: list[str]
    digests: dict[str, str]
    spans: list | None = None


def _env() -> dict[str, str]:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _spawn(args: list[str], out: Path, deadline: float) -> tuple[float, float, int]:
    """Run ``args`` to completion or ``deadline`` (a perf_counter time): wall
    time, peak RSS of its process tree, exit code."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=so, stderr=se, env=_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _pin(cpu: int | None) -> str:
    """Python statements that pin the process to ``cpu``, if one is given."""
    return "" if cpu is None else f"os.sched_setaffinity(0, {{{cpu}}}); "


def import_seconds(out: Path, deadline: float, cpu: int | None = None) -> float:
    """Time a fresh interpreter takes to import the command-line module."""
    code = (f"import os, time; {_pin(cpu)}t = time.perf_counter(); import kljnsim.cli; "
            "print(time.perf_counter() - t)")
    _, _, rc = _spawn([sys.executable, "-c", code], out, deadline)
    if rc != 0:
        raise RuntimeError(f"importing kljnsim.cli failed, see {out / 'stderr.txt'}")
    return float((out / "stdout.txt").read_text())


def _reference_kernel(rng: np.random.Generator) -> None:
    """A fixed kernel shaped like the program's two hot paths: a band-limited
    record synthesised by inverse FFT, then a Python loop of small-block
    numpy updates like the line engine's.  It is the benchmark's own code,
    so a change to ``src/`` cannot change it."""
    n, bins, block = 2**20, 2**18, 100
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1 : bins + 1] = rng.standard_normal(bins) + 1j * rng.standard_normal(bins)
    samples = np.fft.irfft(spectrum, n)
    out = np.empty(n)
    for k in range(0, n, n // 400):
        seg = samples[k : k + block]
        out[k : k + block] = (seg - 0.5) / 3.0 + 2.0 * seg


@contextmanager
def reference_sampler(cpu: int):
    """Time the reference kernel on a background thread pinned to ``cpu``,
    once every REFERENCE_GAP_S after the previous one ends, while the body
    runs.  Yields the list the kernel's CPU times are appended to; it gets
    at least one."""
    times: list[float] = []
    stop = threading.Event()

    def sample() -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        rng = np.random.default_rng(0)
        while True:
            start = time.thread_time()
            _reference_kernel(rng)
            times.append(time.thread_time() - start)
            if stop.wait(REFERENCE_GAP_S):
                return

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield times
    finally:
        stop.set()
        thread.join()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_tables(wl: Workload, out: Path) -> tuple[list[str], dict[str, str]]:
    path = out / f"scenario_{wl.scenario}.csv"
    if not path.is_file():
        return [f"{path.name} missing"], {}
    problems = []
    lines = path.read_text().splitlines()
    if lines[:1] != [CSV_HEADER]:
        problems.append(f"{path.name}: bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(TAU_STEPS) or any(len(r) != 8 for r in rows):
        return problems + [f"{path.name}: expected {len(TAU_STEPS)} rows of 8 fields"], {}
    for steps, row in zip(TAU_STEPS, rows):
        p_ev, p_ei = float(row[2]), float(row[4])
        if int(row[0]) != wl.scenario or row[1] != f"{steps * DT:.6g}":
            problems.append(f"{path.name}: row {row} is not scenario {wl.scenario} at "
                            f"tau {steps * DT:.6g}")
        if not (0.0 <= p_ev <= 1.0 and 0.0 <= p_ei <= 1.0):
            problems.append(f"{path.name}: probability outside [0, 1] in {row}")
        if int(row[6]) != wl.n_trials:
            problems.append(f"{path.name}: n = {row[6]}, expected {wl.n_trials}")
    first = rows[0]
    if first[2] != first[4]:
        problems.append(f"{path.name}: p_ev {first[2]} != p_ei {first[4]} at tau = t_f")
    if wl.scenario == 1:
        se = math.sqrt(LEAK_AT_TF * (1.0 - LEAK_AT_TF) / wl.n_trials)
        if abs(float(first[2]) - LEAK_AT_TF) > LEAK_SE_LIMIT * se:
            problems.append(f"{path.name}: p at t_f = {first[2]} is more than "
                            f"{LEAK_SE_LIMIT:g} SE ({se:.4f}) from the leak {LEAK_AT_TF:.4f}")
    return problems, {path.name: _digest(path)}


def check_validate(wl: Workload, out: Path) -> tuple[list[str], dict[str, str]]:
    path = out / "validation.txt"
    if not path.is_file():
        return [f"{path.name} missing"], {}
    text = path.read_text()
    problems = []
    if not re.search(r"bounce-diagram oracle: .*\[pass\]", text):
        problems.append("line-oracle clause did not pass")
    if f"({wl.segments} segments)" not in text:
        problems.append(f"expected {wl.segments} segments per state")
    diffs = re.search(r"HL-LH <v\^2> diff: \S+ \((\S+) se\), <i\^2> diff: \S+ \((\S+) se\)", text)
    power = re.search(r"mean power flow at A: (\S+) \+- (\S+) W", text)
    if diffs is None or power is None:
        return problems + ["HL-LH or power clause missing"], {}
    for label, dev in (("HL-LH <v^2>", float(diffs[1])), ("HL-LH <i^2>", float(diffs[2])),
                       ("mean power", abs(float(power[1])) / float(power[2]))):
        if not dev <= STEADY_SE_LIMIT:
            problems.append(f"{label} clause at {dev:.2f} SE (limit {STEADY_SE_LIMIT:g})")
    return problems, {path.name: _digest(path)}


def run_workload(wl: Workload, seed: int, out: Path, deadline: float,
                 spans: Path | None = None, cpu: int | None = None) -> CommandRun:
    """Run one workload command (traced when ``spans`` is given, pinned to
    ``cpu`` when that is given) and check its outputs."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    config = out / "config.txt"
    config.write_text(wl.config_text())
    args = wl.argv(seed, config, out / "result")
    if spans is None:
        cmd = [sys.executable, "-c", f"import os, sys; {_pin(cpu)}from kljnsim.cli import main; "
               "sys.exit(main(sys.argv[1:]))"] + args
    else:
        cmd = [sys.executable, str(TRACER), str(spans)] + args
    wall, rss, code = _spawn(cmd, out, deadline)
    problems = []
    stderr = (out / "stderr.txt").read_text()
    # validate exits 1 by design: its lumped-level clauses fail (criterion 7).
    allowed = (0,) if wl.command == "tables" else (0, 1)
    if code not in allowed or "Traceback" in stderr:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    check = check_tables if wl.command == "tables" else check_validate
    found, digests = check(wl, out / "result")
    problems += found
    loaded = json.loads(spans.read_text()) if spans is not None and spans.is_file() else None
    if spans is not None and loaded is None:
        problems.append("traced run wrote no spans")
    return CommandRun(wall, rss, code, problems, digests, loaded)


def measure(wl: Workload, seed: int, seconds: float, work: Path, deadline: float,
            setup_imports: int):
    """End-to-end metrics: repeat the command until ``seconds`` are used."""
    _reference_kernel(np.random.default_rng(0))  # warm-up: FFT plan cache
    cpu = max(os.sched_getaffinity(0))
    import_seconds(work / "warmup", deadline, cpu)
    with reference_sampler(cpu) as times:
        setup = [import_seconds(work / f"import{k}", deadline, cpu)
                 for k in range(setup_imports)]
    setup_ref = statistics.mean(times)
    runs: list[CommandRun] = []
    refs, normalized = [], []
    start = time.perf_counter()
    while True:
        with reference_sampler(cpu) as times:
            run = run_workload(wl, seed, work / f"rep{len(runs)}", deadline, cpu=cpu)
        refs.append(statistics.mean(times))
        normalized.append(run.wall_s * REFERENCE_NOMINAL_S / refs[-1])
        if runs and run.digests != runs[0].digests:
            run.problems.append("outputs differ from the first run with the same seed")
        runs.append(run)
        wall = statistics.median(r.wall_s for r in runs)
        now = time.perf_counter()
        if now - start + wall > seconds or now + wall > deadline:
            break
    failed = sum(bool(r.problems) for r in runs)
    norm_wall = statistics.median(normalized)
    metrics = {
        "norm_wall_s": norm_wall,
        "norm_trials_per_s": wl.units / norm_wall,
        "norm_line_msamples_per_s": wl.line_samples / norm_wall / 1e6,
        "setup_s": statistics.median(setup) * REFERENCE_NOMINAL_S / setup_ref,
        "peak_rss_mib": statistics.median(r.rss_mib for r in runs),
        "passed_fraction": 1.0 - failed / len(runs),
    }
    detail = {"setup_samples": setup, "setup_reference_s": setup_ref,
              "walls": [r.wall_s for r in runs], "wall_s": wall, "reference_s": refs,
              "norm_walls": normalized}
    return metrics, runs, detail


def trace(wl: Workload, seed: int, work: Path, deadline: float):
    """Per-layer metrics from a traced run, next to an untraced run of the same command."""
    plain = run_workload(wl, seed, work / "untraced", deadline)
    layered = run_workload(wl, seed, work / "traced", deadline, work / "spans.json")
    runs = [plain, layered]
    if wl.pool_jobs:
        # The same trials on a process pool.  Spans recorded in worker
        # processes are lost; the pool and run_experiment spans remain.
        runs.append(run_workload(replace(wl, jobs=wl.pool_jobs), seed, work / "traced-pooled",
                                 deadline, work / "spans-pooled.json"))
    for run in runs[1:]:
        if run.digests != plain.digests:
            run.problems.append("traced outputs differ from the untraced run")
    if any(r.spans is None for r in runs[1:]):
        return {}, runs, {}
    metrics = traced.layer_metrics(layered.spans, layered.wall_s)
    metrics.update({"montecarlo.pool.chunks": 0, "montecarlo.pool.efficiency": 1.0,
                    "montecarlo.pool.overhead_s": 0.0})
    if wl.pool_jobs:
        pooled = runs[2].spans
        serial_s = sum(s[2] - s[1] for s in layered.spans if s[0] == "montecarlo.experiment")
        parallel_s = sum(s[2] - s[1] for s in pooled if s[0] == "montecarlo.experiment")
        metrics.update({
            "montecarlo.pool.chunks": sum(s[5]["chunks"] for s in pooled
                                          if s[0] == "montecarlo.pool"),
            "montecarlo.pool.efficiency": serial_s / (wl.pool_jobs * parallel_s),
            "montecarlo.pool.overhead_s": parallel_s - serial_s / wl.pool_jobs,
        })
    metrics.update({
        "trace.wall_s": layered.wall_s,
        "trace.overhead_s": layered.wall_s - plain.wall_s,
    })
    detail = {"walls": [r.wall_s for r in runs]}
    return metrics, runs, detail


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(name: str, wl: Workload, args: argparse.Namespace) -> dict:
    return {
        "workload": name,
        "params": asdict(wl),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrunken workloads (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kljnsim" / "cli.py").is_file():
        print(f"no kljnsim sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        values, runs, detail = trace(wl, args.seed, work, deadline)
        wanted = spec["per_layer"]
    else:
        imports = 1 if args.tiny else SETUP_IMPORTS
        values, runs, detail = measure(wl, args.seed, args.seconds, work, deadline, imports)
        wanted = spec["end_to_end"]
    problems = [p for r in runs for p in r.problems]
    failed = sum(bool(r.problems) for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": failed == 0 and len(metrics) == len(wanted),
              "attempted": len(runs), "failed": failed, "metrics": metrics}
    record = dict(stamp(args.workload, wl, args), **result, problems=problems,
                  digests=runs[0].digests, **detail)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
