"""Fast self-test of the benchmark harness, on shrunken workloads.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  It checks that

* every workload, untraced and traced, prints exactly the metrics named in
  BENCHMARK.json, each with its unit, and reports no failure;
* the tracing wrappers are transparent: traced runs write byte-identical
  outputs (run.py counts a difference as a failure, so a correct result
  above proves it), and each wrapper keeps the wrapped function's name;
* deliberately broken outputs and a configuration error are counted as
  failed operations.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import run
import traced


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_printed_metrics(spec: dict) -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == wanted, (workload, trace, set(printed) ^ set(wanted))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {workload} trace {trace}: {len(printed)} metrics with units")


def check_wrapper_names() -> None:
    tracer = traced.Tracer()
    traced.install(tracer)
    from kljnsim import cli, line, montecarlo, protocol

    for fn in (cli.run_experiment, cli.validate_steady_state, montecarlo._run_trial,
               montecarlo.prepare_generators, protocol.synthesize_record,
               protocol.find_start_point, montecarlo.run_transient, line._propagate,
               montecarlo._propagate, montecarlo.synthesize_record,
               montecarlo.signs_from_calibration):
        inner = fn.__wrapped__
        assert (fn.__name__, fn.__module__) == (inner.__name__, inner.__module__), fn
    print("ok  wrappers keep the wrapped names")


def check_broken_outputs() -> None:
    seed, work = 3, run.OUT / "selftest"
    deadline = time.perf_counter() + 600
    tables = run.tiny(run.WORKLOADS["nodefense-s1"])
    good = run.run_workload(tables, seed, work / "tables", deadline)
    assert not good.problems, good.problems
    csv = work / "tables" / "result" / "scenario_1.csv"
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    for broken, expect in (
        (dict(p_ev="1.5000"), "outside [0, 1]"),
        (dict(p_ev="0.0000"), "p_ev 0.0000 != p_ei"),
        (dict(n="5"), "n = 5"),
    ):
        row = dict(zip(run.CSV_HEADER.split(","), fields), **broken)
        csv.write_text("\n".join([lines[0], ",".join(row.values())] + lines[2:]) + "\n")
        problems, _ = run.check_tables(tables, csv.parent)
        assert any(expect in p for p in problems), (broken, problems)
    csv.write_text("\n".join(lines[:-1]) + "\n")
    assert run.check_tables(tables, csv.parent)[0], "a missing row went unnoticed"

    steady = run.tiny(run.WORKLOADS["steady-state"])
    good = run.run_workload(steady, seed, work / "steady", deadline)
    assert good.code == 1 and not good.problems, (good.code, good.problems)
    text_path = work / "steady" / "result" / "validation.txt"
    text = text_path.read_text()
    for pattern, broken in ((r"\(limit 1e-09\) \[pass\]", "(limit 1e-09) [FAIL]"),
                            (r"\(\S+ se\), <i\^2>", "(9.99 se), <i^2>"),
                            (r"mean power flow at A: \S+", "mean power flow at A: +1e+03")):
        text_path.write_text(re.sub(pattern, broken, text))
        assert run.check_validate(steady, text_path.parent)[0], f"{broken} went unnoticed"

    # Below 1000/B seconds validate rejects the duration: exit 2, a failure.
    bad = run.run_workload(run.Workload("validate", segments=0), seed, work / "bad", deadline)
    assert bad.code == 2 and bad.problems, (bad.code, bad.problems)
    print("ok  broken outputs and exit 2 count as failures")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.ROOT / "src"))
    check_wrapper_names()
    check_broken_outputs()
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
