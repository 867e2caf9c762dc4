"""The benchmark's tracer still finds every layer entry point it wraps.

``perfbench/traced.py`` replaces module attributes of the package with
timing wrappers; a renamed or unused attribute would silently drop its
layer from the benchmark's per-layer metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "traced.py"


def _traced_span_names(tmp_path, args):
    """Exit code and span names of one traced command run in a fresh process."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *args, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    names = {span[0] for span in json.loads(spans.read_text())} if spans.exists() else set()
    return proc.returncode, names, proc.stderr


@pytest.mark.parametrize("args, exit_codes, layers", [
    (["tables", "--scenario", "4", "--trials", "4"], (0,),
     {"noise.synthesize", "noise.search", "protocol.prepare", "line.transient",
      "line.propagate", "montecarlo.trial", "attack.calibrate", "montecarlo.experiment"}),
    # one steady-state segment of 2^21 samples per state
    (["validate", "--duration", "0.2097152"], (0, 1),
     {"noise.synthesize", "line.propagate", "montecarlo.steady"}),
], ids=["tables", "validate"])
def test_tracer_records_every_layer(tmp_path, args, exit_codes, layers):
    config = tmp_path / "run.cfg"
    config.write_text("n_cal = 50\nrecord_len = 65536\n")
    rc, names, err = _traced_span_names(tmp_path, [args[0], "--config", str(config), *args[1:]])
    assert rc in exit_codes, err
    assert layers <= names, f"no spans for {sorted(layers - names)}"
