"""Run one kljn-sim command with a span recorded around each layer entry point.

    python3 perfbench/traced.py SPANS.json ARG...

runs ``kljnsim.cli.main([ARG...])`` in this process after replacing the
layer entry points, at the module attributes their callers look up, with
timing wrappers.  The wrappers pass arguments, results and exceptions
through unchanged; the benchmark proves it by comparing the output digests
of a traced and an untraced run.  Spans stay in memory and are written to
SPANS.json once, when the command has returned.  The process exits with
the command's exit code.

A span is ``[name, start, end, parent, request, attrs]``: ``parent`` is the
index of the enclosing span (None at the top), ``request`` names the trial
(``trial/<phase>/<index>``) or steady-state segment (``segment/<n>``) the
work belongs to, and ``attrs`` holds counts read from the call.

``layer_metrics`` reduces a span list to the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = "main"
        self.segments = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None, request=None):
        """Return ``fn`` wrapped to record a span called ``name``.

        ``attrs(args, kwargs, result)`` gives the span's counts; ``request``
        (args, kwargs) names the trial or segment the call and its children
        belong to.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.request
            if request is not None:
                self.request = request(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.request = outer
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the name its caller binds."""
    from kljnsim import cli, line, montecarlo, protocol

    def points(args, kwargs, record):
        return {"points": len(record.samples)}

    def found(args, kwargs, start):
        return {"index": None if start is None else start.index}

    def prepared(args, kwargs, drives):
        return {"attempts": [d.attempts for d in drives],
                "loosened": any(d.loosened for d in drives)}

    def transient(args, kwargs, waveforms):
        return {"samples": len(waveforms)}

    def propagated(args, kwargs, result):
        n, delay = len(args[0]), args[5]
        return {"samples": n, "blocks": -(-n // delay)}

    def trial_id(args, kwargs):
        return f"trial/{args[2]}/{args[3]}"

    # The steady-state loop synthesizes two records and then propagates
    # them once per segment, so propagation closes a segment.
    def segment_id(args, kwargs):
        return f"segment/{tracer.segments}"

    def segment_done(args, kwargs, result):
        tracer.segments += 1
        return propagated(args, kwargs, result)

    def chunks(args, kwargs, result):
        return {"chunks": len(args[2])}

    wraps = [
        (cli, "run_experiment", "montecarlo.experiment", None, None),
        (cli, "validate_steady_state", "montecarlo.steady", None, None),
        (montecarlo, "_run_trial", "montecarlo.trial", None, trial_id),
        (montecarlo, "signs_from_calibration", "attack.calibrate", None, None),
        (montecarlo, "prepare_generators", "protocol.prepare", prepared, None),
        (protocol, "synthesize_record", "noise.synthesize", points, None),
        (protocol, "find_start_point", "noise.search", found, None),
        (montecarlo, "run_transient", "line.transient", transient, None),
        (line, "_propagate", "line.propagate", propagated, None),
        (montecarlo, "synthesize_record", "noise.synthesize", points, segment_id),
        (montecarlo, "_propagate", "line.propagate", segment_done, segment_id),
    ]
    for module, attr, name, attrs, request in wraps:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs, request))

    # Chunks go to worker processes whose spans are not collected; only the
    # parent's submission is counted.
    class CountingPool(montecarlo.ProcessPoolExecutor):
        map = tracer.wrap("montecarlo.pool", montecarlo.ProcessPoolExecutor.map, chunks)

    montecarlo.ProcessPoolExecutor = CountingPool


def _percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command whose process took ``wall_s``."""
    busy = [end - start for _, start, end, *_ in spans]
    self_time = list(busy)
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent is not None:
            self_time[parent] -= busy[i]

    def pick(name):
        return [i for i, span in enumerate(spans) if span[0] == name]

    def total(ids, times=busy):
        return sum(times[i] for i in ids)

    def attr_sum(ids, key):
        return sum(spans[i][5][key] for i in ids)

    synth, search = pick("noise.synthesize"), pick("noise.search")
    prepare, transient = pick("protocol.prepare"), pick("line.transient")
    propagate, trial = pick("line.propagate"), pick("montecarlo.trial")
    points = attr_sum(synth, "points")
    samples = attr_sum(propagate, "samples")
    starts = [spans[i][5]["index"] for i in search if spans[i][5]["index"] is not None]
    attempts = [a for i in prepare for a in spans[i][5]["attempts"]]
    trial_ms = [busy[i] * 1e3 for i in trial]
    return {
        "noise.synthesize.calls": len(synth),
        "noise.synthesize.busy_s": total(synth),
        "noise.synthesize.points": points,
        "noise.synthesize.ns_per_point": total(synth) / points * 1e9 if points else 0.0,
        "noise.synthesize.share": total(synth) / wall_s,
        "noise.search.calls": len(search),
        "noise.search.busy_s": total(search),
        "noise.search.share": total(search) / wall_s,
        "noise.search.start_index_p50": _percentile(starts, 0.5),
        "noise.search.start_index_p90": _percentile(starts, 0.9),
        "protocol.prepare.calls": len(prepare),
        "protocol.prepare.busy_s": total(prepare),
        "protocol.prepare.self_s": total(prepare, self_time),
        "protocol.records_per_party": sum(attempts) / len(attempts) if attempts else 0.0,
        "protocol.loosened_fraction": (
            sum(spans[i][5]["loosened"] for i in prepare) / len(prepare) if prepare else 0.0
        ),
        "line.transient.calls": len(transient),
        "line.transient.busy_s": total(transient),
        "line.transient.samples": attr_sum(transient, "samples"),
        "line.propagate.calls": len(propagate),
        "line.propagate.busy_s": total(propagate),
        "line.propagate.samples": samples,
        "line.propagate.blocks": attr_sum(propagate, "blocks"),
        "line.propagate.ns_per_sample": total(propagate) / samples * 1e9 if samples else 0.0,
        "line.propagate.share": total(propagate) / wall_s,
        "attack.calibrate.calls": len(pick("attack.calibrate")),
        "attack.calibrate.busy_s": total(pick("attack.calibrate")),
        "montecarlo.trial.calls": len(trial),
        "montecarlo.trial.busy_s": total(trial),
        "montecarlo.trial.self_s": total(trial, self_time),
        "montecarlo.trial_ms_p50": _percentile(trial_ms, 0.5),
        "montecarlo.trial_ms_p90": _percentile(trial_ms, 0.9),
        "montecarlo.decide.self_s": total(pick("montecarlo.experiment"), self_time),
        "montecarlo.steady.self_s": total(pick("montecarlo.steady"), self_time),
        "cli.self_s": total(pick("cli"), self_time),
        "trace.spans": len(spans),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from kljnsim import cli

    try:
        return tracer.wrap("cli", cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
