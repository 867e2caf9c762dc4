"""Command-line front end: config parsing, tables, waveform dumps, validation.

Configuration is a flat ``key = value`` file ('#' starts a comment); every
omitted key takes the built-in default, which reproduces the demonstration
setup exactly.  Flags override file keys, and the effective configuration is
echoed into the output directory so any run can be reproduced from its
artifacts alone.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .montecarlo import _plan_steady_state, run_experiment, trial_waveforms, validate_steady_state
from .protocol import PhysicalConfig, ScenarioKind, SearchParams, _require_finite_positive

__all__ = ["RunConfig", "parse_config", "cmd_tables", "cmd_waveforms", "cmd_validate", "main"]

# Scenario numbers, as plain ints so that they print and parse as numbers.
_SCENARIOS = tuple(int(kind) for kind in ScenarioKind)


@dataclass(frozen=True)
class RunConfig:
    """Full experiment configuration (physical parameters, run controls and
    search settings).  Its leaf fields, in declaration order, are the keys of
    the configuration file."""

    physical: PhysicalConfig = field(default_factory=PhysicalConfig)
    scenarios: tuple[int, ...] = _SCENARIOS
    tau_multipliers: tuple[int, ...] = (1, 2, 3, 4)
    n_trials: int = 1000
    n_cal: int = 200
    master_seed: int = 1
    search: SearchParams = field(default_factory=SearchParams)
    steady_duration: float = 6.4
    jobs: int = 1
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.scenarios or any(s not in _SCENARIOS for s in self.scenarios):
            raise ValueError(f"scenarios must be a nonempty subset of 1..4, got {self.scenarios}")
        if not self.tau_multipliers or any(m < 1 for m in self.tau_multipliers):
            raise ValueError("tau_multipliers must be positive integers")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.n_cal < 50:
            raise ValueError("n_cal must be >= 50")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        out_dir = self.out_dir
        if "#" in out_dir or out_dir != out_dir.strip() or len(out_dir.splitlines()) > 1:
            raise ValueError(f"out_dir {out_dir!r} would not read back from effective_config.txt: "
                             "it may hold no '#' or line break, nor start or end with whitespace")
        _require_finite_positive(self, ("steady_duration",))

    def to_text(self) -> str:
        return "".join(f"{key} = {_format(value)}\n" for key, _, value in _leaves(self))


# Config keys that differ from their field names.
_ALIASES = {"fly_time": "t_f"}


def _leaves(obj, path: tuple[str, ...] = ()):
    """(config key, field path, value) of every leaf field, in declaration order."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, path + (f.name,))
        else:
            yield _ALIASES.get(f.name, f.name), path + (f.name,), value


def _format(value) -> str:
    if isinstance(value, float):  # :g where it reads back as the same float
        return f"{value:g}" if float(f"{value:g}") == value else repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


# Parsers by the type of a field's default value; other types parse themselves.
_PARSERS = {tuple: _parse_int_list}


def _replace_nested(obj, changes: dict):
    """``obj`` with ``changes`` (nested by field name) applied."""
    return replace(obj, **{
        name: _replace_nested(getattr(obj, name), value) if isinstance(value, dict) else value
        for name, value in changes.items()
    })


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value configuration format.

    Unknown keys, malformed values and invariant violations raise ValueError
    naming the offending key; omitted keys take the defaults.
    """
    default = RunConfig()
    schema = {key: (path, type(value)) for key, path, value in _leaves(default)}
    changes: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ValueError(f"unknown config key: {key!r} (line {lineno})")
        path, kind = schema[key]
        try:
            value = _PARSERS.get(kind, kind)(raw_value.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r} (line {lineno}): {exc}") from None
        node = changes
        for name in path[:-1]:
            node = node.setdefault(name, {})
        node[path[-1]] = value
    try:
        return _replace_nested(default, changes)
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from None


# Command-line flags and the config keys they override.
_FLAG_KEYS = {"seed": "master_seed", "scenario": "scenarios", "trials": "n_trials",
              "jobs": "jobs", "duration": "steady_duration", "out": "out_dir"}


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig() if args.config is None else parse_config(Path(args.config).read_text())
    overrides = {key: getattr(args, flag) for flag, key in _FLAG_KEYS.items()
                 if getattr(args, flag, None) is not None}
    if "scenarios" in overrides:
        overrides["scenarios"] = (overrides["scenarios"],)
    return replace(cfg, **overrides)


def _prepare_out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective_config.txt").write_text(cfg.to_text())
    return out_dir


def cmd_tables(cfg: RunConfig) -> list[Path]:
    """Run the configured scenarios and write one success-probability CSV each."""
    out_dir = _prepare_out_dir(cfg)
    paths = []
    for scenario in cfg.scenarios:
        t0 = time.perf_counter()
        summary = run_experiment(
            cfg.physical,
            ScenarioKind(scenario),
            cfg.tau_multipliers,
            cfg.n_trials,
            cfg.master_seed,
            n_cal=cfg.n_cal,
            params=cfg.search,
            jobs=cfg.jobs,
        )
        path = out_dir / f"scenario_{scenario}.csv"
        summary.write_csv(path)
        paths.append(path)
        elapsed = time.perf_counter() - t0
        print(f"scenario {scenario}: {cfg.n_trials} trials in {elapsed:.1f} s -> {path}")
        for line in summary.csv_lines()[1:]:
            print(f"  {line}")
    return paths


def cmd_waveforms(cfg: RunConfig, scenario: int) -> Path:
    """Dump the cable waveforms of one two-fly-time trial as TSV."""
    out_dir = _prepare_out_dir(cfg)
    wf = trial_waveforms(
        cfg.physical,
        ScenarioKind(scenario),
        trial=0,
        master_seed=cfg.master_seed,
        fly_times=2,
        params=cfg.search,
    )
    path = out_dir / f"waveforms_scenario_{scenario}.tsv"
    wf.write_tsv(path)
    print(f"scenario {scenario}: waveform dump -> {path}")
    return path


def cmd_validate(cfg: RunConfig) -> bool:
    """Run validate_steady_state, write its report to validation.txt and
    print it; returns whether every check passed.

    Every input check runs before the output directory is made.
    """
    _plan_steady_state(cfg.physical, cfg.steady_duration)
    out_dir = _prepare_out_dir(cfg)
    report = validate_steady_state(cfg.physical, cfg.steady_duration, cfg.master_seed)
    text = report.render()
    (out_dir / "validation.txt").write_text(text + "\n")
    print(text)
    return report.all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kljn-sim",
        description="Transient attack and defense simulator for the KLJN key exchanger",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_trials: bool = False) -> None:
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config; default: out)")
        if with_trials:
            p.add_argument("--scenario", type=int, choices=_SCENARIOS,
                           help="run a single scenario")
            p.add_argument("--trials", type=int, help="evaluation trials per scenario")
            p.add_argument("--jobs", type=int, help="worker processes (does not affect results)")

    p_tables = sub.add_parser("tables", help="estimate attack success probabilities")
    common(p_tables, with_trials=True)

    p_wave = sub.add_parser("waveforms", help="dump one trial's cable waveforms")
    common(p_wave)
    p_wave.add_argument("--scenario", type=int, choices=_SCENARIOS, required=True)

    p_val = sub.add_parser("validate", help="steady-state and engine validation")
    common(p_val)
    p_val.add_argument("--duration", type=float, help="steady-state run length per state (s)")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "tables":
            cmd_tables(cfg)
            return 0
        if args.command == "waveforms":
            cmd_waveforms(cfg, args.scenario)
            return 0
        return 0 if cmd_validate(cfg) else 1
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
