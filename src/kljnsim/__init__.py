"""Transient attack and defense simulator for the KLJN secure key exchanger.

Submodules:
  noise       band-limited Gaussian generator records and start-point search
  line        traveling-wave transmission line engine and its analytic oracles
  protocol    bit-exchange states, start-up scenarios, defense targets
  attack      eavesdropper statistic, sign calibration and decision rule
  montecarlo  trial composition, experiment harness, steady-state validation
  cli         command-line front end
"""

from .montecarlo import run_experiment, validate_steady_state
from .protocol import PhysicalConfig, ScenarioKind

__all__ = ["PhysicalConfig", "ScenarioKind", "run_experiment", "validate_steady_state"]

__version__ = "0.1.0"
