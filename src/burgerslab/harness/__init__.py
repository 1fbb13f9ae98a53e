"""Experiment orchestration: config, studies, reports.

The harness sits on top of the core modules and nothing in the core imports
it.  The command line lives in ``burgerslab.harness.cli``; it is not
imported here, so ``python -m burgerslab.harness.cli`` runs it fresh.
"""

from burgerslab.harness.config import (
    DEFAULT_TOLERANCES,
    STUDY_KINDS,
    ConfigError,
    ExperimentConfig,
)
from burgerslab.harness.reports import StudyReport, emit_reports, resolve_out_dir
from burgerslab.harness.studies import STUDIES, measure_order, run_study

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "STUDY_KINDS",
    "DEFAULT_TOLERANCES",
    "StudyReport",
    "emit_reports",
    "resolve_out_dir",
    "STUDIES",
    "measure_order",
    "run_study",
]
