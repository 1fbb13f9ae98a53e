"""Experiment configuration: one JSON-serializable record, totally validated.

A config names everything a study needs: the lattice, the noise scale(s),
the amplitude, the initial profile, the test-function bank, the study
kind, and the tolerances the verdict is judged against.  Checking is
total — every offending field is reported by name in one ConfigError, so a
bad config never dies halfway through a run.

Types are checked at construction, for a config built in Python and a
loaded one alike: ``_SCALARS`` lists each scalar field once with its kind,
and a JSON ``true`` is neither a number nor a path.  ``validate()`` checks
the values of the keys the study's row in ``STUDIES`` reads (the config
grid, its stability, n ≥ 1, seed < 2⁶⁴, num_paths, refine_levels, lambda,
tolerances), refuses every other key, and every tolerance outside the row,
set away from its default, then runs and returns the study's plan: each
study checks what it builds and seeds.

Tolerances default to the acceptance thresholds; tightening them is a
config edit, not a code change.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from burgerslab.harness.studies import STUDIES
from burgerslab.heat import stability_check
from burgerslab.lattice import TorusGrid, is_integer, is_real
from burgerslab.noise import is_seed

__all__ = ["ExperimentConfig", "ConfigError", "STUDY_KINDS", "DEFAULT_TOLERANCES"]

STUDY_KINDS = tuple(STUDIES)

# Defaults mirror the acceptance thresholds; studies read these through
# config.tolerances so a run can tighten or loosen any of them.
DEFAULT_TOLERANCES = {
    "kernel_mass": 1e-8,          # |∫ρ_n − 1| via high-resolution quadrature
    "h_zero_rel": 1e-6,           # |h_n(0) − c_n_continuum| / c_n_continuum
    "pair_var_rel": 0.05,         # pairing-variance law, relative
    "cov_sigma": 4.0,             # lag covariance, standard errors
    "qv_rel": 0.05,               # single-path QV per unit time, relative
    "cn_order": 0.3,              # |measured − 2| for c_n_discrete → c_n
    "heat_C": 25.0,               # max error ≤ C·(dt + dx²); the measured
                                  # constant is ≈0.2 for Z and ≈9.6 for U
                                  # (third-derivative stencil error of log Z)
    "heat_order": 0.2,            # |measured spatial order − 2|
    "kpz_order_min": 0.9,         # coupled-refinement order of Σ_k max|r_k|
    "weak_rel_gap": 0.1,          # gap/|rhs| per test function
    "weak_order_min": 0.9,        # coupled-refinement order of the bank gap
    "limit_ratio_factor": 3.0,    # |rhs−limit| ≤ factor·λ·defect-norm at every n
    "limit_terminal_factor": 5.0, # terminal Cauchy tolerance multiplier
    "section_order_min": 0.9,     # |s(eps) − initial pairing| order in eps
    "duality_tol": 1e-12,         # summation-by-parts identity
    "fk_sigma": 3.0,              # solver cross-check, standard errors
    "fk_exponent_tol": 0.1,       # |stderr slope + 0.5|
}


class ConfigError(ValueError):
    """Raised with every named field error collected in one message."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{name}: {msg}" for name, msg in self.errors))


# Each scalar field once: its attribute, its JSON key (which also names its
# errors) and its kind.  A kind is what it accepts, how it is stored, and
# the noun its error uses.
_SCALARS = (
    ("d", "d", "integer"),
    ("N", "N", "integer"),
    ("M", "M", "integer"),
    ("L", "L", "real"),
    ("T", "T", "real"),
    ("lam", "lambda", "real"),
    ("seed", "seed", "integer"),
    ("num_paths", "num_paths", "integer"),
    ("refine_levels", "refine_levels", "integer"),
    ("out_dir", "out_dir", "path"),
)
_KINDS = {
    # an integral float keeps its value as an int; a bool is not a number
    "integer": (lambda v: is_integer(v) or is_real(v) and float(v).is_integer(),
                int, "an integer"),
    "real": (is_real, float, "a real number"),
    "path": (lambda v: v is None or isinstance(v, str), lambda v: v, "a string or null"),
}
_KEYS = {"study", "n", "initial", "bank", "tolerances"} | {key for _, key, _ in _SCALARS}
_EVERY_STUDY = {"study", "seed", "out_dir", "tolerances"}  # the keys no row lists


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one study run depends on.  See module docstring."""

    study: str
    d: int = 1
    N: int = 128
    M: int = 32768
    L: float = 1.0
    T: float = 0.1
    n: tuple = (8,)
    lam: float = 1.0
    seed: int = 7
    initial_kind: str = "gaussian-bump"
    initial_params: dict = field(
        default_factory=lambda: {"a": 0.5, "w": 0.12, "center": [0.37]}
    )
    bank: tuple | None = None
    num_paths: int = 10_000
    refine_levels: int = 1
    out_dir: str | None = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        errors = []

        def checked(key, kind, value):
            accepts, stored, noun = _KINDS[kind]
            if accepts(value):
                return stored(value)
            errors.append((key, f"must be {noun}, got {value!r}"))
            return value

        for attr, key, kind in _SCALARS:
            object.__setattr__(self, attr, checked(key, kind, getattr(self, attr)))
        scales = self.n if isinstance(self.n, (list, tuple)) else (self.n,)
        scales = tuple(checked("n", "integer", v) for v in scales)
        if not isinstance(self.initial_params, dict):
            errors.append(("initial", f"params must be an object, got {self.initial_params!r}"))
        if not isinstance(self.tolerances, dict):
            errors.append(("tolerances", f"must be an object of name: value, got {self.tolerances!r}"))
        if self.bank is not None and not (
            isinstance(self.bank, (list, tuple)) and all(isinstance(spec, dict) for spec in self.bank)
        ):
            errors.append(("bank", f"must be a list of test-function objects, got {self.bank!r}"))
        if errors:
            raise ConfigError(errors)
        object.__setattr__(self, "n", scales)
        object.__setattr__(self, "initial_params", dict(self.initial_params))
        object.__setattr__(self, "tolerances", {**DEFAULT_TOLERANCES, **self.tolerances})
        if self.bank is not None:
            object.__setattr__(
                self, "bank", tuple(dict(spec) for spec in self.bank)
            )

    # -- validation ------------------------------------------------------

    def grid(self) -> TorusGrid:
        return TorusGrid(d=self.d, N=self.N, M=self.M, L=self.L, T=self.T)

    def validate(self):
        """Check the keys the study's row reads, name any other set, then run its plan.

        Types were checked at construction.  An unknown kind has no row, so
        every value check runs.  The plan runs once the fields it reads are
        well formed (a known kind, a grid, scales ≥ 1, refine_levels ≥ 1).
        """
        errors = []
        study = STUDIES.get(self.study)
        if study is None:
            errors.append(("study", f"unknown kind {self.study!r}; expected one of {STUDY_KINDS}"))
        reads = _KEYS if study is None else _EVERY_STUDY.union(study.reads)
        grid = None
        try:
            grid = self.grid()
        except ValueError as exc:
            errors.append(("grid", str(exc)))
        margin = stability_check(grid) if grid is not None and "M" in reads else 0.0
        if margin < 0.0:
            errors.append(("M", f"explicit scheme unstable: margin {margin:.3f} < 0 "
                                f"(need dt ≤ dx²/(2d))"))
        if "n" in reads and not (self.n and min(self.n) >= 1):
            errors.append(("n", f"need at least one mollifier scale, each ≥ 1, got {self.n}"))
        for name, least in (("seed", 0), ("num_paths", 100), ("refine_levels", 1)):
            value = getattr(self, name)
            if name in reads and value < least:
                errors.append((name, f"need ≥ {least}, got {value}"))
            elif name == "seed" and not is_seed(value):  # every study reads the seed
                errors.append((name, f"need < 2**64 (a Philox key word), got {value}"))
        if "lambda" in reads and not (self.lam >= 0.0 and math.isfinite(self.lam)):
            errors.append(("lambda", f"must be finite and nonnegative, got {self.lam}"))
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            errors.append(("tolerances", f"unknown names {sorted(unknown)}"))
        bad = [k for k, v in self.tolerances.items() if k in DEFAULT_TOLERANCES
               and not (is_real(v) and math.isfinite(v) and v > 0)]
        if bad:
            errors.append(("tolerances", f"non-positive, infinite or non-real values "
                                         f"for {sorted(bad)}"))
        formed = not {"n", "refine_levels"} & {name for name, _ in errors}
        default = ExperimentConfig(study=self.study).to_dict()
        errors.extend((key, f"the {self.study} study does not read {key} (it reads "
                            f"{', '.join(study.reads)}); got {value!r}")
                      for key, value in self.to_dict().items()  # none, for an unknown kind
                      if key not in reads and value != default.get(key))
        errors.extend(("tolerances", f"the {self.study} study does not read {name} (it reads "
                                     f"{', '.join(study.tolerances)}); got {value!r}")
                      for name, value in self.tolerances.items() if study is not None
                      and name in DEFAULT_TOLERANCES and name not in study.tolerances
                      and value != DEFAULT_TOLERANCES[name])
        plan = None
        if grid is not None and study is not None and formed:
            plan = study.plan(self, grid, errors)
        if errors:  # an initial profile bad on every ladder level is reported once
            raise ConfigError(dict.fromkeys(errors))
        return plan

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "study": self.study,
            "n": list(self.n) if len(self.n) != 1 else self.n[0],
            "initial": {"kind": self.initial_kind, "params": self.initial_params},
            "tolerances": dict(sorted(self.tolerances.items())),
            "bank": None if self.bank is None else [dict(spec) for spec in self.bank],
            **{key: getattr(self, attr) for attr, key, _ in _SCALARS},
        }
        return {key: value for key, value in out.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Map the JSON keys to fields; the fields check their own types."""
        if not isinstance(data, dict):
            raise ConfigError([("config", f"must be a JSON object, got {data!r}")])
        unknown = set(data) - _KEYS
        if unknown:
            raise ConfigError([("config", f"unknown keys {sorted(unknown)}")])
        if "study" not in data:
            raise ConfigError([("study", "missing")])
        kwargs = {attr: data[key] for attr, key, _ in _SCALARS if key in data}
        kwargs.update((key, data[key]) for key in ("study", "n", "bank", "tolerances") if key in data)
        if "initial" in data:
            init = data["initial"]
            if not isinstance(init, dict) or "kind" not in init:
                raise ConfigError([("initial", "expected {'kind': ..., 'params': {...}}")])
            unknown = set(init) - {"kind", "params"}
            if unknown:
                raise ConfigError([("initial", f"unknown keys {sorted(unknown)}")])
            kwargs["initial_kind"] = init["kind"]
            kwargs["initial_params"] = init.get("params", {})
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([("config", f"invalid JSON in {path}: {exc}")]) from exc
        return cls.from_dict(data)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)
