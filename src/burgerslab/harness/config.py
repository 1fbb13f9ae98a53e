"""Experiment configuration: one JSON-serializable record, totally validated.

A config names everything a study needs: the lattice, the noise scale(s),
the amplitude, the initial profile, the test-function bank, the study
kind, and the tolerances the verdict is judged against.  Validation is
total — every offending field is reported by name in one pass, so a bad
config never dies halfway through a run.

``validate()`` checks what every study shares (kind, field types, the
config grid and its stability, n ≥ 1, seed < 2⁶⁴, num_paths, refine_levels,
lambda, tolerances), then runs and returns the study's plan: each study
checks what it builds and seeds, not a bank or initial data it never reads.

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


def _integral(name: str, value, errors: list):
    """``int(value)`` if that conversion keeps the value, else record an error."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        errors.append((name, f"must be an integer, got {value!r}"))
    return as_int


def _real(name: str, value, errors: list):
    """``float(value)`` for a real number, else record an error; nothing is parsed."""
    if not is_real(value):
        errors.append((name, f"must be a real number, got {value!r}"))
        return None
    return float(value)


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
        scales = self.n if isinstance(self.n, (list, tuple)) else (self.n,)
        errors = []
        scales = tuple(_integral("n", v, errors) for v in scales)
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
        """Check the shared fields, then run the study's plan and return it.

        The plan runs once the fields it reads are well formed (a known kind,
        a grid, scales ≥ 1, refine_levels ≥ 1); both report in one ConfigError.
        """
        errors = []
        if self.study not in STUDY_KINDS:
            errors.append(("study", f"unknown kind {self.study!r}; expected one of {STUDY_KINDS}"))
        not_numbers = [
            (name, f"must be an integer, got {getattr(self, name)!r}")
            for name in ("d", "N", "M")
            if not is_integer(getattr(self, name))
        ] + [
            (name, f"must be a real number, got {getattr(self, name)!r}")
            for name in ("L", "T")
            if not is_real(getattr(self, name))
        ]
        errors.extend(not_numbers)
        grid = None
        if not not_numbers:
            try:
                grid = self.grid()
            except (ValueError, TypeError) as exc:
                errors.append(("grid", str(exc)))
        if grid is not None:
            margin = stability_check(grid)
            if margin < 0.0:
                errors.append(
                    ("M", f"explicit scheme unstable: margin {margin:.3f} < 0 "
                          f"(need dt ≤ dx²/(2d))")
                )
        scales_ok = bool(self.n) and min(self.n) >= 1
        if not scales_ok:
            errors.append(("n", f"need at least one mollifier scale, each ≥ 1, got {self.n}"))
        for name, least in (("seed", 0), ("num_paths", 100), ("refine_levels", 1)):
            value = getattr(self, name)
            if not is_integer(value):
                errors.append((name, f"must be an integer, got {value!r}"))
            elif value < least:
                errors.append((name, f"need ≥ {least}, got {value}"))
            elif name == "seed" and not is_seed(value):
                errors.append((name, f"need < 2**64 (a Philox key word), got {value}"))
        if not is_real(self.lam):
            errors.append(("lambda", f"must be a real number, got {self.lam!r}"))
        elif not (self.lam >= 0.0 and math.isfinite(self.lam)):
            errors.append(("lambda", f"must be finite and nonnegative, got {self.lam}"))
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            errors.append(("tolerances", f"unknown names {sorted(unknown)}"))
        bad = [k for k, v in self.tolerances.items() if k in DEFAULT_TOLERANCES
               and not (is_real(v) and math.isfinite(v) and v > 0)]
        if bad:
            errors.append(("tolerances", f"non-positive, infinite or non-real values "
                                         f"for {sorted(bad)}"))
        plan = None
        if (grid is not None and self.study in STUDY_KINDS and scales_ok
                and is_integer(self.refine_levels) and self.refine_levels >= 1):
            plan = STUDIES[self.study][0](self, grid, errors)
        if errors:  # a bank bad on every burgers level is reported once
            raise ConfigError(dict.fromkeys(errors))
        return plan

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "study": self.study,
            "d": self.d,
            "N": self.N,
            "M": self.M,
            "L": self.L,
            "T": self.T,
            "n": list(self.n) if len(self.n) > 1 else self.n[0],
            "lambda": self.lam,
            "seed": self.seed,
            "initial": {"kind": self.initial_kind, "params": self.initial_params},
            "num_paths": self.num_paths,
            "refine_levels": self.refine_levels,
            "tolerances": dict(sorted(self.tolerances.items())),
        }
        if self.bank is not None:
            out["bank"] = [dict(spec) for spec in self.bank]
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        known = {
            "study", "d", "N", "M", "L", "T", "n", "lambda", "seed",
            "initial", "bank", "num_paths", "refine_levels", "out_dir",
            "tolerances",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError([("config", f"unknown keys {sorted(unknown)}")])
        if "study" not in data:
            raise ConfigError([("study", "missing")])
        kwargs = {"study": data["study"]}
        errors = []
        for key in ("d", "N", "M", "seed", "num_paths", "refine_levels"):
            if key in data:
                kwargs[key] = _integral(key, data[key], errors)
        for key, name in (("L", "L"), ("T", "T"), ("lambda", "lam")):
            if key in data:
                kwargs[name] = _real(key, data[key], errors)
        if errors:
            raise ConfigError(errors)
        if "n" in data:
            kwargs["n"] = data["n"] if isinstance(data["n"], list) else [data["n"]]
        if "initial" in data:
            init = data["initial"]
            if not isinstance(init, dict) or "kind" not in init:
                raise ConfigError([("initial", "expected {'kind': ..., 'params': {...}}")])
            kwargs["initial_kind"] = init["kind"]
            kwargs["initial_params"] = init.get("params", {})
        if "bank" in data and data["bank"] is not None:
            kwargs["bank"] = data["bank"]
        if "out_dir" in data and data["out_dir"] is not None:
            kwargs["out_dir"] = str(data["out_dir"])
        if "tolerances" in data:
            kwargs["tolerances"] = data["tolerances"]
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
