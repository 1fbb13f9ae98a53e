"""Experiment configuration: one JSON-serializable record, totally validated.

A config names everything a study needs: the lattice, the noise scale(s),
the amplitude, the initial profile, the test-function bank, the study
kind, and the tolerances the verdict is judged against.  Validation is
total — every offending field is reported by name in one pass, so a bad
config never dies halfway through a run.

Tolerances default to the acceptance thresholds; tightening them is a
config edit, not a code change.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from burgerslab.bank import build_bank
from burgerslab.heat import make_initial, stability_check
from burgerslab.lattice import TorusGrid, is_integer
from burgerslab.noise import make_mollifier

__all__ = ["ExperimentConfig", "ConfigError", "STUDY_KINDS", "DEFAULT_TOLERANCES"]

STUDY_KINDS = (
    "noise-check",
    "qv",
    "heat",
    "burgers",
    "fk-check",
    "converge",
    "section",
)

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


def _is_real(value) -> bool:
    """A real number that is not a bool (True would pass as 1)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(name: str, value, errors: list):
    """``float(value)`` for a real number, else record an error; nothing is parsed."""
    if not _is_real(value):
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
        if errors:
            raise ConfigError(errors)
        object.__setattr__(self, "n", scales)
        merged = dict(DEFAULT_TOLERANCES)
        merged.update(self.tolerances)
        object.__setattr__(self, "tolerances", merged)
        if self.bank is not None:
            object.__setattr__(
                self, "bank", tuple(dict(spec) for spec in self.bank)
            )

    # -- validation ------------------------------------------------------

    def grid(self) -> TorusGrid:
        return TorusGrid(d=self.d, N=self.N, M=self.M, L=self.L, T=self.T)

    def mollifier_scales(self) -> tuple:
        """The scales the study mollifies at: ``converge`` runs (4, 8, 16, 32) for one n."""
        if self.study == "converge" and len(self.n) < 2:
            return (4, 8, 16, 32)
        return self.n

    def _ladder_errors(self) -> list:
        """Named errors of the coarse grids the study's refinement ladders run on.

        heat and the converge KPZ ladder coarsen the grid by 2 and 4, burgers
        by up to 2^(refine_levels − 1), all at dt ∝ dx²; the coarsest grid
        must exist and resolve the scale mollified on it.
        """
        errors = []
        coarsest, name = 1, "grid"
        if self.study in ("heat", "converge"):
            what = "three-level heat ladder" if self.study == "heat" else "KPZ ladder"
            if self.N % 4:
                errors.append(("N", f"the {what} needs N divisible by 4, got {self.N}"))
            if self.M % 16:
                errors.append(("M", f"the {what} needs M divisible by 16, got {self.M}"))
            coarsest = 4
        elif (self.study == "burgers" and is_integer(self.refine_levels)
              and self.refine_levels >= 1):
            coarsest, name = 2 ** (self.refine_levels - 1), "refine_levels"
            if self.N % coarsest or self.M % coarsest**2:
                errors.append(
                    (name, f"a {self.refine_levels}-level coupled ladder needs N divisible "
                           f"by {coarsest} and M by {coarsest**2}; got N={self.N}, M={self.M}")
                )
        elif self.study == "section" and self.M < 64:
            errors.append(
                ("M", f"the section window eps = T/32 must cover two time steps; "
                      f"need M ≥ 64, got {self.M}")
            )
        if errors or coarsest == 1 or not self.n:
            return errors
        scale = self.mollifier_scales()[1] if self.study == "converge" else self.n[0]
        at = f"the coarsest ladder grid (N/{coarsest}, M/{coarsest**2})"
        try:
            coarse = TorusGrid(d=self.d, N=self.N // coarsest, M=self.M // coarsest**2,
                               L=self.L, T=self.T)
        except ValueError as exc:
            return [(name, f"{at}: {exc}")]
        try:
            make_mollifier(coarse, scale)
        except ValueError as exc:
            errors.append(("n", f"scale {scale} on {at}: {exc}"))
        return errors

    def validate(self) -> None:
        """Collect every named field error; raise ConfigError if any."""
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
            if not _is_real(getattr(self, name))
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
            if not self.n:
                errors.append(("n", "need at least one mollifier scale"))
            scales = self.mollifier_scales()
            for scale in dict.fromkeys(self.n + scales):
                try:
                    make_mollifier(grid, scale)
                except (ValueError, TypeError) as exc:
                    runs = "" if scale in self.n else f" (converge runs {scales} for one n)"
                    errors.append(("n", f"scale {scale}{runs}: {exc}"))
            errors.extend(self._ladder_errors())
            try:
                make_initial(grid, self.initial_kind, self.initial_params)
            except (ValueError, TypeError, KeyError) as exc:
                errors.append(("initial", f"{self.initial_kind!r}: {exc}"))
            else:
                if self.study == "heat" and self.initial_kind == "cosine":
                    # the heat oracle starts from Z = 1 + a·cos, which must stay
                    # positive, and a = 0 leaves no error to measure an order from
                    a = float(self.initial_params["a"])
                    if not 0.0 < abs(a) < 1.0:
                        errors.append(("initial", f"the heat oracle's single-mode "
                                                  f"amplitude must satisfy 0 < |a| < 1, got {a}"))
            try:
                build_bank(grid, list(self.bank) if self.bank is not None else None)
            except (ValueError, TypeError) as exc:
                errors.append(("bank", str(exc)))
        for name, least in (("seed", 0), ("num_paths", 100), ("refine_levels", 1)):
            value = getattr(self, name)
            if not is_integer(value):
                errors.append((name, f"must be an integer, got {value!r}"))
            elif value < least:
                errors.append((name, f"need ≥ {least}, got {value}"))
        if not _is_real(self.lam):
            errors.append(("lambda", f"must be a real number, got {self.lam!r}"))
        elif not (self.lam >= 0.0 and math.isfinite(self.lam)):
            errors.append(("lambda", f"must be finite and nonnegative, got {self.lam}"))
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            errors.append(("tolerances", f"unknown names {sorted(unknown)}"))
        bad = [k for k, v in self.tolerances.items() if k in DEFAULT_TOLERANCES
               and not (_is_real(v) and math.isfinite(v) and v > 0)]
        if bad:
            errors.append(("tolerances", f"non-positive, infinite or non-real values "
                                         f"for {sorted(bad)}"))
        if errors:
            raise ConfigError(errors)

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
            kwargs["initial_params"] = dict(init.get("params", {}))
        if "bank" in data and data["bank"] is not None:
            kwargs["bank"] = tuple(data["bank"])
        if "out_dir" in data and data["out_dir"] is not None:
            kwargs["out_dir"] = str(data["out_dir"])
        if "tolerances" in data:
            kwargs["tolerances"] = dict(data["tolerances"])
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
