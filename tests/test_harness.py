"""Harness: config validation/serialization, order fits, reports, CLI, layering."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import burgerslab
from burgerslab import colehopf, fk, heat, lattice, noise
from burgerslab.harness import (
    DEFAULT_TOLERANCES,
    STUDY_KINDS,
    ConfigError,
    ExperimentConfig,
    StudyReport,
    emit_reports,
    resolve_out_dir,
)
from burgerslab.harness import studies
from burgerslab.harness.config import _EVERY_STUDY
from burgerslab.harness.cli import main
from burgerslab.harness.studies import STUDIES, measure_order, run_study
from burgerslab.lattice import TorusGrid
from burgerslab.noise import draw_chunks, make_mollifier, mollify, sample_noise, seeded_stream


# ---------------------------------------------------------------------------
# config


def test_default_config_is_valid_for_every_study():
    for kind in STUDY_KINDS:
        ExperimentConfig(study=kind).validate()


def test_registry_matches_declared_kinds():
    assert tuple(STUDIES) == STUDY_KINDS


def test_config_dict_round_trip():
    cfg = ExperimentConfig(
        study="burgers",
        d=2,
        N=32,
        M=512,
        n=(4, 8),
        lam=0.5,
        seed=99,
        initial_kind="cosine",
        initial_params={"a": 0.3},
        num_paths=250,
        refine_levels=2,
        out_dir="somewhere",
        tolerances={"weak_rel_gap": 0.2},
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.tolerances["weak_rel_gap"] == 0.2
    # untouched tolerances still carry the defaults
    assert again.tolerances["qv_rel"] == DEFAULT_TOLERANCES["qv_rel"]


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(study="qv", N=64, M=4096, seed=3)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ExperimentConfig.load(path) == cfg


def test_config_scalar_n_normalizes_to_tuple():
    assert ExperimentConfig(study="qv", n=4).n == (4,)
    assert ExperimentConfig(study="qv", n=[4, 8]).n == (4, 8)
    # scalar n serializes back as a scalar, lists as lists
    assert ExperimentConfig(study="qv", n=4).to_dict()["n"] == 4
    assert ExperimentConfig(study="qv", n=[4, 8]).to_dict()["n"] == [4, 8]


def test_config_lambda_key_mapping():
    data = ExperimentConfig(study="qv", lam=0.25).to_dict()
    assert data["lambda"] == 0.25
    assert ExperimentConfig.from_dict(data).lam == 0.25


def test_validate_collects_every_error_by_name():
    cfg = ExperimentConfig(
        study="nope",
        seed=-1,
        num_paths=5,
        refine_levels=0,
        lam=-2.0,
        tolerances={"qv_rel": 0.05},
    )
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    named = {name for name, _ in err.value.errors}
    assert {"study", "seed", "num_paths", "refine_levels", "lambda"} <= named


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_validate_rejects_non_finite_lambda(lam):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(study="qv", lam=lam).validate()
    assert [name for name, _ in err.value.errors] == ["lambda"]


@pytest.mark.parametrize("key,value", [("d", 1.5), ("N", 64.5), ("M", 10000.5)])
def test_validate_names_non_integral_grid_sizes(key, value):
    # direct construction skips from_dict's conversion; the grid must not be
    # built from a fractional size, and the error names the field
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(study="qv", **{key: value}).validate()
    assert [name for name, _ in err.value.errors] == [key]


def test_validate_rejects_unstable_time_step():
    # dt = T/M must satisfy dt <= dx²/(2d) where the study marches the config
    # grid; qv's path grid has M = 10⁴, so it does not read M
    with pytest.raises(ConfigError, match="unstable"):
        ExperimentConfig(study="burgers", N=64, M=128).validate()


def test_validate_rejects_under_resolved_mollifier():
    # support 1/n below 4·dx
    with pytest.raises(ConfigError, match="n:"):
        ExperimentConfig(study="qv", N=16, M=2048, n=(8,)).validate()


def _errors(**fields):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**fields).validate()
    return err.value.errors


@pytest.mark.parametrize("study,key,value,name", [
    ("fk-check", "seed", 7.5, "seed"),
    ("fk-check", "seed", True, "seed"),
    ("fk-check", "num_paths", 1000.5, "num_paths"),
    ("fk-check", "refine_levels", 2.5, "refine_levels"),
    ("burgers", "refine_levels", 2.5, "refine_levels"),
    ("burgers", "refine_levels", "2", "refine_levels"),
    ("fk-check", "lam", "1", "lambda"),
    ("fk-check", "lam", True, "lambda"),
    ("fk-check", "L", True, "L"),
    ("fk-check", "T", "0.1", "T"),
])
def test_validate_names_fields_it_would_otherwise_coerce(study, key, value, name):
    # direct construction skips from_dict's conversion: seed=7.5 drew seed 7's
    # bits while study.json echoed 7.5, lam="1" escaped as a TypeError, L=True
    # validated, and T="0.1" was reported under grid as a raw comparison error
    fields = dict(study=study, N=32, M=410, n=4) if study == "fk-check" else dict(study=study)
    errors = _errors(**fields, **{key: value})
    assert [field for field, _ in errors] == [name]
    assert errors[0][1].startswith(("must be an integer", "must be a real number"))
    if key == "seed":
        with pytest.raises(ValueError, match="nonnegative integer"):
            next(draw_chunks(ExperimentConfig(**fields).grid(), value, 1.0, 1))
        with pytest.raises(ValueError, match="nonnegative integer"):
            seeded_stream(value, fk._BROWNIAN_STREAM_TAG)


@pytest.mark.parametrize("study,seed,last", [
    ("qv", 2**64, 0),
    ("heat", 2**64, 0),
    ("noise-check", 2**64 - 52_499, 52_499),
    ("fk-check", 2**64 - 3_000, 3_000),
    ("fk-check", 2**64 - 1, 3_000),
])
def test_validate_names_a_seed_whose_streams_pass_64_bits(study, seed, last, tmp_path, capsys):
    # seen: `burgerslab qv --config` at seed 2**64 printed an OverflowError
    # traceback and exited 1, and fk-check at 2**64 − 1 validated, marched and
    # died the same way at the walk's seed + 1,000
    fields = dict(study=study, N=32, M=410, n=4) if study == "fk-check" else dict(study=study)
    assert [name for name, _ in _errors(**fields, seed=seed)] == ["seed"]
    ExperimentConfig(**fields, seed=2**64 - 1 - last).validate()  # the largest that fits
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**fields, "seed": seed}))
    assert main([study, "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 2
    assert "seed:" in capsys.readouterr().err


def test_the_stream_builder_names_a_seed_outside_64_bits():
    for seed in (-1, 2**64, 7.0, True, "7"):
        with pytest.raises(ValueError, match=r"nonnegative integer below 2\*\*64"):
            seeded_stream(seed, fk._BROWNIAN_STREAM_TAG)
    first = seeded_stream(2**64 - 1, fk._BROWNIAN_STREAM_TAG).standard_normal()
    assert first == seeded_stream(2**64 - 1, fk._BROWNIAN_STREAM_TAG).standard_normal()


@pytest.mark.parametrize("key,value", [("lambda", "1"), ("lambda", "abc"), ("T", True), ("L", "1.0")])
def test_from_dict_names_real_fields_it_would_otherwise_coerce(key, value):
    # seen: "lambda": "1" and "T": true loaded as 1.0, and "lambda": "abc"
    # escaped as a bare ValueError
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"study": "qv", key: value})
    assert err.value.errors == [(key, f"must be a real number, got {value!r}")]
    # an int still converts to a float, so the study.json echo keeps its form,
    # and a config built in Python is stored as a loaded one is
    whole = ExperimentConfig.from_dict({"study": "qv", "lambda": 2, "L": 1, "T": 1})
    assert [type(v) for v in (whole.lam, whole.L, whole.T)] == [float] * 3
    built = ExperimentConfig(study="qv", lam=2, L=1, T=1)
    assert [type(v) for v in (built.lam, built.L, built.T)] == [float] * 3
    assert built == whole


@pytest.mark.parametrize("study", ["heat", "converge"])
def test_validate_checks_the_divide_by_four_ladder_sizes(study):
    # both ladders coarsen N by 4 and M by 16; seen: converge at N=130,
    # M=3400 marched five trajectories before this was noticed
    errors = _errors(study=study, N=130, M=3400)
    assert [name for name, _ in errors] == ["N", "M"]
    assert "divisible by 4" in errors[0][1] and "divisible by 16" in errors[1][1]


def test_validate_checks_refine_levels_divisibility():
    errors = _errors(study="burgers", refine_levels=3, N=130)
    assert [name for name, _ in errors] == ["refine_levels"]
    assert "N divisible by 4 and M by 16" in errors[0][1]


def test_validate_checks_the_section_step_count():
    errors = _errors(study="section", N=32, M=40, T=0.001, n=(4,))
    assert errors == [("M", errors[0][1])] and "M ≥ 64, got 40" in errors[0][1]


def test_validate_checks_the_scales_converge_runs():
    # one n: converge runs (4, 8, 16, 32), and 1/32 < 4·dx at N=64
    errors = _errors(study="converge", N=64)
    assert any(name == "n" and "scale 32 (converge runs" in msg for name, msg in errors)


@pytest.mark.parametrize("fields", [
    {"study": "burgers", "N": 64, "refine_levels": 3},
    {"study": "converge", "n": (8, 16)},
])
def test_validate_checks_the_scale_on_the_coarsest_ladder_grid(fields):
    errors = _errors(**fields)
    assert [name for name, _ in errors] == ["n"]
    assert "on the coarsest ladder grid" in errors[0][1]


@pytest.mark.parametrize("fields", [{"N": 64}, {"n": (16,)}])
def test_heat_validates_where_it_mollifies_nothing(fields):
    # the heat oracle marches zero increments: no scale is checked on its
    # ladder; seen: both were rejected as under-resolved on the N/4 grid.
    # It reads no scale, so one set away from the default is refused
    if "n" in fields:
        errors = _errors(study="heat", **fields)
        assert [name for name, _ in errors] == ["n"] and "does not read n" in errors[0][1]
    else:
        ExperimentConfig(study="heat", **fields).validate()


@pytest.mark.parametrize("study,n", [("heat", (-5,)), ("burgers", (4, 0))])
def test_validate_checks_every_scale_is_positive(study, n):
    # burgers reads n[0], but every scale is checked; heat reads no n, so
    # its scale is refused as unread instead
    errors = _errors(study=study, n=n)
    assert [name for name, _ in errors] == ["n"]
    if study == "heat":
        assert errors[0][1].startswith("the heat study does not read n")
    else:
        assert f"each ≥ 1, got {n}" in errors[0][1]


def test_a_study_checks_the_bank_and_initial_data_only_where_it_reads_them():
    # qv never reads the bank, so it refuses one; section reads and checks it
    errors = _errors(study="qv", bank=[{"id": "x"}])
    assert [name for name, _ in errors] == ["bank"] and "does not read bank" in errors[0][1]
    assert [name for name, _ in _errors(study="section", bank=[{"id": "x"}])] == ["bank"]
    # heat reads a cosine amplitude through make_initial, as the rest do;
    # a string amplitude is named, not parsed
    for study in ("heat", "burgers"):
        ExperimentConfig(study=study, initial_kind="cosine", initial_params={"a": 0.5}).validate()
        for a in ("abc", "0.5"):
            errors = _errors(study=study, initial_kind="cosine", initial_params={"a": a})
            assert [name for name, _ in errors] == ["initial"]


_SPEC = {"t_center": 0.05, "t_radius": 0.02, "x_center": [0.5], "x_radius": 0.2, "amplitudes": [1.0]}


@pytest.mark.parametrize("fields,name", [
    ({"initial_params": {"a": True, "w": 0.12, "center": [0.37]}}, "initial"),
    ({"initial_params": {"a": 0.5, "w": "0.12", "center": [0.37]}}, "initial"),
    ({"initial_params": {"a": 0.5, "w": 0.12, "center": ["0.37"]}}, "initial"),
    ({"initial_params": {"a": True, "w": "0.12", "center": ["0.37"]}}, "initial"),
    ({"initial_kind": "cosine", "initial_params": {"a": 0.3, "k": 2.7}}, "initial"),
    ({"initial_kind": "cosine", "initial_params": {"a": 0.3, "k": True}}, "initial"),
    ({"bank": [{**_SPEC, "t_center": "0.05"}]}, "bank"),
    ({"bank": [{**_SPEC, "x_radius": "0.2"}]}, "bank"),
    ({"bank": [{**_SPEC, "amplitudes": [True]}]}, "bank"),
    ({"bank": [{**_SPEC, "x_center": "0.5"}]}, "bank"),
], ids=["bool-a", "string-w", "string-center", "all-three", "fractional-k", "bool-k",
        "string-t_center", "string-x_radius", "bool-amplitude", "string-x_center"])
def test_initial_params_and_bank_specs_are_named_not_coerced(fields, name):
    # seen: each validated, and float()/int() ran the study on a converted
    # value (cosine k = 2.7 marched as k = 2)
    errors = _errors(study="burgers", **fields)
    assert [field for field, _ in errors] == [name]
    assert "must be" in errors[0][1]


_BUMP_PARAMS = {"a": 0.5, "w": 0.12, "center": [0.37]}


# What each study ignored before its row named what it reads: each field of
# each shrunk acceptance config (_SHRUNK) was flipped, and no artifact but
# study.json's echo of the config moved.  Each is now refused by name.
_UNREAD = {
    "noise-check": {"M", "initial", "bank", "num_paths", "refine_levels"},
    "qv": {"d", "M", "initial", "bank", "num_paths", "refine_levels"},
    "heat": {"d", "n", "lambda", "bank", "num_paths", "refine_levels"},
    "burgers": {"num_paths"},
    "fk-check": {"bank", "refine_levels"},
    "converge": {"num_paths", "refine_levels"},
    "section": {"num_paths", "refine_levels"},
}
# a value away from the default for every key but those every study accepts
_AWAY = {"d": 2, "N": 64, "M": 16384, "L": 2.0, "T": 0.05, "n": 4, "lambda": 0.5,
         "initial": {"kind": "cosine", "params": {"a": 0.2}},
         "bank": [{"id": "x", **_SPEC}], "num_paths": 200, "refine_levels": 2}
# the studies that read one scale, n[0]
_ONE_SCALE = ("burgers", "fk-check", "section")


@pytest.mark.parametrize("kind", list(STUDIES))
def test_a_study_refuses_each_field_outside_its_row_by_name(kind, tmp_path, capsys):
    every = ExperimentConfig(study=kind, bank=[], out_dir="x").to_dict()
    assert set(_AWAY) == set(every) - _EVERY_STUDY
    unread = set(_AWAY) - set(STUDIES[kind].reads)
    assert unread == _UNREAD[kind]
    for key in sorted(unread):
        data = {"study": kind, key: _AWAY[key]}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(data).validate()
        assert [name for name, _ in err.value.errors] == [key]
        reads = ", ".join(STUDIES[kind].reads)
        assert err.value.errors[0][1] == (f"the {kind} study does not read {key} "
                                          f"(it reads {reads}); got {_AWAY[key]!r}")
        cfg_path, out = tmp_path / f"{key}.json", tmp_path / key
        cfg_path.write_text(json.dumps(data))
        assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"error: {key}: the {kind} study does not read {key}" in capsys.readouterr().err
        assert not out.exists()


def test_num_paths_and_refine_levels_are_checked_only_where_they_are_read():
    # seen: qv refused num_paths=50 as "need ≥ 100", a range of a field it never reads
    errors = _errors(study="qv", num_paths=50)
    assert [name for name, _ in errors] == ["num_paths"]
    assert errors[0][1].startswith("the qv study does not read num_paths")
    assert _errors(study="fk-check", N=32, M=410, n=4, num_paths=50) == [
        ("num_paths", "need ≥ 100, got 50")]
    assert _errors(study="burgers", refine_levels=0) == [("refine_levels", "need ≥ 1, got 0")]


@pytest.mark.parametrize("kind", _ONE_SCALE)
def test_a_study_that_reads_one_scale_refuses_a_second(kind, tmp_path, capsys):
    # seen: {"study": "burgers", "n": [4, 8]} ran n = 4 and echoed both scales
    assert _errors(study=kind, n=(4, 8)) == [
        ("n", f"the {kind} study reads one scale, got (4, 8)")]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "art"
    cfg_path.write_text(json.dumps({"study": kind, "n": [4, 8]}))
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "error: n: " in capsys.readouterr().err
    assert not out.exists()
    # the studies that read every scale still take three
    for other in ("noise-check", "qv", "converge"):
        ExperimentConfig(study=other, n=(4, 8, 16)).validate()


@pytest.mark.parametrize("kind,message", [
    ("burgers", "need at least one mollifier scale, each ≥ 1, got ()"),
    ("heat", "the heat study does not read n (it reads N, M, L, T, initial); got []"),
], ids=["burgers", "heat"])
def test_an_empty_scale_list_is_named_not_a_crash(kind, message, tmp_path, capsys):
    # seen: to_dict() indexed n[0] of an empty list, and validate() raised IndexError
    assert _errors(study=kind, n=()) == [("n", message)]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "art"
    cfg_path.write_text(json.dumps({"study": kind, "n": []}))
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: n: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_every_acceptance_shrunk_and_smoke_run_config_still_validates():
    from test_acceptance import CONFIGS

    for name, cfg in CONFIGS.items():
        cfg.validate()
        cfg.replace(**_SHRUNK[name]).validate()  # _SHRUNK holds _DRAWN's grids too
    # every run of the CI smoke step that may exit 0 or 1
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    runs = re.findall(r"smoke \S+ (\S+) '([^']*)'\s*\\?\s*\d+ \"0 1\"", workflow.read_text())
    assert len(runs) == 10
    for kind, config in runs:
        data = json.loads(config) if config else {"study": kind}
        ExperimentConfig.from_dict(data).validate()


@pytest.mark.parametrize("data,field,key", [
    ({"study": "heat", "initial": {"kind": "cosine", "params": {"a": 0.2, "K": 3}}},
     "initial", "'K'"),
    ({"study": "heat", "initial": {"kind": "cosine", "params": {"a": 0.2}, "k": 3}},
     "initial", "'k'"),
    ({"study": "burgers", "N": 32, "M": 2048,
      "initial": {"kind": "gaussian-bump", "params": {**_BUMP_PARAMS, "width": 0.3}}},
     "initial", "'width'"),
    ({"study": "burgers", "N": 32, "M": 2048, "bank": [{**_SPEC, "amplitude": [5.0]}]},
     "bank", "'amplitude'"),
], ids=["initial-param", "initial-key", "bump-param", "bank-key"])
def test_an_unknown_key_in_initial_or_a_bank_spec_is_named(data, field, key, tmp_path, capsys):
    # seen: all four validated.  heat marched k = 1 while study.json echoed
    # "K": 3; from_dict dropped the stray k, and the echo with it; the stray
    # width and amplitude were echoed but never read
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data).validate()
    assert [name for name, _ in err.value.errors] == [field]
    assert key in err.value.errors[0][1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "art"
    assert main([data["study"], "--config", str(cfg_path), "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert f"{field}:" in stderr and key in stderr
    assert not out.exists()


@pytest.mark.parametrize("kind,params,missing", [
    ("cosine", {}, "a"),
    ("gaussian-bump", {"w": 0.12, "center": [0.37]}, "a"),
    ("gaussian-bump", {"a": 0.5, "center": [0.37]}, "w"),
], ids=["cosine-a", "bump-a", "bump-w"])
def test_a_missing_initial_param_is_named(kind, params, missing, tmp_path, capsys):
    # seen: refused only as the bare KeyError text "initial: 'cosine': 'a'"
    data = {"study": "burgers", "N": 32, "M": 2048,
            "initial": {"kind": kind, "params": params}}
    wording = f"the {kind} preset needs param '{missing}'"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data).validate()
    assert [name for name, _ in err.value.errors] == ["initial"]
    assert wording in err.value.errors[0][1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "art"
    assert main(["burgers", "--config", str(cfg_path), "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert "initial:" in stderr and wording in stderr
    assert not out.exists()


@pytest.mark.parametrize("bad_id", ["a,b", "a<b", 5, True, ["x"]],
                         ids=["comma", "angle", "int", "bool", "list"])
def test_a_bank_id_is_named_unless_it_is_letters_digits_and_three_marks(bad_id, tmp_path, capsys):
    # seen: "a,b" wrote a 12-cell weak_residuals.csv row under 11 columns,
    # "a<b" made limit_deviation.svg malformed XML, 5 and True were written
    # as 5 and True, and ["x"] was refused only as "unhashable type: 'list'"
    ExperimentConfig(study="burgers", bank=[{**_SPEC, "id": "phi-1.a_Z"}]).validate()
    bank = [{**_SPEC, "id": bad_id}]
    errors = _errors(study="burgers", bank=bank)
    assert [field for field, _ in errors] == ["bank"]
    assert errors[0][1].startswith("test function spec 0: id must be")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"study": "burgers", "N": 32, "M": 2048, "bank": bank}))
    out = tmp_path / "art"
    assert main(["burgers", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "bank: test function spec 0: id must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields", [
    {"study": "converge", "n": (4, 8)},
    {"study": "converge", "n": (16, 8, 4)},
    {"study": "noise-check", "N": 256, "n": (64,)},
    {"study": "qv", "L": 2.0, "n": (16,)},
])
def test_validate_rejects_what_the_study_would_fail_on(fields):
    # seen: each passed validate() and died in the study with a bare
    # ValueError — two Cauchy-column scale rules of converge, the 128-node
    # lag grid of noise-check and the dx-ladder of qv
    errors = _errors(**fields)
    assert [name for name, _ in errors] == ["n"]


def test_validate_reports_shared_and_plan_errors_in_one_pass():
    errors = _errors(study="converge", lam=-1.0, n=(4, 8))
    assert [name for name, _ in errors] == ["lambda", "n"]


@pytest.mark.parametrize("a", [1.5, 0.0, -1.0])
def test_validate_rejects_heat_amplitude_outside_unit_interval(a):
    # the heat oracle starts from Z = 1 + a·cos; seen: a = 1.5 passed
    # validate() and the study raised only once it ran
    errors = _errors(study="heat", initial_kind="cosine", initial_params={"a": a})
    assert [name for name, _ in errors] == ["initial"]
    assert f"0 < |a| < 1, got {a}" in errors[0][1]
    ExperimentConfig(study="heat", initial_kind="cosine", initial_params={"a": -0.5}).validate()


def test_the_heat_oracle_marches_the_configs_cosine_mode(tmp_path):
    # seen: k = 3 wrote a heat.csv byte-identical to k = 1's; the oracle now
    # starts from 1 + a·cos(2πkx/L) and decays it at the rate (2πk/L)²
    tables = {}
    for k in (1, 3):
        cfg = ExperimentConfig(study="heat", N=64, M=8192, initial_kind="cosine",
                               initial_params={"a": 0.3, "k": k})
        rep = run_study(cfg, out_dir=tmp_path / f"k{k}")
        tables[k] = (tmp_path / f"k{k}" / "heat.csv").read_text()
        err_z = [it for it in rep.items if it["name"].startswith("err_z_N")]
        assert len(err_z) == 3 and all(it["passed"] for it in err_z), (k, err_z)
    assert tables[1] != tables[3]
    # k = 0 is a constant start: no error to measure an order from
    errors = _errors(study="heat", initial_kind="cosine", initial_params={"a": 0.3, "k": 0})
    assert [name for name, _ in errors] == ["initial"] and "k must be nonzero" in errors[0][1]


def test_heat_names_a_non_cosine_initial_other_than_the_default_bump(tmp_path, capsys):
    # seen: an explicit bump validated, ran the cosine oracle at a = 0.2, and
    # study.json echoed a bump that was never marched
    bump = {"kind": "gaussian-bump", "params": {"a": 0.9, "w": 0.1, "center": [0.5]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"study": "heat", "initial": bump}))
    assert main(["heat", "--config", str(cfg_path), "--out", str(tmp_path / "art")]) == 2
    err = capsys.readouterr().err
    assert "initial:" in err and "0.9" in err
    assert not (tmp_path / "art").exists()
    errors = _errors(study="heat", initial_kind="zero", initial_params={})
    assert [name for name, _ in errors] == ["initial"]
    # the default bump keeps its documented fallback (the acceptance config)
    ExperimentConfig.from_dict({"study": "heat", "initial": {
        "kind": "gaussian-bump", "params": {"a": 0.5, "w": 0.12, "center": [0.37]}}}).validate()


def test_validate_rejects_unknown_and_nonpositive_tolerances():
    with pytest.raises(ConfigError, match="unknown names"):
        ExperimentConfig(study="qv", tolerances={"not_a_knob": 1.0}).validate()
    with pytest.raises(ConfigError, match="non-positive"):
        ExperimentConfig(study="qv", tolerances={"qv_rel": 0.0}).validate()
    # seen: inf wrote "tol": Infinity (not JSON) into study.json, a section
    # inf died only after the whole study ran, and True was used as 1
    for name, value in (("qv_rel", math.inf), ("section_order_min", math.inf), ("cn_order", True)):
        errors = _errors(study="qv", tolerances={name: value})
        assert [field for field, _ in errors] == ["tolerances"]
        assert f"for [{name!r}]" in errors[0][1]


def test_from_dict_rejects_unknown_keys_and_missing_study():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict({"study": "qv", "bogus": 1})
    with pytest.raises(ConfigError, match="study"):
        ExperimentConfig.from_dict({"N": 64})
    with pytest.raises(ConfigError, match="initial"):
        ExperimentConfig.from_dict({"study": "qv", "initial": "cosine"})


@pytest.mark.parametrize(
    "data, fields",
    [
        ({"bank": 5}, {"bank": 5}),
        ({"initial": {"kind": "cosine", "params": 5}}, {"initial_params": 5}),
        ({"tolerances": 5}, {"tolerances": 5}),
        ({"bank": ["x"]}, {"bank": ("x",)}),
        ({"out_dir": True}, {"out_dir": True}),
        ({"out_dir": 5}, {"out_dir": 5}),
    ],
    ids=["bank", "initial", "tolerances", "bank-of-strings", "out_dir-true", "out_dir-number"],
)
def test_from_dict_names_malformed_bank_initial_and_tolerances(data, fields):
    # the first three raised a bare TypeError (the CLI printed a traceback and
    # exited 1, the code for failed checks); the fourth an unnamed ValueError;
    # an out_dir of true ran the study into a directory named True
    field = next(iter(data))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"study": "heat", **data})
    assert [name for name, _ in err.value.errors] == [field]
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(study="heat", **fields)
    assert [name for name, _ in err.value.errors] == [field]


@pytest.mark.parametrize("key", ["n", "d", "N", "M", "seed", "num_paths", "refine_levels"])
def test_from_dict_rejects_non_integral_integer_fields(key):
    # seen: true was read as 1, so {"d": true} ran the 1-D study and
    # {"seed": true} ran seed 1
    for value in (8.7, True) + (([True],) if key == "n" else ()):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"study": "qv", key: value})
        assert [name for name, _ in err.value.errors] == [key]
    # an integral float converts without changing its value, so it stays
    whole = ExperimentConfig.from_dict({"study": "qv", key: 8.0})
    assert getattr(whole, key) == ((8,) if key == "n" else 8)


def test_load_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.load(path)


def test_replace_returns_updated_copy():
    cfg = ExperimentConfig(study="qv")
    other = cfg.replace(seed=11)
    assert other.seed == 11 and cfg.seed == 7
    assert other.replace(seed=7) == cfg


# ---------------------------------------------------------------------------
# measure_order


def test_measure_order_exact_slopes():
    assert measure_order([1.0, 0.5, 0.25], [1.0, 0.5, 0.25]) == pytest.approx(1.0)
    assert measure_order([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25]) == pytest.approx(2.0)


def test_measure_order_noisy_within_band():
    rng = np.random.default_rng(5)
    hs = [1.0, 0.5, 0.25, 0.125, 0.0625]
    gaps = [h**2 * (1.0 + 0.1 * rng.uniform(-1, 1)) for h in hs]
    assert abs(measure_order(gaps, hs) - 2.0) < 0.2


def test_measure_order_input_validation():
    with pytest.raises(ValueError, match="3"):
        measure_order([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError, match="one gap per resolution"):
        measure_order([1.0, 0.5, 0.25], [1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        measure_order([1.0, 0.0, 0.25], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="resolutions"):
        measure_order([1.0, 0.5, 0.25], [0.5, 0.5, 0.5])


# ---------------------------------------------------------------------------
# the verdict rules the studies share


def _rules_report():
    return StudyReport(study="converge", config={})


def test_an_order_with_a_tol_lies_within_it_and_one_without_is_a_floor():
    rep = _rules_report()
    hs, second = [1.0, 0.5, 0.25], [1.0, 0.25, 0.0625]
    within = studies._order(rep, "order_z", "heat_z", second, hs, 2.0, 0.25)
    above = studies._order(rep, "kpz_order", "kpz", second, hs, 0.9)
    below = studies._order(rep, "gap_order", "weak_gap", [1.0, 0.5, 0.25], hs, 1.5)
    far = studies._order(rep, "cn_order_n2", "cn_n2", [1.0, 0.5, 0.25], hs, 2.0, 0.25)
    assert within == {"name": "order_z", "value": pytest.approx(2.0), "passed": True,
                      "target": 2.0, "tol": 0.25}
    assert above == {"name": "kpz_order", "value": pytest.approx(2.0), "passed": True,
                     "target": 0.9}
    assert below == {"name": "gap_order", "value": pytest.approx(1.0), "passed": False,
                     "target": 1.5}
    assert not far["passed"] and far["tol"] == 0.25
    assert rep.items == [within, above, below, far]
    assert list(rep.orders) == ["heat_z", "kpz", "weak_gap", "cn_n2"]
    assert rep.orders["kpz"] == above["value"]


def test_a_relative_error_over_a_zero_scale_is_an_exact_zero_check():
    rep = _rules_report()
    assert studies._relative(rep, "qv_rel_err", 0.1, 4.0, 0.05) == {
        "name": "qv_rel_err", "value": 0.025, "passed": True, "target": 0.0, "tol": 0.05}
    assert studies._relative(rep, "pair_variance_rel", 0.0, 0.0, 0.05) == {
        "name": "pair_variance_rel", "value": 0.0, "passed": True, "target": 0.0}
    assert studies._relative(rep, "rel_gap_phi1", 1e-300, 0.0, 0.05) == {
        "name": "rel_gap_phi1", "value": 1e-300, "passed": False, "target": 0.0}


def test_a_non_increasing_ladder_reads_its_worst_step_ratio():
    rep = _rules_report()
    assert studies._non_increasing(rep, "a", [4.0, 2.0, 3.0], 1e-9) == {
        "name": "a", "value": 1.5, "passed": False, "target": 1.0}
    assert studies._non_increasing(rep, "b", [4.0, 2.0, 2.0 * (1 + 1e-12)], 1e-9)["passed"]
    # a ladder that reaches 0 and stays there is non-increasing
    assert studies._non_increasing(rep, "c", [4.0, 1.0, 0.0, 0.0], 1e-9) == {
        "name": "c", "value": 1.0, "passed": True, "target": 1.0}


def test_an_all_zero_ladder_passes_and_a_step_up_from_zero_fails_finitely():
    # seen: a zero-amplitude test function has a zero defect at every scale,
    # and the ratio of the step from 0 was inf, which no item may record
    rep = _rules_report()
    name = "limit_defect_monotone_phi1"
    assert studies._non_increasing(rep, name, [0.0, 0.0, 0.0], 1e-12) == {
        "name": name, "value": 0.0, "passed": True, "target": 0.0}
    assert studies._non_increasing(rep, "cauchy_monotone_phi1", [2.0, 0.0, 0.5], 1e-9) == {
        "name": "cauchy_monotone_phi1", "value": 0.5, "passed": False, "target": 0.0}
    assert not rep.passed


def test_a_ratio_reads_zero_over_zero_as_zero_and_a_positive_value_over_zero_as_inf():
    assert studies._ratio(3.0, 2.0) == 1.5
    assert studies._ratio(0.0, 0.0) == 0.0
    assert studies._ratio(1e-300, 0.0) == math.inf


# ---------------------------------------------------------------------------
# reports


def _toy_report(passed=True):
    rep = StudyReport(study="qv", config={"study": "qv", "seed": 7})
    rep.add("alpha", 0.01, True, target=0.0, tol=0.05)
    rep.add("beta", 2.0, passed, target=2.0)
    rep.add_order("alpha", 1.98)
    rep.add_curves(
        "decay",
        {"phi1": [(1.0, 1.0), (2.0, 0.25)], "phi2": [(1.0, 2.0), (2.0, 0.5)]},
        xlabel="n",
        ylabel="gap",
    )
    rep.add_table("rows.csv", ("a", "b"), [(1, 2)])
    return rep


def test_report_passed_aggregates_items():
    assert StudyReport(study="qv", config={}).passed  # vacuous
    assert _toy_report(passed=True).passed
    assert not _toy_report(passed=False).passed


def test_report_rejects_non_finite_values():
    rep = StudyReport(study="qv", config={})
    with pytest.raises(ValueError, match="finite"):
        rep.add("bad", math.inf, True)
    with pytest.raises(ValueError, match="finite"):
        rep.add("bad", math.nan, True)


@pytest.mark.parametrize("value,target,tol,passed", [
    (0.0, 0.0, None, True),
    (-0.0, 0.0, None, True),
    (5e-324, 0.0, None, False),
    (2.0, 2.0, None, True),
    (0.05, 0.0, 0.05, True),  # value == tol passes
    (0.0500001, 0.0, 0.05, False),
    (-0.0, 0.0, 0.0, True),
    (2.25, 2.0, 0.25, True),
    (1.75, 2.0, 0.25, True),
    (2.2500001, 2.0, 0.25, False),
    (1.7, 2.0, 0.25, False),
    (-0.375, -0.5, 0.125, True),
    (-0.625, -0.5, 0.125, True),
    (-0.3, -0.5, 0.125, False),
    (0.5, -0.5, 0.125, False),
    (np.float64(0.5), 0.0, 0.5, True),
    (np.float64(0.5), 0.0, np.float64(0.25), False),
    (np.float64(3.0), 3.0, None, True),
])
def test_check_passes_within_tol_of_the_target_or_at_it_without_one(value, target, tol, passed):
    rep = StudyReport(study="qv", config={})
    item = rep.check("x", value, target=target, tol=tol)
    expected = {"name": "x", "value": float(value), "passed": passed, "target": float(target)}
    if tol is not None:
        expected["tol"] = float(tol)
    assert rep.items == [item]
    assert item == expected and type(item["value"]) is float and type(item["passed"]) is bool


def test_emit_reports_writes_and_is_deterministic(tmp_path):
    rep = _toy_report()
    first = emit_reports(rep, tmp_path / "out")
    blobs = {p.name: p.read_bytes() for p in first}
    assert set(blobs) == {"study.json", "rows.csv", "decay.svg"}
    again = emit_reports(_toy_report(), tmp_path / "out")
    assert {p.name: p.read_bytes() for p in again} == blobs


def test_table_cells_are_strs_as_they_are_and_numbers_as_python_reprs(tmp_path):
    rep = StudyReport(study="qv", config={})
    rep.add_table("t.csv", ("name", "x", "k"), [("phi1", np.float64(0.1), np.int64(3)),
                                                ("", 0.1 + 0.2, 7), ("a", math.inf, -0.0)])
    emit_reports(rep, tmp_path)
    assert (tmp_path / "t.csv").read_text() == (
        "name,x,k\nphi1,0.1,3\n,0.30000000000000004,7\na,inf,-0.0\n")


def test_emitted_json_shape(tmp_path):
    paths = emit_reports(_toy_report(), tmp_path)
    data = json.loads((tmp_path / "study.json").read_text())
    assert data["study"] == "qv"
    assert data["passed"] is True
    assert data["config"]["seed"] == 7
    assert [it["name"] for it in data["items"]] == ["alpha", "beta"]
    assert data["orders"] == {"alpha": 1.98}
    # wall-clock is stdout-only: byte-identical artifacts across runs
    assert "wallclock_s" not in data
    assert all(p.exists() for p in paths)


def test_emit_empty_report_yields_valid_json_only(tmp_path):
    rep = StudyReport(study="qv", config={"study": "qv"})
    paths = emit_reports(rep, tmp_path)
    assert [p.name for p in paths] == ["study.json"]
    data = json.loads(paths[0].read_text())
    assert data["items"] == [] and data["passed"] is True


def test_svg_has_one_polyline_per_series(tmp_path):
    emit_reports(_toy_report(), tmp_path)
    svg = (tmp_path / "decay.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "phi1" in svg and "phi2" in svg
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_resolve_out_dir_precedence(monkeypatch):
    from pathlib import Path

    monkeypatch.setenv("BURGERSLAB_OUT", "from-env")
    assert resolve_out_dir("explicit") == Path("explicit")
    assert resolve_out_dir(None) == Path("from-env")
    monkeypatch.delenv("BURGERSLAB_OUT")
    assert resolve_out_dir(None) == Path("burgerslab-out")


# ---------------------------------------------------------------------------
# small end-to-end runs


def _read_by(study, fields):
    """The config of ``study`` with each of ``fields`` (JSON keys) that its row reads, or all."""
    reads = _EVERY_STUDY.union(STUDIES[study].reads) if study in STUDIES else fields
    return ExperimentConfig.from_dict(
        {"study": study, **{key: value for key, value in fields.items() if key in reads}})


def _tiny(study, **kw):
    small = {"N": 32, "M": 256, "n": 4, "num_paths": 200,
             "initial": {"kind": "cosine", "params": {"a": 0.2}}}
    return _read_by(study, small).replace(**kw)


def test_run_study_validates_config_first(tmp_path):
    with pytest.raises(ConfigError):
        run_study(_tiny("qv", seed=-4), out_dir=tmp_path)


def test_march_breakdown_is_reported_from_the_march_at_its_step(tmp_path, monkeypatch):
    # λ = 1e3 drives Z to 0 within the first hundred steps; the chunked march
    # stops there, before all M steps and before any pass takes log Z
    drawn = []

    def recording_draw(*args):
        for lo, hi, increments in draw_chunks(*args):
            drawn.append((lo, hi))
            yield lo, hi, increments

    monkeypatch.setattr(heat, "draw_chunks", recording_draw)
    cfg = ExperimentConfig.from_dict({"study": "burgers", "lambda": 1e3, "refine_levels": 1})
    with pytest.raises(ValueError, match=r"Z at step (\d+), node \(\d+,\) is") as err:
        run_study(cfg, out_dir=tmp_path)
    frames = [entry.name for entry in err.traceback]
    assert "march" in frames and "weak_residual_batch" not in frames
    step = int(re.search(r"step (\d+)", str(err.value)).group(1))
    assert 0 < step < cfg.M
    # the stream raised in the chunk that failed: no later chunk was drawn
    lo, hi = drawn[-1]
    assert lo < step <= hi


def test_run_study_unknown_study_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="study"):
        run_study(_tiny("not-a-study"), out_dir=tmp_path)


def test_burgers_flat_deterministic_data_gaps_exactly_zero(tmp_path):
    # λ=0 and f ≡ 0: Z ≡ 1, U ≡ 0, both sides of the identity vanish
    cfg = _tiny("burgers", lam=0.0, initial_kind="zero", initial_params={})
    rep = run_study(cfg, out_dir=tmp_path / "flat")
    assert rep.passed
    gaps = [it for it in rep.items if it["name"].startswith("rel_gap_")]
    assert len(gaps) == 6
    assert all(it["value"] == 0.0 for it in gaps)
    assert (tmp_path / "flat" / "study.json").exists()
    assert (tmp_path / "flat" / "weak_residuals.csv").exists()


def test_burgers_tiny_stochastic_run_emits_artifacts(tmp_path):
    rep = run_study(_tiny("burgers", seed=5), out_dir=tmp_path / "b")
    names = {it["name"] for it in rep.items}
    assert {f"rel_gap_phi{i}" for i in range(1, 7)} <= names
    data = json.loads((tmp_path / "b" / "study.json").read_text())
    assert data["config"]["seed"] == 5
    assert data["config"]["study"] == "burgers"


def test_converge_reports_one_limit_pairing_at_every_scale(tmp_path):
    # the limit pairing reads only the shared base noise, so each φ's value
    # is bit-identical at all four scales, in both tables
    cfg = _tiny("converge", N=64, M=416, T=0.05, n=(2, 4, 8, 16))
    run_study(cfg, out_dir=tmp_path / "c")
    limits = {}
    lines = (tmp_path / "c" / "weak_residuals.csv").read_text().splitlines()
    for line in lines[1:]:
        row = line.split(",")
        limits.setdefault(row[6], []).append((int(row[3]), row[10]))
    assert len(limits) == 6
    for values in limits.values():
        assert [n for n, _ in values] == [2, 4, 8, 16]
        assert len({v for _, v in values}) == 1
    table = (tmp_path / "c" / "limit.csv").read_text().splitlines()
    for line in table[1:]:
        phi_id, _, _, limit = line.split(",")[:4]
        assert limit == limits[phi_id][0][1]


def test_converge_takes_each_fine_trajectorys_log_once(tmp_path, monkeypatch):
    # each scale's streamed chunk is logged once for its weak pass and, at
    # n_kpz, its KPZ residual; the stored grid-scale reference is logged for
    # its weak pass and for ‖U‖, which the Cauchy budget reads: 6 passes on
    # the fine grid (7 when the KPZ residual took its own log, 11 when the
    # Cauchy column did)
    cfg = _tiny("converge", N=64, M=416, T=0.05, n=(2, 4, 8, 16))
    passes = []
    checked_log = colehopf.checked_log

    def counted(values, first_step, out=None):
        if first_step == 0 and values.shape[1:] == (cfg.N,):
            passes.append(first_step)
        return checked_log(values, first_step, out)

    # count the logs wherever they are taken: at every binding of checked_log
    for module in (colehopf, heat, studies):
        if getattr(module, "checked_log", None) is checked_log:
            monkeypatch.setattr(module, "checked_log", counted)
    run_study(cfg, out_dir=tmp_path / "c")
    assert len(passes) == 6


def test_a_zero_amplitude_limit_table_reads_the_ratio_its_item_reads(tmp_path):
    # seen: limit.csv wrote ratio inf where deviation and defect were both 0,
    # while limit_ratio_phi1 read 0.0 for the same pair
    rep = run_study(_REACHING["converge-zero"], out_dir=tmp_path)
    rows = (tmp_path / "limit.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4:] for row in rows] == [["0.0", "0.0", "0.0"]] * 3
    assert {"name": "limit_ratio_phi1", "value": 0.0, "passed": True, "target": 0.0,
            "tol": 3.0} in rep.items


# the items of _REACHING["converge-2d"] before its Cauchy column ran: the
# column adds no item in d = 2, where the plan builds no grid-scale reference
_CONVERGE_2D_ITEMS = [
    ("limit_defect_monotone_phi1", 0.7555892759912558), ("limit_ratio_phi1", 2.201654634942372),
    ("limit_defect_monotone_phi2", 0.8699716400512322), ("limit_ratio_phi2", 0.536234660871947),
    ("limit_defect_monotone_phi3", 0.6842689631261674), ("limit_ratio_phi3", 0.6347232882565719),
    ("limit_defect_monotone_phi4", 0.6528103560341126), ("limit_ratio_phi4", 0.39918554173946535),
    ("limit_defect_monotone_phi5", 0.7958569311594965), ("limit_ratio_phi5", 1.5433457484814799),
    ("limit_defect_monotone_phi6", 0.7204820540872758), ("limit_ratio_phi6", 1.0176172867540112),
    ("kpz_order", 1.7910320555732158), ("kpz_flat_zero", 0.0),
]


def test_a_two_dimensional_converge_writes_its_cauchy_column_and_no_new_item(tmp_path):
    rep = run_study(_REACHING["converge-2d"], out_dir=tmp_path)
    assert [(it["name"], it["value"]) for it in rep.items] == [
        (name, pytest.approx(value, rel=1e-9)) for name, value in _CONVERGE_2D_ITEMS]
    assert rep.passed
    assert (tmp_path / "cauchy_gaps.svg").exists()
    lines = (tmp_path / "cauchy.csv").read_text().splitlines()
    assert lines[0] == "phi_id,n,pairing,cauchy_gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [(phi_id, n) for phi_id, n, _, _ in rows] == [
        (f"phi{i}", n) for i in range(1, 7) for n in ("2", "4", "8")]
    for k in range(0, len(rows), 3):
        pairings = [float(row[2]) for row in rows[k : k + 3]]
        assert [row[3] for row in rows[k : k + 3]] == [
            "", repr(abs(pairings[1] - pairings[0])), repr(abs(pairings[2] - pairings[1]))]


@pytest.mark.parametrize("n", [[2, 4], [8, 4, 2]], ids=["two", "decreasing"])
def test_a_two_dimensional_converge_needs_three_increasing_scales(n, tmp_path, capsys):
    # seen: both ran in d = 2, where only d = 1 was held to the Cauchy column's scales
    data = {**_REACHING["converge-2d"].to_dict(), "n": n}
    message = (f"the Cauchy column needs at least 3 strictly increasing scales below "
               f"N = 64, got {tuple(n)}")
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(data).validate()
    assert err.value.errors == [("n", message)]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "art"
    cfg_path.write_text(json.dumps(data))
    assert main(["converge", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: n: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_section_deterministic_tiny_run_passes(tmp_path):
    cfg = _tiny("section", M=512, T=0.05, lam=0.0)
    rep = run_study(cfg, out_dir=tmp_path / "s")
    assert rep.passed
    assert "section_order" in {it["name"] for it in rep.items}


@st.composite
def _small_configs(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.sampled_from([8, 16] if d == 3 else [8, 16, 32]))
    stable = math.ceil(2 * d * 0.1 * N * N)  # the least M with dt ≤ dx²/(2d) at T = 0.1
    M = draw(st.one_of(st.integers(stable, 3 * stable),
                       st.sampled_from([64 * k for k in range(1, 20) if 64 * k >= stable])))
    study = draw(st.sampled_from(STUDY_KINDS))
    scales = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8]), min_size=1, max_size=3))
    fields = {
        "d": d, "N": N, "M": M, "n": scales[:1] if study in _ONE_SCALE else scales,
        "lambda": draw(st.sampled_from([0.0, 1.0])), "refine_levels": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 99)), "num_paths": 100,
        "initial": {"kind": "gaussian-bump",
                    "params": {"a": 0.5, "w": 0.12, "center": [0.37, 0.61, 0.5][:d]}},
    }
    return _read_by(study, fields)  # every field is drawn for every study


# Configs the draws miss (none of them reached run_study for converge or
# qv): converge needs N ≥ 64 for three scales that resolve on its N/4 KPZ
# grid, and qv scales of at most N/4 on its path grid, none of them 1
_BUMP = {"kind": "gaussian-bump", "params": _BUMP_PARAMS}
_REACHING = {
    "converge": _read_by("converge", {"N": 64, "M": 1024, "n": [2, 4, 8], "initial": _BUMP}),
    "converge-flat": _read_by("converge", {"N": 64, "M": 1024, "n": [2, 4, 8], "lambda": 0.0,
                                           "initial": _BUMP}),
    "converge-2d": _read_by("converge", {"d": 2, "N": 64, "M": 832, "T": 0.05, "n": [2, 4, 8],
                                         "initial": {"kind": "gaussian-bump", "params": {
                                             **_BUMP_PARAMS, "center": [0.37, 0.61]}}}),
    # a zero-amplitude φ: a zero defect and a zero Cauchy gap at every scale
    "converge-zero": _read_by("converge", {"N": 64, "M": 1024, "n": [2, 4, 8], "bank": [
        {"t_center": 0.05, "t_radius": 0.02, "x_center": [0.5], "x_radius": 0.2,
         "amplitudes": [0.0]}]}),
    "qv": _read_by("qv", {"N": 32, "n": [2, 4, 8], "seed": 3}),
    "qv-flat": _read_by("qv", {"N": 8, "n": [2], "lambda": 0.0}),
}


def test_the_reaching_examples_validate():
    for cfg in _REACHING.values():
        cfg.validate()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cfg=_small_configs())
@example(cfg=_REACHING["converge"])
@example(cfg=_REACHING["converge-flat"])
@example(cfg=_REACHING["converge-2d"])
@example(cfg=_REACHING["converge-zero"])
@example(cfg=_REACHING["qv"])
@example(cfg=_REACHING["qv-flat"])
def test_a_validated_config_reaches_a_verdict_or_breaks_down_by_name(cfg):
    # validate() rejects by field name, or the study reaches a verdict, or
    # the march or the log names the step and node where Z broke down
    try:
        cfg.validate()
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            report = run_study(cfg, out_dir=out)
        except ValueError as exc:
            assert re.search(r"Z( of batch member \d+)? at step \d+, node \(", str(exc)), exc
            return
    assert report.items


def test_study_json_is_byte_stable_across_runs(tmp_path):
    cfg = _tiny("burgers", seed=12)
    run_study(cfg, out_dir=tmp_path / "one")
    run_study(cfg, out_dir=tmp_path / "two")
    for name in ("study.json", "weak_residuals.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_studies(capsys):
    assert main(["--list-studies"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list(STUDY_KINDS)


def test_cli_requires_a_study(capsys):
    assert main([]) == 2
    assert "study kind is required" in capsys.readouterr().err


def test_cli_rejects_unknown_study(capsys):
    assert main(["warp"]) == 2
    assert "study" in capsys.readouterr().err


def test_cli_passing_run_exit_zero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _tiny("burgers", lam=0.0, initial_kind="zero", initial_params={}).save(cfg_path)
    code = main(["burgers", "--config", str(cfg_path), "--out", str(tmp_path / "art")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS burgers:" in out
    assert (tmp_path / "art" / "study.json").exists()


def test_cli_failing_run_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _tiny("burgers", seed=5, tolerances={"weak_rel_gap": 1e-12}).save(cfg_path)
    code = main(["burgers", "--config", str(cfg_path), "--out", str(tmp_path / "art")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_seed_override_lands_in_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _tiny("burgers", lam=0.0, initial_kind="zero", initial_params={}).save(cfg_path)
    main([
        "burgers", "--config", str(cfg_path),
        "--seed", "41", "--out", str(tmp_path / "art"),
    ])
    data = json.loads((tmp_path / "art" / "study.json").read_text())
    assert data["config"]["seed"] == 41


def test_cli_bad_config_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["qv", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_refuses_a_config_for_another_study(tmp_path, capsys):
    # seen: qv ran on the burgers config, wrote qv.csv and echoed "study": "qv"
    cfg_path = tmp_path / "b.json"
    cfg_path.write_text(json.dumps({"study": "burgers", "N": 32, "M": 2048}))
    out = tmp_path / "art"
    assert main(["qv", "--config", str(cfg_path), "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert "study:" in stderr and "'qv'" in stderr and "'burgers'" in stderr
    assert not out.exists()


def test_cli_env_var_default_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BURGERSLAB_OUT", str(tmp_path / "env-out"))
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    _tiny("burgers", lam=0.0, initial_kind="zero", initial_params={}).save(cfg_path)
    assert main(["burgers", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "env-out" / "study.json").exists()


# ---------------------------------------------------------------------------
# the laws: seed batches


def test_seed_blocks_cover_the_seeds_in_order_a_quarter_chunk_each():
    # a chunk of realizations is 128 seeds of the lag grid and 256 of the
    # pairing grid; a block is a quarter of that
    lag_grid = TorusGrid(d=1, N=128, M=8)
    blocks = list(studies._seed_blocks(lag_grid, 2**64 - 300, 300))
    assert [len(b) for b in blocks] == [32] * 9 + [12]
    assert [s for b in blocks for s in b] == list(range(2**64 - 300, 2**64))
    assert len(next(studies._seed_blocks(TorusGrid(d=1, N=32, M=8), 7, 10_000))) == 64


def test_block_lag_sums_equal_a_per_seed_loop():
    # 300 seeds cross two block boundaries of the 128-node lag grid; every
    # float add happens in the per-seed loop's order
    g = TorusGrid(d=1, N=128, M=8)
    m = make_mollifier(g, 8)
    lags, i0 = (0, 4, 8, 16, 40), 11
    sums = np.zeros(len(lags))
    sumsq = np.zeros(len(lags))
    for seed in range(1_000, 1_300):
        mn = mollify(sample_noise(g, seed, 0.8), m)
        col0 = mn.increments[:, i0]
        for j, lag in enumerate(lags):
            prod = col0 * mn.increments[:, (i0 + lag) % g.N]
            sums[j] += float(np.sum(prod))
            sumsq[j] += float(np.sum(prod * prod))
    got, got_sq = studies._lag_sums(m, 1_000, 300, 0.8, lags)
    assert np.array_equal(got, sums) and np.array_equal(got_sq, sumsq)
    zero, zero_sq = studies._lag_sums(m, 1_000, 300, 0.0, lags)
    assert not np.any(zero) and not np.any(zero_sq)


def test_noise_check_builds_one_philox_per_seed_block(tmp_path, monkeypatch):
    # seen: one Generator(Philox) per seed, 12,500 in all
    built, blocks = [], []
    philox, draw_seeds = np.random.Philox, studies.draw_seeds

    def counted_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    def counted_draw(grid, seeds, lam):
        blocks.append(len(seeds))
        return draw_seeds(grid, seeds, lam)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    monkeypatch.setattr(studies, "draw_seeds", counted_draw)
    run_study(ExperimentConfig(study="noise-check"), out_dir=tmp_path)
    assert sum(blocks) == 12_500 and len(blocks) == 157 + 79  # 10,000 / 64 and 2,500 / 32
    assert len(built) == len(blocks)


def test_noise_check_holds_less_than_one_chunk(tmp_path):
    # the lag law draws 2,500 seeds on a 128-node, 8-step grid.  Blocks of a
    # chunk of seeds (1 MiB), each mollified through a mollifier built for
    # it while the last block's copy was still held, kept the batch and two
    # mollified copies: a traced peak of 3.3 MiB.  Blocks of block_steps
    # seeds through one mollifier, each batch freed before the next draw,
    # stay below 7/8 of one chunk's budget (0.93 MiB with the last batch held)
    import numpy.fft  # noqa: F401  (numpy loads both lazily: not the run's memory)
    import numpy.random  # noqa: F401

    cfg = ExperimentConfig(study="noise-check")
    cfg.validate()  # the plan's kernels are not the run's peak
    tracemalloc.start()
    try:
        run_study(cfg, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lattice._CHUNK_BYTES * 7 // 8, peak


def test_the_lag_covariance_target_adds_the_torus_image(tmp_path):
    # at n = 2 the covariance kernel's support 2/n reaches round the 128-node
    # lag torus, so h_n(L − lag) adds to each lag's covariance; without it
    # cov_lag_40 read 4.84 sigma at seed 7 and failed a correct sampler
    cfg = ExperimentConfig(study="noise-check", n=(2,))
    _, _, _, lag_m = cfg.validate()
    report = run_study(cfg, out_dir=tmp_path)
    g = lag_m.grid
    _, *rows = [line.split(",")
                for line in (tmp_path / "noise_covariance.csv").read_text().splitlines()]
    images = []
    for _, z, _, target, _, _ in rows:
        h, image = noise.h_eval(lag_m, [float(z)]), noise.h_eval(lag_m, [g.L - float(z)])
        assert float(target) == cfg.lam**2 * g.dt * (h + image)
        images.append(image)
    assert len(rows) == 5 and all(image > 0.0 for image in images[1:])
    assert [it["passed"] for it in report.items if it["name"] == "cov_lag_40"] == [True]


def test_noise_check_laws_do_not_hang_on_the_seed_block_size(tmp_path):
    # 7 seeds a block (a short last block for 2,500 and 10,000 seeds) and
    # the default 32 and 64: the same lag sums, item values and table bytes
    cfg = ExperimentConfig(study="noise-check")
    _, _, pair_grid, lag_m = cfg.validate()
    first = cfg.seed + studies._LAG_SEEDS_FROM
    lags = (0, 4, 8, 16, 40)

    def laws(chunk, out):
        with mock.patch("burgerslab.lattice._CHUNK", chunk):
            blocks = [len(next(studies._seed_blocks(g, 0, 10**4)))
                      for g in (pair_grid, lag_m.grid)]
            sums = studies._lag_sums(lag_m, first, studies._LAG_SEEDS, cfg.lam, lags)
            report = run_study(cfg, out_dir=out)
        items = [(it["name"], it["value"].hex()) for it in report.items
                 if it["name"] == "pair_variance_rel" or it["name"].startswith("cov_lag_")]
        table = (out / "noise_covariance.csv").read_bytes()
        return blocks, [a.tobytes() for a in sums], items, table

    small, default = laws(28, tmp_path / "small"), laws(lattice._CHUNK, tmp_path / "default")
    assert small[0] == [7, 7] and default[0] == [64, 32]
    assert len(small[2]) == 6
    assert small[1:] == default[1:]


def test_qv_holds_no_space_time_stack(tmp_path):
    # seen: qv drew and mollified the whole (10⁴, 128) realization, 10.2 MB
    # each, to read one node's path
    cfg = ExperimentConfig(study="qv")
    cfg.validate()  # the plan's kernels and quadrature are not the run's peak
    tracemalloc.start()
    try:
        run_study(cfg, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = 10_000 * cfg.N * 8
    assert peak < stack, (peak, stack)


# ---------------------------------------------------------------------------
# draws: each realization a study reads is drawn once


# acceptance config -> (its grid shrunk to run in about a second, the sum of
# M·N^d over the realizations its study reads)
_DRAWN = {
    "noise-check": ({}, 10_000 * 8 * 32 + 2_500 * 8 * 128),  # its two seed batches
    "qv": ({}, 10_000 * 128),  # one node's path on its own M = 10⁴ grid
    "heat": ({"N": 32, "M": 256}, 0),  # the oracle marches at λ = 0
    "burgers-1d": ({"N": 64, "M": 1024, "n": (4,)}, 1024 * 64),  # the fine grid, once
    "burgers-2d": ({"N": 16, "M": 512, "n": (4,)}, 512 * 16**2),
    "section": ({}, 410 * 64),  # the λ > 0 branch
    "fk-check": ({}, 410 * 32),
}


@pytest.mark.parametrize("name", list(_DRAWN))
def test_each_study_draws_the_white_noise_it_reads_once(name, tmp_path, monkeypatch):
    # counts the values drawn from the streams seeded_stream keys with the
    # white-noise tag and the rows of draw_seeds; fk's Brownian walk and
    # noise-check's duality fields come from streams of their own.  converge
    # draws its base a second time after the scale stream, so it is not here
    from test_acceptance import CONFIGS

    counts = []
    seeded, batch = noise.seeded_stream, studies.draw_seeds

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            values = self.rng.standard_normal(*args, **kwargs)
            counts.append(np.size(values))
            return values

    def counted_stream(seed, tag):
        rng = seeded(seed, tag)
        return Counted(rng) if tag == noise._NOISE_STREAM_TAG else rng

    def counted_batch(grid, seeds, lam):
        drawn_rows = batch(grid, seeds, lam)
        counts.append(drawn_rows.increments.size if lam != 0.0 else 0)
        return drawn_rows

    monkeypatch.setattr(noise, "seeded_stream", counted_stream)
    monkeypatch.setattr(studies, "draw_seeds", counted_batch)
    changes, drawn = _DRAWN[name]
    run_study(CONFIGS[name].replace(**changes), out_dir=tmp_path)
    assert sum(counts) == drawn


# ---------------------------------------------------------------------------
# tables: every study's CSV, as emit_reports writes it


_SHRUNK = {**{name: changes for name, (changes, _) in _DRAWN.items()},
           "converge": {"N": 64, "M": 416, "T": 0.05, "n": (2, 4, 8, 16)}}


@pytest.fixture(scope="module", params=list(_SHRUNK))
def emitted(request, tmp_path_factory):
    """The artifact directory of one study's acceptance config, shrunk; each runs once."""
    from test_acceptance import CONFIGS

    out = tmp_path_factory.mktemp(request.param)
    run_study(CONFIGS[request.param].replace(**_SHRUNK[request.param]), out_dir=out)
    return out


def test_every_csv_cell_is_a_name_or_a_number(emitted):
    # every cell float() does not read is a header, a phi_id or mode name, or
    # the empty cauchy_gap of each φ's first scale, which has no previous one
    tables = sorted(emitted.glob("*.csv"))
    assert tables
    unread = []
    for path in tables:
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        first_scales = set()
        for row in rows:
            assert len(row) == len(header), (path.name, row)
            cells = dict(zip(header, row))
            first_scale = cells.get("phi_id") not in first_scales
            first_scales.add(cells.get("phi_id"))
            for column, cell in cells.items():
                if column in ("phi_id", "mode"):
                    continue
                if column == "cauchy_gap" and first_scale:
                    assert cell == "", (path.name, row)
                    continue
                try:
                    float(cell)
                except ValueError:
                    unread.append((path.name, column, cell))
    assert unread == []


def test_every_item_with_a_tol_passed_exactly_when_within_it_of_its_target(emitted):
    items = json.loads((emitted / "study.json").read_text())["items"]
    with_tol = [item for item in items if "tol" in item]
    assert with_tol
    for item in with_tol:
        assert item["passed"] == (abs(item["value"] - item["target"]) <= item["tol"]), item


def test_fk_csv_has_one_row_per_probe_estimate(tmp_path):
    from test_acceptance import CONFIGS

    cfg = CONFIGS["fk-check"]
    rep = run_study(cfg, out_dir=tmp_path / "a")
    text = (tmp_path / "a" / "fk.csv").read_bytes()
    header, *rows = [line.split(",") for line in text.decode().splitlines()]
    assert ",".join(header) == "t,x0,num_paths,mode,mean,stderr,solver_value,z_score"
    assert len(rows) == 5 and all(len(row) == 8 for row in rows)  # one per probe
    assert all(row[3] == "ito-compensated" and row[2] == str(cfg.num_paths) for row in rows)
    # the signed z_score whose size each probe's check records
    assert [abs(float(row[7])) for row in rows] == [
        it["value"] for it in rep.items if it["name"].startswith("fk_z_probe")]
    emit_reports(rep, tmp_path / "b")
    assert (tmp_path / "b" / "fk.csv").read_bytes() == text


def test_weak_residuals_csv_has_one_row_per_weak_report(tmp_path, monkeypatch):
    levels = []
    burgers_reports = studies._burgers_reports

    def kept(cfg, ladder, bank):
        levels.extend(burgers_reports(cfg, ladder, bank))
        return levels

    monkeypatch.setattr(studies, "_burgers_reports", kept)
    cfg = _tiny("burgers", seed=5, refine_levels=2)
    rep = run_study(cfg, out_dir=tmp_path / "a")
    reports = [r for _, level in levels for r in level]
    text = (tmp_path / "a" / "weak_residuals.csv").read_bytes()
    header, *rows = [line.split(",") for line in text.decode().splitlines()]
    assert ",".join(header) == "d,N,M,n,seed,lambda,phi_id,lhs,rhs,gap,limit_pairing"
    assert len(rows) == len(reports) == 12 and all(len(row) == 11 for row in rows)
    for row, r in zip(rows, reports):
        assert row[3] == "4" and row[4] == "5" and row[6] == r.phi_id
        assert float(row[9]) == r.gap
    emit_reports(rep, tmp_path / "b")
    assert (tmp_path / "b" / "weak_residuals.csv").read_bytes() == text


# ---------------------------------------------------------------------------
# layering


def test_core_modules_do_not_import_the_harness(tmp_path):
    # a fresh interpreter, so modules this test session already loaded do
    # not count; like contract 12, hand it the source tree under test
    src_dir = str(Path(burgerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
    )
    core = ("lattice", "bank", "noise", "heat", "colehopf", "fk")
    code = (
        "import sys\n"
        + "".join(f"import burgerslab.{name}\n" for name in core)
        + "print(sorted(m for m in sys.modules if m.startswith('burgerslab.harness')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_builds_no_generator(tmp_path):
    # a process's first Philox raises its peak RSS by about 5 MiB, so a
    # module-level generator would cost every run, and its set-up time
    src_dir = str(Path(burgerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
    )
    code = (
        "import numpy as np\n"
        "built = []\n"
        "philox = np.random.Philox\n"
        "np.random.Philox = lambda *a, **k: built.append(1) or philox(*a, **k)\n"
        "import burgerslab.harness.cli\n"
        "print(len(built))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
