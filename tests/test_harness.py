"""Harness: config validation/serialization, order fits, reports, CLI, layering."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burgerslab
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
from burgerslab.harness.cli import main
from burgerslab.harness.studies import STUDIES, measure_order, run_study
from burgerslab.noise import draw_chunks


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
    # dt = T/M must satisfy dt <= dx²/(2d)
    with pytest.raises(ConfigError, match="unstable"):
        ExperimentConfig(study="qv", N=64, M=128).validate()


def test_validate_rejects_under_resolved_mollifier():
    # support 1/n below 4·dx
    with pytest.raises(ConfigError, match="n:"):
        ExperimentConfig(study="qv", N=16, M=2048, n=(8,)).validate()


def _errors(**fields):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**fields).validate()
    return err.value.errors


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
    {"study": "heat", "N": 64},
    {"study": "burgers", "N": 64, "refine_levels": 3},
    {"study": "converge", "n": (8, 16)},
])
def test_validate_checks_the_scale_on_the_coarsest_ladder_grid(fields):
    errors = _errors(**fields)
    assert [name for name, _ in errors] == ["n"]
    assert "on the coarsest ladder grid" in errors[0][1]


@pytest.mark.parametrize("a", [1.5, 0.0, -1.0])
def test_validate_rejects_heat_amplitude_outside_unit_interval(a):
    # the heat oracle starts from Z = 1 + a·cos; seen: a = 1.5 passed
    # validate() and the study raised only once it ran
    errors = _errors(study="heat", initial_kind="cosine", initial_params={"a": a})
    assert [name for name, _ in errors] == ["initial"]
    assert f"0 < |a| < 1, got {a}" in errors[0][1]
    ExperimentConfig(study="heat", initial_kind="cosine", initial_params={"a": -0.5}).validate()


def test_validate_rejects_unknown_and_nonpositive_tolerances():
    with pytest.raises(ConfigError, match="unknown names"):
        ExperimentConfig(study="qv", tolerances={"not_a_knob": 1.0}).validate()
    with pytest.raises(ConfigError, match="non-positive"):
        ExperimentConfig(study="qv", tolerances={"qv_rel": 0.0}).validate()


def test_from_dict_rejects_unknown_keys_and_missing_study():
    with pytest.raises(ConfigError, match="unknown keys"):
        ExperimentConfig.from_dict({"study": "qv", "bogus": 1})
    with pytest.raises(ConfigError, match="study"):
        ExperimentConfig.from_dict({"N": 64})
    with pytest.raises(ConfigError, match="initial"):
        ExperimentConfig.from_dict({"study": "qv", "initial": "cosine"})


@pytest.mark.parametrize("key", ["n", "d", "N", "M", "seed", "num_paths", "refine_levels"])
def test_from_dict_rejects_non_integral_integer_fields(key):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"study": "qv", key: 8.7})
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
    rep.tables["rows.csv"] = ["a,b", "1,2"]
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


def test_emit_reports_writes_and_is_deterministic(tmp_path):
    rep = _toy_report()
    first = emit_reports(rep, tmp_path / "out")
    blobs = {p.name: p.read_bytes() for p in first}
    assert set(blobs) == {"study.json", "rows.csv", "decay.svg"}
    again = emit_reports(_toy_report(), tmp_path / "out")
    assert {p.name: p.read_bytes() for p in again} == blobs


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


def _tiny(study, **kw):
    base = dict(
        study=study,
        N=32,
        M=256,
        n=(4,),
        num_paths=200,
        initial_kind="cosine",
        initial_params={"a": 0.2},
    )
    base.update(kw)
    return ExperimentConfig(**base)


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

    monkeypatch.setattr(studies, "draw_chunks", recording_draw)
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


def test_section_deterministic_tiny_run_passes(tmp_path):
    cfg = _tiny("section", M=512, T=0.05, lam=0.0)
    rep = run_study(cfg, out_dir=tmp_path / "s")
    assert rep.passed
    assert "section_order" in {it["name"] for it in rep.items}


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


def test_cli_env_var_default_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BURGERSLAB_OUT", str(tmp_path / "env-out"))
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    _tiny("burgers", lam=0.0, initial_kind="zero", initial_params={}).save(cfg_path)
    assert main(["burgers", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "env-out" / "study.json").exists()


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
