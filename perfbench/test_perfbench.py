"""Checks on the benchmark itself: same problems as the gate, robust wrappers,
exact counts, and a refusal to report without the package."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

from burgerslab.harness import studies
from burgerslab.harness.config import ExperimentConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import COUNT_QUANTITIES, TARGETS, Target, Tracer  # noqa: E402
from workloads import ACCEPTANCE_SEED, CONFIGS, WORKLOADS  # noqa: E402


def _acceptance_configs():
    spec = importlib.util.spec_from_file_location(
        "_acceptance_gate", ROOT / "tests" / "test_acceptance.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIGS


def _bench_config(name):
    return ExperimentConfig.from_dict(dict(CONFIGS[name], seed=ACCEPTANCE_SEED))


def test_workload_configs_equal_the_acceptance_gate_field_for_field():
    gate = _acceptance_configs()
    assert set(CONFIGS) == set(gate)
    for name, expected in gate.items():
        got = _bench_config(name)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(got, f.name) == getattr(expected, f.name), (name, f.name)
        # what a child receives round-trips exactly
        assert ExperimentConfig.from_dict(expected.to_dict()) == expected
    grouped = [study for group in WORKLOADS.values() for study in group]
    assert sorted(grouped) == sorted(CONFIGS)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_missing_target_is_reported_and_the_rest_still_traced(tmp_path):
    renamed = Target("heat.solve_heat_batched", "heat", "burgerslab.harness.studies",
                     "solve_heat_batched")
    broken = Target("harness.bank.build_bank", "harness", "burgerslab.harness.studies",
                    "build_bank", lambda a, _: {"values": a["no_such_argument"]},
                    counts=(("values", "count"),))
    targets = tuple(t for t in TARGETS if t.name != "harness.bank.build_bank")
    tracer = Tracer(targets + (renamed, broken))
    original = studies.solve_heat
    tracer.install()
    try:
        studies.run_study(_bench_config("section"), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    assert studies.solve_heat is original
    report = tracer.report()
    assert report["missing"] == ["heat.solve_heat_batched"]
    assert report["records"]["heat.solve_heat"]["calls"] == 2
    assert report["records"]["colehopf.lojasiewicz_section"]["calls"] == 8
    bank = report["records"]["harness.bank.build_bank"]
    assert bank["calls"] == 1 and "KeyError" in bank["counter_error"]
    assert "values" not in bank


def _traced_counts(config, out_dir):
    tracer = Tracer()
    tracer.install()
    try:
        studies.run_study(config, out_dir=out_dir)
    finally:
        tracer.uninstall()
    return {
        name: {q: v for q, v in rec.items() if q in COUNT_QUANTITIES}
        for name, rec in tracer.report()["records"].items()
    }


def test_weak_pass_and_cauchy_counts_repeat_exactly(tmp_path):
    # converge and burgers-2d on smaller grids: the same calls as in ladder-1d
    # and weak-2d (weak pass, Cauchy column, heat march) in a few seconds
    shrunk = {"converge": {"N": 64, "M": 8192, "n": [2, 4, 8]},
              "burgers-2d": {"N": 32, "M": 2048}}
    seen = set()
    for name, smaller in shrunk.items():
        config = ExperimentConfig.from_dict(dict(CONFIGS[name], seed=ACCEPTANCE_SEED, **smaller))
        first = _traced_counts(config, tmp_path / f"{name}-1")
        assert first == _traced_counts(config, tmp_path / f"{name}-2"), name
        seen |= {f"{rec}.{q}" for rec, counts in first.items()
                 for q, v in counts.items() if v and q != "calls"}
    for quantity in ("node_phi_products", "support_nodes"):
        assert f"colehopf.weak_residual_batch.{quantity}" in seen
    assert "colehopf.distributional_limit_1d.gradient_passes" in seen
    assert "heat.solve_heat.node_steps" in seen


def _traced_laws():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "laws",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_exactly_and_artifacts_match_untraced():
    # a traced run makes two untraced and two traced repeats, each study in a
    # fresh child.  run.py marks an operation failed when its artifacts differ
    # from the first untraced repeat or its counts from the first traced one,
    # so a correct result with no failures proves both.
    result = _traced_laws()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * len(WORKLOADS["laws"])
    metrics = result["metrics"]
    assert "trace_overhead_s" in metrics
    assert metrics["fk.fk_estimate.walk_steps"]["value"] > 0
    assert metrics["noise.sample_noise.values"]["value"] > 0


def test_refuses_to_report_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
