"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
from argparse import Namespace
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import plan  # noqa: E402
import run  # noqa: E402
from tracer import MARK, Tracer, leftover_wrappers  # noqa: E402


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def fake_result(trace: bool) -> dict:
    res = {"setup_all": [1.0, 1.1, 0.9], "pass_s": [8.0, 8.2], "op_s": [0.01 * i for i in range(1, 351)],
           "attempted": 350, "failures": [], "oracle_err_max": 6e-14, "peak_rss_mb": 113.0}
    if trace:
        res.update(traced_pass_s=9.0, traced_attempted=175, leftover_wrappers=[],
                   layers={"spans": {"functionals.circular_mean": [15375, 1.0, 0.8]},
                           "counts": {"model.evals.calls": 10, "model.evals.points": 100,
                                      "model.evals.distinct_points": 40},
                           "catalog_build_s": 0.002, "main_s": 0.0, "report_bytes": 0})
    return res


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = benchmark_json()
    args = Namespace(workload="catalog_matrix", seed=1, seconds=20.0, trace=trace)
    probes = [{"import_s": 0.8, "modules_loaded": 752, "scipy_loaded": 1}] * 3 if trace else []
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(args, fake_result(bool(trace)), probes, [])
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if trace:
        assert last["metrics"]["functionals.circular_mean.calls"]["value"] == 15375
        assert last["metrics"]["model.points_distinct_ratio"]["value"] == 0.4


def test_known_cli_defects_count_as_failed_but_not_incorrect():
    res = fake_result(False)
    res["failures"] = ["asym_s3: exit 1, expected 0"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(Namespace(workload="cli_cold", seed=1, seconds=20.0, trace=0), res, [], [])
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 1)
    res["failures"].append("eval_linear: exit 3, expected 0")
    with redirect_stdout(io.StringIO()) as buf:
        run.report(Namespace(workload="cli_cold", seed=1, seconds=20.0, trace=0), res, [], [])
    assert json.loads(buf.getvalue().strip().splitlines()[-1])["correct"] is False


@pytest.mark.parametrize("n", list(range(1, 30)) + [40, 99, 100, 175, 350, 1000])
def test_no_percentile_with_fewer_than_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)][::-1]
    pct, count, value = run.tail_percentile(samples)
    assert count == n
    beyond = sum(s > value for s in samples)
    if pct > 50:
        assert beyond >= 10
    else:
        assert value == statistics.median(samples)
    if n >= 100:
        assert pct == 90
    if n < 20:
        assert pct == 50


def test_strict_json_rejects_infinity():
    assert run.strict_json('{"a": 1e308}') == {"a": 1e308}
    with pytest.raises(ValueError):
        run.strict_json('{"margin_min": Infinity}')


PLAN_DUMP = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import plan
seed = int(sys.argv[2])
print(json.dumps({w: plan.op_keys(w) for w in plan.WORKLOADS} | {
    "c": plan.theta_c(seed),
    "orders": [plan.pass_order(seed, len(plan.op_keys(w)), i)
               for w in plan.WORKLOADS for i in range(3)]}))
"""


def plan_of(seed: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", PLAN_DUMP, str(HERE), str(seed)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def test_same_seed_gives_same_inputs():
    first, second = plan_of(7, "1"), plan_of(7, "2")
    assert first == second
    other = plan_of(8, "1")
    assert other["c"] != first["c"] and other["orders"] != first["orders"]
    assert plan.THETA_C_RANGE[0] <= first["c"] <= plan.THETA_C_RANGE[1]
    assert len(first["catalog_matrix"]) == 175 and len(set(first["catalog_matrix"])) == 175


def test_tracer_patches_every_binding_and_leaves_none_behind():
    import dilatox.cli
    from dilatox import catalog, functionals, quadrature, verifier
    from dilatox.quadrature import QuadratureConfig

    originals = {(mod.__name__, name): getattr(mod, name)
                 for mod, name in ((functionals, "area"), (verifier, "area"),
                                   (dilatox.cli, "area_fn"), (quadrature, "romb"),
                                   (verifier, "check_lemma1"))}
    tracer = Tracer()
    tracer.install()
    try:
        for (modname, name), orig in originals.items():
            wrapped = vars(sys.modules[modname])[name]
            assert getattr(wrapped, MARK, False) and wrapped.__wrapped__ is orig
        model = tracer.counted_model(catalog.identity().model)
        report = verifier.check_lemma1(model, 1.5, verifier.RadiusLadder(count=3, tail=3),
                                       QuadratureConfig())
    finally:
        tracer.uninstall()
    assert report.holds
    assert leftover_wrappers() == []
    for (modname, name), orig in originals.items():
        assert vars(sys.modules[modname])[name] is orig
    sums = tracer.sums()
    assert sums["spans"]["verifier.check_lemma1"][0] == 1
    assert sums["spans"]["functionals.area"][0] == 3
    assert sums["spans"]["quadrature.romb"][0] >= 3
    assert sums["counts"]["model.evals.calls"] > 0
