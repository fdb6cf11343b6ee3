#!/usr/bin/env python3
"""The dilatox benchmark: time to verdict, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere; it benchmarks the dilatox sources in src/ next to this
directory and exits 2 without a result if they are missing. Workloads
(closed loop, one call at a time, each in fresh processes):

  catalog_matrix  the 175 checks of scripts/run_verification_matrix.py, warm
  theta_sweep     eight checks on f = z + c z^2, c drawn by the seed, warm
  cli_cold        six `python -m dilatox` invocations, one fresh process each

The seed sets c and the order of operations in each pass. Whole passes run
until T seconds are spent (at least one). Every output is checked against a
reference. Human-readable lines come first; the last line of stdout is one
JSON object: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of one extra pass made with the span tracer installed.
Spans of traced runs are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170  # every run ends within the benchmark's 180 s limit

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
    ("oracle_err_max", "1"), ("peak_rss_mb", "MiB"),
)

FUNCTIONALS = ("dilatation_grid", "circular_mean", "circular_dilatation_mean", "area",
               "area_rate", "disc_mean", "boundary_length", "radial_integral_inner",
               "radial_integral_outer")
CHECKS = ("check_lemma1", "check_length_area", "check_lemma2", "check_lemma3",
          "check_lemma4", "theorem1_bound", "theorem3_bound", "theorem5_bound",
          "theorem6_bracket", "theorem7_area_derivative")
BELTRAMI = ("solve_radial", "residual_check", "condition_sigma0", "theorem_nb_bound")


SPAN_STATS = ("calls", "total_s", "self_s")  # what the tracer sums per span name
UNIT_BETTER = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
               "total_s": ("s", "lower"), "nodes": ("count", "lower"),
               "points": ("count", "lower")}


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric."""
    out = []

    def span(prefix, fns, stats=("calls", "self_s")):
        for fn in fns:
            out.extend((f"{prefix}.{fn}.{stat}", *UNIT_BETTER[stat]) for stat in stats)

    span("quadrature", ("integrate_radial",), ("calls", "self_s", "nodes"))
    span("quadrature", ("log_power_tail", "romb"))
    span("mapping", ("jacobian_grid",), ("calls", "self_s", "points"))
    span("mapping", ("min_max_modulus",))
    out += [("model.evals.calls", "count", "lower"), ("model.evals.points", "count", "lower"),
            ("model.points_per_call", "1", "higher"),
            ("model.points_distinct_ratio", "1", "higher")]
    span("functionals", FUNCTIONALS)
    span("verifier", CHECKS, ("calls", "total_s", "self_s"))
    out.append(("verifier.errors", "count", "lower"))
    out.append(("catalog.build_s", "s", "lower"))
    span("beltrami", BELTRAMI)
    out.append(("beltrami.solve_radial.steps", "count", "lower"))
    out += [("cli.import_s", "s", "lower"), ("cli.modules_loaded", "count", "lower"),
            ("cli.scipy_loaded", "count", "lower"), ("cli.main_s", "s", "lower"),
            ("cli.report_bytes", "B", "lower"), ("trace.overhead_s", "s", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


# ----------------------------- statistics -----------------------------

def nearest_rank(samples, q: float) -> tuple[float, int]:
    """(value, samples strictly ranked above it) of the q-quantile, nearest rank."""
    s = sorted(samples)
    k = max(math.ceil(q * len(s)) - 1, 0)
    return s[k], len(s) - 1 - k


def tail_percentile(samples) -> tuple[float, int, float]:
    """(percentile, n, value): p90 when at least ten samples lie beyond it,
    else the highest multiple of 5 above the median that has ten beyond, else
    the median itself (too few samples for any tail percentile)."""
    n = len(samples)
    for pct in range(90, 50, -5):
        value, beyond = nearest_rank(samples, pct / 100.0)
        if beyond >= 10:
            return pct, n, value
    return 50, n, statistics.median(samples)


# ----------------------------- processes -----------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one process making one call at a time: no BLAS or OpenMP thread pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run argv to completion: (wall seconds, exit code, peak RSS in MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_json(argv, env, scratch: Path) -> dict:
    """Run a helper that prints one JSON line; fail loudly if it does not."""
    out, err = scratch / "helper.out", scratch / "helper.err"
    with open(out, "w") as fo, open(err, "w") as fe:
        _, code, _ = spawn(argv, env, stdout=fo, stderr=fe)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {code}: {err.read_text()[-2000:]}")
    return json.loads(out.read_text().strip().splitlines()[-1])


def worker(args, mode: str, env, scratch: Path, spans=None) -> dict:
    env = dict(env, BENCH_T0=repr(time.monotonic()))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    return run_json(argv + (["--spans", str(spans)] if spans else []), env, scratch)


# ----------------------------- in-process workloads -----------------------------

def in_process(args, env, scratch: Path, out_dir: Path) -> dict:
    setups = [worker(args, "setup", env, scratch)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    mode = "trace" if args.trace else "run"
    spans = out_dir / f"{args.workload}-seed{args.seed}-spans.npz" if args.trace else None
    res = worker(args, mode, env, scratch, spans)
    res["setup_all"] = setups + [res["setup_s"]]
    if args.trace:
        res["layers"] = {"spans": res["spans"], "counts": res["counts"],
                         "catalog_build_s": res["catalog_build_s"], "main_s": 0.0,
                         "report_bytes": 0}
    return res


# ----------------------------- cli_cold -----------------------------

def strict_json(text: str):
    """json.loads under RFC 8259: NaN and Infinity are not JSON."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def check_cli_op(name: str, code: int, out: Path) -> tuple[str | None, list[float]]:
    """(failure reason or None, relative errors against closed forms) of one op."""
    expected = plan.CLI_EXPECTED_EXIT[name]
    reason = None if code == expected else f"exit {code}, expected {expected}"
    docs = {}
    for path in sorted(out.glob("*.json")):
        try:
            docs[path.name] = strict_json(path.read_text())
        except ValueError as exc:
            reason = reason or f"{path.name}: {exc}"
    if not any(out.iterdir()):
        return reason or "no report written", []
    # closed forms: linear f = k z has d_p = k^{p-2} (circle and disc means)
    # and theorem5's k0 = 2 sqrt(k) at p = 1.5; the power Beltrami
    # coefficient with kappa = 2, m = 1 has the profile R = 2r, so R/r = 2
    errs = []
    if name == "eval_linear" and (out / "functionals.csv").is_file():
        rows = [line.split(",") for line in (out / "functionals.csv").read_text().split()[1:]]
        errs += [abs(float(row[col]) - 0.25) / 0.25 for row in rows for col in (1, 2)]
    elif name == "asym_p4" and "asym.json" in docs:
        errs.append(abs(docs["asym.json"]["proxies"]["k"]["value"] - 0.0625) / 0.0625)
    elif name == "asym_s3" and "asym.json" in docs:
        k0 = 2.0 * math.sqrt(0.5)
        errs.append(abs(docs["asym.json"]["proxies"]["k_0"]["value"] - k0) / k0)
    elif name == "beltrami_power" and "beltrami.json" in docs:
        errs.append(abs(docs["beltrami.json"]["attained"] - 2.0) / 2.0)
    return reason, errs


def cli_pass(args, env, pass_dir: Path, pass_index: int, traced: bool) -> dict:
    ops = plan.CLI_OPS
    times, rss, failures, errs, exits, trace_docs = {}, [], {}, [], {}, []
    t_pass = time.perf_counter()
    for i in plan.pass_order(args.seed, len(ops), pass_index):
        name, cli_args = ops[i]
        out = pass_dir / name
        out.mkdir(parents=True)
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(pass_dir / f"{name}.json")]
        else:
            argv = [sys.executable, "-m", "dilatox"]
        times[name], exits[name], peak = spawn(argv + list(cli_args) + ["--out", str(out)], env)
        rss.append(peak)
    pass_s = time.perf_counter() - t_pass
    for name, _ in ops:
        reason, op_errs = check_cli_op(name, exits[name], pass_dir / name)
        errs += op_errs
        if reason:
            failures[name] = reason
        if traced:
            trace_docs.append(json.loads((pass_dir / f"{name}.json").read_text()))
    return {"pass_s": pass_s, "times": times, "peak_rss_mb": max(rss), "failures": failures,
            "oracle_errs": errs, "trace_docs": trace_docs}


def same_reports(a: Path, b: Path) -> bool:
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    return files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files)


def cli_cold(args, env, scratch: Path, out_dir: Path) -> dict:
    # set-up warms the interpreter, the file cache and dilatox's import path
    setups = [spawn([sys.executable, "-m", "dilatox", "--version"], env)[0]
              for _ in range(SETUP_REPEATS)]
    passes = []
    t_measure = time.perf_counter()
    while not passes or time.perf_counter() - t_measure < args.seconds:
        pass_dir = scratch / f"pass{len(passes)}"
        passes.append(cli_pass(args, env, pass_dir, len(passes), traced=False))
    res = {
        "setup_all": setups,
        "pass_s": [p["pass_s"] for p in passes],
        "op_s": [t for p in passes for t in p["times"].values()],
        "attempted": sum(len(p["times"]) for p in passes),
        "failures": [f"{k}: {why}" for p in passes for k, why in p["failures"].items()],
        "oracle_err_max": max(e for p in passes for e in p["oracle_errs"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if args.trace:
        traced_dir = scratch / "traced"
        done = cli_pass(args, env, traced_dir, 0, traced=True)
        res["traced_pass_s"] = done["pass_s"]
        res["traced_attempted"] = len(done["times"])
        res["traced_failures"] = [f"{k}: traced {why}" for k, why in done["failures"].items()]
        res["traced_failures"] += [f"{name}: traced reports differ" for name, _ in plan.CLI_OPS
                                   if not same_reports(scratch / "pass0" / name,
                                                       traced_dir / name)]
        res["leftover_wrappers"] = [w for d in done["trace_docs"] for w in d["leftover_wrappers"]]
        res["layers"] = merge_layers(done["trace_docs"])
        res["layers"]["report_bytes"] = sum(p.stat().st_size for p in traced_dir.rglob("*")
                                            if p.is_file() and p.parent != traced_dir)
        for name, _ in plan.CLI_OPS:
            shutil.copy(traced_dir / f"{name}.npz",
                        out_dir / f"cli_cold-seed{args.seed}-{name}-spans.npz")
    return res


def merge_layers(docs: list[dict]) -> dict:
    """Sum per-layer numbers over the traced child processes."""
    spans, counts = {}, {}
    for doc in docs:
        for name, vals in doc["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), vals)]
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return {"spans": spans, "counts": counts,
            "catalog_build_s": sum(d["catalog_build_s"] for d in docs),
            "main_s": sum(d["main_s"] for d in docs)}


# ----------------------------- per-layer metrics -----------------------------

IMPORT_PROBE = """\
import json, sys, time
before = len(sys.modules)
t0 = time.perf_counter()
import dilatox.cli
print(json.dumps({"import_s": time.perf_counter() - t0,
                  "modules_loaded": len(sys.modules) - before,
                  "scipy_loaded": int("scipy" in sys.modules)}))
"""


def layer_metrics(layers: dict, probes: list[dict], overhead_s: float) -> dict:
    spans, counts = layers["spans"], layers["counts"]
    calls, points = counts.get("model.evals.calls", 0), counts.get("model.evals.points", 0)
    values = {
        "model.points_per_call": points / calls if calls else 0.0,
        "model.points_distinct_ratio": (counts.get("model.evals.distinct_points", 0) / points
                                        if points else 0.0),
        "verifier.errors": sum(n for k, n in counts.items()
                               if k.startswith("verifier.") and k.endswith(".errors")),
        "catalog.build_s": layers["catalog_build_s"],
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.modules_loaded": probes[0]["modules_loaded"],
        "cli.scipy_loaded": probes[0]["scipy_loaded"],
        "cli.main_s": layers["main_s"],
        "cli.report_bytes": layers["report_bytes"],
        "trace.overhead_s": overhead_s,
    }
    for name, _, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in values or name in counts or stat not in SPAN_STATS:
            values.setdefault(name, counts.get(name, 0))
        else:
            values[name] = dict(zip(SPAN_STATS, spans.get(span, (0, 0.0, 0.0))))[stat]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


# ----------------------------- report -----------------------------

def machine_lines(env, scratch: Path) -> list[str]:
    libs = run_json([sys.executable, str(HERE / "worker.py"), "--machine"], env, scratch)
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size, shared = (
            (index / f).read_text().strip() for f in ("level", "type", "size", "shared_cpu_list"))
        caches.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''} {size}"
                      f" (cpus {shared})")
    threads = " ".join(f"{v}={env[v]}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [f"machine: nproc={os.cpu_count()} cpu={cpu!r} caches: {', '.join(caches)}",
            f"software: python {libs['python']}, numpy {libs['numpy']}, scipy {libs['scipy']}, "
            f"{libs['blas']}; {threads}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dilatox" / "__init__.py").is_file():
        print(f"no dilatox sources at {ROOT / 'src'}; run from a dilatox checkout",
              file=sys.stderr)
        return 2

    def deadline(signum, frame):
        raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    env = child_env()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_work" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        if args.workload == "cli_cold":
            res = cli_cold(args, env, scratch, out_dir)
        else:
            res = in_process(args, env, scratch, out_dir)
        probes = ([run_json([sys.executable, "-c", IMPORT_PROBE], env, scratch)
                   for _ in range(SETUP_REPEATS)] if args.trace else [])
        info = machine_lines(env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        signal.alarm(0)
    return report(args, res, probes, info)


def report(args, res: dict, probes: list[dict], info: list[str]) -> int:
    pct, n, tail = tail_percentile(res["op_s"])
    e2e = {
        "setup_s": statistics.median(res["setup_all"]),
        "pass_s": statistics.median(res["pass_s"]),
        "op_s.p50": statistics.median(res["op_s"]),
        "op_s.p90": tail,
        "oracle_err_max": res["oracle_err_max"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failures = res["failures"] + res.get("traced_failures", [])
    attempted = res["attempted"] + res.get("traced_attempted", 0)
    unexpected = [f for f in failures if f.split(":", 1)[0] not in plan.KNOWN_DEFECTS]
    correct = not unexpected and not res.get("leftover_wrappers")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}" + (f" c={plan.theta_c(args.seed)!r}"
                                   if args.workload == "theta_sweep" else ""))
    for line in info:
        print(line)
    units = dict(END_TO_END)
    notes = {
        "setup_s": f"median of {len(res['setup_all'])}: "
                   + ", ".join(f"{v:.4f}" for v in res["setup_all"]),
        "pass_s": f"median of {len(res['pass_s'])} passes",
        "op_s.p50": f"n={n}",
        "op_s.p90": (f"p{pct}, n={n}" if pct == 90 else
                     f"reported as p{pct}: n={n} leaves fewer than ten samples beyond p90"),
    }
    for name, value in e2e.items():
        print(f"  {name:16s} {value:.6g} {units[name]}  {notes.get(name, '')}")
    print(f"  {'fail_ratio':16s} {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4g} 1")
    for f in failures:
        why = plan.KNOWN_DEFECTS.get(f.split(":", 1)[0])
        print(f"  failed: {f}" + (f"  [known defect: {why}]" if why else ""))
    print("  per-layer waiting time: absent (one single-threaded process, no queues)")
    for line in plan.EXCLUSIONS:
        print(f"  excluded: {line}")
    if args.trace:
        overhead = res["traced_pass_s"] - e2e["pass_s"]
        print(f"  tracing overhead: traced pass {res['traced_pass_s']:.4f} s - untraced "
              f"pass_s {e2e['pass_s']:.4f} s = {overhead:+.4f} s")
        if res.get("leftover_wrappers"):
            print(f"  wrappers left behind: {res['leftover_wrappers']}")
        metrics = layer_metrics(res["layers"], probes, overhead)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
