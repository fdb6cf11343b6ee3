"""One in-process workload in its own process.

    python3 bench/worker.py --workload NAME --seed N --seconds T --mode setup|run|trace

run.py starts this with BENCH_T0 set to its monotonic clock just
before the spawn, so the reported set-up time runs from process start through
imports, model construction and one warm-up call. `setup` stops there;
`run` then times whole passes for at least T seconds; `trace` adds one pass
with the span tracer installed. The result is one JSON line on stdout.
`--machine` prints the interpreter and library versions instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan  # noqa: E402  (standard library only)


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


# ----------------------------- workload definitions -----------------------------

def theta_map(c: float):
    """f(z) = z + c z^2: conformal and theta-dependent, with J = |1 + 2cz|^2 and
    image area pi (r^2 + 2 c^2 r^4) on B_r."""
    import numpy as np
    from dilatox.mapping import MappingModel

    def z_of(r, theta):
        return np.asarray(r) * np.exp(1j * np.asarray(theta))

    def value(r, theta):
        z = z_of(r, theta)
        return z + c * z * z

    def partial_r(r, theta):
        return np.exp(1j * np.asarray(theta)) * (1.0 + 2.0 * c * z_of(r, theta))

    def partial_theta(r, theta):
        z = z_of(r, theta)
        return 1j * z * (1.0 + 2.0 * c * z)

    return MappingModel(label=f"theta(c={c!r})", value=value, partial_r=partial_r,
                        partial_theta=partial_theta)


def build_models(workload: str, seed: int) -> dict:
    """The models a workload checks, built through dilatox's public constructors."""
    from dilatox import catalog

    if workload == "catalog_matrix":
        entries = (catalog.identity(), catalog.linear(0.5), catalog.radial_stretch(1.5),
                   catalog.log_singular(3.0), catalog.beltrami_exact(m=1.0, kappa=0.8))
        return dict(zip(plan.CATALOG_MAPS, (e.model for e in entries)))
    return {"theta": theta_map(plan.theta_c(seed))}


def make_ops(workload: str, models: dict) -> list:
    """One pass as (key, thunk) pairs in canonical order. Each thunk looks its
    check up on the module at call time, so installed wrappers see it."""
    import numpy as np
    from dilatox import functionals, verifier
    from dilatox.quadrature import QuadratureConfig

    cfg = QuadratureConfig()
    ladder = verifier.RadiusLadder()

    def thunk(check, model, p):
        if check == "length_area":
            return lambda: verifier.check_length_area(model, p, 0.1, 0.8, cfg)
        if check == "lemma3":
            def q_fn(rr, th):
                return functionals.dilatation_grid(model, np.asarray(rr, dtype=float), th, p)
            return lambda: verifier.check_lemma3(q_fn, p, 0.1, cfg)
        fn_name = {"lemma1": "check_lemma1", "lemma2": "check_lemma2", "lemma4": "check_lemma4",
                   "theorem1": "theorem1_bound", "theorem3": "theorem3_bound",
                   "theorem5": "theorem5_bound", "theorem6": "theorem6_bracket"}[check]
        return lambda: getattr(verifier, fn_name)(model, p, ladder, cfg)

    if workload == "catalog_matrix":
        triples = plan.catalog_ops()
    else:
        triples = [("theta", p, check) for check, p in plan.THETA_CHECKS]
    keys = plan.op_keys(workload)
    return [(key, thunk(check, models[name], p)) for key, (name, p, check) in zip(keys, triples)]


# ----------------------------- passes -----------------------------

def run_pass(ops, seed: int, pass_index: int, tracer=None) -> dict:
    """Run every op once in the seeded order; verdicts are (holds, margin)."""
    times, verdicts, results, errors = {}, {}, {}, {}
    t_pass = time.perf_counter()
    for i in plan.pass_order(seed, len(ops), pass_index):
        key, call = ops[i]
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            res = call()
        except Exception as exc:  # a crashing check is a failed operation
            times[key] = time.perf_counter() - t0
            errors[key] = f"{type(exc).__name__}: {exc}"
            continue
        times[key] = time.perf_counter() - t0
        report = getattr(res, "report", res)
        verdicts[key] = (bool(report.holds), float(report.margin))
        results[key] = res
    return {"pass_s": time.perf_counter() - t_pass, "times": times, "verdicts": verdicts,
            "results": results, "errors": errors}


def failures(done: dict) -> dict:
    """key -> reason for every op that raised or did not hold (the reference
    verdict is "holds" for every op of both in-process workloads)."""
    out = dict(done["errors"])
    out.update({key: "verdict is not holds" for key, (holds, _) in done["verdicts"].items()
                if not holds})
    return out


def oracle_err_max(workload: str, models: dict, last: dict, seed: int) -> float:
    """Largest relative error against a closed form, outside the timed passes."""
    from dilatox import functionals, verifier
    from dilatox.quadrature import QuadratureConfig

    cfg = QuadratureConfig()
    errs = []
    if workload == "catalog_matrix":
        # identity, linear(0.5) and beltrami_exact(1, 0.8) are f = k z with
        # d_p = k^{p-2} and theorem5's k0 = k^{2-p}/(2-p), i.e. 2 sqrt(k) at p = 1.5
        slopes = {"identity": 1.0, "linear(k=0.5)": 0.5, "beltrami_exact(m=1,kappa=0.8)": 0.8}
        for name, k in slopes.items():
            for p in plan.CATALOG_ORDERS:
                exact = k ** (p - 2.0)
                for r in verifier.RadiusLadder().radii():
                    d = functionals.circular_dilatation_mean(models[name], float(r), p, cfg)
                    errs.append(abs(d - exact) / exact)
                if p < 2.0:
                    k0 = last["results"][f"{name}/p={p:g}/theorem5"].k0.value
                    exact = k ** (2.0 - p) / (2.0 - p)
                    errs.append(abs(k0 - exact) / exact)
    else:
        c = plan.theta_c(seed)
        for r in verifier.RadiusLadder().radii():
            exact = math.pi * (r * r + 2.0 * c * c * r ** 4)
            errs.append(abs(functionals.area(models["theta"], float(r), cfg) - exact) / exact)
    return max(errs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=plan.IN_PROCESS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--spans", help="file for the traced pass's spans (.npz)")
    ap.add_argument("--machine", action="store_true")
    args = ap.parse_args()
    if args.machine:
        print(json.dumps(machine()))
        return 0
    t_spawn = float(os.environ["BENCH_T0"])

    import dilatox

    if not Path(dilatox.__file__).resolve().is_relative_to(HERE.parent / "src"):
        raise SystemExit(f"dilatox imported from {dilatox.__file__}, not from this checkout")
    models = build_models(args.workload, args.seed)
    ops = make_ops(args.workload, models)
    # warm-up: one cheap check touching every in-process layer
    next(call for key, call in ops if key.endswith("/p=1.5/length_area"))()
    out = {"setup_s": time.monotonic() - t_spawn}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    passes = []
    t_measure = time.perf_counter()
    while not passes or time.perf_counter() - t_measure < args.seconds:
        passes.append(run_pass(ops, args.seed, len(passes)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["pass_s"] = [p["pass_s"] for p in passes]
    out["op_s"] = [t for p in passes for t in p["times"].values()]
    out["attempted"] = sum(len(p["times"]) for p in passes)
    out["failures"] = [f"{key}: {why}" for p in passes
                       for key, why in failures(p).items()]
    out["oracle_err_max"] = oracle_err_max(args.workload, models, passes[-1], args.seed)
    if args.mode == "trace":
        out.update(traced_pass(args, passes[0]))
    print(json.dumps(out))
    return 0


def traced_pass(args, untraced: dict) -> dict:
    """One more pass with spans on; returns its per-layer sums."""
    from tracer import Tracer, leftover_wrappers

    tracer = Tracer()
    tracer.install()
    try:
        models = build_models(args.workload, args.seed)
        ops = make_ops(args.workload, {k: tracer.counted_model(m) for k, m in models.items()})
        done = run_pass(ops, args.seed, 0, tracer)
    finally:
        tracer.uninstall()
    mismatched = sorted(key for key in untraced["verdicts"]
                        if done["verdicts"].get(key) != untraced["verdicts"][key])
    if args.spans:
        tracer.save(args.spans)
    return {
        "traced_pass_s": done["pass_s"],
        "traced_attempted": len(done["times"]),
        "traced_failures": [f"{key}: {why}" for key, why in failures(done).items()]
                           + [f"{key}: traced verdict differs" for key in mismatched],
        "leftover_wrappers": leftover_wrappers(),
        **tracer.sums(),
    }


if __name__ == "__main__":
    sys.exit(main())
