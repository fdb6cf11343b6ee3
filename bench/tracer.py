"""Span tracer that times dilatox's layers from outside the program.

`Tracer.install` replaces each traced public function with a timing wrapper in
every loaded module namespace that bound it (a `from .functionals import area`
in another module is a second binding), and `uninstall` puts every original
back. Spans stay in memory (name, start, end, parent, operation id) until
`save` writes them out. Model evaluations are counted by wrapping each model's
callables with `counted_model`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import math
import sys
import time
from array import array

import numpy as np

# module -> public functions whose calls are spans named "<module>.<function>"
TRACED = {
    "quadrature": ("integrate_radial", "log_power_tail"),
    "mapping": ("jacobian_grid", "min_max_modulus"),
    "functionals": ("dilatation_grid", "circular_mean", "circular_dilatation_mean", "area",
                    "area_rate", "disc_mean", "boundary_length", "radial_integral_inner",
                    "radial_integral_outer"),
    "verifier": ("check_lemma1", "check_length_area", "check_lemma2", "check_lemma3",
                 "check_lemma4", "theorem1_bound", "theorem3_bound", "theorem5_bound",
                 "theorem6_bracket", "theorem7_area_derivative"),
    "catalog": ("from_name", "linear", "identity", "radial_stretch", "log_singular",
                "beltrami_exact"),
    "beltrami": ("solve_radial", "residual_check", "condition_sigma0", "theorem_nb_bound"),
}
# scipy's romb is timed only where dilatox bound it.
ROMB = ("quadrature", "romb")

MARK = "__bench_traced__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, int] = {}
        self._seen: set[bytes] = set()
        self._patches: list[tuple[dict, str, object]] = []

    # ----------------------------- spans -----------------------------

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call; before(args, kwargs) may swap the
        arguments, after(result) sees the result."""
        sid = self._sid(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if before is not None:
                args, kwargs = before(args, kwargs)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".errors")
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                stack.pop()
            if after is not None:
                after(out)
            return out

        setattr(traced, MARK, True)
        traced.__wrapped__ = fn
        return traced

    # ----------------------------- install -----------------------------

    def _hooks(self, module: str, fn: str):
        if (module, fn) == ("quadrature", "integrate_radial"):
            def before(args, kwargs):
                if args:
                    args = (self._node_counter(args[0]), *args[1:])
                else:
                    kwargs = {**kwargs, "fn": self._node_counter(kwargs["fn"])}
                return args, kwargs
            return before, None
        if (module, fn) == ("mapping", "jacobian_grid"):
            def before(args, kwargs):
                grid = {**dict(zip(("model", "r", "theta"), args)), **kwargs}
                self.count("mapping.jacobian_grid.points", _points(grid["r"], grid["theta"]))
                return args, kwargs
            return before, None
        if (module, fn) == ("beltrami", "solve_radial"):
            return None, lambda sol: self.count("beltrami.solve_radial.steps", len(sol.grid))
        return None, None

    def _node_counter(self, integrand):
        def counted(t):
            self.count("quadrature.integrate_radial.nodes", int(np.size(t)))
            return integrand(t)
        return counted

    def install(self) -> None:
        """Wrap every traced function in every module namespace that bound it."""
        wrappers = {}
        for module, fns in TRACED.items():
            mod = importlib.import_module(f"dilatox.{module}")
            for fn in fns:
                orig = getattr(mod, fn)
                before, after = self._hooks(module, fn)
                wrappers[id(orig)] = (orig, self.wrap(f"{module}.{fn}", orig, before, after))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patch(namespace, key, hit[1])
        quad = importlib.import_module(f"dilatox.{ROMB[0]}")
        self.patch(vars(quad), ROMB[1], self.wrap(".".join(ROMB), getattr(quad, ROMB[1])))

    def patch(self, namespace: dict, key: str, wrapper) -> None:
        """Bind namespace[key] to wrapper until uninstall."""
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, orig in reversed(self._patches):
            namespace[key] = orig
        self._patches.clear()

    # ----------------------------- models -----------------------------

    def counted_model(self, model):
        """A copy of model whose value and partials count calls, points and
        distinct (function, r, theta) inputs."""

        def wrap(kind, fn):
            tag = f"{model.label}/{kind}".encode()

            def counted(r, theta):
                r_arr = np.ascontiguousarray(r, dtype=float)
                th_arr = np.ascontiguousarray(theta, dtype=float)
                n = _points(r_arr, th_arr)
                self.count("model.evals.calls")
                self.count("model.evals.points", n)
                key = hashlib.blake2b(tag, digest_size=16)
                for arr in (r_arr, th_arr):
                    key.update(repr(arr.shape).encode())
                    key.update(arr.tobytes())
                digest = key.digest()
                if digest not in self._seen:
                    self._seen.add(digest)
                    self.count("model.evals.distinct_points", n)
                return fn(r, theta)

            return counted

        return dataclasses.replace(model, value=wrap("value", model.value),
                                   partial_r=wrap("partial_r", model.partial_r),
                                   partial_theta=wrap("partial_theta", model.partial_theta))

    # ----------------------------- results -----------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def sums(self) -> dict:
        """Per-span-name [calls, total_s, self_s], the counters, and the time
        spent in catalog constructors (outermost catalog spans)."""
        a = self.arrays()
        spans = span_totals(self.names, a["name_id"], a["start"], a["end"], a["parent"])
        return {"spans": {k: list(v) for k, v in spans.items()}, "counts": dict(self.counts),
                "catalog_build_s": outermost_total(self.names, a["name_id"], a["start"],
                                                   a["end"], a["parent"], "catalog.")}


def _points(r, theta) -> int:
    return math.prod(np.broadcast_shapes(np.shape(r), np.shape(theta)))


def leftover_wrappers() -> list[str]:
    """Names in loaded modules that still hold a tracer wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        found.extend(f"{name}.{key}" for key, value in list(namespace.items())
                     if getattr(value, MARK, False) is True)
    return found


def span_totals(names, name_id, start, end, parent) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds); self time is a span's
    duration minus the time its child spans cover."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    out = {}
    for i, name in enumerate(names):
        sel = name_id == i
        out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
    return out


def outermost_total(names, name_id, start, end, parent, prefix: str) -> float:
    """Seconds covered by spans under prefix that have no parent under prefix."""
    in_layer = np.array([n.startswith(prefix) for n in names], dtype=bool)
    if not in_layer.any():
        return 0.0
    mine = in_layer[name_id]
    parent_mine = np.zeros_like(mine)
    has_parent = parent >= 0
    parent_mine[has_parent] = mine[parent[has_parent]]
    top = mine & ~parent_mine
    return float((end[top] - start[top]).sum())
