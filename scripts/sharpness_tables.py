#!/usr/bin/env python3
"""Reproduce the sharpness and exact-solution tables for the linear maps and
the radial Beltrami power family.

Prints, for a grid of contraction factors k:
  * the high-order (p = 4) tail constant and growth bound next to the exact
    modulus ratio k, showing the bound is attained;
  * the low-order (p = 1.5) tail constant and lower bound, again attained;
  * the two-sided bracket at p = 1.5 together with the tail-constant relation.

Then, for the Beltrami power family, the solver profile against the closed
form R = kappa^{1/m} r, the maximal ODE residual, and the small-radius
condition proxy sigma_0 next to its exact value.

Usage:
    python3 scripts/sharpness_tables.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dilatox.beltrami import condition_sigma0, power_sigma, residual_check, solve_radial
from dilatox.catalog import beltrami_exact, linear
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import (
    RadiusLadder,
    theorem3_bound,
    theorem5_bound,
    theorem6_bracket,
)

KS = (0.25, 0.5, 0.75, 0.9)


def high_order_table():
    lad = RadiusLadder(r_max=0.01, rho=0.5, count=12, tail=5)
    cfg = QuadratureConfig()
    print("high-order tail constant, p = 4  (exact k0 = 1/(2 k^2), bound = k)")
    print(f"{'k':>6} {'k0':>12} {'k0 exact':>12} {'bound':>10} {'|bound-k|':>10}")
    for k in KS:
        res = theorem3_bound(linear(k).model, 4.0, lad, cfg)
        print(f"{k:>6.2f} {res.k0.value:>12.6f} {1.0 / (2 * k * k):>12.6f} "
              f"{res.bound:>10.6f} {abs(res.bound - k):>10.2e}")
    print()


def low_order_table():
    lad = RadiusLadder()
    cfg = QuadratureConfig()
    print("low-order tail constant, p = 1.5  (exact k0 = 2 sqrt(k), bound = k)")
    print(f"{'k':>6} {'k0':>12} {'k0 exact':>12} {'bound':>10} {'|bound-k|':>10}")
    for k in KS:
        res = theorem5_bound(linear(k).model, 1.5, lad, cfg)
        print(f"{k:>6.2f} {res.k0.value:>12.6f} {2.0 * math.sqrt(k):>12.6f} "
              f"{res.bound:>10.6f} {abs(res.bound - k):>10.2e}")
    print()


def bracket_table():
    lad = RadiusLadder(r_max=0.01, rho=0.5, count=8, tail=5)
    cfg = QuadratureConfig()
    p = 1.5
    print("two-sided bracket at p = 1.5 and the tail-constant relation")
    print(f"{'k':>6} {'lower':>10} {'upper':>10} {'k1':>10} {'relation rhs':>14}")
    for k in KS:
        res = theorem6_bracket(linear(k).model, p, lad, cfg)
        print(f"{k:>6.2f} {res.lower:>10.6f} {res.upper:>10.6f} "
              f"{res.k1.value:>10.6f} {res.remark_rhs:>14.6f}")
    print()


def beltrami_table():
    lad = RadiusLadder()
    cfg = QuadratureConfig()
    print("radial Beltrami power family  (exact R = kappa^{1/m} r)")
    print(f"{'m':>4} {'kappa':>6} {'profile err':>12} {'residual':>10} "
          f"{'sigma0':>10} {'exact':>8}")
    for m, kappa in ((1.0, 0.8), (1.0, 2.0), (2.0, 0.5)):
        coef = power_sigma(kappa=kappa, m=m)
        slope = kappa ** (1.0 / m)
        sol = solve_radial(coef, 0.5, 0.5 * slope, step=1e-3)
        err = float(np.max(np.abs(sol.values - slope * sol.grid)))
        resid = residual_check(beltrami_exact(m=m, kappa=kappa).model, coef)
        sigma0 = condition_sigma0(coef, lad, cfg)
        print(f"{m:>4.1f} {kappa:>6.2f} {err:>12.2e} {resid:>10.2e} "
              f"{sigma0.value:>10.6f} {kappa:>8.2f}")


def main() -> int:
    high_order_table()
    low_order_table()
    bracket_table()
    beltrami_table()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
