"""Radially symmetric nonlinear Beltrami equation f_r = sigma |f_theta|^m f_theta.

The rotationally symmetric ansatz f = R(r) e^{i theta} reduces the PDE to the
scalar ODE R' = Re(i sigma(r)) R^{m+1}. It is solved for the ratio u = R/r
in s = ln r with the classical fourth-order Runge-Kutta scheme, from an
interior anchor down to the radius ladder (the coefficient is typically
singular at the origin). Residuals, the angular dilatation D_{m+2} read off the
coefficient, and the asymptotic-ratio bound for solutions are provided
alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUp, ComplexDrift, ConfigError, NonPositiveImag
from .mapping import (
    CubicHermite,
    MappingModel,
    RadialProfile,
    json_object,
    json_real,
    model_from_profile,
    pchip,
    sample_table,
)
from .functionals import disc_power_mean
from .quadrature import QuadratureConfig, circle_nodes
from .verifier import LimitProxy, RadiusLadder, Theorem1Result, _finish, growth_bound

DRIFT_TOL = 1e-12
BLOWUP_CAP = 1e6


@dataclass(frozen=True)
class SigmaCoefficient:
    """Radially symmetric coefficient sigma(r) with the nonlinearity exponent m."""

    sigma: Callable[[np.ndarray], np.ndarray]
    m: float
    label: str = "sigma"

    def __post_init__(self):
        if not (self.m >= 0.0 and math.isfinite(self.m)):
            raise ConfigError(f"exponent m must be finite and >= 0, got {self.m}")

    def imag_conj(self, r: np.ndarray) -> np.ndarray:
        """Im(conj(sigma(r))); must be positive for sense-preserving solutions."""
        return -np.imag(np.asarray(self.sigma(np.asarray(r, dtype=float))))


def power_sigma(kappa: float, m: float) -> SigmaCoefficient:
    """The exactly solvable power-family coefficient sigma = -i / (kappa r^{m+1})."""
    if not 0.0 < kappa < math.inf:
        raise ConfigError(f"kappa must be finite and positive, got {kappa}")

    def sigma(r):
        return -1j / (kappa * np.asarray(r, dtype=float) ** (m + 1.0))

    return SigmaCoefficient(sigma=sigma, m=float(m),
                            label=f"power(kappa={kappa:g},m={m:g})")


def sigma_from_json(doc) -> SigmaCoefficient:
    """Ingest a coefficient from its JSON document, the one form
    {"family": "custom_radial", "m": ..., "samples": [[r, re, im], ...]}. A document
    of any other shape is a ConfigError; the power family is power_sigma (the
    CLI's --param kappa=... --param m=...), not a document."""
    family = json_object(doc, "a coefficient document").get("family")
    if family == "custom_radial":
        r, real, imag = sample_table(doc, "custom_radial", ("r", "re", "im")).T
        m = json_real(doc, "m", "custom_radial")
        re_i = pchip(r, real)
        im_i = pchip(r, imag)

        def sigma(rr):
            rr = np.asarray(rr, dtype=float)
            return re_i(rr) + 1j * im_i(rr)

        return SigmaCoefficient(sigma=sigma, m=m, label="custom_radial")
    raise ConfigError(f"unknown coefficient family {family!r}")


@dataclass
class RadialSolution:
    """A solved radial profile with its PDE residual on the verification grid,
    taken with the interpolated R and that interpolant's derivative."""

    profile: RadialProfile
    grid: np.ndarray
    values: np.ndarray
    residual_max: float
    notes: tuple[str, ...] = ()

    def model(self, label: str | None = None) -> MappingModel:
        return model_from_profile(self.profile,
                                  label or "radial_solution")


def _ratio_slope(u, d, m: float):
    """du/ds of the ratio u = R/r in s = ln r, given D = D_{m+2}(r)."""
    return u * (u ** m / d - 1.0)


def _solve_leg(coef: SigmaCoefficient, r0: float, u0: float, end: float,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for u from (r0, u0) to end, uniform in ln r with at most
    the given step; returns the radii and ratios at the nodes."""
    n = max(math.ceil(abs(math.log(end / r0)) / step), 1)
    r = np.exp(np.linspace(math.log(r0), math.log(end), 2 * n + 1))
    r[0], r[-1] = r0, end  # the anchor and the span end are nodes exactly
    d = dilatation_from_sigma(coef, r)  # at the nodes and the midpoints
    h = math.log(end / r0) / n
    u = np.empty(n + 1)
    u[0] = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            d0, dm, d1 = d[2 * i:2 * i + 3]
            k1 = _ratio_slope(u[i], d0, coef.m)
            k2 = _ratio_slope(u[i] + 0.5 * h * k1, dm, coef.m)
            k3 = _ratio_slope(u[i] + 0.5 * h * k2, dm, coef.m)
            k4 = _ratio_slope(u[i] + h * k3, d1, coef.m)
            u[i + 1] = u[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not abs(u[i + 1]) * r[2 * i + 2] <= BLOWUP_CAP:
                raise BlowUp(f"radial solution exceeds {BLOWUP_CAP:g} near "
                             f"r={r[2 * i + 2]:.4g}")
    return r[::2], u


def solve_radial(coef: SigmaCoefficient, r0: float, R0: float,
                 r_span: tuple[float, float] = (0.05, 0.95),
                 step: float = 1e-2) -> RadialSolution:
    """Integrate the ratio u = R/r in s = ln r down to r_span[0] and up to
    r_span[1] from the anchor (r0, R0); step is a step in ln r.

    With D = dilatation_from_sigma, R' = Re(i sigma) R^{m+1} reads
    du/ds = u (u^m / D - 1), so a coefficient with constant D (the power
    family) has the fixed point u = D^{1/m}, which RK4 keeps exactly.
    Requires i sigma(r) real and positive on the span so that R stays real and
    increasing. A profile that leaves the unit disc is noted, not rejected.
    """
    a, b = r_span
    if not (0.0 < a < r0 < b < 1.0):
        raise ConfigError(f"need 0 < {a} < r0={r0} < {b} < 1")
    if not R0 > 0.0:
        raise ConfigError(f"anchor value must be positive, got R0={R0}")
    if not 0.0 < step < math.log(b / a):
        raise ConfigError(f"bad step {step} in ln r for span ({a}, {b})")

    probe = np.geomspace(a, b, 257)
    drift = np.max(np.abs(np.real(np.asarray(coef.sigma(probe)))))
    if drift > DRIFT_TOL:
        raise ComplexDrift(f"|Im(i sigma)| reaches {drift:.3e} on span")

    down = _solve_leg(coef, r0, R0 / r0, a, step)
    up = _solve_leg(coef, r0, R0 / r0, b, step)
    grid = np.concatenate([down[0][::-1], up[0][1:]])
    ratio = np.concatenate([down[1][::-1], up[1][1:]])
    values = ratio * grid

    notes = []
    if float(values.max()) > 1.0:
        notes.append("exits-unit-disc")
    if np.any(np.diff(values) <= 0.0):
        notes.append("non-monotone-profile")

    def ode_slope(r, R):
        # dR/dr = u + du/ds with u = R/r
        u = R / r
        return u + _ratio_slope(u, dilatation_from_sigma(coef, r), coef.m)

    # Hermite with the ODE's slopes at the RK4 nodes: O(h^4), like RK4.
    R_of = CubicHermite(grid, values, ode_slope(grid, values))

    def R_prime(r):
        # exact ODE relation rather than the interpolant's derivative, which
        # is only C^0 across the nodes and costs Romberg extrapolation its order
        r = np.asarray(r, dtype=float)
        return ode_slope(r, R_of(r))

    # The residual reads the interpolant's own derivative: with R_prime, the
    # ODE relation, it would vanish however far the solver is off.
    interpolant = RadialProfile(R=R_of, R_prime=lambda r: R_of(r, nu=1))
    res = residual_check(model_from_profile(interpolant, label=f"solve({coef.label})"), coef,
                         _default_residual_grid(a, b))
    return RadialSolution(profile=RadialProfile(R=R_of, R_prime=R_prime), grid=grid,
                          values=values, residual_max=res, notes=tuple(notes))


def _default_residual_grid(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    return np.geomspace(a, b, 48), circle_nodes(16)


def residual_check(model: MappingModel, coef: SigmaCoefficient,
                   grid: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """sup |f_r - sigma |f_theta|^m f_theta| over the verification grid."""
    radii, thetas = grid if grid is not None else _default_residual_grid(0.05, 0.95)
    rr = np.asarray(radii, dtype=float)[:, None]
    th = np.asarray(thetas, dtype=float)[None, :]
    fr = np.asarray(model.partial_r(rr, th))
    ft = np.asarray(model.partial_theta(rr, th))
    sig = np.asarray(coef.sigma(rr))
    rho = fr - sig * np.abs(ft) ** coef.m * ft
    return float(np.max(np.abs(rho)))


def dilatation_from_sigma(coef: SigmaCoefficient, r) -> np.ndarray:
    """D_{m+2} of any solution at the radii r, directly from the coefficient:
    1 / (r^{m+1} Im(conj(sigma(r)))). Independent of the particular solution."""
    r = np.asarray(r, dtype=float)
    ims = coef.imag_conj(r)
    if np.any(ims <= 0.0):
        bad = np.broadcast_to(r, ims.shape)[ims <= 0.0]
        raise NonPositiveImag(f"Im(conj(sigma)) <= 0 at r={float(bad[0]):.4g}")
    return 1.0 / (r ** (coef.m + 1.0) * ims)


def condition_sigma0(coef: SigmaCoefficient, ladder: RadiusLadder,
                     cfg: QuadratureConfig) -> LimitProxy:
    """liminf proxy over the ladder tail of sigma_0's disc mean of D_{m+2},
    ((1/pi r^2) * integral_{B_r} dxdy / (|z| Im(conj sigma)^{1/(m+1)}))^{m+1}:
    functionals.disc_power_mean of dilatation_from_sigma at order m + 2, on
    one node of each circle, since D_{m+2} is radial."""
    mean = disc_power_mean(lambda t, th: dilatation_from_sigma(coef, t), ladder.radii(),
                           coef.m + 2.0, 1, cfg)
    return LimitProxy.from_tail("liminf", mean.value[-ladder.tail:])


def theorem_nb_bound(coef: SigmaCoefficient, solution: RadialSolution,
                     ladder: RadiusLadder, cfg: QuadratureConfig) -> Theorem1Result:
    """liminf |f(z)|/|z| <= c_{m+2} sigma_0^{1/m} for solutions with m > 0:
    theorem 1 at p = m + 2, whose k is the proxy sigma_0."""
    if not coef.m > 0.0:
        raise ConfigError(f"the asymptotic bound needs m > 0, got m={coef.m}")
    tail = ladder.tail_radii()
    lo, hi = float(solution.grid[0]), float(solution.grid[-1])
    if not (lo <= tail.min() and tail.max() <= hi):
        raise ConfigError(f"ladder tail [{tail.min():.4g}, {tail.max():.4g}] lies outside "
                          f"the solved span [{lo:.4g}, {hi:.4g}]")
    sigma0 = condition_sigma0(coef, ladder, cfg)
    bound = growth_bound(coef.m + 2.0, sigma0.value)
    attained = LimitProxy.from_tail("liminf", solution.profile.ratio(tail)).value
    return _finish("theorem_nb", coef.m + 2.0, tail[-1], bound, attained, notes=solution.notes,
                   cls=Theorem1Result, k=sigma0, bound=bound, attained=attained)
