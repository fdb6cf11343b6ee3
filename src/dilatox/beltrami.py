"""Radially symmetric nonlinear Beltrami equation f_r = sigma |f_theta|^m f_theta.

The rotationally symmetric ansatz f = R(r) e^{i theta} reduces the PDE to the
scalar ODE R' = Re(i sigma(r)) R^{m+1}, integrated with the classical
fourth-order Runge-Kutta scheme from an interior anchor (the coefficient is
typically singular at the origin). Residuals, the associated angular
dilatation, the Cartesian coefficient forms, and the asymptotic-ratio bound
for solutions are provided alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BlowUp,
    ComplexDrift,
    ConfigError,
    DegenerateDenominator,
    NonPositiveImag,
)
from .mapping import (
    CubicHermite,
    MappingModel,
    PolarPoint,
    RadialProfile,
    json_object,
    json_real,
    model_from_profile,
    pchip,
    sample_table,
)
from .quadrature import R_FLOOR, QuadratureConfig, circle_nodes, integrate_from_origin
from .verifier import BoundReport, LimitProxy, RadiusLadder, _finish, growth_constant

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
    if not kappa > 0.0:
        raise ConfigError(f"kappa must be positive, got {kappa}")

    def sigma(r):
        return -1j / (kappa * np.asarray(r, dtype=float) ** (m + 1.0))

    return SigmaCoefficient(sigma=sigma, m=float(m),
                            label=f"power(kappa={kappa:g},m={m:g})")


def sigma_from_json(doc) -> SigmaCoefficient:
    """Ingest a coefficient description: {"family": "power", "kappa": ..., "m": ...} or
    {"family": "custom_radial", "m": ..., "samples": [[r, re, im], ...]}. A document
    of any other shape is a ConfigError."""
    family = json_object(doc, "a coefficient document").get("family")
    if family == "power":
        what = "a power coefficient"
        return power_sigma(json_real(doc, "kappa", what), json_real(doc, "m", what))
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
    """A solved radial profile with its PDE residual on the verification grid."""

    profile: RadialProfile
    grid: np.ndarray
    values: np.ndarray
    residual_max: float
    notes: tuple[str, ...] = ()

    def model(self, label: str | None = None) -> MappingModel:
        return model_from_profile(self.profile,
                                  label or "radial_solution")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("r,R\n")
            for r, v in zip(self.grid, self.values):
                fh.write(f"{float(r)!r},{float(v)!r}\n")


def _rk4(rhs, r0: float, R0: float, grid: np.ndarray) -> np.ndarray:
    """Classical RK4 along an ordered grid starting at (r0 = grid[0], R0)."""
    out = np.empty_like(grid)
    out[0] = R0
    R = R0
    for i in range(len(grid) - 1):
        r, h = grid[i], grid[i + 1] - grid[i]
        k1 = rhs(r, R)
        k2 = rhs(r + 0.5 * h, R + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, R + 0.5 * h * k2)
        k4 = rhs(r + h, R + h * k3)
        R = R + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(R) or abs(R) > BLOWUP_CAP:
            raise BlowUp(f"radial solution exceeds {BLOWUP_CAP:g} near r={grid[i + 1]:.4g}")
        out[i + 1] = R
    return out


def solve_radial(coef: SigmaCoefficient, r0: float, R0: float,
                 r_span: tuple[float, float] = (0.05, 0.95),
                 step: float = 1e-3) -> RadialSolution:
    """Integrate R' = Re(i sigma(r)) R^{m+1} forward and backward from (r0, R0).

    Requires i sigma(r) real and positive on the span so that R stays real and
    increasing. A profile that leaves the unit disc is noted, not rejected.
    """
    a, b = r_span
    if not (0.0 < a < r0 < b < 1.0):
        raise ConfigError(f"need 0 < {a} < r0={r0} < {b} < 1")
    if not R0 > 0.0:
        raise ConfigError(f"anchor value must be positive, got R0={R0}")
    if not 0.0 < step < (b - a):
        raise ConfigError(f"bad step {step} for span ({a}, {b})")

    probe = np.linspace(a, b, 257)
    growth = 1j * np.asarray(coef.sigma(probe))
    if np.max(np.abs(growth.imag)) > DRIFT_TOL:
        raise ComplexDrift(
            f"|Im(i sigma)| reaches {np.max(np.abs(growth.imag)):.3e} on span")
    if np.any(growth.real <= 0.0):
        raise NonPositiveImag("Im(conj(sigma)) must be positive on the span")

    def rhs(r, R):
        return float(np.real(1j * coef.sigma(r))) * R ** (coef.m + 1.0)

    n_fwd = max(int(math.ceil((b - r0) / step)), 1)
    fwd_grid = np.concatenate([np.arange(n_fwd) * step + r0, [b]])
    fwd_grid = fwd_grid[fwd_grid <= b + 1e-15]
    n_bwd = max(int(math.ceil((r0 - a) / step)), 1)
    bwd_grid = np.concatenate([r0 - np.arange(n_bwd) * step, [a]])
    bwd_grid = bwd_grid[bwd_grid >= a - 1e-15]

    fwd = _rk4(rhs, r0, R0, fwd_grid)
    bwd = _rk4(rhs, r0, R0, bwd_grid)
    grid = np.concatenate([bwd_grid[::-1], fwd_grid[1:]])
    values = np.concatenate([bwd[::-1], fwd[1:]])

    notes = []
    if float(values.max()) > 1.0:
        notes.append("exits-unit-disc")
    if np.any(np.diff(values) <= 0.0):
        notes.append("non-monotone-profile")

    def ode_slope(r, R):
        return np.real(1j * np.asarray(coef.sigma(r))) * R ** (coef.m + 1.0)

    # Hermite with the ODE's slopes at the RK4 nodes: O(h^4), like RK4.
    R_of = CubicHermite(grid, values, ode_slope(grid, values))

    def R_prime(r):
        # exact ODE relation rather than the interpolant's derivative
        r = np.asarray(r, dtype=float)
        return ode_slope(r, R_of(r))

    profile = RadialProfile(R=R_of, R_prime=R_prime)
    model = model_from_profile(profile, label=f"solve({coef.label})")
    res = residual_check(model, coef, _default_residual_grid(a, b))
    return RadialSolution(profile=profile, grid=grid, values=values,
                          residual_max=res, notes=tuple(notes))


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


def dilatation_from_sigma(coef: SigmaCoefficient, z: PolarPoint) -> float:
    """D_{m+2} of any solution, directly from the coefficient:
    1 / (r^{m+1} Im(conj(sigma(r)))). Independent of the particular solution."""
    ims = float(coef.imag_conj(np.array([z.r]))[0])
    if ims <= 0.0:
        raise NonPositiveImag(f"Im(conj(sigma)) = {ims:.3e} <= 0 at r={z.r:.4g}")
    return 1.0 / (z.r ** (coef.m + 1.0) * ims)


def condition_sigma0(coef: SigmaCoefficient, ladder: RadiusLadder,
                     cfg: QuadratureConfig) -> LimitProxy:
    """liminf proxy of ((1/pi r^2) * integral_{B_r} dxdy /
    (|z| Im(conj sigma)^{1/(m+1)}))^{m+1} over the ladder tail."""
    ladder.validate_against(cfg)

    def g(t):
        t = np.asarray(t, dtype=float)
        ims = coef.imag_conj(t)
        if np.any(ims <= 0.0):
            raise NonPositiveImag("Im(conj(sigma)) <= 0 on the sampled region")
        # circle integral of the radially symmetric integrand, times t
        return 2.0 * math.pi / ims ** (1.0 / (coef.m + 1.0))

    radii = ladder.radii()
    disc = integrate_from_origin(g, R_FLOOR, radii, cfg)
    vals = (disc / (math.pi * radii * radii)) ** (coef.m + 1.0)
    return LimitProxy.from_tail("liminf", vals[-ladder.tail:])


@dataclass
class CartesianCoefficients:
    """Cartesian-form data of the equation: A(z) = sigma(z) |z| i, and for the
    linear case m = 0 the complex dilatation mu with its Lavrentiev coefficient."""

    A: Callable[[np.ndarray], np.ndarray]
    mu: Callable[[np.ndarray], np.ndarray] | None


def cartesian_coefficients(coef: SigmaCoefficient) -> CartesianCoefficients:
    def A(r):
        r = np.asarray(r, dtype=float)
        return np.asarray(coef.sigma(r)) * r * 1j

    mu = None
    if coef.m == 0.0:
        def mu(z):
            z = np.asarray(z, dtype=complex)
            a = A(np.abs(z))
            denom = a + 1.0
            if np.any(np.abs(denom) < 1e-14):
                raise DegenerateDenominator("A(z) + 1 vanishes")
            return (z / np.conj(z)) * (a - 1.0) / denom

    return CartesianCoefficients(A=A, mu=mu)


def lavrentiev_coefficient(mu_val: complex) -> float:
    """K_mu = (1 + |mu|) / (1 - |mu|), finite only for |mu| < 1."""
    a = abs(mu_val)
    if a >= 1.0:
        return math.inf
    return (1.0 + a) / (1.0 - a)


def cartesian_residual(model: MappingModel, coef: SigmaCoefficient,
                       z: PolarPoint) -> float:
    """Residual of the Cartesian form at z, with f_z and f_zbar reconstructed
    from the polar partials via r f_r = z f_z + zbar f_zbar and
    f_theta = i (z f_z - zbar f_zbar)."""
    fr = complex(np.asarray(model.partial_r(np.array([z.r]), np.array([z.theta])))[0])
    ft = complex(np.asarray(model.partial_theta(np.array([z.r]), np.array([z.theta])))[0])
    zc = z.z
    f_z = (z.r * fr - 1j * ft) / (2.0 * zc)
    f_zbar = (z.r * fr + 1j * ft) / (2.0 * np.conj(zc))
    a = complex(np.asarray(coef.sigma(np.array([z.r])))[0]) * z.r * 1j
    core = a * abs(ft) ** coef.m  # |z f_z - zbar f_zbar| = |f_theta|
    denom = core + 1.0
    if abs(denom) < 1e-14:
        raise DegenerateDenominator(f"A |f_theta|^m + 1 vanishes at r={z.r:.4g}")
    rhs = ((core - 1.0) / denom) * (zc / np.conj(zc)) * f_z
    return abs(f_zbar - rhs)


@dataclass
class NbBoundResult:
    sigma0: LimitProxy
    bound: float
    attained: float
    report: BoundReport


def theorem_nb_bound(coef: SigmaCoefficient, solution: RadialSolution,
                     ladder: RadiusLadder, cfg: QuadratureConfig) -> NbBoundResult:
    """liminf |f(z)|/|z| <= c_{m+2} sigma_0^{1/m} for solutions with m > 0."""
    if not coef.m > 0.0:
        raise ConfigError(f"the asymptotic bound needs m > 0, got m={coef.m}")
    sigma0 = condition_sigma0(coef, ladder, cfg)
    bound = growth_constant(coef.m + 2.0) * sigma0.value ** (1.0 / coef.m)
    span_lo = float(solution.grid[0])
    tail = np.array([r for r in ladder.tail_radii() if r >= span_lo])
    if tail.size < 3:
        tail = solution.grid[:3]
    ratios = np.asarray(solution.profile.R(tail), dtype=float) / tail
    attained = LimitProxy.from_tail("liminf", ratios).value
    report = _finish("theorem_nb", coef.m + 2.0, tail[-1], bound, attained, notes=solution.notes)
    return NbBoundResult(sigma0=sigma0, bound=bound, attained=attained, report=report)
