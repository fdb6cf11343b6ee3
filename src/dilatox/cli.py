"""Command-line front end.

Subcommands:
  eval      tabulate d_p, disc mean, S, L, modulus extremes over a radius ladder
  verify    run every inequality check applicable to the given order p
  asym      report limit proxies and asymptotic-ratio bounds
  beltrami  solve the radial nonlinear Beltrami equation down to the ladder
            and check its asymptotic-ratio bound

Exit codes: 0 all checks hold, 1 an inequality is violated and nothing else,
2 configuration error (an --out that cannot be created is one, found before
any map is built), 3 numerical failure (running out of memory is one).
Identical configurations produce byte-identical reports. Reports are strict
RFC 8259 JSON: a non-finite number is written as the string "Infinity",
"-Infinity" or "NaN", which float() reads back.

Cold start: neither this module nor the package imports numpy. Each cmd_*
function imports the numeric modules it runs, inside the function: eval
loads quadrature, mapping and functionals (and catalog for --map), verify and
asym also verifier, beltrami also beltrami but not catalog. So --version,
--help and usage errors load none of them: the parser reads its defaults
from the dataclasses in config, and the --check names from verifier.CHECKS
only when it tests or lists one. The imported names stay local to each call:
a function replaced on its module (a tracing wrapper, say) is the one that
runs, and none is left bound here.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .config import QuadratureConfig, RadiusLadder
from .errors import ConfigError, ToolkitError


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = complex(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse parameter {item!r}") from exc
        params[key] = val if val.imag != 0.0 else val.real
    return params


def _read_json(path: str):
    """The JSON document in the file at path; unreadable or malformed is a ConfigError."""
    import json

    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON document {path!r}: {exc}") from exc


def _build_map(args):
    """The MappingModel of --map-json or of the catalog entry --map."""
    if args.map_json:
        from .mapping import map_from_json

        return map_from_json(_read_json(args.map_json))
    if not args.map:
        raise ConfigError("a map is required: --map <name> or --map-json <file>")
    from . import catalog

    return catalog.from_name(args.map, **_parse_params(args.param)).model


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(n_theta=args.ntheta, n_r=args.nr)


def _ladder(args) -> RadiusLadder:
    return RadiusLadder(r_max=args.rmax, rho=args.rho, count=args.count, tail=args.tail)


def _resolved_config(args) -> dict:
    skip = {"func", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(val) if isinstance(val, complex) else val
    out["version"] = __version__
    return out


def _make_out_dir(path: str) -> None:
    """Make the output directory before any map is built: one that cannot be
    made (a path under a regular file, say) is a ConfigError, not a failure
    after the whole computation."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create output directory {path!r}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    from .verifier import json_text

    path.write_text(json_text(doc))


def cmd_eval(args) -> int:
    from .functionals import area, boundary_length, circular_dilatation_mean, disc_mean
    from .mapping import min_max_modulus

    model = _build_map(args)
    cfg = _quad_config(args)
    radii = _ladder(args).radii()
    columns = zip(radii, circular_dilatation_mean(model, radii, args.p, cfg).tolist(),
                  disc_mean(model, radii, args.p, cfg).value.tolist(),
                  area(model, radii, cfg).tolist(),
                  boundary_length(model, radii, cfg).tolist(),
                  *(m.tolist() for m in min_max_modulus(model, radii, cfg)))
    out = Path(args.out) / "functionals.csv"
    lines = ["r,d_p,disc_mean,S,L,l_f,L_f,iso_defect"]
    for r, d, dm, s, ell, lo, hi in columns:
        row = (r, d, dm, s, ell, lo, hi, ell * ell - 4.0 * math.pi * s)
        lines.append(",".join(repr(float(v)) for v in row))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    from .verifier import margins_to_csv, run_checks

    model = _build_map(args)
    cfg = _quad_config(args)
    ladder = _ladder(args)
    reports = run_checks(model, args.p, ladder, cfg, args.check)
    doc = {
        "config": _resolved_config(args),
        "matrix": [rep.to_dict() for rep in reports],
    }
    out = Path(args.out) / "verify.json"
    _write_json(out, doc)
    margins_to_csv(reports, Path(args.out) / "margins.csv")
    for rep in reports:
        print(f"{rep.check_id:12s} p={rep.p:<6g} {_verdict(rep)}")
    print(f"wrote {out}")
    return 0 if all(rep.holds for rep in reports) else 1


def _verdict(rep) -> str:
    """"vacuous", or "holds" or "VIOLATED" with the report's least margin."""
    if "vacuous" in rep.notes:
        return "vacuous"
    return f"{'holds' if rep.holds else 'VIOLATED'} margin_min={rep.margin:.3e}"


def cmd_asym(args) -> int:
    from .verifier import (HIGH_P, LOW_P, json_text, theorem1_bound, theorem3_bound,
                           theorem5_bound, theorem6_bracket, theorem7_area_derivative)

    model = _build_map(args)
    cfg = _quad_config(args)
    ladder = _ladder(args)
    p = args.p
    if args.s is not None and not (LOW_P.applies(p) and HIGH_P.applies(args.s)):
        raise ConfigError(f"--s: theorem7 needs {LOW_P.name} and s > 2, got p={p}, s={args.s}")
    doc: dict = {"config": _resolved_config(args), "bounds": {}, "proxies": {},
                 "tail_spreads": {}}
    if HIGH_P.applies(p):
        t1 = theorem1_bound(model, p, ladder, cfg)
        t3 = theorem3_bound(model, p, ladder, cfg)
        doc["proxies"]["k"] = t1.k.to_dict()
        doc["proxies"]["k_0"] = t3.k0.to_dict()
        doc["bounds"]["theorem1"] = t1.bound
        doc["bounds"]["theorem3"] = t3.bound
        doc["attained"] = {"liminf_ratio": t1.attained}
        reports = [t1.report, t3.report]
    elif LOW_P.applies(p):
        t5 = theorem5_bound(model, p, ladder, cfg)
        t6 = theorem6_bracket(model, p, ladder, cfg)
        doc["proxies"]["k_0"] = t5.k0.to_dict()
        doc["proxies"]["k_1"] = t6.k1.to_dict()
        doc["proxies"]["k_2"] = t6.k2.to_dict()
        doc["proxies"]["A_proxy"] = t6.a_proxy.to_dict()
        doc["bounds"]["theorem5"] = t5.bound
        doc["bounds"]["bracket"] = [t6.lower, t6.upper]
        doc["tail_spreads"]["ratio"] = t6.a_proxy.tail_spread
        reports = [t5.report, t6.report]
        if args.s is not None:
            t7 = theorem7_area_derivative(model, p, args.s, ladder, cfg)
            doc["proxies"]["area_derivative"] = {
                "limit_lower": t7.limit_lower.to_dict(),
                "limit_upper": t7.limit_upper.to_dict(),
                "area_ratio": t7.area_ratio.to_dict(),
            }
            reports.append(t7.report)
    else:
        raise ConfigError(f"asym needs {HIGH_P.name} or {LOW_P.name}, got p={p}")
    out = Path(args.out) / "asym.json"
    _write_json(out, doc)
    print(json_text(doc["bounds"]), end="")
    for rep in reports:
        print(f"{rep.check_id:12s} p={rep.p:<6g} {_verdict(rep)}")
    print(f"wrote {out}")
    return 0 if all(rep.holds for rep in reports) else 1


def cmd_beltrami(args) -> int:
    from . import beltrami

    if args.coef:
        coef = beltrami.sigma_from_json(_read_json(args.coef))
    else:
        params = _parse_params(args.param)
        kappa, m = params.get("kappa"), params.get("m")
        if not (isinstance(kappa, float) and isinstance(m, float)):
            raise ConfigError("beltrami needs --coef <json> or real --param kappa=... m=...")
        coef = beltrami.power_sigma(kappa, m)
    cfg = _quad_config(args)
    ladder = _ladder(args)
    span = (float(ladder.radii()[-1]), args.span_hi)
    solution = beltrami.solve_radial(coef, args.r0, args.R0, span, args.step)
    out_dir = Path(args.out)
    solution.to_csv(out_dir / "solution.csv")
    doc = {
        "config": _resolved_config(args),
        "coefficient": coef.label,
        "residual_max": solution.residual_max,
        "notes": list(solution.notes),
    }
    if coef.m > 0.0:
        nb = beltrami.theorem_nb_bound(coef, solution, ladder, cfg)
        doc["sigma0"] = nb.sigma0.to_dict()
        doc["bound"] = nb.bound
        doc["attained"] = nb.attained
        doc["holds"] = nb.report.holds
    _write_json(out_dir / "beltrami.json", doc)
    print(f"residual_max={solution.residual_max:.3e}")
    print(f"wrote {out_dir / 'solution.csv'} and {out_dir / 'beltrami.json'}")
    return 0 if doc.get("holds", True) else 1


class _CheckNames:
    """The names in verifier.CHECKS, read only when argparse tests a --check
    value (`in` iterates them) or lists them in help or an error, so building
    the parser loads no numeric module. Needs a metavar: add_argument would
    list them for one."""

    def __iter__(self):
        from .verifier import CHECKS

        return (check.name for check in CHECKS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dilatox",
                                     description="Angular-dilatation toolkit")
    parser.add_argument("--version", action="version", version=f"dilatox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # the defaults of a run: the classes' field defaults, read without
    # building a ladder, which would load numpy
    ladder, quad = RadiusLadder, QuadratureConfig

    def shared_options(sp):
        sp.add_argument("--param", action="append", default=[],
                        help="map/coefficient parameter key=value (repeatable)")
        sp.add_argument("--rmax", type=float, default=ladder.r_max)
        sp.add_argument("--rho", type=float, default=ladder.rho)
        sp.add_argument("--count", type=int, default=ladder.count)
        sp.add_argument("--tail", type=int, default=ladder.tail)
        sp.add_argument("--ntheta", type=int, default=quad.n_theta,
                        help="most angles per circle: the cap of the trapezoid levels, "
                             "which stop earlier once a circle is at round-off, and "
                             "the grid of the |f| extremes")
        sp.add_argument("--nr", type=int, default=quad.n_r)
        sp.add_argument("--out", default=".", help="output directory")

    def map_options(sp):
        sp.add_argument("--map", help="catalog map name")
        sp.add_argument("--map-json", help="JSON file with a custom map document")
        sp.add_argument("--p", type=float, default=4.0, help="dilatation order")
        shared_options(sp)

    sp = sub.add_parser("eval", help="tabulate functionals over the ladder")
    map_options(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("verify", help="run inequality checks")
    map_options(sp)
    sp.add_argument("--check", action="append", default=[], choices=_CheckNames(),
                    metavar="CHECK",
                    help="restrict to specific checks (repeatable): %(choices)s")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("asym", help="limit proxies and theorem bounds")
    map_options(sp)
    sp.add_argument("--s", type=float, default=None,
                    help="second order for the area-derivative theorem")
    sp.set_defaults(func=cmd_asym)

    # no abbreviations: "--p" must not pass for "--param"
    sp = sub.add_parser("beltrami", help="solve the radial Beltrami equation",
                        allow_abbrev=False)
    shared_options(sp)
    sp.add_argument("--coef", help="JSON file describing the coefficient")
    sp.add_argument("--r0", type=float, default=0.5, help="anchor radius")
    sp.add_argument("--R0", type=float, default=1.0, help="anchor value")
    sp.add_argument("--span-hi", type=float, default=0.95,
                    help="upper end of the solve span; the lower end is the deepest rung")
    sp.add_argument("--step", type=float, default=1e-2, help="RK4 step in ln r")
    sp.set_defaults(func=cmd_beltrami)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _make_out_dir(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
