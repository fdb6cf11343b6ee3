"""Command-line front end.

Subcommands:
  eval      tabulate d_p, disc mean, S, L, modulus extremes over a radius ladder
  verify    run every inequality check applicable to the given order p
  asym      run the asymptotic-ratio theorems that apply at p, and theorem 7
            with --s
  beltrami  solve the radial nonlinear Beltrami equation down to the ladder
            and check its asymptotic-ratio bound

Exit codes: 0 all checks hold, 1 an inequality is violated and nothing else,
2 configuration error (an --out that cannot be created is one, found before
any map is built; so are --map-json with --map or --param and --coef with
--param, found before any document is read; so is a map that
functionals.admit_map rejects before any integral, from 256 angles of each
circle the run reads: the top and deepest rungs, R_FLOOR/2 under a disc
mean, EPS_TRUNC/2 under an inner integral and r = 1 under an outer one, each
at the orders of D_p read there),
3 numerical failure (running out of memory is one).
verify, asym and beltrami write one layout (_write_reports): "config", a
"matrix" row per report, and under "theorems" each theorem's own quantities
by check id; stdout has one verdict line per row. eval, verify and beltrami
write their table through one writer, _write_csv; only this module writes
files, and stdout has a `wrote <path>` line for each.
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
runs, and none is left bound here. No path runs a numpy set routine
(np.unique and the like import numpy.ma, about 20 ms of a run), and none
loads csv.

Entry points: run() is the process entry point of `python -m dilatox` and of
the console script. It calls main() with the cycle collector off and freezes
every object after it, so that neither the imports nor interpreter shutdown
scan numpy's and dilatox's objects for cycles. main() leaves the collector
as its caller set it: tests and other in-process callers keep their state.
"""

from __future__ import annotations

import argparse
import gc
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
            params[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse parameter {item!r}") from exc
    return params


def _read_json(path: str):
    """The JSON document in the file at path; unreadable or malformed is a ConfigError."""
    import json

    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON document {path!r}: {exc}") from exc


def _build_map(args, radii):
    """The MappingModel of --map-json or of the catalog entry --map, once
    functionals.admit_map admits it for this subcommand at --p (and --s) on
    the ladder radii: on every circle the run reads, at the orders of D_p
    read there, theorem 6's conjugate order p/(p-1) included. The probe's
    one caller: run_checks and the theorem functions do not probe."""
    from .functionals import admit_map

    if args.map_json and (args.map or args.param):
        raise ConfigError(f"--map-json names its map and parameters: drop "
                          f"{'--map' if args.map else '--param'}")
    if args.map_json:
        from .mapping import map_from_json

        model = map_from_json(_read_json(args.map_json))
    elif args.map:
        from . import catalog

        model = catalog.from_name(args.map, **_parse_params(args.param)).model
    else:
        raise ConfigError("a map is required: --map <name> or --map-json <file>")
    admit_map(model, args.command, args.p, radii, getattr(args, "s", None))
    return model


def _quad_config(args) -> QuadratureConfig:
    return QuadratureConfig(n_theta=getattr(args, "ntheta", QuadratureConfig.n_theta),
                            n_r=args.nr)


def _ladder(args) -> RadiusLadder:
    return RadiusLadder(r_max=args.rmax, rho=args.rho, count=args.count,
                        tail=getattr(args, "tail", 3))


def _resolved_config(args) -> dict:
    skip = {"func", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = val
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


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the header line, then a line per row: a string cell as it is, a
    number as repr(float(v)). Every line ends in LF, on any platform. Print
    the path written."""
    lines = [header, *(",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
                       for row in rows)]
    path.write_text("\n".join(lines) + "\n", newline="")
    print(f"wrote {path}")


def _write_reports(args, name: str, reports, **extra) -> int:
    """Write <name>.json under --out: the run's config, the extra keys, a
    "matrix" row per report and, under "theorems", each theorem's own
    quantities by check id. Print one verdict line per report; the exit
    code is 0 when every report holds, 1 otherwise."""
    from .verifier import json_text

    out = Path(args.out) / f"{name}.json"
    theorems = {rep.check_id: q for rep in reports if (q := rep.quantities())}
    out.write_text(json_text({"config": _resolved_config(args), **extra, "theorems": theorems,
                              "matrix": [rep.to_dict() for rep in reports]}))
    for rep in reports:
        print(f"{rep.check_id:12s} p={rep.p:<6g} {_verdict(rep)}")
    print(f"wrote {out}")
    return 0 if all(rep.holds for rep in reports) else 1


def cmd_eval(args) -> int:
    from .functionals import area, boundary_length, circular_dilatation_mean, disc_mean
    from .mapping import min_max_modulus

    radii = _ladder(args).radii()
    model = _build_map(args, radii)
    cfg = _quad_config(args)
    columns = zip(radii, circular_dilatation_mean(model, radii, args.p, cfg).tolist(),
                  disc_mean(model, radii, args.p, cfg).value.tolist(),
                  area(model, radii, cfg).tolist(),
                  boundary_length(model, radii, cfg).tolist(),
                  *(m.tolist() for m in min_max_modulus(model, radii, cfg)))
    _write_csv(Path(args.out) / "functionals.csv", "r,d_p,disc_mean,S,L,l_f,L_f,iso_defect",
               ((r, d, dm, s, ell, lo, hi, ell * ell - 4.0 * math.pi * s)
                for r, d, dm, s, ell, lo, hi in columns))
    return 0


def cmd_verify(args) -> int:
    from .verifier import run_checks

    ladder = _ladder(args)
    model = _build_map(args, ladder.radii())
    reports = run_checks(model, args.p, ladder, _quad_config(args), args.check)
    _write_csv(Path(args.out) / "margins.csv", "check_id,p,r,margin",
               ((rep.check_id, rep.p, r, m) for rep in reports
                for r, m in zip(rep.radii, rep.margins)))
    return _write_reports(args, "verify", reports)


def _verdict(rep) -> str:
    """"vacuous", or "holds" or "VIOLATED" with the report's least margin."""
    if "vacuous" in rep.notes:
        return "vacuous"
    return f"{'holds' if rep.holds else 'VIOLATED'} margin_min={rep.margin:.3e}"


def cmd_asym(args) -> int:
    from .verifier import CHECKS, HIGH_P, LOW_P, run_checks, theorem7_area_derivative

    p = args.p
    if args.s is not None and not (LOW_P.applies(p) and HIGH_P.applies(args.s)):
        raise ConfigError(f"--s: theorem7 needs {LOW_P.name} and s > 2, got p={p}, s={args.s}")
    names = [c.name for c in CHECKS if c.name.startswith("theorem") and c.regime.applies(p)]
    if not names:
        raise ConfigError(f"asym needs {HIGH_P.name} or {LOW_P.name}, got p={p}")
    ladder = _ladder(args)
    model = _build_map(args, ladder.radii())
    cfg = _quad_config(args)
    reports = run_checks(model, p, ladder, cfg, names)
    if args.s is not None:
        reports.append(theorem7_area_derivative(model, p, args.s, ladder, cfg))
    # bench/run.py reads its closed-form oracle off these two keys: theorem
    # 1's k, and the k0 of theorem 3 or 5
    proxies = {key: getattr(rep, attr).to_dict() for rep in reports
               for key, attr in (("k", "k"), ("k_0", "k0")) if hasattr(rep, attr)}
    return _write_reports(args, "asym", reports, proxies=proxies)


def cmd_beltrami(args) -> int:
    from . import beltrami

    if args.coef and args.param:
        raise ConfigError("--coef names its coefficient and parameters: drop --param")
    if args.coef:
        coef = beltrami.sigma_from_json(_read_json(args.coef))
    else:
        try:
            coef = beltrami.power_sigma(**_parse_params(args.param))
        except TypeError as exc:  # a missing or unknown --param key
            raise ConfigError(f"beltrami needs --coef <json> or --param kappa=... m=...: "
                              f"{exc}") from exc
    ladder = _ladder(args)
    span = (float(ladder.radii()[-1]), args.span_hi)
    solution = beltrami.solve_radial(coef, args.r0, args.R0, span, args.step)
    print(f"residual_max={solution.residual_max:.3e}")
    _write_csv(Path(args.out) / "solution.csv", "r,R", zip(solution.grid, solution.values))
    # the bound needs m > 0; bench/run.py reads its closed-form oracle off
    # the top-level "attained"
    reports = ([beltrami.theorem_nb_bound(coef, solution, ladder, _quad_config(args))]
               if coef.m > 0.0 else [])
    extra = {"attained": reports[0].attained} if reports else {}
    return _write_reports(args, "beltrami", reports, coefficient=coef.label,
                          residual_max=solution.residual_max, notes=list(solution.notes),
                          **extra)


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

    def shared_options(sp, tail=True, ntheta=True):
        sp.add_argument("--param", action="append", default=[],
                        help="map/coefficient parameter key=value (repeatable)")
        sp.add_argument("--rmax", type=float, default=ladder.r_max)
        sp.add_argument("--rho", type=float, default=ladder.rho)
        sp.add_argument("--count", type=int, default=ladder.count)
        if tail:
            sp.add_argument("--tail", type=int, default=ladder.tail)
        if ntheta:
            sp.add_argument("--ntheta", type=int, default=quad.n_theta,
                            help="most angles per circle: the cap of the trapezoid levels, "
                                 "which stop earlier once a circle is at round-off, and "
                                 "the grid of the |f| extremes")
        sp.add_argument("--nr", type=int, default=quad.n_r)
        sp.add_argument("--out", default=".", help="output directory")

    def map_options(sp, tail=True):
        sp.add_argument("--map", help="catalog map name")
        sp.add_argument("--map-json", help="JSON file with a custom map document")
        sp.add_argument("--p", type=float, default=4.0, help="dilatation order")
        shared_options(sp, tail=tail)

    sp = sub.add_parser("eval", help="tabulate functionals over the ladder")
    # eval reads no tail: it tabulates every rung, and _ladder gives it the least, 3
    map_options(sp, tail=False)
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
    # beltrami reads no circle of several angles: D_{m+2} is radial
    shared_options(sp, ntheta=False)
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


def run() -> int:
    """The process entry point: `python -m dilatox` and the console script.

    main() with the cycle collector off, then every object left frozen, so
    that neither the imports of numpy and dilatox nor interpreter shutdown
    scan those objects for cycles. Reference counting still frees every
    acyclic object. A run leaves about 700 to 770 objects in cycles, a
    count that does not grow with the run, so they can wait for the
    process to exit. main() itself leaves the caller's collector alone.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
