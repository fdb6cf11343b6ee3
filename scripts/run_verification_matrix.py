#!/usr/bin/env python3
"""Run the full inequality-check matrix over the built-in map catalog.

For every catalog map and every order p in a small grid spanning both regimes,
this runs each applicable check and prints one line per (map, p, check) with
the worst margin. Exits non-zero if any check fails, so it doubles as a smoke
test of the whole verification pipeline.

Usage:
    python3 scripts/run_verification_matrix.py [--out OUTDIR]

With --out, the per-map reports are also written as JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dilatox.catalog import beltrami_exact, identity, linear, log_singular, radial_stretch
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import RadiusLadder, reports_to_json, run_checks

ORDERS = (1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0)


def catalog():
    return [identity(), linear(0.5), radial_stretch(1.5), log_singular(3.0),
            beltrami_exact(m=1.0, kappa=0.8)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for per-map JSON reports")
    args = ap.parse_args(argv)

    cfg = QuadratureConfig()
    ladder = RadiusLadder()
    failures = 0
    for entry in catalog():
        collected = []
        for p in ORDERS:
            for rep in run_checks(entry.model, p, ladder, cfg):
                verdict = "HOLDS" if rep.holds else "VIOLATED"
                notes = f"  [{','.join(rep.notes)}]" if rep.notes else ""
                print(f"{entry.model.label:24s} p={p:<4g} {rep.check_id:12s} "
                      f"{verdict:8s} worst margin {rep.margin:+.3e}{notes}")
                failures += 0 if rep.holds else 1
                collected.append(rep)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{entry.model.label.replace('/', '_')}.json"
            path.write_text(reports_to_json(collected))
    print(f"\n{failures} violated check(s)" if failures else "\nall checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
