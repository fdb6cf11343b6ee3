"""The ledger of known false verdicts.

Every inequality the verifier checks is a theorem of the paper, so a row that
reads "violated" on a map the paper admits, or a limit that reads as decided
when the ladder cannot decide it, is a verifier bug. Each case below asserts
the correct verdict and fails today: it is a strict xfail whose reason names
the ROADMAP item that should clear it. A change that clears a case turns its
xfail into a failure, and then removes the mark and names the case.

Theorem 6's Remark row on radial_stretch(alpha), alpha in {2, 3, 5, 10},
belongs to the ledger too, but stays beside its theorem:
tests/test_verifier.py::TestTheorem6::test_remark_row_holds_on_a_vanishing_ratio.
"""

import json

import numpy as np
import pytest

from conftest import angular_stretch, quadratic
from dilatox.catalog import identity, linear, radial_stretch
from dilatox.cli import main
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import (
    RadiusLadder,
    run_checks,
    theorem1_bound,
    theorem6_bracket,
    theorem7_area_derivative,
)


def known_false(items: str, why: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP {items}: {why}")


@known_false("item 3", "the tail-spread proxies of the area ratio do not converge on "
                       "the ladder's five tail rungs, and read -3.786e-3 (identity) and "
                       "-9.464e-4 (linear(0.5)) with a no-single-limit note")
@pytest.mark.parametrize("entry", [identity(), linear(0.5)], ids=lambda e: e.model.label)
def test_theorem7_holds_on_an_equality_case(entry, ladder, cfg):
    assert theorem7_area_derivative(entry.model, 1.5, 3.0, ladder, cfg).holds


@known_false("item 3", "the same tail proxies read -3.799e-3 at (p, s) = (1.5, 3) and "
                       "-0.2556 at (1.2, 2.5) on z + 0.1 z^2")
@pytest.mark.parametrize("p, s", [(1.5, 3.0), (1.2, 2.5)])
def test_theorem7_holds_on_a_smooth_theta_map(p, s, ladder, cfg):
    assert theorem7_area_derivative(quadratic(0.1), p, s, ladder, cfg).holds


@known_false("items 3 and 8", "the ratio r^1.5 -> 0 spreads less than "
                              "SINGLE_LIMIT_SPREAD on a deeper ladder, so the unconverged "
                              "bracket decides the row: -2.042e-2, -8.843e-3 and -1.659e-3 "
                              "at counts 25, 30 and 40, with no note (vacuous at 20)")
@pytest.mark.parametrize("count", [25, 30, 40])
def test_theorem6_is_not_violated_at_any_ladder_depth(count, cfg):
    res = theorem6_bracket(radial_stretch(1.5).model, 1.5, RadiusLadder(count=count), cfg)
    assert res.holds


@known_false("item 3", "both limits are 0, but the tail proxies hold the row through "
                       "proxy-slack alone, at -1.905e-4: bound 4.212e-4 against attained "
                       "6.117e-4")
def test_theorem1_reads_vacuous_when_both_limits_vanish(ladder, cfg):
    res = theorem1_bound(radial_stretch(1.5).model, 4.0, ladder, cfg)
    assert "vacuous" in res.notes


ORDERS = (1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0)
# The angular stretch's violated rows over the matrix's orders: phi' jumps,
# so the trapezoid rule converges to first order only and no circle
# reduction reports what it leaves unresolved
ANGULAR_ROWS = ([(p, "lemma1") for p in ORDERS]
                + [(p, check) for p in (1.2, 1.5, 1.8)
                   for check in ("lemma4", "theorem5", "theorem6")]
                + [(4.0, "lemma2"), (4.0, "theorem3")])


@pytest.fixture(scope="module")
def angular_reports():
    model, ladder, cfg = angular_stretch(), RadiusLadder(), QuadratureConfig()
    return {(p, rep.check_id): rep for p in ORDERS for rep in run_checks(model, p, ladder, cfg)}


@known_false("item 4", "no circle reduction reports an angular error, and the jumps of "
                       "phi' leave first-order trapezoid errors down to -4.2e-3")
@pytest.mark.parametrize("p, check", ANGULAR_ROWS, ids=[f"{c}-p{p:g}" for p, c in ANGULAR_ROWS])
def test_angular_stretch_row_holds_or_reads_vacuous(p, check, angular_reports):
    rep = angular_reports[(p, check)]
    assert rep.holds or "vacuous" in rep.notes


@known_false("item 5", "Romberg's error expansion does not hold across the PCHIP knots "
                       "at the kink, and lemma 4 reads -2.087e-6")
def test_kink_profile_verifies(tmp_path):
    # R = r on 60 geometric samples of [1e-7, 0.3], then slope 2 on 9 even
    # samples of (0.3, 1]: a radial map, so lemmas 1 and 4 are equalities
    inner, outer = np.geomspace(1e-7, 0.3, 60), np.linspace(0.3, 1.0, 10)[1:]
    samples = ([[float(t), float(t)] for t in inner]
               + [[float(t), float(0.3 + 2.0 * (t - 0.3))] for t in outer])
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({"type": "radial_profile", "samples": samples}))
    assert main(["verify", "--map-json", str(path), "--p", "1.5",
                 "--out", str(tmp_path / "out")]) == 0


@known_false("item 2", "a vacuous row is written with \"holds\": true and "
                       "\"margin_min\": \"Infinity\", while stdout reads it vacuous")
def test_vacuous_row_is_not_written_as_holding(tmp_path):
    assert main(["verify", "--map", "log_singular", "--param", "p=3", "--p", "3",
                 "--check", "theorem1", "--out", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "verify.json").read_text())["matrix"]
    assert "vacuous" in row["flags"]
    assert row.get("holds") is not True
