"""Command-line integration: exit-code contract, report files, determinism,
strict JSON, custom-map/coefficient ingestion, runs that never import scipy,
cold starts that import only what they run, and the verification matrix
script."""

import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dilatox
from dilatox import beltrami, catalog, cli, functionals, mapping, verifier
from dilatox.cli import build_parser, main
from dilatox.config import QuadratureConfig, RadiusLadder


def run(args):
    return main(args)


# The checks `verify` runs by default in each order regime, in report order.
REGIMES = {
    1.5: ("lemma1", "length_area", "lemma4", "theorem5", "theorem6"),
    2.0: ("lemma1", "length_area"),
    3.0: ("lemma1", "length_area", "lemma2", "lemma3", "theorem1", "theorem3"),
}


def regime(p: float) -> tuple[str, ...]:
    return REGIMES[1.5] if p < 2.0 else REGIMES[3.0] if p > 2.0 else REGIMES[2.0]


class TestExitCodes:
    def test_verify_all_hold(self, tmp_path):
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "4",
                    "--out", str(tmp_path)])
        assert code == 0

    def test_inapplicable_check_is_config_error(self, tmp_path):
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "2",
                    "--check", "theorem1", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_check_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "3",
                 "--check", "bogus", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(check.name) in err for check in verifier.CHECKS)

    def test_check_outside_its_regime_is_config_error(self, tmp_path, capsys):
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "1.5",
                    "--check", "lemma2", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: lemma2 needs p > 2, got p=1.5\n"
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_order_is_config_error(self, p, tmp_path):
        # no regime contains p = inf, so it once ran no check and exited 0
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", p,
                    "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "verify.json").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("args", [
        ("verify", "--map", "radial_stretch", "--param", "alpha={}", "--p", "3"),
        ("verify", "--map", "log_singular", "--param", "p={}", "--p", "3"),
        ("verify", "--map", "beltrami_exact", "--param", "m=1", "--param", "kappa={}",
         "--p", "3"),
        ("verify", "--map", "beltrami_exact", "--param", "m={}", "--param", "kappa=0.8",
         "--p", "3"),
        ("beltrami", "--param", "kappa={}", "--param", "m=1"),
    ], ids=["radial_stretch-alpha", "log_singular-p", "beltrami_exact-kappa",
            "beltrami_exact-m", "beltrami-kappa"])
    def test_non_finite_map_parameter_is_config_error(self, args, value, tmp_path):
        # an infinite parameter once passed the family's checks and failed
        # part-way (exit 3), or made beltrami_exact the identity (exit 0)
        code = run([arg.format(value) for arg in args] + ["--out", str(tmp_path)])
        assert code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["verify", "eval", "asym"])
    @pytest.mark.parametrize("params", [
        ("--map", "radial_stretch", "--param", "alpha=1e3"),
        ("--map", "linear", "--param", "k=1e-300"),
        ("--map", "beltrami_exact", "--param", "m=1e-300", "--param", "kappa=0.5"),
        ("--map", "log_singular", "--param", "p=1e3"),
    ], ids=["radial_stretch-alpha", "linear-k", "beltrami_exact-m", "log_singular-p"])
    def test_extreme_finite_map_parameter_is_config_error(self, command, params, tmp_path,
                                                          capsys):
        # such a parameter underflows or overflows float64 at the ladder's
        # ends; it once ran into NaN margins or non-finite partials part-way
        # (exit 3), log_singular after an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, *params, "--p", "3", "--out", str(tmp_path)])
        assert code == 2
        assert not any(tmp_path.iterdir())
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("argv, message", [
        (("--map", "radial_stretch", "--param", "alpha=30", "--p", "3"),
         "J_f of 'radial_stretch(alpha=30)' is not positive and finite in float64 on the "
         "circle r=5e-09, read at order 3"),
        (("--map", "linear", "--param", "k=1e-160", "--p", "1.5"),
         "D_3 of 'linear(k=1e-160)' is not positive and finite in float64 on the circle "
         "r=0.5, read at orders 1.5, 3"),
        (("--map-json", "{doc}", "--p", "1.5"),
         "J_f of 'radial_profile' is not positive and finite in float64 on the circle r=1, "
         "read at order 3"),
    ], ids=["disc-mean-floor", "conjugate-order", "outer-end"])
    def test_map_failing_off_the_rungs_is_config_error(self, argv, message, tmp_path, capsys):
        # each once stopped part-way (exit 3): the disc means read J at
        # R_FLOOR/2, theorem 6 reads D at p/(p-1), the outer integrals read
        # r = 1, past the last sample of this profile, where it turns down
        doc = tmp_path / "profile.json"
        doc.write_text(json.dumps({"type": "radial_profile", "samples": [
            [t, t * (2.0 - t)] for t in np.linspace(0.001, 0.999, 40).tolist()]}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify", *(a.format(doc=doc) for a in argv), "--out", str(out)])
        assert code == 2
        assert not any(out.iterdir())
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_map_read_only_above_its_underflow_runs(self, tmp_path):
        # at p = 1.5 nothing is read below EPS_TRUNC/2, where J = 21 r^40
        # of this stretch is still a normal float
        code = run(["verify", "--map", "radial_stretch", "--param", "alpha=20", "--p", "1.5",
                    "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "verify.json").exists()

    def test_ladder_below_eps_trunc_is_config_error(self, tmp_path, capsys):
        # a deepest rung of 8.6e-8 lies below the inner integral's truncation
        # radius; the ladder refuses it before any integral, naming the rung
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "1.5",
                    "--rho", "0.4", "--count", "18", "--out", str(tmp_path)])
        assert code == 2
        assert ("deepest rung r_max*rho^(count-1) = 8.590e-08 must lie above EPS_TRUNC = 1e-06"
                in capsys.readouterr().err)
        assert not (tmp_path / "verify.json").exists()

    def test_unknown_map_is_config_error(self, tmp_path):
        assert run(["eval", "--map", "mystery", "--out", str(tmp_path)]) == 2

    def test_bad_param_is_config_error(self, tmp_path, capsys):
        assert run(["eval", "--map", "linear", "--param", "k", "--out", str(tmp_path)]) == 2
        # a value that is no number, or a complex one: a slope is real
        for param in ("k=abc", "k=", "k=0.5j+", "k=0.3+0.4j", "k=0.5+0j"):
            assert run(["eval", "--map", "linear", "--param", param, "--out", str(tmp_path)]) == 2
            assert f"cannot parse parameter {param!r}" in capsys.readouterr().err
        assert not (tmp_path / "functionals.csv").exists()

    def test_missing_map_is_config_error(self, tmp_path):
        assert run(["eval", "--out", str(tmp_path)]) == 2

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # an orientation-reversing slope produces a degenerate-Jacobian failure
        doc = {"type": "radial_profile",
               "samples": [[0.1, 0.5], [0.5, 0.2], [0.9, 0.1]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["eval", "--map-json", str(path), "--out", str(tmp_path)]) in (2, 3)

    # (argv, module and function that builds its map or coefficient)
    BUILDS = {
        "eval": (["eval", "--map", "linear", "--param", "k=0.5"], catalog, "from_name"),
        "verify": (["verify", "--map", "identity", "--p", "3"], catalog, "from_name"),
        "asym": (["asym", "--map", "identity", "--p", "4"], catalog, "from_name"),
        "beltrami": (["beltrami", "--param", "kappa=2", "--param", "m=1"], beltrami,
                     "power_sigma"),
    }

    @pytest.mark.parametrize("command", BUILDS)
    def test_out_under_a_file_is_config_error(self, command, tmp_path, capsys, monkeypatch):
        # an --out under a regular file once raised NotADirectoryError with a
        # traceback and exit 1 after the whole run; it is now found first
        argv, module, builder = self.BUILDS[command]

        def build(*args, **kwargs):
            raise AssertionError("map built before --out was checked")

        monkeypatch.setattr(module, builder, build)
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert run(argv + ["--out", str(blocker / "sub")]) == 2
        assert "configuration error: --out: cannot create output directory" in (
            capsys.readouterr().err)
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("argv, module, name", [
        (["verify", "--map", "linear", "--param", "k=0.5", "--p", "3", "--check", "lemma1"],
         verifier, "check_lemma1"),
        (["beltrami", "--param", "kappa=2", "--param", "m=1"], beltrami, "solve_radial"),
    ], ids=["verify", "beltrami"])
    def test_memory_error_is_exit_3(self, argv, module, name, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate (numpy's MemoryError) once exited 1
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 63.2 GiB for an array")

        monkeypatch.setattr(module, name, out_of_memory)
        assert run(argv + ["--out", str(tmp_path)]) == 3
        assert ("numerical failure: out of memory: Unable to allocate 63.2 GiB"
                in capsys.readouterr().err)

    def test_arithmetic_error_is_exit_3(self, tmp_path, capsys, monkeypatch):
        # an OverflowError is an ArithmeticError but not a FloatingPointError
        def overflow(*args):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(verifier, "check_lemma1", overflow)
        code = run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "3",
                    "--check", "lemma1", "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    # (flag, file text or None for a missing file): documents that cannot be ingested
    MALFORMED = {
        "profile-without-samples": ("--map-json", '{"type": "radial_profile"}'),
        "not-an-object": ("--map-json", "[1, 2]"),
        "missing-file": ("--map-json", None),
        "not-json": ("--map-json", "not json"),
        "custom-radial-without-m": ("--coef", '{"family": "custom_radial", "samples": '
                                              '[[0.05, 0, -1], [0.5, 0, -1], [0.95, 0, -1]]}'),
        # a string sample once read as its number
        "string-profile-sample": ("--map-json", '{"type": "radial_profile", "samples": '
                                                '[["0.1", "0.1"], ["0.5", "0.5"], ["0.9", "0.9"]]}'),
        "string-coefficient-sample": ("--coef", '{"family": "custom_radial", "m": 1, "samples": '
                                                '[["0.05", "0", "-1"], ["0.5", "0", "-1"], '
                                                '["0.95", "0", "-1"]]}'),
        # an integer beyond the float range once ended as a numerical failure
        "huge-int-m": ("--coef", '{"family": "custom_radial", "m": 1%s, "samples": '
                                 '[[0.05, 0, -1], [0.5, 0, -1], [0.95, 0, -1]]}' % ("0" * 400)),
        "nan-radius": ("--map-json", '{"type": "radial_profile", '
                                     '"samples": [[0.1, 0.1], [NaN, 0.2], [0.3, 0.3]]}'),
        "infinite-profile-value": ("--map-json", '{"type": "radial_profile", "samples": '
                                                 '[[0.1, 0.1], [0.5, 0.5], [0.9, Infinity]]}'),
        "nan-coefficient-sample": ("--coef", '{"family": "custom_radial", "m": 1, "samples": '
                                             '[[0.05, 0, -1], [0.5, 0, NaN], [0.95, 0, -1]]}'),
        "overflowing-coefficient-sample": ("--coef", '{"family": "custom_radial", "m": 1, '
                                                     '"samples": [[0.05, 0, -1], '
                                                     '[0.5, 0, 1e999], [0.95, 0, -1]]}'),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_document_is_config_error(self, case, tmp_path, capsys):
        flag, text = self.MALFORMED[case]
        path = tmp_path / "doc.json"
        if text is not None:
            path.write_text(text)
        if flag == "--coef":
            argv = ["beltrami", "--coef", str(path)]
        else:
            argv = ["verify", "--map-json", str(path), "--p", "3", "--check", "lemma1"]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not any(out.iterdir())

    # (flag, document, error): the removed second spellings of a catalog map
    # and of the power coefficient, now --map NAME --param key=value and
    # beltrami --param kappa=... --param m=...
    REMOVED = {
        "catalog-map": ("--map-json", {"type": "catalog", "name": "linear", "params": {"k": 0.5}},
                        "unknown map document type 'catalog'"),
        "power-coefficient": ("--coef", {"family": "power", "kappa": 2, "m": 1},
                              "unknown coefficient family 'power'"),
    }

    @pytest.mark.parametrize("case", REMOVED)
    def test_removed_document_is_config_error(self, case, tmp_path, capsys):
        flag, doc, error = self.REMOVED[case]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        command = ["beltrami"] if flag == "--coef" else ["verify", "--p", "3"]
        out = tmp_path / "out"
        assert run(command + [flag, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {error}\n"
        assert not any(out.iterdir())

    # (argv with {doc} for a document that runs, the flag the error names):
    # two sources for one map or coefficient; one of them once won silently
    CONFLICTING = {
        "map-json-and-map": (["verify", "--map", "identity", "--map-json", "{doc}"], "--map"),
        "map-json-and-param": (["verify", "--map-json", "{doc}", "--param", "k=0.25"],
                               "--param"),
        "coef-and-param": (["beltrami", "--coef", "{doc}", "--param", "kappa=3"], "--param"),
    }

    @pytest.mark.parametrize("case", CONFLICTING)
    def test_conflicting_sources_are_config_error(self, case, tmp_path, capsys, monkeypatch):
        argv, drop = self.CONFLICTING[case]
        kind = "radial_profile" if argv[0] == "verify" else "custom_radial"
        path = _spline_backed_runs(kind, tmp_path)[0][2]  # the document's path
        if argv[0] == "verify":
            argv = argv + ["--p", "3", "--check", "lemma1"]

        def read(path):
            raise AssertionError("a document was read")

        monkeypatch.setattr(cli, "_read_json", read)
        out = tmp_path / "out"
        assert run([arg.format(doc=path) for arg in argv] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(f"parameters: drop {drop}\n")
        assert not any(out.iterdir())

    def test_beltrami_wrong_sign_is_exit_3(self, tmp_path):
        path = tmp_path / "coef.json"
        path.write_text(json.dumps(WRONG_SIGN_COEF))
        assert run(["beltrami", "--coef", str(path), "--out", str(tmp_path)]) == 3


class TestParser:
    def test_defaults_are_the_config_defaults(self):
        # read from the dataclasses' fields, without building either
        args = build_parser().parse_args(["verify", "--map", "identity"])
        ladder, quad = RadiusLadder(), QuadratureConfig()
        assert (args.rmax, args.rho, args.count, args.tail) == (
            ladder.r_max, ladder.rho, ladder.count, ladder.tail)
        assert (args.ntheta, args.nr) == (quad.n_theta, quad.n_r)

    def test_verify_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        names = ", ".join(check.name for check in verifier.CHECKS)
        assert f"restrict to specific checks (repeatable): {names}" in help_text


class TestEval:
    def test_tail_is_a_usage_error(self, tmp_path, capsys):
        # eval tabulates every rung and reads no tail
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--map", "identity", "--p", "3", "--tail", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tail 5" in capsys.readouterr().err

    def test_a_three_rung_ladder_runs(self, tmp_path):
        # the tail eval does not read constrains no count of 3 or more
        assert run(["eval", "--map", "identity", "--p", "3", "--count", "3",
                    "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "functionals.csv").read_text().splitlines()) == 4

    def test_functionals_table(self, tmp_path):
        assert run(["eval", "--map", "linear", "--param", "k=0.5", "--p", "4",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "functionals.csv").read_text().splitlines()
        assert lines[0] == "r,d_p,disc_mean,S,L,l_f,L_f,iso_defect"
        assert len(lines) == 21  # header + default 20 rungs
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["r"] == pytest.approx(0.5)
        assert row["d_p"] == pytest.approx(0.25, rel=1e-9)
        assert row["S"] == pytest.approx(math.pi * 0.25 * 0.25, rel=1e-9)
        assert row["iso_defect"] >= -1e-9

    def test_isoperimetric_defect_vanishes_on_a_radial_map(self, tmp_path):
        # the image of each circle is a circle, so L^2 = 4 pi S; S from Green's
        # formula on that circle leaves only round-off in the difference
        assert run(["eval", "--map", "log_singular", "--param", "p=3", "--p", "3",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "functionals.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
                for line in lines[1:]]
        assert len(rows) == 20
        for row in rows:
            assert abs(row["iso_defect"]) <= 1e-14 * row["L"] ** 2, row

    def test_custom_radial_profile_map(self, tmp_path):
        r = np.linspace(0.01, 0.99, 30)
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(0.7 * t)] for t in r]}
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        assert run(["eval", "--map-json", str(path), "--p", "4",
                    "--out", str(tmp_path)]) == 0


class TestVerify:
    def test_matrix_and_margins_written(self, tmp_path):
        assert run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "3",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        ids = [row["check_id"] for row in doc["matrix"]]
        assert ids == ["lemma1", "length_area", "lemma2", "lemma3",
                       "theorem1", "theorem3"]
        assert all(row["holds"] for row in doc["matrix"])
        assert doc["config"]["version"]
        margins = (tmp_path / "margins.csv").read_text().splitlines()
        assert margins[0] == "check_id,p,r,margin"

    def test_below_two_checks(self, tmp_path):
        assert run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "1.5",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        ids = [row["check_id"] for row in doc["matrix"]]
        assert ids == ["lemma1", "length_area", "lemma4", "theorem5", "theorem6"]

    def test_deep_ladder_runs_every_check(self, tmp_path):
        # 40 rungs reach 8.3e-5, above the truncation radius 1e-6, so every
        # check of the regime runs down to that rung
        assert run(["verify", "--map", "linear", "--param", "k=0.5", "--p", "1.5",
                    "--count", "40", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert tuple(row["check_id"] for row in doc["matrix"]) == REGIMES[1.5]
        assert all(row["holds"] for row in doc["matrix"])
        assert min(doc["matrix"][0]["radii"]) == pytest.approx(8.3e-5, rel=1e-2)

    @pytest.mark.parametrize("p", sorted(REGIMES))
    def test_default_checks_follow_the_regime_table(self, p, tmp_path):
        assert run(["verify", "--map", "linear", "--param", "k=0.5", "--p", str(p),
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert tuple(row["check_id"] for row in doc["matrix"]) == REGIMES[p]
        assert "format" not in doc["config"] and "s" not in doc["config"]

    def test_deterministic_reports(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--map", "radial_stretch", "--param", "alpha=1.5",
                "--p", "3"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
        assert (out1 / "margins.csv").read_bytes() == (out2 / "margins.csv").read_bytes()

    def test_non_finite_margin_is_strict_json(self, tmp_path):
        # theorem1 on the log-singular map is vacuous: its margin is +inf
        assert run(["verify", "--map", "log_singular", "--param", "p=3", "--p", "3",
                    "--out", str(tmp_path)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)
        margins = {row["check_id"]: float(row["margin_min"]) for row in doc["matrix"]}
        assert margins["theorem1"] == math.inf
        assert all(math.isfinite(m) for name, m in margins.items() if name != "theorem1")

    def test_vacuous_report_reads_vacuous(self, tmp_path, capsys):
        # the vacuous theorem1 report still holds with margin_min +inf in
        # verify.json, but its stdout line says "vacuous", not a margin
        assert run(["verify", "--map", "log_singular", "--param", "p=3", "--p", "3",
                    "--out", str(tmp_path)]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if " p=" in line}
        assert lines["theorem1"].split()[1:] == ["p=3", "vacuous"]
        assert all(" holds margin_min=" in line for name, line in lines.items()
                   if name != "theorem1")
        doc = json.loads((tmp_path / "verify.json").read_text())
        row = next(row for row in doc["matrix"] if row["check_id"] == "theorem1")
        assert (row["holds"], row["margin_min"]) == (True, "Infinity")

    def test_nan_margin_exits_3_naming_the_check(self, tmp_path, capsys, monkeypatch):
        # a NaN area gain makes the length-area margin NaN
        monkeypatch.setattr(verifier, "length_area_sides",
                            lambda model, p, r1, r2, cfg: (1.0, math.nan))
        assert run(["verify", "--map", "identity", "--p", "3", "--check", "length_area",
                    "--out", str(tmp_path)]) == 3
        assert "length_area at p=3: NaN margin" in capsys.readouterr().err

    def test_repeated_check_runs_once(self, tmp_path):
        base = ["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"]
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert run(base + ["--check", "lemma1", "--out", str(once)]) == 0
        assert run(base + ["--check", "lemma1", "--check", "length_area",
                           "--check", "lemma1", "--out", str(twice)]) == 0
        doc = json.loads((twice / "verify.json").read_text())
        assert [row["check_id"] for row in doc["matrix"]] == ["lemma1", "length_area"]
        rows = (twice / "margins.csv").read_text().splitlines()
        lemma1_rows = [row for row in rows if row.startswith("lemma1,")]
        assert lemma1_rows == (once / "margins.csv").read_text().splitlines()[1:]


# Runs of the three report-writing subcommands with the checks each runs: its
# JSON report re-derives the run.
REDERIVED_RUNS = {
    "verify-p3": (["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"], REGIMES[3.0]),
    "asym-p4": (["asym", "--map", "linear", "--param", "k=0.25", "--p", "4"],
                ("theorem1", "theorem3")),
    "asym-p1.5": (["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5"],
                  ("theorem5", "theorem6")),
    "asym-p1.5-s4": (["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5", "--s", "4"],
                     ("theorem5", "theorem6", "theorem7")),
    "beltrami-m1": (["beltrami", "--param", "kappa=2", "--param", "m=1"], ("theorem_nb",)),
    # m = 0 has no bound: the report has no row
    "beltrami-m0": (["beltrami", "--param", "kappa=2", "--param", "m=0"], ()),
}


@pytest.mark.parametrize("argv, checks", REDERIVED_RUNS.values(), ids=REDERIVED_RUNS.keys())
def test_the_report_rederives_the_run(argv, checks, tmp_path, capsys):
    # the exit code, the verdict lines and the theorems' ids all follow from
    # the matrix rows, one row per check run
    code = run(argv + ["--out", str(tmp_path)])
    doc = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    rows = doc["matrix"]
    assert tuple(row["check_id"] for row in rows) == checks
    assert code == (0 if all(row["holds"] for row in rows) else 1)
    verdicts = [line.split() for line in capsys.readouterr().out.splitlines() if " p=" in line]
    assert verdicts == [
        [row["check_id"], f"p={row['p']:g}",
         *(["vacuous"] if "vacuous" in row["flags"] else
           ["holds" if row["holds"] else "VIOLATED", f"margin_min={row['margin_min']:.3e}"])]
        for row in rows]
    assert doc["theorems"].keys() == {cid for cid in checks if cid.startswith("theorem")}


def _margins_rows():
    reports = verifier.run_checks(catalog.linear(0.5).model, 3.0, RadiusLadder(),
                                  QuadratureConfig(), [])
    return [(rep.check_id, rep.p, r, m) for rep in reports
            for r, m in zip(rep.radii, rep.margins)]


def _functionals_rows():
    model, radii, cfg = catalog.linear(0.5).model, RadiusLadder().radii(), QuadratureConfig()
    s, ell = functionals.area(model, radii, cfg), functionals.boundary_length(model, radii, cfg)
    return list(zip(radii, functionals.circular_dilatation_mean(model, radii, 4.0, cfg),
                    functionals.disc_mean(model, radii, 4.0, cfg).value, s, ell,
                    *mapping.min_max_modulus(model, radii, cfg), ell * ell - 4.0 * math.pi * s))


def _solution_rows():
    sol = beltrami.solve_radial(beltrami.power_sigma(2.0, 1.0), 0.5, 1.0,
                                (float(RadiusLadder().radii()[-1]), 0.95), 1e-2)
    return list(zip(sol.grid, sol.values))


# The table each of three runs writes: (argv, file, header, its rows computed
# in process with the CLI's defaults).
TABLES = {
    "verify": (["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"], "margins.csv",
               "check_id,p,r,margin", _margins_rows),
    "eval": (["eval", "--map", "linear", "--param", "k=0.5", "--p", "4"], "functionals.csv",
             "r,d_p,disc_mean,S,L,l_f,L_f,iso_defect", _functionals_rows),
    "beltrami": (["beltrami", "--param", "kappa=2", "--param", "m=1"], "solution.csv", "r,R",
                 _solution_rows),
}


@pytest.mark.parametrize("argv, name, header, expected", TABLES.values(), ids=TABLES.keys())
def test_each_table_reads_back_bit_exactly(argv, name, header, expected, tmp_path):
    # every line ends in LF, margins.csv's too (csv.writer once ended them
    # in CRLF), and every float cell reads back as the value computed here
    assert run(argv + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / name).read_bytes().decode().split("\n")
    assert lines.pop() == ""
    assert not any(line.endswith("\r") for line in lines)
    assert lines[0] == header
    rows = expected()
    assert len(lines) == 1 + len(rows)
    assert [[cell if isinstance(v, str) else float(cell).hex()
             for cell, v in zip(line.split(","), row, strict=True)]
            for line, row in zip(lines[1:], rows)] == [
        [v if isinstance(v, str) else float(v).hex() for v in row] for row in rows]


# A run of each subcommand.
WRITING_RUNS = {
    "eval": ["eval", "--map", "linear", "--param", "k=0.5", "--p", "4"],
    "verify": ["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"],
    "asym": ["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5", "--s", "4"],
    "beltrami": ["beltrami", "--param", "kappa=2", "--param", "m=1"],
}


@pytest.mark.parametrize("argv", WRITING_RUNS.values(), ids=WRITING_RUNS.keys())
def test_stdout_names_every_file_the_run_writes(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(str(path) for path in tmp_path.iterdir())


class TestAsym:
    def test_high_order_bounds(self, tmp_path):
        assert run(["asym", "--map", "linear", "--param", "k=0.25", "--p", "4",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "asym.json").read_text())
        theorems = doc["theorems"]
        assert theorems["theorem1"]["bound"] == pytest.approx(0.5, rel=1e-6)
        assert theorems["theorem1"]["k"]["value"] == pytest.approx(0.0625, rel=1e-6)
        # the two keys bench/run.py reads its closed-form oracle off
        assert doc["proxies"] == {"k": theorems["theorem1"]["k"],
                                  "k_0": theorems["theorem3"]["k0"]}

    def test_low_order_bracket(self, tmp_path):
        assert run(["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5",
                    "--s", "4", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "asym.json").read_text())
        bracket = doc["theorems"]["theorem6"]
        lo, hi = bracket["lower"], bracket["upper"]
        assert lo <= 0.5 + 1e-9 and 0.5 <= hi + 1e-9
        assert doc["theorems"]["theorem7"]["area_ratio"]["value"] == pytest.approx(
            0.25, abs=1e-6)
        assert doc["proxies"] == {"k_0": doc["theorems"]["theorem5"]["k0"]}

    @pytest.mark.parametrize("p, s", [("4", "3"), ("1.5", "1.5")])
    def test_second_order_outside_theorem7_is_config_error(self, p, s, tmp_path):
        # theorem 7 needs 1 < p < 2 < s; --s at p = 4 was once dropped
        # silently, and both pairs are now rejected before any integral
        assert run(["asym", "--map", "linear", "--param", "k=0.5", "--p", p, "--s", s,
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "asym.json").exists()

    def test_theorem7_near_two_is_vacuous(self, tmp_path, capsys):
        # the upper limit's exponent 2/(2-s) is -2000 at s = 2.001, and its
        # Python float power once overflowed (exit 3); the +inf bound now
        # makes theorem 7 vacuous, with the held theorems 5 and 6 beside it
        assert run(["asym", "--map", "identity", "--p", "1.5", "--s", "2.001",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "theorem7     p=1.5    vacuous" in out
        assert "theorem5     p=1.5    holds" in out
        assert (tmp_path / "asym.json").exists()

    def test_p_equal_two_rejected(self, tmp_path):
        assert run(["asym", "--map", "linear", "--param", "k=0.5", "--p", "2",
                    "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["verify", "asym"])
    @pytest.mark.parametrize("p", ["1.999", "2.001"])
    def test_order_near_two_exits_zero(self, command, p, tmp_path):
        # theorem 6's upper bound at the conjugate order, and theorems 1 and
        # 3 at p > 2, once overflowed a float here: exit 3, no report
        assert run([command, "--map", "identity", "--p", p, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{command}.json").exists()


class TestBeltrami:
    def test_power_coefficient_run(self, tmp_path):
        assert run(["beltrami", "--param", "kappa=2", "--param", "m=1",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "beltrami.json").read_text())
        assert doc["residual_max"] <= 1e-12
        nb = doc["theorems"]["theorem_nb"]
        assert nb["k"]["value"] == pytest.approx(2.0, rel=1e-6)
        assert nb["bound"] == pytest.approx(8.0, rel=1e-6)
        assert doc["matrix"][0]["holds"] is True
        assert nb["attained"] == pytest.approx(2.0, rel=1e-15)
        # the key bench/run.py reads its closed-form oracle off
        assert doc["attained"] == nb["attained"]
        assert not {"map", "map_json", "p", "span_lo"} & doc["config"].keys()
        sol = (tmp_path / "solution.csv").read_text().splitlines()
        assert sol[0] == "r,R"

    def test_attained_is_read_on_the_ladder_tail(self, tmp_path):
        # the closed form r (1/kappa + C r^m)^{-1/m} through (0.5, 0.6), at its
        # minimum ratio over the default ladder's tail
        assert run(["beltrami", "--param", "kappa=2", "--param", "m=1", "--R0", "0.6",
                    "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "beltrami.json").read_text())
        assert doc["theorems"]["theorem_nb"]["attained"] == pytest.approx(1.9541626755,
                                                                          rel=1e-9)

    @pytest.mark.parametrize("flag", [["--p", "3"], ["--map", "identity"],
                                      ["--map-json", "map.json"], ["--span-lo", "0.1"],
                                      ["--ntheta", "64"]])
    def test_options_beltrami_does_not_read_are_usage_errors(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["beltrami", "--param", "kappa=2", "--param", "m=1", *flag,
                 "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_deterministic_beltrami(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["beltrami", "--param", "kappa=2", "--param", "m=1"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "beltrami.json").read_bytes() == (out2 / "beltrami.json").read_bytes()
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    def test_missing_coefficient_is_config_error(self, tmp_path, capsys):
        for params in ([], ["--param", "kappa=2"]):
            assert run(["beltrami", *params, "--out", str(tmp_path)]) == 2
            assert ("beltrami needs --coef <json> or --param kappa=... m=..."
                    in capsys.readouterr().err)
        assert not (tmp_path / "beltrami.json").exists()

    def test_unknown_param_is_config_error(self, tmp_path, capsys):
        # beltrami once dropped every --param key but kappa and m, and ran
        assert run(["beltrami", "--param", "kappa=2", "--param", "m=1", "--param", "k=0.5",
                    "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith(
            "power_sigma() got an unexpected keyword argument 'k'\n")
        assert not any(tmp_path.iterdir())

    def test_complex_kappa_is_config_error(self, tmp_path):
        assert run(["beltrami", "--param", "kappa=2+1j", "--param", "m=1",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "beltrami.json").exists()

    def test_complex_m_is_config_error(self, tmp_path):
        assert run(["beltrami", "--param", "kappa=2", "--param", "m=1+1j",
                    "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "beltrami.json").exists()


# Runs a list of CLI invocations in a fresh interpreter and reports, after the
# import and after each run, whether any scipy module is loaded. With
# BLOCK_SCIPY set, a meta path finder first makes every scipy import fail.
_SCIPY_PROBE = """
import json, os, sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None
if os.environ.get("BLOCK_SCIPY"):
    sys.meta_path.insert(0, BlockScipy())
def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
import dilatox.cli
seen = [scipy_loaded()]
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(dilatox.cli.main(argv))
    seen.append(scipy_loaded())
print(json.dumps({"codes": codes, "scipy": seen}))
"""


def _probe_scipy(runs: list[list[str]], block: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(dilatox.__file__).resolve().parents[1]),
               BLOCK_SCIPY="1" if block else "")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _spline_backed_runs(kind: str, tmp_path) -> list[list[str]]:
    """CLI runs on one kind of map or coefficient built from an interpolant."""
    if kind == "log_singular":
        source = ["--map", "log_singular", "--param", "p=3", "--p", "3"]
        return [[cmd] + source for cmd in ("verify", "eval")]
    if kind == "radial_profile":
        doc = {"type": "radial_profile",
               "samples": [[float(t), float(0.7 * t)] for t in np.linspace(0.01, 0.99, 30)]}
        path = tmp_path / "map.json"
        path.write_text(json.dumps(doc))
        return [[cmd, "--map-json", str(path), "--p", "4"] for cmd in ("verify", "eval")]
    if kind == "beltrami":
        return [["beltrami", "--param", "kappa=2", "--param", "m=1"]]
    doc = {"family": "custom_radial", "m": 1.0,
           "samples": [[float(t), 0.0, float(-0.5 / t ** 2)] for t in np.linspace(0.02, 0.98, 25)]}
    path = tmp_path / "coef.json"
    path.write_text(json.dumps(doc))
    return [["beltrami", "--coef", str(path)]]


class TestScipyOnFirstUse:
    def test_catalog_map_runs_never_import_scipy(self, tmp_path):
        out = str(tmp_path)
        runs = [["verify", "--map", "linear", "--param", "k=0.5", "--p", "3", "--out", out],
                ["asym", "--map", "linear", "--param", "k=0.25", "--p", "4", "--out", out],
                ["eval", "--map", "linear", "--param", "k=0.5", "--p", "4", "--out", out]]
        result = _probe_scipy(runs)
        assert result["codes"] == [0, 0, 0]
        assert result["scipy"] == [False, False, False, False]

    @pytest.mark.parametrize("kind", ["log_singular", "radial_profile", "beltrami",
                                      "custom_radial"])
    def test_spline_backed_runs_without_scipy(self, kind, tmp_path):
        runs = [argv + ["--out", str(tmp_path / str(i))]
                for i, argv in enumerate(_spline_backed_runs(kind, tmp_path))]
        result = _probe_scipy(runs, block=True)
        assert result["codes"] == [0] * len(runs)
        assert result["scipy"] == [False] * (len(runs) + 1)

    def test_blocked_probe_fails_on_a_scipy_import(self):
        probe = _SCIPY_PROBE.replace("import dilatox.cli", "import scipy.interpolate")
        proc = subprocess.run([sys.executable, "-c", probe, "[]"], capture_output=True,
                              text=True, env=dict(os.environ, BLOCK_SCIPY="1"))
        assert proc.returncode != 0
        assert "scipy is blocked: scipy" in proc.stderr


# Runs a list of CLI invocations in a fresh interpreter and reports which
# numeric modules (and csv) are loaded after `import dilatox`, after `import
# dilatox.cli` and after each run; a run that argparse ends (--version,
# --help, a usage error) reports its SystemExit code.
_IMPORT_PROBE = """
import json, sys
WATCHED = ["numpy", "numpy.ma", "csv"] + ["dilatox." + name for name in
           ("quadrature", "mapping", "functionals", "verifier", "catalog", "beltrami")]
def loaded():
    return [name for name in WATCHED if name in sys.modules]
import dilatox
seen = [loaded()]
import dilatox.cli
seen.append(loaded())
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(dilatox.cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
    seen.append(loaded())
print(json.dumps({"codes": codes, "loaded": seen}))
"""


def _probe_imports(runs: list[list[str]]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(dilatox.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    def test_version_help_and_usage_errors_load_no_numeric_module(self, tmp_path):
        runs = [["--version"], ["--help"], [], ["verify", "--rho"],
                ["eval", "--map", "identity", "--bogus", "--out", str(tmp_path)]]
        result = _probe_imports(runs)
        assert result["codes"] == [0, 0, 2, 2, 2]
        assert result["loaded"] == [[]] * (len(runs) + 2)

    @pytest.mark.parametrize("argv, absent", [
        (["eval", "--map", "linear", "--param", "k=0.5", "--p", "4"],
         {"dilatox.verifier", "dilatox.beltrami", "csv"}),
        (["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"],
         {"dilatox.beltrami", "csv"}),
        (["asym", "--map", "linear", "--param", "k=0.25", "--p", "4"],
         {"dilatox.beltrami", "csv"}),
        # a JSON document carries data only: no closed form is looked up
        (["verify", "--map-json", "{doc}", "--p", "4"],
         {"dilatox.catalog", "dilatox.beltrami", "csv"}),
    ], ids=["eval", "verify", "asym", "verify-map-json"])
    def test_each_subcommand_loads_only_what_it_runs(self, argv, absent, tmp_path):
        doc = _spline_backed_runs("radial_profile", tmp_path)[0][2]  # the document's path
        argv = [arg.format(doc=doc) for arg in argv]
        result = _probe_imports([argv + ["--out", str(tmp_path)]])
        assert result["codes"] == [0]
        assert result["loaded"][:2] == [[], []]
        assert {"numpy", "dilatox.mapping", "dilatox.functionals"} <= set(result["loaded"][2])
        assert not absent & set(result["loaded"][2])

    def test_no_subcommand_loads_numpy_ma(self, tmp_path):
        # numpy 2.x's set routines (np.unique and the like) import numpy.ma,
        # about 20 ms of a cold run; one process runs every subcommand, on
        # catalog maps and on JSON documents, and none loads csv
        verify_json, eval_json = _spline_backed_runs("radial_profile", tmp_path)
        runs = [["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5"],
                *_spline_backed_runs("beltrami", tmp_path),       # --param
                *_spline_backed_runs("custom_radial", tmp_path),  # --coef
                eval_json, verify_json,
                ["verify", "--map", "log_singular", "--param", "p=3", "--p", "3"]]
        result = _probe_imports([argv + ["--out", str(tmp_path)] for argv in runs])
        assert result["codes"] == [0] * len(runs)
        assert not any("numpy.ma" in seen or "csv" in seen for seen in result["loaded"])

    def test_probe_sees_an_eager_import(self):
        probe = _IMPORT_PROBE.replace("import dilatox\n", "import dilatox\nimport numpy\n", 1)
        proc = subprocess.run([sys.executable, "-c", probe, "[]"], capture_output=True,
                              text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(
                                  Path(dilatox.__file__).resolve().parents[1])))
        assert json.loads(proc.stdout.splitlines()[-1])["loaded"] == [["numpy"], ["numpy"]]


# Calls cli.run() as the console script does, or runs the package as
# `python -m dilatox` does, then prints the exit code and the state the
# run leaves the cycle collector in.
_RUN_PROBE = """
import gc, json, runpy, sys
if sys.argv.pop(1) == "run":
    from dilatox.cli import run
    code = run()
else:
    try:
        runpy.run_module("dilatox", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))
sys.exit(code)
"""


def _env_with_package() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(dilatox.__file__).resolve().parents[1]))

WRONG_SIGN_COEF = {"family": "custom_radial", "m": 1.0,
                   "samples": [[0.05, 0.0, 1.0], [0.5, 0.0, 1.0], [0.95, 0.0, 1.0]]}


class TestEntryPoints:
    @pytest.mark.parametrize("argv, code", [
        (["verify", "--map", "linear", "--param", "k=0.5", "--p", "3"], 0),
        # theorem 7's known false violation on this equality case (ROADMAP item 3)
        (["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5", "--s", "3"], 1),
        (["verify", "--map", "radial_stretch", "--param", "alpha=1e3", "--p", "3"], 2),
        (["beltrami", "--coef", "{coef}"], 3),
    ], ids=["holds", "violated", "config-error", "numerical-failure"])
    def test_module_and_run_match_main(self, argv, code, tmp_path, capsys):
        # `python -m dilatox` and the console script's cli.run give main's
        # exit code, stdout and report files; run leaves the collector off
        # with every object frozen
        coef = tmp_path / "coef.json"
        coef.write_text(json.dumps(WRONG_SIGN_COEF))
        argv = [arg.format(coef=coef) for arg in argv]
        env = _env_with_package()
        seen = {}
        for how in ("main", "module", "run"):
            out = tmp_path / how
            full = argv + ["--out", str(out)]
            if how == "main":
                got, stdout = main(full), capsys.readouterr().out
            else:
                prefix = ["-m", "dilatox"] if how == "module" else ["-c", _RUN_PROBE, "run"]
                proc = subprocess.run([sys.executable, *prefix, *full], capture_output=True,
                                      text=True, env=env)
                got, stdout = proc.returncode, proc.stdout
                if how == "run":
                    *lines, state = stdout.splitlines(keepends=True)
                    assert json.loads(state) == [code, False, True]
                    stdout = "".join(lines)
            assert got == code
            seen[how] = (stdout.replace(str(out), "OUT"),
                         {path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert seen["module"] == seen["run"] == seen["main"]
        assert bool(seen["main"][1]) == (code < 2)

    def test_module_entry_leaves_the_collector_off_and_frozen(self):
        # `python -m dilatox` runs cli.run, even when argparse ends the run
        proc = subprocess.run([sys.executable, "-c", _RUN_PROBE, "module", "--version"],
                              capture_output=True, text=True, env=_env_with_package())
        assert proc.stdout.splitlines() == [f"dilatox {dilatox.__version__}", "[0, false, true]"]
        assert proc.returncode == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_callers_collector_alone(self, enabled, tmp_path):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        try:
            assert main(["verify", "--map", "linear", "--param", "k=0.5", "--p", "3",
                         "--check", "lemma1", "--out", str(tmp_path)]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was else gc.disable)()


MATRIX_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_verification_matrix.py"
MATRIX_MAPS = ("identity", "linear(k=0.5)", "radial_stretch(alpha=1.5)", "log_singular(p=3)",
               "beltrami_exact(m=1,kappa=0.8)")
MATRIX_ORDERS = (1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0)
# The matrix rows whose limit the ladder cannot certify: theorem 6's single
# limit of |f|/|z| on radial_stretch(1.5) and log_singular(3), and theorem 1's
# divergent disc mean on log_singular(3)
MATRIX_VACUOUS = {(name, f"p={p:g}", "theorem6")
                  for name in ("radial_stretch(alpha=1.5)", "log_singular(p=3)")
                  for p in (1.2, 1.5, 1.8)} | {
                     ("log_singular(p=3)", f"p={p:g}", "theorem1") for p in (2.5, 3.0, 4.0)}


class TestMatrixScript:
    def test_every_check_holds_in_registry_order(self, capsys):
        spec = importlib.util.spec_from_file_location("run_verification_matrix",
                                                      MATRIX_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main([]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines if " p=" in line]
        expected = [(name, f"p={p:g}", check) for name in MATRIX_MAPS
                    for p in MATRIX_ORDERS for check in regime(p)]
        assert len(rows) == len(expected) == 175
        assert [tuple(row[:3]) for row in rows] == expected
        assert all(row[3] == "HOLDS" for row in rows)
        assert {tuple(row[:3]) for row in rows if "vacuous" in row[-1]} == MATRIX_VACUOUS
        assert lines[-1] == "all checks hold"
