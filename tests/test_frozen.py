"""The frozen report set: every report of scripts/run_verification_matrix.py
and of run_checks on the theta-dependent maps that take each path of the
nested circle levels, recorded as strict JSON under tests/frozen/, beside the
files the CLI runs of CI_RUNS write and the stdout of
scripts/sharpness_tables.py.

A change that claims to keep the numbers passes this file unchanged. Values
match bit for bit when numpy's elementary functions round as they did when
the files were written (the fingerprint in tests/frozen/FINGERPRINT), and
within FOREIGN_RTOL relative otherwise; check order, verdicts and flags
always match exactly. scripts/freeze_reports.py rewrites the files and
prints every field that moved."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import THETA_C, affine, angular_stretch, quadratic, recording
from dilatox import cli
from dilatox.mapping import fd_model
from dilatox.quadrature import QuadratureConfig
from dilatox.verifier import RadiusLadder, reports_to_json, run_checks

FROZEN = Path(__file__).with_name("frozen")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
MATRIX_SCRIPT = SCRIPTS / "run_verification_matrix.py"
SHARPNESS_SCRIPT = SCRIPTS / "sharpness_tables.py"

# CLI runs of the CI's console-script step, by the name of their output
# directory under cli/: each writes every file of its subcommand there.
CI_RUNS = {
    "beltrami": ["beltrami", "--param", "kappa=2", "--param", "m=1"],
    "asym4": ["asym", "--map", "linear", "--param", "k=0.25", "--p", "4"],
    "asym15": ["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5"],
    "asym15s4": ["asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5", "--s", "4"],
    "area15": ["verify", "--map", "log_singular", "--param", "p=3", "--p", "1.5",
               "--check", "lemma1", "--check", "lemma4"],
    "eval3": ["eval", "--map", "log_singular", "--param", "p=3", "--p", "3"],
}

# Relative tolerance of a value on a machine whose numpy rounds differently.
FOREIGN_RTOL = 1e-12

# Model points and calls of each run_checks file, as first recorded: a change
# to the circle levels keeps the points and makes no more calls.
MODEL_POINTS_AND_CALLS = {
    "theta_seed01.json": (1_744_388, 182),
    "theta_seed02.json": (1_565_828, 132),
    "theta_seed03.json": (1_581_444, 152),
    "theta_seed04.json": (1_873_412, 162),
    "theta_seed05.json": (1_912_964, 192),
    "theta_seed06.json": (1_578_500, 144),
    "theta_seed07.json": (1_621_252, 174),
    "theta_seed08.json": (1_565_828, 132),
    "theta_seed09.json": (1_585_412, 154),
    "theta_seed10.json": (1_860_740, 150),
    "angular_stretch.json": (12_381_188, 902),
    "affine(0.99).json": (12_345_348, 1114),
    "fd_theta_seed01.json": (7_165_696, 678),
}


def checked_maps() -> dict[str, list]:
    """File name -> [(model, p)] of the run_checks part of the set: z + c z^2
    settles at 64 or 128 nodes, the angular stretch and affine(0.99) go on
    to the cap, and the finite-difference wrapper goes straight there."""
    runs = {f"theta_seed{seed:02d}.json": [(quadratic(c), p) for p in (1.5, 3.0)]
            for seed, c in enumerate(THETA_C, start=1)}
    runs["angular_stretch.json"] = [(angular_stretch(), p) for p in (1.5, 3.0)]
    runs["affine(0.99).json"] = [(affine(0.99), p) for p in (1.5, 3.0)]
    runs["fd_theta_seed01.json"] = [(fd_model(quadratic(THETA_C[0]).value, "fd theta"), 1.5)]
    return runs


def write_reports(out: Path) -> dict[str, tuple[int, int]]:
    """Write the whole set afresh under out: the matrix script's --out
    reports in out/matrix, the outputs of each CI_RUNS run through cli.main
    in out/cli/<name>, the stdout of the sharpness script in
    out/sharpness.txt, and one file of run_checks reports, each with its
    margins, per entry of checked_maps. Returns the model points and calls
    of each run_checks file."""
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(MATRIX_SCRIPT))["main"](["--out", str(out / "matrix")])
        for name, argv in CI_RUNS.items():
            cli.main(argv + ["--out", str(out / "cli" / name)])
    with contextlib.redirect_stdout(io.StringIO()) as tables:
        runpy.run_path(str(SHARPNESS_SCRIPT))["main"]()
    (out / "sharpness.txt").write_text(tables.getvalue())
    cfg, ladder, counts = QuadratureConfig(), RadiusLadder(), {}
    for name, runs in checked_maps().items():
        reports, points, calls = [], 0, 0
        for model, p in runs:
            model, sizes = recording(model)
            reports += run_checks(model, p, ladder, cfg)
            points += sum(map(sum, sizes.values()))
            calls += sum(map(len, sizes.values()))
        (out / name).write_text(reports_to_json(reports))
        counts[name] = (points, calls)
    return counts


def fingerprint() -> str:
    """SHA-256 of numpy's exp (real and complex), log, log1p, sin, cos,
    power, sqrt and add.reduce on one fixed input: equal fingerprints round
    the reports' operations alike."""
    x = np.linspace(1e-3, 40.0, 4097)
    outs = (np.exp(x), np.exp(1j * x), np.log(x), np.log1p(x), np.sin(x), np.cos(x),
            np.power(x, 1.37), np.sqrt(x), np.add.reduce(x),
            np.add.reduce(x[:4096].reshape(64, 64), axis=-1))
    digest = hashlib.sha256()
    for out in outs:
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


def _reject(name):
    raise ValueError(f"bare {name} is not RFC 8259 JSON")


def strict_load(path: Path):
    """The JSON document at path; a bare NaN or Infinity is a ValueError."""
    return json.loads(path.read_text(), parse_constant=_reject)


def _flat(doc: dict, prefix: str = "") -> dict:
    """doc with each nested object, and each list of objects, spread into
    dotted keys ("theorems.theorem1.k.value", "matrix[0].margin_min")."""
    out = {}
    for key, val in doc.items():
        name = prefix + key
        if isinstance(val, dict):
            out.update(_flat(val, name + "."))
        elif isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
            for i, v in enumerate(val):
                out.update(_flat(v, f"{name}[{i}]."))
        else:
            out[name] = val
    return out


def _number(text: str):
    """text as a float if it reads as one, else as given."""
    try:
        return float(text)
    except ValueError:
        return text


def _json_records(path: Path) -> list:
    doc = strict_load(path)
    return [_flat(rec) for rec in (doc if isinstance(doc, list) else [doc])]


def _csv_records(path: Path) -> list:
    with open(path, newline="") as fh:
        return [{key: _number(val) for key, val in row.items()} for row in csv.DictReader(fh)]


def _text_records(path: Path) -> list:
    return [{"line": [_number(tok) for tok in line.split()]}
            for line in path.read_text().splitlines()]


# The loaders of the set's files, by suffix: each gives a list of records,
# flat dicts whose fields moved_fields compares.
LOADERS = {".json": _json_records, ".csv": _csv_records, ".txt": _text_records}


def load_records(path: Path) -> list:
    """The records of the set's file at path (LOADERS)."""
    return LOADERS[path.suffix](path)


def report_files(root: Path) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*")
                  if path.suffix in LOADERS)


def _same(old, new, rtol: float) -> bool:
    if isinstance(old, float) and isinstance(new, float) and rtol:
        return abs(new - old) <= rtol * max(1.0, abs(old))
    return type(old) is type(new) and old == new


def moved_fields(old: list, new: list, rtol: float = 0.0):
    """(report, field, old value, new value) for every field of the report
    lists old and new that differs: a float by more than rtol * max(1, |old|)
    (bitwise when rtol is 0), anything else at all. A report is named by its
    index, check and order, another record by its index, an entry of a list
    field by its index."""
    if len(old) != len(new):
        yield "*", "reports", len(old), len(new)
    for i, (was, now) in enumerate(zip(old, new)):
        label = f"{i}:{was['check_id']}@p={was.get('p')}" if "check_id" in was else str(i)
        for key in sorted(was.keys() | now.keys()):
            a, b = was.get(key), now.get(key)
            if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                yield from ((label, f"{key}[{j}]", x, y)
                            for j, (x, y) in enumerate(zip(a, b)) if not _same(x, y, rtol))
            elif not _same(a, b, rtol):
                yield label, key, a, b


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    return out, write_reports(out)


def test_reports_match_the_frozen_set(fresh):
    out, _ = fresh
    names = report_files(FROZEN)
    assert names and report_files(out) == names
    exact = fingerprint() == (FROZEN / "FINGERPRINT").read_text().strip()
    rtol = 0.0 if exact else FOREIGN_RTOL
    moved = [(name, *field) for name in names for field in
             moved_fields(load_records(FROZEN / name), load_records(out / name), rtol)]
    assert not moved, f"{len(moved)} field(s) moved, first {moved[:5]}"


def test_model_points_pinned_and_calls_bounded(fresh):
    _, counts = fresh
    assert counts.keys() == MODEL_POINTS_AND_CALLS.keys()
    for name, (points, calls) in counts.items():
        pinned_points, pinned_calls = MODEL_POINTS_AND_CALLS[name]
        assert points == pinned_points and calls <= pinned_calls, name


def test_strict_load_rejects_bare_non_finite_numbers(tmp_path):
    for bare in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "bare.json"
        path.write_text(f'[{{"margin_min": {bare}}}]')
        with pytest.raises(ValueError, match="RFC 8259"):
            strict_load(path)


def test_every_kind_of_file_reads_as_records():
    # a loader that read nothing would make every comparison pass
    cli_out = FROZEN / "cli"
    assert load_records(cli_out / "eval3" / "functionals.csv")[0]["r"] == 0.5
    assert (load_records(cli_out / "beltrami" / "beltrami.json")[0]["theorems.theorem_nb.k.kind"]
            == "liminf")
    assert load_records(cli_out / "area15" / "verify.json")[0]["matrix[1].check_id"] == "lemma4"
    assert load_records(FROZEN / "sharpness.txt")[2]["line"][0] == 0.25


def test_moved_fields_names_each_change():
    old = [{"check_id": "lemma1", "p": 1.5, "holds": True, "margin_min": 0.25,
            "flags": [], "margins": [0.25, 0.5]}]
    new = [dict(old[0], holds=False, margins=[0.25, 0.5 + 1e-15])]
    assert list(moved_fields(old, old)) == []
    assert list(moved_fields(old, new)) == [("0:lemma1@p=1.5", "holds", True, False),
                                            ("0:lemma1@p=1.5", "margins[1]", 0.5, 0.5 + 1e-15)]
    assert list(moved_fields(old, new, FOREIGN_RTOL)) == [("0:lemma1@p=1.5", "holds", True, False)]
