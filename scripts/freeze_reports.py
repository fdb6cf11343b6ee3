#!/usr/bin/env python3
"""Rewrite the frozen report set of tests/test_frozen.py.

Writes every file of the set afresh into tests/frozen/ (the reports, the
outputs of the CLI runs and the sharpness tables), records the fingerprint
of this machine's numpy beside them, and prints one line per field that
moved against the files it replaces: file, record, field, old value and new
value. A change that moves a field lists each one. It also
prints the model points and calls of each run_checks file, the figures
test_frozen.MODEL_POINTS_AND_CALLS pins.

Usage:
    python3 scripts/freeze_reports.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_frozen import (
    FROZEN,
    fingerprint,
    load_records,
    moved_fields,
    report_files,
    write_reports,
)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        counts = write_reports(out)
        moved = 0
        for name in sorted(set(report_files(FROZEN)) | set(report_files(out))):
            old = load_records(FROZEN / name) if (FROZEN / name).exists() else []
            new = load_records(out / name) if (out / name).exists() else []
            for report, field, was, now in moved_fields(old, new):
                print(f"{name}\t{report}\t{field}\t{was!r}\t{now!r}")
                moved += 1
        shutil.rmtree(FROZEN, ignore_errors=True)
        shutil.copytree(out, FROZEN)
    (FROZEN / "FINGERPRINT").write_text(fingerprint() + "\n")
    for name, (points, calls) in counts.items():
        print(f"{name}\tmodel points {points:_}\tcalls {calls}")
    print(f"{moved} field(s) moved; {len(report_files(FROZEN))} files in {FROZEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
