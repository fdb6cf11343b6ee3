"""`python -m dilatox ARGS` with the span tracer installed.

    python3 bench/cli_child.py OUT.json ARGS...

Used for cli_cold's traced pass. Runs dilatox.cli.main(ARGS), then writes the
per-layer sums and main()'s wall time to OUT.json and the spans to OUT.npz.
Exits with main()'s exit code.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, leftover_wrappers  # noqa: E402

import dilatox.cli  # noqa: E402
from dilatox import catalog  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    from_name = catalog.from_name  # the traced wrapper

    def counted_from_name(*args, **kwargs):
        entry = from_name(*args, **kwargs)
        return dataclasses.replace(entry, model=tracer.counted_model(entry.model))

    tracer.patch(vars(catalog), "from_name", counted_from_name)
    t0 = time.perf_counter()
    try:
        code = dilatox.cli.main(sys.argv[2:])
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
    out.write_text(json.dumps({"main_s": main_s, "leftover_wrappers": leftover_wrappers(),
                               **tracer.sums()}))
    tracer.save(out.with_suffix(".npz"))
    return code


if __name__ == "__main__":
    sys.exit(main())
