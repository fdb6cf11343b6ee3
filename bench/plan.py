"""What each workload runs: operation lists, seeded inputs and references.

Standard library only, so run.py can plan a run without importing numpy or
dilatox. The same seed always gives the same plan.
"""

from __future__ import annotations

import random

WORKLOADS = ("catalog_matrix", "theta_sweep", "cli_cold")
IN_PROCESS = ("catalog_matrix", "theta_sweep")

# catalog_matrix: the maps and orders of scripts/run_verification_matrix.py.
# Parameters stay fixed so its frozen verdicts (all 175 hold) still apply.
CATALOG_MAPS = ("identity", "linear(k=0.5)", "radial_stretch(alpha=1.5)",
                "log_singular(p=3)", "beltrami_exact(m=1,kappa=0.8)")
CATALOG_ORDERS = (1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0)
CHECKS_BELOW_2 = ("lemma1", "length_area", "lemma4", "theorem5", "theorem6")
CHECKS_AT_2 = ("lemma1", "length_area")
CHECKS_ABOVE_2 = ("lemma1", "length_area", "lemma2", "lemma3", "theorem1", "theorem3")

# theta_sweep: f = z + c z^2 with c drawn from this range by the seed.
THETA_C_RANGE = (0.05, 0.2)
THETA_CHECKS = (("lemma1", 1.5), ("length_area", 1.5), ("lemma4", 1.5), ("theorem5", 1.5),
                ("lemma1", 3.0), ("length_area", 3.0), ("lemma3", 3.0), ("theorem1", 3.0))

# cli_cold: one fresh `python -m dilatox` per operation. The reference for
# every operation is exit code 0 and reports that parse as strict RFC 8259
# JSON. Two operations do not meet it yet (ROADMAP items 3 and 4); they stay
# in the list and count as failed until the program is fixed.
CLI_OPS = (
    ("verify_linear", ("verify", "--map", "linear", "--param", "k=0.5", "--p", "3")),
    ("verify_log_singular", ("verify", "--map", "log_singular", "--param", "p=3", "--p", "3")),
    ("asym_p4", ("asym", "--map", "linear", "--param", "k=0.25", "--p", "4")),
    ("asym_s3", ("asym", "--map", "linear", "--param", "k=0.5", "--p", "1.5", "--s", "3")),
    ("eval_linear", ("eval", "--map", "linear", "--param", "k=0.5", "--p", "4")),
    ("beltrami_power", ("beltrami", "--param", "kappa=2", "--param", "m=1")),
)
CLI_EXPECTED_EXIT = {name: 0 for name, _ in CLI_OPS}
KNOWN_DEFECTS = {
    "verify_log_singular": "verify.json holds a bare Infinity, which strict JSON rejects "
                           "(ROADMAP item 4)",
    "asym_s3": "exit 1 from a false theorem7 violation on an equality case (ROADMAP item 3)",
}

# Operations left out of every workload for now, each with its reason.
EXCLUSIONS = (
    "lemma2, theorem3, theorem6 and theorem7 on theta-dependent maps raise ConfigError "
    "part-way through an outer integral (ROADMAP item 2); timing them now would make "
    "that fix look like a slowdown, so they join in a change of their own when it lands",
    "all checks on fd_model wrappers: 7 of 8 raise StepTooLarge (ROADMAP item 2); "
    "same reason",
    "the beltrami solver has no workload of its own; it is timed only inside cli_cold, "
    "and a change that targets it must add one first",
)


def catalog_ops() -> list[tuple[str, float, str]]:
    """(map, p, check) of the matrix script, in its canonical order."""
    ops = []
    for name in CATALOG_MAPS:
        for p in CATALOG_ORDERS:
            checks = CHECKS_ABOVE_2 if p > 2.0 else CHECKS_BELOW_2 if p < 2.0 else CHECKS_AT_2
            ops.extend((name, p, check) for check in checks)
    return ops


def op_keys(workload: str) -> list[str]:
    """Stable identifiers of one pass's operations, in canonical order."""
    if workload == "catalog_matrix":
        return [f"{name}/p={p:g}/{check}" for name, p, check in catalog_ops()]
    if workload == "theta_sweep":
        return [f"theta/p={p:g}/{check}" for check, p in THETA_CHECKS]
    if workload == "cli_cold":
        return [name for name, _ in CLI_OPS]
    raise ValueError(f"unknown workload {workload!r}")


def theta_c(seed: int) -> float:
    """The coefficient c of the theta map z + c z^2 for this seed."""
    lo, hi = THETA_C_RANGE
    return lo + (hi - lo) * random.Random(f"theta-c/{seed}").random()


def pass_order(seed: int, n_ops: int, pass_index: int) -> list[int]:
    """Seeded permutation of the operation indices for one pass."""
    order = list(range(n_ops))
    random.Random(f"order/{seed}/{pass_index}").shuffle(order)
    return order
