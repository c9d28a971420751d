#!/usr/bin/env python3
"""Compare a freshly produced BENCH_*.json against the committed reference.

Usage: check_bench_regression.py <reference.json> <fresh.json> [tolerance]

Exit 1 ONLY on a genuine regression:
  - the fresh run's "acceptance" is not "pass", or
  - an exact quality counter (see EXACT_EQUAL) differs from the
    reference, or
  - a timing/throughput metric got worse than the reference by more than
    the tolerance factor (default 0.5 = 50% worse) WHILE the two records
    were authored at the same core count.

A core-count mismatch between the records' `authoring_host` blocks is
NEVER a failure: the committed reference may come from a 1-core
authoring box while CI reruns on a many-core runner, which makes every
timing and scaling figure incomparable.  In that case only the
machine-independent acceptance flag is checked and the timing diff is
skipped with a note.

Correctness figures (acceptance, *_explored, *_errors) are compared
regardless of host: they must not depend on the machine.

Quality counters (`lit`, the Table 1 literal counts of
bench_table1_isf_minimization) are deterministic results of the solver,
not of the machine: every one in the reference must be present in the
fresh record with exactly the same value, on any host.

The memo-key fields ride the same rules: `memo_key.*_ns` (bench_bdd_ops)
and `key_build_ms` / `*_key_build_ms` (bench_solver_pool) are
lower-is-better timings via their suffixes, while
`memo_key.hash_probe_allocs` is machine-independent and must stay
exactly 0 — a hash-only probe that allocates means the lazy-key miss
path regressed into materializing.
"""

import json
import sys

# Key suffixes where LOWER is better (times) and HIGHER is better
# (rates).  Anything else is informational and never compared.
LOWER_IS_BETTER = ("_us", "_ns", "_ms", "_s", "cpu_s")
HIGHER_IS_BETTER = ("requests_per_s", "per_s", "speedup", "efficiency")
# Machine-independent counters that must never grow at all.
EXACT_ZERO = (
    "protocol_errors",
    "warm_explored",
    "incompatible",
    "hash_probe_allocs",
)
# Machine-independent counters that must equal the reference exactly.
EXACT_EQUAL = ("lit",)


def walk(prefix, node, out):
    """Flatten a JSON tree into {dotted.path: number}."""
    if isinstance(node, dict):
        for key, value in node.items():
            walk(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            walk(f"{prefix}[{index}]", value, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2])
        return 2
    with open(sys.argv[1]) as f:
        reference = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    tolerance = float(sys.argv[3]) if len(sys.argv) == 4 else 0.5

    failures = []

    # Machine-independent checks first: these hold on any host.
    if fresh.get("acceptance") not in (None, "pass"):
        failures.append(f"fresh acceptance is {fresh.get('acceptance')!r}")
    ref_flat, fresh_flat = {}, {}
    walk("", reference, ref_flat)
    walk("", fresh, fresh_flat)
    for path, value in fresh_flat.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf in EXACT_ZERO and value != 0:
            failures.append(f"{path}: {value:g} (must be 0)")
    for path, ref_value in ref_flat.items():
        if path.rsplit(".", 1)[-1] not in EXACT_EQUAL:
            continue
        if path not in fresh_flat:
            failures.append(f"{path}: missing (reference {ref_value:g})")
        elif fresh_flat[path] != ref_value:
            failures.append(
                f"{path}: {fresh_flat[path]:g} vs reference {ref_value:g} "
                f"(must be equal)"
            )

    ref_cores = reference.get("authoring_host", {}).get("cores")
    fresh_cores = fresh.get("authoring_host", {}).get("cores")
    if ref_cores != fresh_cores or ref_cores is None:
        print(
            f"note: reference authored on {ref_cores} core(s), this host "
            f"has {fresh_cores} — timings not comparable, diff skipped"
        )
    else:
        for path, ref_value in ref_flat.items():
            if path not in fresh_flat or ref_value <= 0:
                continue
            leaf = path.rsplit(".", 1)[-1]
            fresh_value = fresh_flat[path]
            if leaf.endswith(LOWER_IS_BETTER) and not leaf.endswith(
                HIGHER_IS_BETTER
            ):
                if fresh_value > ref_value * (1.0 + tolerance):
                    failures.append(
                        f"{path}: {fresh_value:g} vs reference "
                        f"{ref_value:g} (slower by more than "
                        f"{tolerance:.0%})"
                    )
            elif leaf.endswith(HIGHER_IS_BETTER):
                if fresh_value < ref_value * (1.0 - tolerance):
                    failures.append(
                        f"{path}: {fresh_value:g} vs reference "
                        f"{ref_value:g} (lower by more than "
                        f"{tolerance:.0%})"
                    )

    if failures:
        print(f"REGRESSION vs {sys.argv[1]}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: {sys.argv[2]} holds the line against {sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
