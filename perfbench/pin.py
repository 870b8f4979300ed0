"""Pin the reference outputs the benchmark checks against: writes perfbench/reference.json.

Runs every candidate op of every workload grid once and stores per group a
digest of its outputs and its time, the op count of a seeded run, and the
output digest of the default seed.  Each group runs cold, in a process of
its own, so its pinned time includes every cache it fills and does not depend
on which other groups a seed draws.  Seeded runs rank
groups by the pinned time to draw the same spread of costs, so re-pinning
changes the case lists; run it from the root of a checkout only when the
program's outputs are meant to change:

    python3 perfbench/pin.py

It also prints each stratum's op latencies (min / median / max, in ms), which
is how the cost bands in workloads.py were chosen.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run
import workloads

DEFAULT_SEED = 0


def pin_pass(dj, workload: str, pool, info) -> dict:
    """A pass over the pool in which every group runs cold (a cli-cold call always does)."""
    if workload == "cli-cold":
        return run.run_pass(dj, workload, pool, info, traced=False)
    by_group: dict[str, list[int]] = {}
    for i, op in enumerate(pool):
        by_group.setdefault(op.group, []).append(i)
    merged = {key: [None] * len(pool) for key in ("latencies", "oks", "op_digests")}
    for indices in by_group.values():
        result = run.run_pass(dj, workload, [pool[i] for i in indices], info, traced=False)
        for key, values in merged.items():
            for i, value in zip(indices, result[key]):
                values[i] = value
    return merged


def main() -> int:
    dj = run.load_package(Path.cwd() / "src")
    reference = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        (pool, info), _ = run.in_child(run.case_info, dj, workload, None)
        result = pin_pass(dj, workload, pool, info)
        failures = [op.key for op, ok in zip(pool, result["oks"]) if not ok]
        if failures:
            print(f"{workload}: {len(failures)} candidate ops fail, e.g. {failures[:3]}", file=sys.stderr)
            return 1
        costs: dict[str, float] = {}
        for op, t in zip(pool, result["latencies"]):
            costs[op.group] = costs.get(op.group, 0.0) + 1000 * t
        costs = {group: round(ms, 2) for group, ms in costs.items()}
        seeded, _ = run.in_child(workloads.build_ops, dj, workload, DEFAULT_SEED, costs)
        by_key = dict(zip((op.key for op in pool), result["op_digests"]))
        reference["workloads"][workload] = {
            "ops": len(seeded),
            "default_digest": workloads.output_digest([by_key[op.key] for op in seeded]),
            "groups": workloads.group_digests(pool, result["op_digests"]),
            "cost_ms": costs,
        }
        strata: dict[str, list[float]] = {}
        for op, latency in zip(pool, result["latencies"]):
            stratum = op.key[1] if op.key[0] == "cli" else op.group.split(":")[0]
            strata.setdefault(stratum, []).append(1000 * latency)
        for stratum, ms in sorted(strata.items()):
            print(f"{workload:<15} {stratum:<18} n={len(ms):<6} min {min(ms):9.1f}  median "
                  f"{statistics.median(ms):9.1f}  max {max(ms):9.1f} ms", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
