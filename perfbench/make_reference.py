"""Regenerate ``reference.json``: reference outcomes and the cost-ordered pools.

Runs every candidate cell of the named workloads once, checks it with
``verify_solution``, and records its outcome and wall time.  An instance
enters a workload's pool only when every cell on it passes:

* insertion workloads: ``greedy_csigma`` and ``greedy_enumerative``
  must agree on accepted order, rejections, schedule and objective;
* exact workloads: the solve must prove optimality within
  ``cells.EXACT_POOL_LIMIT`` seconds (well inside ``cells.EXACT_TIME_LIMIT``).

Pools list ``[instance key, cost]`` sorted by reference wall time,
which :func:`cells.pick_instances` cuts into cost strata.  Run from the root
of a checkout::

    python3 perfbench/make_reference.py --workload insert-mip --workload insert-lp
    python3 perfbench/make_reference.py --workload exact-csigma --workload exact-bnb

Each invocation replaces only the named workloads' entries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from checkout import use_checkout_source

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--output", default=REFERENCE)
    args = parser.parse_args(argv)

    use_checkout_source()
    import cells

    computed: dict[str, dict] = {}
    for name in args.workload:
        for algorithm in cells.WORKLOADS[name].algorithms:
            scenario = cells.WARMUP.generate()
            cells.run_cell(algorithm, cells.WARMUP, scenario, references=None)
    pools: dict[str, list[str]] = {}
    for name in args.workload:
        workload = cells.WORKLOADS[name]
        algorithms = set(workload.algorithms)
        if name == "insert-mip":
            algorithms |= set(cells.CROSS_CHECKS.values())
        costs: dict[str, float] = {}
        for instance in workload.candidates:
            scenario = instance.generate()
            ok, cost = True, 0.0
            for algorithm in sorted(algorithms):
                key = cells.cell_key(algorithm, instance)
                if key not in computed:
                    computed[key] = _reference_cell(cells, algorithm, instance, scenario)
                entry = computed[key]
                ok = ok and entry["ok"]
                if algorithm in workload.algorithms:
                    cost += entry["wall_s"]
                if algorithm in cells.EXACT_ALGORITHMS:
                    ok = ok and entry["wall_s"] <= cells.EXACT_POOL_LIMIT
            for algorithm, twin in cells.CROSS_CHECKS.items():
                if algorithm in algorithms:
                    mine = computed[cells.cell_key(algorithm, instance)]
                    other = computed[cells.cell_key(twin, instance)]
                    if not (mine["ok"] and other["ok"]) or cells.compare_outcomes(
                        mine["outcome"], other["outcome"]
                    ):
                        print(f"  {instance.key}: {algorithm} != {twin}", flush=True)
                        ok = False
            print(f"{name} {instance.key} cost={cost:.3f}s ok={ok}", flush=True)
            if ok:
                costs[instance.key] = cost
        pools[name] = [
            [key, round(costs[key], 4)]
            for key in sorted(costs, key=lambda key: (costs[key], key))
        ]

    # read-modify-write, so invocations for other workloads keep theirs
    existing = {"cells": {}, "pools": {}}
    if os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as fh:
            existing = json.load(fh)
    for key, entry in computed.items():
        if entry["ok"]:
            existing["cells"][key] = {"outcome": entry["outcome"]}
    existing["pools"].update(pools)
    existing["cells"] = dict(sorted(existing["cells"].items()))
    existing["pools"] = dict(sorted(existing["pools"].items()))
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(existing, fh, indent=1)
        fh.write("\n")
    return 0


def _reference_cell(cells, algorithm, instance, scenario) -> dict:
    """Run one candidate cell with the gate's reference check switched off."""
    key = cells.cell_key(algorithm, instance)
    result = cells.run_cell(algorithm, instance, scenario, references=None)
    if result.errors:
        print(f"  {key}: {result.errors}", flush=True)
    return {"ok": not result.errors, "outcome": result.outcome, "wall_s": result.wall_s}


if __name__ == "__main__":
    sys.exit(main())
