#!/usr/bin/env python
"""Benchmark model construction for the greedy cSigma loop.

Runs Algorithm cSigma^G_A on one fixed-seed scenario under two model
construction formulations and writes a machine-readable summary
(``BENCH_model.json``).  Both run on the greedy's one growing
:class:`~repro.tvnep.incremental.IncrementalCSigmaModel` (each insertion
appends the new request's embedding block and rebuilds only the temporal
tail):

* ``legacy`` — ``formulation="legacy"``: per-entry ``LinExpr`` assembly;
* ``columnar`` — batched COO emission via the columnar emitter.

Both formulations compile every per-iteration model to a byte-identical
standard form, so the *parity gate* requires identical accepted sets,
rejection sets, objectives, and schedules across them — a timing result
without that equivalence is meaningless.  The *determinism gate* repeats
the ``columnar`` run and requires an identical deterministic metrics
snapshot and outcome.

Timing compares the ``model.build_ms`` timer (pure model-construction
wall time, excluding solving) between formulations.  The exit status is
the smoke check: nonzero on any parity or determinism violation, or
when the columnar build speedup over ``legacy`` falls below
``--min-speedup``.

Usage::

    PYTHONPATH=src python scripts/bench_model_build.py --output BENCH_model.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.observability import MetricsRegistry, deterministic_snapshot, use_registry
from repro.tvnep.base import ModelOptions
from repro.tvnep.greedy import greedy_csigma
from repro.workloads import small_scenario

STRATEGIES = ("legacy", "columnar")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--num-requests", type=int, default=16,
                        help="requests in the greedy run")
    parser.add_argument("--grid", type=int, nargs=2, default=(5, 5),
                        metavar=("ROWS", "COLS"),
                        help="substrate grid dimensions")
    parser.add_argument("--leaves", type=int, default=3,
                        help="star size of each virtual network")
    parser.add_argument("--flexibility", type=float, default=1.0)
    parser.add_argument("--backend", type=str, default="highs")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail when the columnar build speedup over "
                             "legacy falls below this "
                             "(1.0 = parity smoke only)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per formulation (best is kept)")
    parser.add_argument("--output", type=str, default="BENCH_model.json")
    return parser.parse_args(argv)


def outcome_fingerprint(result) -> dict:
    """The decision-relevant outcome of a greedy run, JSON-ready.

    Everything here must be bit-equal across formulations: the accepted
    order, the rejections, the final objective, and every accepted
    request's schedule window.
    """
    solution = result.solution
    return {
        "accepted_order": list(result.accepted_order),
        "rejected": sorted(
            name for name, sched in solution.scheduled.items()
            if not sched.embedded
        ),
        "objective": solution.objective,
        "schedules": {
            name: [sched.start, sched.end]
            for name, sched in sorted(solution.scheduled.items())
            if sched.embedded
        },
    }


def run_strategy(scenario, backend: str, formulation: str, repeats: int) -> dict:
    best = None
    for _ in range(repeats):
        registry = MetricsRegistry()
        options = ModelOptions(formulation=formulation)
        started = time.perf_counter()
        with use_registry(registry):
            result = greedy_csigma(
                scenario.substrate,
                scenario.requests,
                fixed_mappings=scenario.node_mappings,
                options=options,
                backend=backend,
            )
        elapsed = time.perf_counter() - started
        run = {
            "wall_clock_seconds": elapsed,
            "model_build_ms": registry.counter("model.build_ms"),
            "columnar_terms": int(registry.counter("model.columnar_terms")),
            "incremental_reuses": int(registry.counter("model.incremental_reuses")),
            "outcome": outcome_fingerprint(result),
            "deterministic_metrics": deterministic_snapshot(registry.snapshot()),
        }
        if best is None or run["model_build_ms"] < best["model_build_ms"]:
            best = run
    return best


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    scenario = small_scenario(
        args.seed,
        num_requests=args.num_requests,
        grid=tuple(args.grid),
        leaves=args.leaves,
    ).with_flexibility(args.flexibility)
    failures: list[str] = []

    print(f"greedy cSigma instance: seed={args.seed}, "
          f"requests={args.num_requests}, grid={tuple(args.grid)}, "
          f"leaves={args.leaves}, flexibility={args.flexibility}, "
          f"backend={args.backend}", flush=True)

    runs: dict[str, dict] = {}
    for name in STRATEGIES:
        runs[name] = run_strategy(
            scenario, args.backend, name, repeats=args.repeats
        )
        print(f"  {name:9s} build {runs[name]['model_build_ms']:8.1f} ms  "
              f"total {runs[name]['wall_clock_seconds']:.2f}s  "
              f"accepted {len(runs[name]['outcome']['accepted_order'])}",
              flush=True)

    # -- parity gate: identical decisions, objectives, and schedules ----
    reference = runs["legacy"]["outcome"]
    for name, run in runs.items():
        outcome = run["outcome"]
        for key in ("accepted_order", "rejected", "schedules"):
            if outcome[key] != reference[key]:
                failures.append(
                    f"{name} {key} diverged from legacy: "
                    f"{outcome[key]!r} != {reference[key]!r}"
                )
        ref_obj, obj = reference["objective"], outcome["objective"]
        same_objective = (
            obj == ref_obj
            or (math.isnan(obj) and math.isnan(ref_obj))
        )
        if not same_objective:
            failures.append(
                f"{name} objective {obj!r} != legacy {ref_obj!r}"
            )
    parity = not failures

    # -- determinism gate: repeating the columnar run changes nothing
    rerun = run_strategy(scenario, args.backend, "columnar", repeats=1)
    columnar = runs["columnar"]
    deterministic = (
        rerun["outcome"] == columnar["outcome"]
        and rerun["deterministic_metrics"] == columnar["deterministic_metrics"]
    )
    if not deterministic:
        failures.append("repeated columnar run diverged (nondeterministic)")

    # -- speedup gate ---------------------------------------------------
    base_ms = runs["legacy"]["model_build_ms"]
    columnar_ms = columnar["model_build_ms"]
    speedup = base_ms / columnar_ms if columnar_ms > 0 else float("inf")
    if speedup < args.min_speedup:
        failures.append(
            f"columnar build speedup {speedup:.2f}x "
            f"below floor {args.min_speedup}x"
        )

    stats = {
        "instance": {
            "seed": args.seed,
            "num_requests": args.num_requests,
            "grid": list(args.grid),
            "leaves": args.leaves,
            "flexibility": args.flexibility,
            "backend": args.backend,
            "algorithm": "greedy_csigma",
        },
        "strategies": {
            name: {k: v for k, v in run.items()
                   if k != "deterministic_metrics"}
            for name, run in runs.items()
        },
        "build_speedup_columnar_vs_legacy": speedup,
        "parity": parity,
        "deterministic": deterministic,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")

    print(f"columnar build speedup vs legacy: {speedup:.2f}x  "
          f"(reuses {columnar['incremental_reuses']})")
    print(f"parity: {parity}")
    print(f"deterministic: {deterministic}")
    print(f"wrote {args.output}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
