"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Produce a synthetic workload instance file (paper or laptop scale).
``solve``
    Solve an instance with a chosen formulation and objective; write
    the solution (and optionally the LP file) to disk.
``verify``
    Re-check a solution file against its instance (Definition 2.1).
``check``
    Lint an instance file for legal-but-hopeless configurations.
``evaluate``
    Run the Figures 3-9 harness (same engine as
    ``benchmarks/run_figures.py``).

Example
-------
::

    python -m repro generate --seed 0 --flexibility 1.0 -o day.json
    python -m repro solve day.json --model csigma -o day-solution.json
    python -m repro verify day.json day-solution.json
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from repro.exceptions import SolverError, ValidationError
from repro.io import Instance, load_instance, load_solution, save_instance, save_solution

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Temporal VNet Embedding (TVNEP) toolkit"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="verbosity of the repro.runtime resilience log",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance")
    gen.add_argument("--scale", choices=["small", "paper"], default="small")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-requests", type=int, default=None)
    gen.add_argument("--flexibility", type=float, default=0.0)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument(
        "--model",
        choices=["csigma", "sigma", "delta", "discrete", "greedy"],
        default="csigma",
    )
    solve.add_argument(
        "--objective",
        choices=[
            "access_control",
            "max_earliness",
            "balance_node_load",
            "disable_links",
            "min_makespan",
        ],
        default="access_control",
    )
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument(
        "--backend", choices=["highs", "bnb", "resilient"], default="highs"
    )
    solve.add_argument(
        "--wall-clock-budget",
        type=float,
        default=None,
        help="global wall-clock budget [s] for the whole solve",
    )
    solve.add_argument("--slot-length", type=float, default=0.5,
                       help="grid resolution for --model discrete")
    solve.add_argument("-o", "--output", default=None)
    solve.add_argument("--lp-out", default=None, help="also dump the LP file")
    solve.add_argument("--gantt", action="store_true",
                       help="print a schedule Gantt chart and utilization table")
    solve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured solve trace (JSONL, see "
        "docs/observability.md) to PATH",
    )
    solve.add_argument(
        "--metrics-summary",
        action="store_true",
        help="print the solve's metrics registry (deterministic metrics "
        "first, *_ms timing after a blank line)",
    )

    verify = sub.add_parser("verify", help="verify a solution file")
    verify.add_argument("instance")
    verify.add_argument("solution")

    check = sub.add_parser("check", help="lint an instance file")
    check.add_argument("instance")

    evaluate = sub.add_parser("evaluate", help="run the Figures 3-9 harness")
    evaluate.add_argument("--quick", action="store_true")
    evaluate.add_argument("--paper", action="store_true")
    evaluate.add_argument("--seeds", type=int, nargs="+", default=None)
    evaluate.add_argument("--time-limit", type=float, default=None)
    evaluate.add_argument(
        "--wall-clock-budget",
        type=float,
        default=None,
        help="global wall-clock budget [s] for the whole sweep",
    )
    evaluate.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the backend fallback chain (fail cells instead)",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (1 = in-process serial); "
        "parallel runs produce the same records as serial ones",
    )
    evaluate.add_argument("--charts", action="store_true")
    evaluate.add_argument("--store", default=None,
                          help="JSON-lines record store (enables resume)")
    evaluate.add_argument("--output", default=None)
    evaluate.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write per-cell solve traces (JSONL, serial cell order) to "
        "PATH — identical for serial and parallel sweeps",
    )
    evaluate.add_argument(
        "--metrics-summary",
        action="store_true",
        help="print the sweep's merged metrics registry after the figures",
    )

    return parser


# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import paper_scenario, small_scenario

    if args.scale == "paper":
        scenario = paper_scenario(args.seed)
    else:
        kwargs = {}
        if args.num_requests is not None:
            kwargs["num_requests"] = args.num_requests
        scenario = small_scenario(args.seed, **kwargs)
    if args.flexibility:
        scenario = scenario.with_flexibility(args.flexibility)
    instance = Instance(
        substrate=scenario.substrate,
        requests=scenario.requests,
        node_mappings={
            name: {str(v): str(s) for v, s in mapping.items()}
            for name, mapping in scenario.node_mappings.items()
        },
    )
    save_instance(instance, args.output)
    print(
        f"wrote {args.output}: {len(instance.requests)} requests on "
        f"{instance.substrate.num_nodes} nodes / "
        f"{instance.substrate.num_links} links"
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace

    registry = MetricsRegistry()
    trace = SolveTrace() if args.trace else None
    with use_registry(registry), use_trace(trace):
        code = _run_solve(args)
    if args.trace:
        count = trace.write(args.trace)
        print(f"wrote {count} trace event(s) to {args.trace}")
    if args.metrics_summary:
        print()
        print("\n".join(registry.summary_lines()))
    return code


def _run_solve(args: argparse.Namespace) -> int:
    from repro.tvnep import (
        CSigmaModel,
        DeltaModel,
        DiscreteTimeModel,
        SigmaModel,
        greedy_csigma,
        verify_solution,
    )
    from repro.tvnep.objectives import OBJECTIVES

    instance = load_instance(args.instance)
    mappings = instance.node_mappings or None
    budget = None
    if args.wall_clock_budget is not None:
        from repro.runtime import SolveBudget

        budget = SolveBudget(args.wall_clock_budget)

    if args.model == "greedy":
        if args.objective != "access_control":
            print("greedy only supports the access_control objective", file=sys.stderr)
            return 2
        if not mappings:
            print("greedy requires node mappings in the instance", file=sys.stderr)
            return 2
        solution = greedy_csigma(
            instance.substrate,
            instance.requests,
            mappings,
            time_limit=args.time_limit,
            budget=budget,
        ).solution
    elif args.model == "discrete":
        model = DiscreteTimeModel(
            instance.substrate,
            instance.requests,
            slot_length=args.slot_length,
            fixed_mappings=mappings,
        )
        solution = model.solve(
            backend=args.backend, time_limit=args.time_limit, budget=budget
        )
    else:
        cls = {"csigma": CSigmaModel, "sigma": SigmaModel, "delta": DeltaModel}[
            args.model
        ]
        force_embedded: list[str] = []
        if args.objective != "access_control":
            force_embedded = [r.name for r in instance.requests]
        model = cls(
            instance.substrate,
            instance.requests,
            fixed_mappings=mappings,
            force_embedded=force_embedded,
        )
        OBJECTIVES[args.objective](model)
        if args.lp_out:
            from repro.mip import write_lp_file

            write_lp_file(model.model, args.lp_out)
            print(f"wrote LP file {args.lp_out}")
        solution = model.solve(
            backend=args.backend, time_limit=args.time_limit, budget=budget
        )

    print(solution.summary())
    if getattr(solution, "rung", ""):
        print(f"answered by fallback rung: {solution.rung}")
    if math.isnan(solution.objective):
        print("no solution found", file=sys.stderr)
        return 1
    report = verify_solution(solution, check_windows=args.objective == "access_control")
    print("verifier:", "feasible" if report.feasible else report.violations[:3])
    for name, entry in solution.scheduled.items():
        status = (
            f"[{entry.start:.3f}, {entry.end:.3f}]"
            if entry.embedded
            else "rejected"
        )
        print(f"  {name}: {status}")
    if args.gantt:
        from repro.evaluation.gantt import render_gantt, utilization_report

        print()
        print(render_gantt(solution))
        print()
        print(utilization_report(solution, top=10))
    if args.output:
        save_solution(solution, args.output)
        print(f"wrote {args.output}")
    return 0 if report.feasible else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.tvnep import verify_solution

    instance = load_instance(args.instance)
    solution = load_solution(args.solution, instance)
    report = verify_solution(solution)
    if report.feasible:
        print(
            f"feasible: {solution.num_embedded}/{len(solution.scheduled)} "
            f"embedded, objective={solution.objective:.6g}"
        )
        return 0
    print("INFEASIBLE:")
    for violation in report.violations:
        print(f"  - {violation}")
    return 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.network.validation import lint_instance

    instance = load_instance(args.instance)
    report = lint_instance(
        instance.substrate, instance.requests, instance.node_mappings
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.evaluation import Evaluation, EvaluationConfig

    if args.paper:
        config = EvaluationConfig.paper()
    elif args.quick:
        config = EvaluationConfig.quick()
    else:
        config = EvaluationConfig()
    if args.seeds is not None:
        config = replace(config, seeds=tuple(args.seeds))
    if args.time_limit is not None:
        config = replace(config, time_limit=args.time_limit)
    if args.wall_clock_budget is not None:
        config = replace(config, wall_clock_budget=args.wall_clock_budget)
    if args.no_fallback:
        config = replace(config, fallback=False)
    if args.workers != 1:
        config = replace(config, workers=args.workers)

    from repro.observability import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        evaluation = Evaluation(
            config, store_path=args.store, trace_path=args.trace
        )
        report = evaluation.render_all(charts=args.charts)
    print(report)
    if args.trace:
        print(f"wrote trace events to {args.trace}")
    if args.metrics_summary:
        print()
        print("\n".join(registry.summary_lines()))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()))
    try:
        return _COMMANDS[args.command](args)
    except (SolverError, ValidationError, OSError) as exc:
        # one-line diagnostic instead of a traceback; nonzero exit so
        # shell pipelines and CI notice the failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
