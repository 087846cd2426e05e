#!/usr/bin/env python
"""Profile model construction, compilation and solving (cProfile).

The optimization guides' first rule is "no optimization without
measuring"; this script is the measuring.  It profiles three phases of
a chosen formulation on a chosen workload scale and prints the hottest
functions, so regressions in the modeling layer (expression churn,
matrix assembly) show up as data instead of vibes:

* ``BUILD``   — constructing the model and building its full form
  (on first access to ``.model``): variables, rows, cuts.
* ``COMPILE`` — ``to_standard_form()``: flushing emitted blocks into
  the canonical CSR matrices the backends consume.
* ``SOLVE``   — the backend solve.

Solves through the ``bnb`` backend report LP time split across two
timers: ``phase.lp_ms`` (the simplex solve itself) and
``phase.lp_update_ms`` (pushing per-node bound updates into the
persistent LP session) — a growing update share points at the session
layer, not the solver.

Usage::

    python scripts/profile_models.py                       # csigma, small
    python scripts/profile_models.py --model delta --scale paper
    python scripts/profile_models.py --phases build,compile
    python scripts/profile_models.py --sort tottime --top 30
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from io import StringIO

from repro.evaluation.runner import MODEL_REGISTRY
from repro.tvnep.base import ModelOptions
from repro.workloads import paper_scenario, small_scenario

#: per-model default options (``None`` -> the class's own default)
_DEFAULT_OPTIONS = {
    "delta": ModelOptions.plain,
    "sigma": ModelOptions.plain,
    "csigma": ModelOptions,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=sorted(MODEL_REGISTRY), default="csigma")
    parser.add_argument("--scale", choices=["small", "paper"], default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flexibility", type=float, default=1.0)
    parser.add_argument("--num-requests", type=int, default=8)
    parser.add_argument("--time-limit", type=float, default=60.0)
    parser.add_argument("--phases", default="build,compile,solve",
                        help="comma-separated subset of build,compile,solve")
    parser.add_argument("--sort", default="cumulative")
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)

    phases = [p.strip() for p in args.phases.split(",") if p.strip()]
    unknown = set(phases) - {"build", "compile", "solve"}
    if unknown:
        parser.error(f"unknown phases: {sorted(unknown)}")

    if args.scale == "paper":
        scenario = paper_scenario(args.seed)
    else:
        scenario = small_scenario(args.seed, num_requests=args.num_requests)
    scenario = scenario.with_flexibility(args.flexibility)
    model_cls = MODEL_REGISTRY[args.model]
    options = _DEFAULT_OPTIONS[args.model]()

    # -- build phase -----------------------------------------------------
    build_profile = cProfile.Profile()
    build_profile.enable()
    model = model_cls(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings,
        options=options,
    )
    model.model  # the full form is built on first access
    build_profile.disable()

    # -- compile phase ---------------------------------------------------
    compile_profile = cProfile.Profile()
    compile_profile.enable()
    form = model.model.to_standard_form()
    compile_profile.disable()

    # -- solve phase -----------------------------------------------------
    solution = None
    solve_profile = cProfile.Profile()
    if "solve" in phases:
        solve_profile.enable()
        solution = model.solve(time_limit=args.time_limit)
        solve_profile.disable()

    print(f"instance: {scenario.label}, model: {args.model}")
    print(f"model stats: {model.stats()}")
    print(f"standard form: {form.num_vars} vars x "
          f"{form.num_constraints} constraints, {form.A.nnz} nonzeros")
    if solution is not None:
        print(f"solution: {solution.summary()}")
    print()
    profiles = {
        "build": build_profile,
        "compile": compile_profile,
        "solve": solve_profile,
    }
    for phase in phases:
        out = StringIO()
        stats = pstats.Stats(profiles[phase], stream=out)
        stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
        print(f"==== {phase.upper()} phase (top {args.top} by {args.sort}) ====")
        print(out.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
