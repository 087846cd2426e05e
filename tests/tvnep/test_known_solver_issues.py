"""Pinned reproduction of a known upstream HiGHS presolve issue.

On a model whose optimum requires several big-M rows and variable
bounds to be simultaneously binding (a boundary-tight schedule in the
full-layout Sigma-Model), the HiGHS build bundled with SciPy can
presolve away the true optimum and *prove* a worse solution optimal.
The library mitigates by exposing ``presolve=False`` on the HiGHS
backend and by shipping a second backend (the pure-Python
branch-and-bound), both of which recover the optimum here.

This test pins the behavior: if a future SciPy/HiGHS upgrade fixes the
presolve, the first assertion starts failing and the workaround (and
this file) can be retired.

Presolve off is no cure-all either: on a pinned chain in the cut-free
cSigma-Model (:func:`chain_instance`), HiGHS with presolve *off* proves
a worse answer optimal, while presolve on and ``bnb`` find the optimum.
"""

from __future__ import annotations

import pytest

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.tvnep import CSigmaModel, ModelOptions, SigmaModel, verify_solution

TRUE_OPTIMUM = 4.75


def unit_request(name, t_s, t_e, d, demand):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


def instance():
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 2.0)
    requests = [
        unit_request("R0", 0.0, 1.5, 1.5, 1.0),
        unit_request("R1", 1.5, 4.0, 1.0, 1.5),
        unit_request("R2", 1.0, 3.0, 1.0, 1.0),
        unit_request("R3", 1.0, 2.0, 0.5, 1.5),
    ]
    return substrate, requests


def test_highs_default_presolve_behavior_pinned():
    """Documents the upstream defect (update if SciPy's HiGHS fixes it)."""
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(time_limit=60)
    # the defect mis-proves 4.0 optimal; a fixed HiGHS would return 4.75
    assert solution.objective in (
        pytest.approx(4.0),
        pytest.approx(TRUE_OPTIMUM),
    )
    if solution.objective == pytest.approx(TRUE_OPTIMUM):
        pytest.skip("upstream HiGHS presolve issue appears fixed here")


def test_presolve_off_recovers_optimum():
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(
        time_limit=60, presolve=False
    )
    assert solution.objective == pytest.approx(TRUE_OPTIMUM)
    assert verify_solution(solution).feasible


def test_bnb_backend_recovers_optimum():
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(
        backend="bnb", time_limit=120
    )
    assert solution.objective == pytest.approx(TRUE_OPTIMUM)
    assert verify_solution(solution).feasible


CHAIN_OPTIMUM = 8.0


def chain_instance():
    """Three back-to-back pinned requests, then two flexible ones."""
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 1.0)
    requests = [
        unit_request("P0", 0.0, 2.0, 2.0, 1.0),
        unit_request("P1", 2.0, 5.0, 3.0, 1.0),
        unit_request("P2", 5.0, 6.0, 1.0, 1.0),
        unit_request("F0", 0.0, 8.0, 1.0, 1.0),
        unit_request("F1", 0.0, 8.0, 1.0, 1.0),
    ]
    return substrate, requests


def solve_plain_chain(**kwargs):
    substrate, requests = chain_instance()
    return CSigmaModel(substrate, requests, options=ModelOptions.plain()).solve(
        time_limit=60, **kwargs
    )


def test_highs_presolve_off_chain_behavior_pinned():
    """Documents the presolve-off defect (update if HiGHS fixes it)."""
    solution = solve_plain_chain(presolve=False)
    # the defect proves 7.0 optimal (F1 rejected); a fixed HiGHS gives 8.0
    assert solution.status == "optimal"
    assert solution.objective in (
        pytest.approx(7.0),
        pytest.approx(CHAIN_OPTIMUM),
    )
    if solution.objective == pytest.approx(CHAIN_OPTIMUM):
        pytest.skip("HiGHS presolve-off issue on the pinned chain appears fixed here")


@pytest.mark.parametrize("kwargs", [{}, {"backend": "bnb"}], ids=["presolve", "bnb"])
def test_chain_optimum_recovered(kwargs):
    solution = solve_plain_chain(**kwargs)
    assert solution.objective == pytest.approx(CHAIN_OPTIMUM)
    assert solution["F0"].embedded and solution["F1"].embedded
    assert verify_solution(solution).feasible
