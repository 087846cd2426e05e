"""Pinned reproductions of known upstream HiGHS presolve issues.

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
On a two-request Delta-Model (:func:`clash_instance`) it even proves
the model infeasible, although rejecting every request is feasible.
It also proves worse answers optimal on the node-only cSigma master of
``small_scenario(6, num_requests=3)`` at 1 h (12.681 for 16.967) and on
a two-request Sigma-Model (:func:`draw_instance`, 3.0 for 3.5).  Each
pin below skips once HiGHS gets the answer right; the companion tests
assert the optimum that presolve on and ``bnb`` recover.
"""

from __future__ import annotations

import pytest

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.tvnep import (
    CSigmaModel,
    DeltaModel,
    ModelOptions,
    SigmaModel,
    verify_solution,
)
from repro.workloads import small_scenario

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


def clash_instance():
    """Two requests that cannot overlap and cannot both avoid it."""
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 2.0)
    requests = [
        unit_request("R0", 0.5, 3.0, 1.5, 1.5),
        unit_request("R1", 1.0, 2.5, 1.0, 1.5),
    ]
    return substrate, requests


def test_highs_presolve_off_infeasible_verdict_pinned():
    """Documents the defect (update if HiGHS fixes it)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    form = DeltaModel(*clash_instance()).model.to_standard_form()
    res = milp(
        c=form.c,
        constraints=[LinearConstraint(form.A, form.row_lb, form.row_ub)],
        integrality=form.integrality,
        bounds=Bounds(form.lb, form.ub),
        options={"presolve": False, "disp": False},
    )
    if res.status == 0:
        pytest.skip("HiGHS presolve-off infeasible verdict appears fixed here")
    assert res.status == 2  # infeasible


MASTER_OPTIMUM = 16.966989959667586


def small_six_model():
    """cSigma on ``small_scenario(6, num_requests=3)`` at 1 h: its
    access-control ``solve`` proves the node-only master optimal in one
    round."""
    scenario = small_scenario(6, num_requests=3).with_flexibility(1.0)
    return CSigmaModel(
        scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
    )


def test_highs_presolve_off_master_behavior_pinned():
    """Documents the presolve-off defect on the master (update if fixed)."""
    solution = small_six_model().solve(time_limit=60, presolve=False)
    # the defect proves 12.681 (R00+R01) optimal; the optimum is R00+R02
    assert solution.status == "optimal"
    assert solution.objective in (
        pytest.approx(12.681457761878821),
        pytest.approx(MASTER_OPTIMUM),
    )
    if solution.objective == pytest.approx(MASTER_OPTIMUM):
        pytest.skip("HiGHS presolve-off issue on the cSigma master appears fixed here")


@pytest.mark.parametrize("kwargs", [{}, {"backend": "bnb"}], ids=["presolve", "bnb"])
def test_master_optimum_recovered(kwargs):
    solution = small_six_model().solve(time_limit=60, **kwargs)
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(MASTER_OPTIMUM)
    assert solution.embedded_names() == ["R00", "R02"]
    assert verify_solution(solution).feasible


def test_master_optimum_is_the_full_forms():
    assert small_six_model().solve_raw(time_limit=60).objective == pytest.approx(
        MASTER_OPTIMUM
    )


DRAW_OPTIMUM = 3.5


def draw_instance():
    """R1 fills the node for 2 h; R0 fits only after it."""
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 1.5)
    requests = [
        unit_request("R0", 1.5, 4.5, 1.0, 0.5),
        unit_request("R1", 1.5, 3.5, 2.0, 1.5),
    ]
    return substrate, requests


def test_highs_presolve_off_sigma_draw_behavior_pinned():
    """Documents the presolve-off defect on the Sigma-Model (update if fixed)."""
    solution = SigmaModel(*draw_instance()).solve(time_limit=60, presolve=False)
    # the defect proves 3.0 (R1 alone) optimal; R1 then R0 gives 3.5
    assert solution.status == "optimal"
    assert solution.objective in (
        pytest.approx(3.0),
        pytest.approx(DRAW_OPTIMUM),
    )
    if solution.objective == pytest.approx(DRAW_OPTIMUM):
        pytest.skip("HiGHS presolve-off issue on the Sigma draw appears fixed here")


@pytest.mark.parametrize(
    "model_cls, kwargs",
    [
        (SigmaModel, {}),
        (SigmaModel, {"backend": "bnb"}),
        (DeltaModel, {}),
        (CSigmaModel, {}),
    ],
    ids=["sigma-presolve", "sigma-bnb", "delta", "csigma"],
)
def test_draw_optimum_recovered(model_cls, kwargs):
    solution = model_cls(*draw_instance()).solve(time_limit=60, **kwargs)
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(DRAW_OPTIMUM)
    assert solution["R0"].embedded and solution["R1"].embedded
    assert verify_solution(solution).feasible
