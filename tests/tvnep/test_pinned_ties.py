"""Property tests for greedy-style pinned schedules with tied times.

The paper-scale run exposed a bug class the uniform random instances
never hit: chains of zero-flexibility requests whose boundaries *tie*
exactly (or to within solver noise), mixed with flexible requests.
These tests generate exactly that shape and assert the fully-featured
cSigma-Model agrees with the cut-free baseline — on both feasibility
and optimum.  HiGHS can prove a worse answer optimal even with presolve
off (``test_known_solver_issues.py``), so when the two HiGHS optima
differ, ``bnb`` arbitrates.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.tvnep import CSigmaModel, ModelOptions, verify_solution


def unit_request(name, t_s, t_e, d, demand=1.0):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


@st.composite
def pinned_chain_instance(draw):
    """Back-to-back pinned requests (with optional noise at the joints)
    plus one or two flexible requests over the whole span."""
    num_pinned = draw(st.integers(2, 5))
    noise_exp = draw(st.sampled_from([0, -13, -11, -9]))
    noise = 0.0 if noise_exp == 0 else 10.0 ** noise_exp
    demand = draw(st.sampled_from([0.4, 0.5, 1.0]))

    requests = []
    t = 0.0
    for i in range(num_pinned):
        duration = draw(st.integers(1, 3)) * 1.0
        sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        start = max(0.0, t + sign * noise)
        requests.append(
            unit_request(f"P{i}", start, start + duration, duration, demand)
        )
        t = start + duration
    horizon = t
    for j in range(draw(st.integers(1, 2))):
        duration = draw(st.integers(1, 3)) * 1.0
        requests.append(
            unit_request(
                f"F{j}",
                0.0,
                max(horizon, duration) + 2.0,
                duration,
                demand,
            )
        )
    capacity = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return capacity, requests


#: the pinned chain of ``test_known_solver_issues.chain_instance``, on
#: which HiGHS with presolve off mis-proves the cut-free optimum
PRESOLVE_OFF_CHAIN = (
    1.0,
    [
        unit_request("P0", 0.0, 2.0, 2.0),
        unit_request("P1", 2.0, 5.0, 3.0),
        unit_request("P2", 5.0, 6.0, 1.0),
        unit_request("F0", 0.0, 8.0, 1.0),
        unit_request("F1", 0.0, 8.0, 1.0),
    ],
)


@settings(max_examples=25, deadline=None)
@given(pinned_chain_instance())
@example(PRESOLVE_OFF_CHAIN)
def test_cuts_agree_with_plain_on_pinned_chains(params):
    capacity, requests = params
    substrate = SubstrateNetwork()
    substrate.add_node("s", capacity)

    def solve(options, **kwargs):
        return CSigmaModel(substrate, requests, options=options).solve(
            time_limit=60, **kwargs
        )

    plain = solve(ModelOptions.plain(), presolve=False)
    full = solve(ModelOptions(), presolve=False)
    if full.objective != pytest.approx(plain.objective, abs=1e-4):
        # one HiGHS answer is a mis-proof; bnb must side with the better
        plain_bnb = solve(ModelOptions.plain(), backend="bnb")
        full_bnb = solve(ModelOptions(), backend="bnb")
        assert full_bnb.objective == pytest.approx(plain_bnb.objective, abs=1e-4), (
            f"cuts changed the optimum: {full_bnb.objective} vs {plain_bnb.objective}"
        )
        best = max(full.objective, plain.objective)
        assert full_bnb.objective == pytest.approx(best, abs=1e-4)
    assert verify_solution(full).feasible


@settings(max_examples=25, deadline=None)
@given(pinned_chain_instance())
def test_forced_pinned_chains_stay_feasible(params):
    """If the whole pinned chain fits alone (capacity allows), forcing
    it embedded must never be infeasible under any option set."""
    capacity, requests = params
    pinned = [r for r in requests if r.name.startswith("P")]
    # chain demands never overlap in time, so it fits iff demand <= cap
    if pinned[0].vnet.node_demand("v") > capacity:
        return
    substrate = SubstrateNetwork()
    substrate.add_node("s", capacity)
    names = [r.name for r in pinned]
    for options in (ModelOptions(), ModelOptions.plain()):
        solution = CSigmaModel(
            substrate, pinned, force_embedded=names, options=options
        ).solve(time_limit=60)
        assert solution.num_embedded == len(pinned), (
            f"options {options} rejected a trivially feasible pinned chain"
        )
