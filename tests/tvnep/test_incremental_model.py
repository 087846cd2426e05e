"""Tests of the incremental cSigma model behind the greedy loop.

The load-bearing invariant: at every point of a greedy run, the growing
:class:`~repro.tvnep.incremental.IncrementalCSigmaModel` compiles to a
standard form *byte-identical* to a fresh
:class:`~repro.tvnep.csigma_model.CSigmaModel` built over the same
pinned request list — from an empty start (the greedy) and from a
decided prefix (the hybrid's heavy-hitters).  End to end, the greedy
and hybrid outcomes (accepted order, objective, schedules) are pinned
to the values the historical fresh-model-per-iteration loop produced.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.network import Request, TemporalSpec, line_substrate
from repro.network.topologies import star
from repro.tvnep import CSigmaModel, greedy_csigma
from repro.tvnep.base import ModelOptions
from repro.tvnep.hybrid import hybrid_heavy_hitters
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.vnep import random_node_mapping
from repro.workloads import small_scenario


def assert_forms_equal(a, b) -> None:
    """Byte-level equality of two compiled standard forms."""
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert a.constraint_names == b.constraint_names
    assert np.array_equal(a.c, b.c)
    assert a.c0 == b.c0
    assert a.sense_sign == b.sense_sign
    assert np.array_equal(a.A.indptr, b.A.indptr)
    assert np.array_equal(a.A.indices, b.A.indices)
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.row_lb, b.row_lb)
    assert np.array_equal(a.row_ub, b.row_ub)
    assert np.array_equal(a.lb, b.lb)
    assert np.array_equal(a.ub, b.ub)
    assert np.array_equal(a.integrality, b.integrality)


def star_instance(num_requests: int = 5):
    """Star requests with link demands on a 3-node line substrate."""
    substrate = line_substrate(3, node_capacity=3.0, link_capacity=2.0)
    requests = []
    mappings = {}
    for i in range(num_requests):
        vnet = star(f"R{i}", leaves=2, node_demand=1.0, link_demand=0.5)
        request = Request(vnet, TemporalSpec(float(i), float(i) + 6.0, 3.0))
        requests.append(request)
        mappings[request.name] = random_node_mapping(substrate, request, rng=i)
    return substrate, requests, mappings


class TestScriptedIterationParity:
    """Replay a scripted greedy run; compare against fresh models."""

    @pytest.mark.parametrize("prefix", [0, 2])
    def test_every_iteration_matches_a_fresh_model(self, prefix):
        substrate, requests, mappings = star_instance()
        horizon = max(r.latest_end for r in requests)
        options = replace(ModelOptions(), time_horizon=horizon)
        inc = IncrementalCSigmaModel(substrate, options=options, horizon=horizon)

        current: dict[str, Request] = {}
        accepted: list[str] = []
        rejected: list[str] = []

        def decide(position: int, request: Request) -> None:
            # scripted outcome: accept evens at the earliest slot,
            # reject odds (Definition 2.1 pins times either way)
            pinned = request.with_schedule(
                request.earliest_start,
                request.earliest_start + request.duration,
            )
            current[request.name] = pinned
            if position % 2 == 0:
                accepted.append(request.name)
                inc.decide(request.name, True, pinned)
            else:
                rejected.append(request.name)
                inc.decide(request.name, False, pinned)

        # the hybrid's start state: a prefix inserted and decided before
        # the first tail rebuild
        for position, request in enumerate(requests[:prefix]):
            current[request.name] = request
            inc.insert(request, mappings[request.name])
            decide(position, request)
        for position, request in enumerate(requests[prefix:], start=prefix):
            current[request.name] = request
            inc.insert(request, mappings[request.name])
            inc.rebuild_tail()
            fresh = CSigmaModel(
                substrate,
                list(current.values()),
                fixed_mappings={name: mappings[name] for name in current},
                force_embedded=accepted,
                force_rejected=rejected,
                options=options,
            )
            assert_forms_equal(
                inc.model.to_standard_form(), fresh.model.to_standard_form()
            )
            decide(position, request)

        # the final fully-pinned model (one more tail rebuild) matches too
        inc.rebuild_tail()
        final = CSigmaModel(
            substrate,
            list(current.values()),
            fixed_mappings=dict(mappings),
            force_embedded=accepted,
            force_rejected=rejected,
            options=options,
        )
        assert_forms_equal(
            inc.model.to_standard_form(), final.model.to_standard_form()
        )


class TestLifecycle:
    def options(self, horizon=10.0):
        return replace(ModelOptions(), time_horizon=horizon)

    def test_horizon_is_required(self):
        substrate, _, _ = star_instance(1)
        with pytest.raises(ValidationError, match="horizon"):
            IncrementalCSigmaModel(substrate, options=ModelOptions())

    def test_duplicate_insert_rejected(self):
        substrate, requests, mappings = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        inc.insert(requests[0], mappings[requests[0].name])
        with pytest.raises(ValidationError, match="already inserted"):
            inc.insert(requests[0], mappings[requests[0].name])

    def test_request_beyond_horizon_rejected(self):
        substrate, requests, mappings = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(4.0), horizon=4.0)
        with pytest.raises(ValidationError, match="horizon"):
            inc.insert(requests[0], mappings[requests[0].name])
        assert requests[0].name not in inc.embeddings

    def test_rebuild_with_no_requests_rejected(self):
        substrate, _, _ = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        with pytest.raises(ValidationError, match="at least one request"):
            inc.rebuild_tail()

    def test_decide_is_bound_only(self):
        substrate, requests, mappings = star_instance(2)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        for request in requests:
            inc.insert(request, mappings[request.name])
        nnz_before = inc.model.to_standard_form().A.nnz
        pinned = requests[0].with_schedule(0.0, 3.0)
        inc.decide(requests[0].name, True, pinned)
        emb = inc.embeddings[requests[0].name]
        assert emb.x_embed.lb == emb.x_embed.ub == 1.0
        assert inc.model.to_standard_form().A.nnz == nnz_before
        inc.decide(requests[0].name, False, pinned)
        assert emb.x_embed.lb == emb.x_embed.ub == 0.0

    def test_failed_insert_rolls_back_cleanly(self):
        substrate, requests, mappings = star_instance(2)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        inc.insert(requests[0], mappings[requests[0].name])
        before_vars = inc.model.num_vars
        before_rows = inc.model.num_constraints
        bad_mapping = {v: "no-such-node" for v in requests[1].vnet.nodes}
        with pytest.raises(Exception):
            inc.insert(requests[1], bad_mapping)
        assert requests[1].name not in inc.embeddings
        assert inc.model.num_vars == before_vars
        assert inc.model.num_constraints == before_rows
        # the model is still usable: insert the request properly now
        inc.insert(requests[1], mappings[requests[1].name])
        inc.rebuild_tail()


#: Outcomes of the historical fresh-model-per-iteration loop, which the
#: incremental loop matched exactly: ``(order, objective, {name:
#: (embedded, start, end)})``.  ``order`` is the greedy's accepted order,
#: or the hybrid's request order in the solution (heavy-hitters by
#: revenue, then small requests by earliest start).
GREEDY_OUTCOMES = {
    0: (
        ["R00", "R01", "R03"],
        30.31637090810265,
        {
            "R00": (True, 0.6799319039689098, 3.233314315327134),
            "R01": (True, 1.6995290054347743, 3.340970996693962),
            "R02": (False, 1.7193356680238296, 3.4574971770043863),
            "R03": (True, 1.7216049947050576, 5.07826165219967),
            "R04": (False, 2.271947867344106, 7.194448484080511),
        },
    ),
    1: (
        ["R00", "R01", "R02", "R03", "R04"],
        34.53731148284954,
        {
            "R00": (True, 1.0730290263725388, 3.7561593516871983),
            "R01": (True, 1.381482170497823, 2.7937698152139396),
            "R02": (True, 6.756919043105951, 8.242074087973263),
            "R03": (True, 7.123346156005781, 7.468097904150883),
            "R04": (True, 7.238708195112585, 8.98692617914278),
        },
    ),
    2: (
        ["R00", "R02", "R03", "R04"],
        27.40270637601431,
        {
            "R00": (True, 0.1298611360039863, 2.4448326197698873),
            "R01": (False, 0.34864400252205674, 1.3438621491792238),
            "R02": (True, 0.8621229959064691, 1.6975555099900457),
            "R03": (True, 1.5696107998980777, 2.9917921675068486),
            "R04": (True, 2.7827652247077204, 4.299566623684647),
        },
    ),
}
HYBRID_OUTCOME = (
    ["R05", "R02", "R00", "R01", "R03", "R04"],
    35.717252994116436,
    {
        "R05": (True, 5.7006900823925655, 9.360000665545275),
        "R02": (True, 1.8992126443709818, 3.900173980287982),
        "R00": (True, 0.11001481267803959, 1.428417655614922),
        "R01": (True, 0.4996716862517435, 1.140275370404153),
        "R03": (True, 4.099360740152362, 4.614367689170664),
        "R04": (False, 4.4428545593206845, 5.786372899731656),
    },
)
BNB_GREEDY_OUTCOME = (
    ["R01", "R02"],
    19.088357624109307,
    {
        "R00": (False, 0.6799319039689096, 2.1636338587280832),
        "R01": (True, 1.6995290054347745, 4.252911416792999),
        "R02": (True, 1.71933566802383, 3.360777659283018),
        "R03": (False, 1.7216049947050578, 3.4597665036856142),
    },
)


def assert_outcome(order, solution, expected) -> None:
    expected_order, expected_objective, expected_schedules = expected
    assert order == expected_order
    assert solution.objective == pytest.approx(expected_objective, abs=1e-6)
    assert set(solution.scheduled) == set(expected_schedules)
    for name, (embedded, start, end) in expected_schedules.items():
        sched = solution.scheduled[name]
        assert sched.embedded is embedded, name
        assert sched.start == pytest.approx(start, abs=1e-6), name
        assert sched.end == pytest.approx(end, abs=1e-6), name


class TestPinnedOutcomes:
    """End-to-end: the insertion loop reproduces the pinned outcomes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_reproduces_pinned_outcome(self, seed):
        scenario = small_scenario(seed, num_requests=5).with_flexibility(1.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        )
        assert_outcome(result.accepted_order, result.solution, GREEDY_OUTCOMES[seed])

    def test_hybrid_reproduces_pinned_outcome(self):
        scenario = small_scenario(3, num_requests=6).with_flexibility(1.0)
        result = hybrid_heavy_hitters(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
            heavy_fraction=0.34,
        )
        assert_outcome(
            list(result.solution.scheduled), result.solution, HYBRID_OUTCOME
        )

    def test_greedy_on_bnb_reproduces_pinned_outcome(self):
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
            backend="bnb",
        )
        assert_outcome(result.accepted_order, result.solution, BNB_GREEDY_OUTCOME)
