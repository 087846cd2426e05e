"""The event-driven presolve against its executable spec, the full sweep.

``tests/mip/reference_presolve.py`` keeps the sweep that visits every
row in every round with numpy reductions; the event-driven
``tighten_bounds`` must return a bit-identical ``PresolveResult`` on
every form: the same ``lb``/``ub`` bytes, ``feasible``, ``tightenings``
and ``rounds``, also on an infeasible early exit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tvnep
from repro.mip.bnb.presolve import _numpy_sum, tighten_bounds
from repro.workloads import small_scenario

from .reference_presolve import assert_matches_reference
from .test_presolve import raw_form


def scenario_form(model_cls, seed, num_requests, flexibility=1.0):
    scenario = small_scenario(seed, num_requests=num_requests).with_flexibility(
        flexibility
    )
    model = model_cls(
        scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
    )
    return model.model.to_standard_form()


class TestNumpySum:
    def test_matches_add_reduce_at_every_length(self):
        """A numpy release that reorders its float64 sum fails here."""
        rng = np.random.default_rng(7)
        for n in range(301):
            for _ in range(3):
                values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
                assert np.float64(_numpy_sum(values.tolist())).tobytes() == (
                    np.add.reduce(values).tobytes()
                )

    def test_signed_zeros(self):
        for n in (0, 1, 7, 8, 9, 129, 300):
            values = np.full(n, -0.0)
            assert np.float64(_numpy_sum(values.tolist())).tobytes() == (
                np.add.reduce(values).tobytes()
            )


class TestStoredZero:
    """A ``StandardForm`` built by hand can store a ``0.0`` coefficient.

    (``Model``'s compile drops zero terms.)  A stored zero constrains
    nothing, so both sweeps drop it: the box stays feasible, the zero
    column keeps its bounds, and the result is that of the same form
    without the stored entry.
    """

    def form(self, zero, row_lb=-np.inf, row_ub=5.0):
        form = raw_form(
            A=[[1.0, 1.0]],
            row_lb=[row_lb],
            row_ub=[row_ub],
            lb=[0.0, 0.0],
            ub=[10.0, 10.0],
            integrality=[0.0, 0.0],
        )
        form.A.data[1] = zero
        assert form.A.nnz == 2
        return form

    def without_zero(self, row_lb=-np.inf, row_ub=5.0):
        return raw_form(
            A=[[1.0, 0.0]],
            row_lb=[row_lb],
            row_ub=[row_ub],
            lb=[0.0, 0.0],
            ub=[10.0, 10.0],
            integrality=[0.0, 0.0],
        )

    def check(self, zero, expected_lb, expected_ub, **row):
        form = self.form(zero, **row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = assert_matches_reference(form)
        assert form.A.nnz == 2  # the caller's form is not mutated
        assert result.feasible
        assert result.lb.tolist() == expected_lb
        assert result.ub.tolist() == expected_ub
        clean = tighten_bounds(self.without_zero(**row), form.lb, form.ub)
        assert result.lb.tobytes() == clean.lb.tobytes()
        assert result.ub.tobytes() == clean.ub.tobytes()
        assert (result.tightenings, result.rounds) == (clean.tightenings, clean.rounds)

    def test_positive_zero_matches_the_sweep(self):
        self.check(0.0, [0.0, 0.0], [5.0, 10.0])

    def test_negative_zero_matches_the_sweep(self):
        self.check(-0.0, [0.0, 0.0], [5.0, 10.0])

    def test_ranged_row_matches_the_sweep(self):
        self.check(0.0, [2.0, 0.0], [5.0, 10.0], row_lb=2.0)

    def test_zero_over_zero_matches_the_sweep(self):
        # row_hi is exactly 0: the zero column still keeps its bounds
        self.check(0.0, [0.0, 0.0], [0.0, 10.0], row_ub=0.0)


@pytest.mark.parametrize(
    "model_cls", [tvnep.CSigmaModel, tvnep.SigmaModel, tvnep.DeltaModel],
    ids=["csigma", "sigma", "delta"],
)
@pytest.mark.parametrize("seed,num_requests", [(0, 4), (1, 5), (3, 6)])
def test_small_scenario_forms(model_cls, seed, num_requests):
    result = assert_matches_reference(scenario_form(model_cls, seed, num_requests))
    assert result.rounds > 1
    assert result.rows_skipped > 0


def test_visits_and_skips_cover_every_round():
    form = scenario_form(tvnep.CSigmaModel, 0, 4)
    result = tighten_bounds(form, form.lb, form.ub)
    assert result.feasible
    assert result.rows_visited + result.rows_skipped == result.rounds * form.A.shape[0]
    assert result.rows_visited >= form.A.shape[0]  # all of round 1


@st.composite
def random_forms(draw):
    """A random ``StandardForm`` with starting bounds, built from a seed.

    Hypothesis picks the shape (columns, rows, dense rows, infinite and
    integral shares); numpy fills the values.  Row sides are placed
    around the activity of a random point, shifted so that some boxes
    propagate to empty.
    """
    num_cols = draw(st.sampled_from([1, 3, 6, 12, 40, 140, 300]))
    num_rows = draw(st.integers(0, 12))
    dense_rows = draw(st.integers(0, 3))
    p_inf = draw(st.sampled_from([0.0, 0.1, 0.4]))
    p_int = draw(st.sampled_from([0.0, 0.5, 1.0]))
    fractional = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    lb = rng.integers(-6, 4, num_cols).astype(float)
    ub = lb + rng.integers(0, 12, num_cols)
    if fractional:
        lb -= rng.uniform(0, 1, num_cols)
        ub += rng.uniform(0, 1, num_cols)
    point = lb + rng.uniform(0, 1, num_cols) * (ub - lb)
    lb[rng.random(num_cols) < p_inf] = -np.inf
    ub[rng.random(num_cols) < p_inf] = np.inf
    integrality = (rng.random(num_cols) < p_int).astype(float)

    A = np.zeros((num_rows + dense_rows, num_cols))
    row_lb, row_ub = [], []
    for row in range(num_rows + dense_rows):
        if row < num_rows:
            size = int(rng.integers(0, min(num_cols, 5) + 1))
        elif rng.random() < 0.5:  # every column: more than 128 on wide forms
            size = num_cols
        else:
            size = int(rng.integers(min(num_cols, 8), min(num_cols, 20) + 1))
        cols = rng.choice(num_cols, size, replace=False)
        coefs = rng.integers(1, 6, size) * rng.choice([-1.0, 1.0], size)
        if fractional:
            coefs *= rng.choice([1.0, 0.1, 0.3, 1.7], size)
        A[row, cols] = coefs
        rhs = round(float(coefs @ point[cols])) + int(rng.integers(-3, 4))
        sides = [(-np.inf, rhs), (rhs, np.inf), (rhs, rhs), (rhs - 4, rhs), (-np.inf, np.inf)]
        lo, hi = sides[rng.integers(len(sides))]  # <=, >=, ==, ranged, free
        row_lb.append(lo)
        row_ub.append(hi)
    form = raw_form(A, row_lb, row_ub, lb, ub, integrality)
    # start from a box that may already be crossed at column 0
    start_lb = lb.copy()
    if draw(st.booleans()) and num_cols > 1:
        start_lb[0] = ub[0] + 1.0
    return form, start_lb, ub


@settings(max_examples=200, deadline=None)
@given(random_forms())
def test_random_forms_match_the_sweep(case):
    form, lb, ub = case
    assert_matches_reference(form, lb, ub)


@pytest.mark.slow
def test_exact_bnb_pool_forms():
    """All 48 cSigma forms of the benchmark's ``exact-bnb`` pool."""
    for num_requests in (6, 7, 8):
        for seed in range(16):
            assert_matches_reference(
                scenario_form(tvnep.CSigmaModel, seed, num_requests)
            )
