"""Unit tests for the columnar emission layer and incremental model growth.

Covers the two pieces of :mod:`repro.mip.columnar` — the
:class:`ColumnarEmitter` COO fast path and :class:`RowBlock` storage —
plus the :class:`~repro.mip.model.Model` incremental-construction API
(``mark``/``truncate``) they compose with.  The invariant
under test everywhere: whatever the columnar path produces must be
byte-identical to what the ``LinExpr`` dict algebra compiles to.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelingError
from repro.mip.constraint import Sense
from repro.mip.model import Model, ObjectiveSense, StandardForm
from repro.observability import MetricsRegistry, use_registry


def assert_forms_equal(a: StandardForm, b: StandardForm) -> None:
    """Byte-level equality of two compiled standard forms."""
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
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert a.constraint_names == b.constraint_names


def knapsack_pair() -> tuple[Model, Model]:
    """The same tiny MIP built via dict algebra and via the emitter."""
    legacy = Model("legacy")
    x = [legacy.binary_var(f"x{i}") for i in range(3)]
    y = legacy.continuous_var("y", lb=0.0, ub=2.0)
    legacy.add_constr(2 * x[0] + 3 * x[1] + 4 * x[2] + y <= 5, name="weight")
    legacy.add_constr(x[0] + x[1] >= 1, name="pick")
    legacy.add_constr(x[2] + y == 1, name="tie")
    legacy.set_objective(
        3 * x[0] + 4 * x[1] + 5 * x[2] + y, ObjectiveSense.MAXIMIZE
    )

    columnar = Model("columnar")
    cx = [columnar.binary_var(f"x{i}") for i in range(3)]
    cy = columnar.continuous_var("y", lb=0.0, ub=2.0)
    em = columnar.columnar_emitter()
    row = em.add_row("weight", Sense.LE, 5.0)
    em.add_row_terms(
        row, [cx[0].index, cx[1].index, cx[2].index, cy.index],
        [2.0, 3.0, 4.0, 1.0],
    )
    row = em.add_row("pick", Sense.GE, 1.0)
    em.add_terms([row, row], [cx[0].index, cx[1].index], [1.0, 1.0])
    row = em.add_row("tie", Sense.EQ, 1.0)
    em.add_term(row, cx[2], 1.0)
    em.add_term(row, cy, 1.0)
    em.flush()
    columnar.set_objective(
        3 * cx[0] + 4 * cx[1] + 5 * cx[2] + cy, ObjectiveSense.MAXIMIZE
    )
    return legacy, columnar


class TestColumnarEmitter:
    def test_matches_dict_algebra_bytewise(self):
        legacy, columnar = knapsack_pair()
        assert_forms_equal(legacy.to_standard_form(), columnar.to_standard_form())

    def test_duplicates_summed_and_zeros_dropped(self):
        legacy = Model("legacy")
        x = legacy.binary_var("x")
        y = legacy.binary_var("y")
        legacy.add_constr(x + x + 0 * y <= 1, name="r")

        columnar = Model("columnar")
        cx = columnar.binary_var("x")
        cy = columnar.binary_var("y")
        em = columnar.columnar_emitter()
        row = em.add_row("r", Sense.LE, 1.0)
        # duplicate (row, col) pairs sum; explicit zero is filtered by
        # add_term; a +1/-1 pair cancels to an exact zero and is dropped
        em.add_term(row, cx, 1.0)
        em.add_term(row, cx, 1.0)
        em.add_term(row, cy, 0.0)
        em.add_row_terms(row, [cy.index, cy.index], [1.0, -1.0])
        em.flush()
        assert_forms_equal(legacy.to_standard_form(), columnar.to_standard_form())

    def test_unsorted_columns_are_canonicalized(self):
        model = Model("m")
        vars_ = [model.binary_var(f"x{i}") for i in range(4)]
        em = model.columnar_emitter()
        row = em.add_row("r", Sense.LE, 2.0)
        em.add_row_terms(row, [vars_[3].index, vars_[0].index, vars_[2].index],
                         [3.0, 1.0, 2.0])
        em.flush()
        form = model.to_standard_form()
        assert list(form.A.indices) == [0, 2, 3]
        assert list(form.A.data) == [1.0, 2.0, 3.0]

    def test_trivially_holding_empty_row_dropped(self):
        model = Model("m")
        model.binary_var("x")
        em = model.columnar_emitter()
        em.add_row("empty", Sense.LE, 1.0)  # 0 <= 1: holds, dropped
        assert em.flush() is None
        assert model.num_constraints == 0

    def test_trivially_violated_empty_row_raises(self):
        model = Model("m")
        model.binary_var("x")
        em = model.columnar_emitter()
        em.add_row("impossible", Sense.GE, 1.0)  # 0 >= 1: violated
        with pytest.raises(ModelingError, match="trivially infeasible"):
            em.flush()

    def test_unknown_column_raises(self):
        model = Model("m")
        x = model.binary_var("x")
        em = model.columnar_emitter()
        row = em.add_row("r", Sense.LE, 1.0)
        em.add_row_terms(row, [x.index + 7], [1.0])
        with pytest.raises(ModelingError, match="unknown column"):
            em.flush()

    def test_length_mismatch_raises(self):
        model = Model("m")
        model.binary_var("x")
        em = model.columnar_emitter()
        row = em.add_row("r", Sense.LE, 1.0)
        with pytest.raises(ModelingError, match="mismatch"):
            em.add_row_terms(row, [0, 0], [1.0])

    def test_nan_rhs_raises(self):
        em = Model("m").columnar_emitter()
        with pytest.raises(ModelingError, match="NaN"):
            em.add_row("r", Sense.LE, float("nan"))

    def test_columnar_nnz_counts_emitted_terms(self):
        _, columnar = knapsack_pair()
        assert columnar.columnar_nnz == 8


class TestRowBlock:
    def test_rematerialized_constraints_match_source(self):
        legacy, columnar = knapsack_pair()
        lc = legacy.constraints
        cc = columnar.constraints
        assert [c.name for c in cc] == [c.name for c in lc]
        for ours, theirs in zip(cc, lc):
            assert ours.sense == theirs.sense
            assert ours.rhs == pytest.approx(theirs.rhs)
            ours_terms = {v.name: c for v, c in ours.lhs.terms.items()}
            theirs_terms = {v.name: c for v, c in theirs.lhs.terms.items()}
            assert ours_terms == theirs_terms


class TestMarkTruncateExtend:
    def build_base(self) -> tuple[Model, list]:
        model = Model("base")
        x = [model.binary_var(f"x{i}") for i in range(2)]
        model.add_constr(x[0] + x[1] <= 1, name="base")
        model.set_objective(x[0] + 2 * x[1], ObjectiveSense.MAXIMIZE)
        return model, x

    def add_tail(self, model: Model, x: list) -> None:
        z = model.continuous_var("z", lb=0.0, ub=4.0)
        model.add_constr(x[0] + z >= 1, name="tail1")
        em = model.columnar_emitter()
        row = em.add_row("tail2", Sense.LE, 3.0)
        em.add_row_terms(row, [x[1].index, z.index], [1.0, 1.0])
        em.flush()

    def test_truncate_restores_the_exact_prefix(self):
        model, x = self.build_base()
        before = model.to_standard_form()
        mark = model.mark()
        self.add_tail(model, x)
        assert model.num_vars == 3 and model.num_constraints == 3
        model.truncate(mark)
        assert model.num_vars == 2 and model.num_constraints == 1
        assert_forms_equal(model.to_standard_form(), before)
        # truncated names are reusable (they left the name set)
        model.continuous_var("z")

    def test_truncate_to_foreign_mark_raises(self):
        model, x = self.build_base()
        bigger, _ = self.build_base()
        bigger.continuous_var("extra")
        with pytest.raises(ModelingError):
            model.truncate(bigger.mark())

    def test_repeated_tail_rebuilds_reuse_the_compiled_prefix(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            model, x = self.build_base()
            model.to_standard_form()
            mark = model.mark()
            for _ in range(3):
                self.add_tail(model, x)
                model.to_standard_form()
                model.truncate(mark)
        assert registry.counter("model.incremental_reuses") == 3

    def test_bound_updates_survive_without_matrix_recompile(self):
        model, x = self.build_base()
        form = model.to_standard_form()
        model.set_var_bounds(x[0], 1.0, 1.0)
        refixed = model.to_standard_form()
        assert refixed.lb[0] == refixed.ub[0] == 1.0
        # the constraint matrix is untouched by a bounds write
        assert np.array_equal(form.A.indptr, refixed.A.indptr)
        assert np.array_equal(form.A.data, refixed.A.data)
        # and the bounds can be loosened again (unlike fix_var)
        model.set_var_bounds(x[0], 0.0, 1.0)
        assert model.to_standard_form().lb[0] == 0.0
