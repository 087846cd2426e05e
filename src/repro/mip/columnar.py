"""Columnar constraint emission: batched COO assembly without ``LinExpr``.

The generic modeling path (:meth:`~repro.mip.model.Model.add_constr`)
builds every constraint as a :class:`LinExpr` dictionary plus a
:class:`Constraint` object — readable, but each term
costs a dict insert and each row two Python objects.  The TVNEP
formulations emit *hundreds of thousands* of terms whose coefficients
are already known as flat arrays (flow conservation, capacity folds,
event-prefix cuts), so the dict algebra is pure overhead there.

This module provides the batched path every TVNEP model emits those
families through:

:class:`ColumnarEmitter`
    Accumulates rows as raw COO triplets — ``add_terms(rows, cols,
    coefs)`` extends three flat buffers; no per-term allocation.  A
    ``flush()`` canonicalizes the triplets (duplicates summed, exact
    zeros dropped, columns sorted per row — matching what the dict path
    produces after CSR conversion) and appends a :class:`RowBlock` to
    the model.

:class:`RowBlock`
    An immutable block of compiled constraint rows (local CSR parts +
    row bounds + names) living in the model's row-chunk list alongside
    :class:`~repro.mip.constraint.Constraint` objects.  Blocks
    can lazily re-materialize Constraints for diagnostics (the LP
    writer, ``check_assignment``).

``docs/formulations.md`` is the readable specification of the rows;
``tests/mip/test_columnar.py`` checks that an emitted block compiles to
the same arrays as the equal rows added through ``add_constr``, and
``tests/tvnep/test_golden_forms.py`` pins the standard forms the
models compile to.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ModelingError
from repro.mip.constraint import Constraint, Sense
from repro.mip.expr import LinExpr, Variable

__all__ = ["RowBlock", "ColumnarEmitter"]

_NEG_INF = -math.inf
_POS_INF = math.inf

#: tolerance for dropping trivially-satisfied empty rows (mirrors
#: :meth:`Constraint.trivially_holds`)
_TRIVIAL_TOL = 1e-9


class RowBlock:
    """An immutable block of compiled constraint rows.

    Rows are stored as local CSR parts (``indptr`` over the block's own
    rows, global column indices, coefficients) plus per-row bounds and
    names.  Blocks are created by :meth:`ColumnarEmitter.flush` and
    appended to a model's row-chunk list; the model's compilation
    concatenates them with dict-built constraints in insertion order.
    """

    __slots__ = ("indptr", "cols", "data", "row_lb", "row_ub", "names", "_materialized")

    def __init__(
        self,
        indptr: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        row_lb: np.ndarray,
        row_ub: np.ndarray,
        names: list[str],
    ) -> None:
        self.indptr = indptr
        self.cols = cols
        self.data = data
        self.row_lb = row_lb
        self.row_ub = row_ub
        self.names = names
        self._materialized: list[Constraint] | None = None

    def __len__(self) -> int:
        return len(self.names)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def to_constraints(self, variables: list[Variable]) -> list[Constraint]:
        """Re-materialize the rows as :class:`Constraint` objects.

        Used by diagnostics only (LP writer, ``check_assignment``); the
        result is cached, so repeated access is cheap.
        """
        if self._materialized is None:
            out = []
            for i, name in enumerate(self.names):
                lo, hi = self.indptr[i], self.indptr[i + 1]
                terms = {
                    variables[c]: float(v)
                    for c, v in zip(self.cols[lo:hi], self.data[lo:hi])
                }
                lb, ub = self.row_lb[i], self.row_ub[i]
                if lb == ub:
                    sense, rhs = Sense.EQ, lb
                elif lb == _NEG_INF:
                    sense, rhs = Sense.LE, ub
                else:
                    sense, rhs = Sense.GE, lb
                out.append(Constraint(LinExpr(terms), sense, float(rhs), name=name))
            self._materialized = out
        return self._materialized


class ColumnarEmitter:
    """Batched constraint emission into a model, bypassing ``LinExpr``.

    Usage::

        em = ColumnarEmitter(model)
        r = em.add_row("cap[s1]", Sense.LE, 4.0)
        em.add_row_terms(r, cols_array, coefs_array)   # one row, many terms
        em.add_terms(rows_array, cols_array, coefs_array)  # COO batch
        em.flush()                                     # -> RowBlock on the model

    ``cols`` are *variable indices* (``Variable.index``); the batch APIs
    intentionally do not accept :class:`Variable` objects — hot loops
    precompute index arrays once and slice them.  Exact-zero
    coefficients and duplicate ``(row, col)`` pairs are canonicalized at
    flush time (duplicates summed, zero sums dropped) so the emitted
    matrix is identical to what the dict-based algebra produces.
    """

    def __init__(self, model) -> None:
        self._model = model
        self._names: list[str] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        # COO triplet buffers (plain lists: ``extend`` is C-speed)
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._data: list[float] = []

    # -- rows ------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._names)

    def add_row(self, name: str, sense: Sense, rhs: float) -> int:
        """Open a new (initially empty) row; returns its local index."""
        if math.isnan(rhs):
            raise ModelingError(f"row {name!r}: NaN right-hand side")
        if sense is Sense.LE:
            lb, ub = _NEG_INF, rhs
        elif sense is Sense.GE:
            lb, ub = rhs, _POS_INF
        else:
            lb, ub = rhs, rhs
        self._names.append(name)
        self._row_lb.append(float(lb))
        self._row_ub.append(float(ub))
        return len(self._names) - 1

    # -- terms -----------------------------------------------------------
    def add_term(self, row: int, var: Variable | int, coef: float) -> None:
        """Add one term; accepts a :class:`Variable` or a column index."""
        if coef:
            self._rows.append(row)
            self._cols.append(var.index if isinstance(var, Variable) else var)
            self._data.append(coef)

    def add_row_terms(self, row: int, cols, coefs) -> None:
        """Add many terms to one row (``cols`` are variable indices)."""
        k = len(cols)
        if k != len(coefs):
            raise ModelingError("add_row_terms: cols/coefs length mismatch")
        if k:
            self._rows.extend([row] * k)
            self._cols.extend(cols)
            self._data.extend(coefs)

    def add_terms(self, rows, cols, coefs) -> None:
        """Batched COO triplets (``rows`` local row indices)."""
        if not len(rows) == len(cols) == len(coefs):
            raise ModelingError("add_terms: rows/cols/coefs length mismatch")
        self._rows.extend(rows)
        self._cols.extend(cols)
        self._data.extend(coefs)

    # -- flush -----------------------------------------------------------
    def flush(self) -> RowBlock | None:
        """Canonicalize and append the accumulated rows to the model.

        Returns the appended :class:`RowBlock` (``None`` when every row
        was dropped as trivially satisfied, or nothing was emitted).
        Trivially *violated* empty rows raise :class:`ModelingError`,
        mirroring :meth:`Model.add_constr`.
        """
        m = len(self._names)
        if m == 0:
            return None
        rows = np.asarray(self._rows, dtype=np.int64)
        cols = np.asarray(self._cols, dtype=np.int64)
        data = np.asarray(self._data, dtype=np.float64)
        num_vars = self._model.num_vars
        if len(cols) and (cols.min() < 0 or cols.max() >= num_vars):
            raise ModelingError("columnar term references an unknown column")
        if len(rows) and (rows.min() < 0 or rows.max() >= m):
            raise ModelingError("columnar term references an unknown row")

        # canonicalize: sort by (row, col), sum duplicates, drop zeros —
        # exactly the normal form the dict algebra reaches via add_term
        if len(data):
            order = np.lexsort((cols, rows))
            rows, cols, data = rows[order], cols[order], data[order]
            boundary = np.empty(len(rows), dtype=bool)
            boundary[0] = True
            np.logical_or(
                np.diff(rows) != 0, np.diff(cols) != 0, out=boundary[1:]
            )
            starts = np.flatnonzero(boundary)
            sums = np.add.reduceat(data, starts)
            keep = sums != 0.0
            rows, cols, data = rows[starts[keep]], cols[starts[keep]], sums[keep]

        counts = np.bincount(rows, minlength=m)
        row_lb = np.asarray(self._row_lb, dtype=np.float64)
        row_ub = np.asarray(self._row_ub, dtype=np.float64)

        empty = counts == 0
        if empty.any():
            # mirror add_constr: a trivially-holding row is dropped, a
            # trivially-violated one is a modeling error
            violated = empty & (
                (row_lb > _TRIVIAL_TOL) | (row_ub < -_TRIVIAL_TOL)
            )
            if violated.any():
                idx = int(np.flatnonzero(violated)[0])
                raise ModelingError(
                    f"trivially infeasible columnar row "
                    f"{self._names[idx] or 'unnamed'!r}: "
                    f"0 not in [{row_lb[idx]}, {row_ub[idx]}]"
                )
            keep_rows = ~empty
            new_index = np.cumsum(keep_rows) - 1
            rows = new_index[rows]
            names = [n for n, k in zip(self._names, keep_rows) if k]
            row_lb, row_ub = row_lb[keep_rows], row_ub[keep_rows]
            counts = counts[keep_rows]
            m = len(names)
        else:
            names = list(self._names)

        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        block = RowBlock(indptr, cols, data, row_lb, row_ub, names)
        if m:
            self._model.add_row_block(block)
        self._reset()
        return block if m else None

    def _reset(self) -> None:
        self._names, self._row_lb, self._row_ub = [], [], []
        self._rows, self._cols, self._data = [], [], []

