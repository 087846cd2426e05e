"""The :class:`Model` container and standard-form compilation.

A :class:`Model` owns variables, constraints and an objective, and can
compile itself into the sparse matrix ``StandardForm`` consumed by the
solver backends (HiGHS, through :mod:`repro.mip.highs_backend`, or the
pure-Python branch-and-bound solver in :mod:`repro.mip.bnb`).

The compilation is the only performance-sensitive step of the modeling
layer; it assembles a single COO triplet list in one pass over all
constraints and converts it to CSR, so models with hundreds of thousands
of non-zeros build in well under a second.

Constraints are stored as an ordered list of *row chunks*: either a
single dict-built :class:`~repro.mip.constraint.Constraint` or a
pre-compiled :class:`~repro.mip.columnar.RowBlock` emitted by the
columnar fast path.  Because every mutation the model supports is
append-only (new variables/rows) or matrix-preserving (bounds, the
objective), each compile can reuse the CSR parts of the previously
compiled prefix and only assemble the rows added since — see
:class:`_CompiledPrefix`.  :meth:`Model.mark` / :meth:`Model.truncate`
expose a checkpoint/rollback pair over this append-only structure so
incremental formulations (the greedy cSigma loop) can rebuild just
their volatile tail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelingError
from repro.mip.constraint import Constraint, Sense
from repro.mip.expr import ExprLike, LinExpr, Variable, VarType, as_expr
from repro.observability.metrics import get_registry

if TYPE_CHECKING:
    from repro.mip.columnar import ColumnarEmitter, RowBlock

__all__ = [
    "ObjectiveSense",
    "StandardForm",
    "Model",
    "ModelMark",
    "standard_form_cache_stats",
    "reset_standard_form_cache_stats",
]

#: registry counter names for ``to_standard_form`` memoization.  The
#: counters live on the *active* metrics registry
#: (:func:`repro.observability.get_registry`), so tests and sweep cells
#: scope them with ``use_registry`` instead of sharing a process global.
_CACHE_HITS = "cache.standard_form_hits"
_CACHE_MISSES = "cache.standard_form_misses"


def standard_form_cache_stats() -> dict[str, float]:
    """``to_standard_form`` memoization counters of the active registry.

    Returns ``{"hits": int, "misses": int, "hit_rate": float}`` where
    ``hit_rate`` is ``hits / (hits + misses)`` (0.0 when nothing was
    compiled yet).  A *miss* is a full COO→CSR assembly; a *hit* returns
    the memoized :class:`StandardForm` of an unmutated model.  Counters
    are per-registry: wrap work in
    ``repro.observability.use_registry(MetricsRegistry())`` to measure
    (or isolate) one unit of work.
    """
    registry = get_registry()
    hits = int(registry.counter(_CACHE_HITS))
    misses = int(registry.counter(_CACHE_MISSES))
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / total) if total else 0.0,
    }


def reset_standard_form_cache_stats() -> None:
    """Zero the active registry's cache counters (benchmark bookkeeping)."""
    registry = get_registry()
    registry.inc(_CACHE_HITS, -registry.counter(_CACHE_HITS))
    registry.inc(_CACHE_MISSES, -registry.counter(_CACHE_MISSES))


class ObjectiveSense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    @property
    def sign(self) -> float:
        """Multiplier converting to an internal minimization problem."""
        return 1.0 if self is ObjectiveSense.MINIMIZE else -1.0


@dataclass
class StandardForm:
    """A model compiled to matrices (minimization convention).

    ``minimize  c @ x + c0``
    subject to ``row_lb <= A @ x <= row_ub`` and ``lb <= x <= ub``,
    with ``integrality[i] == 1`` marking integral columns.

    The objective stored here is *always* a minimization; ``sense_sign``
    records the multiplier (``-1`` for an original maximization) so that
    backends can report objective values in the user's convention:
    ``user_objective = sense_sign * (c @ x) + c0_user`` — see
    :meth:`user_objective`.
    """

    c: np.ndarray
    c0: float
    A: sp.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    sense_sign: float
    variables: list[Variable]
    constraint_names: list[str]

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    def user_objective(self, x: np.ndarray) -> float:
        """Objective value of ``x`` in the user's original sense."""
        return self.sense_sign * float(self.c @ x) + self.c0

    def user_bound(self, internal_bound: float) -> float:
        """Convert an internal (minimization) dual bound to user sense."""
        return self.sense_sign * internal_bound + self.c0


@dataclass(frozen=True)
class ModelMark:
    """A checkpoint of a model's append-only state (:meth:`Model.mark`).

    Captures the variable/chunk/row counts plus an objective snapshot so
    :meth:`Model.truncate` can roll the model back to exactly this
    point.
    """

    num_vars: int
    num_chunks: int
    num_rows: int
    objective: LinExpr
    sense: "ObjectiveSense"


@dataclass
class _CompiledPrefix:
    """CSR parts of the already-compiled chunk prefix.

    Canonical CSR is unique per row, so the prefix rows of a fresh
    global compile are byte-for-byte the rows compiled last time — the
    identity that lets :meth:`Model._compile_standard_form` concatenate
    instead of re-assembling.  The arrays are shared with the previously
    returned :class:`StandardForm` (read-only by contract).
    """

    num_chunks: int = 0
    num_rows: int = 0
    nnz: int = 0
    indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_lb: np.ndarray = field(default_factory=lambda: np.zeros(0))
    row_ub: np.ndarray = field(default_factory=lambda: np.zeros(0))
    names: list[str] = field(default_factory=list)

    def sliced(self, num_chunks: int, num_rows: int) -> "_CompiledPrefix":
        """The prefix restricted to the first ``num_rows`` rows."""
        nnz = int(self.indptr[num_rows])
        return _CompiledPrefix(
            num_chunks=num_chunks,
            num_rows=num_rows,
            nnz=nnz,
            indptr=self.indptr[: num_rows + 1],
            indices=self.indices[:nnz],
            data=self.data[:nnz],
            row_lb=self.row_lb[:num_rows],
            row_ub=self.row_ub[:num_rows],
            names=self.names[:num_rows],
        )


class Model:
    """A mixed-integer linear program under construction.

    Example
    -------
    >>> m = Model("knapsack")
    >>> x = [m.binary_var(f"x{i}") for i in range(3)]
    >>> m.add_constr(2*x[0] + 3*x[1] + 4*x[2] <= 5, name="weight")
    >>> m.set_objective(3*x[0] + 4*x[1] + 5*x[2], ObjectiveSense.MAXIMIZE)
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._vars: list[Variable] = []
        self._var_names: set[str] = set()
        # ordered row chunks: Constraint (one row) or RowBlock (many)
        self._chunks: list[Union[Constraint, "RowBlock"]] = []
        self._num_rows: int = 0
        #: non-zeros contributed through the columnar fast path
        self.columnar_nnz: int = 0
        self._objective: LinExpr = LinExpr()
        self._sense: ObjectiveSense = ObjectiveSense.MINIMIZE
        # standard-form memoization: the compiled matrices are reused
        # until any mutation bumps the version (dirty-flag invalidation)
        self._mutation_version: int = 0
        self._form_cache: StandardForm | None = None
        self._form_cache_version: int = -1
        # CSR parts of the already-compiled chunk prefix; mutations are
        # append-only or matrix-preserving, so this survives everything
        # except truncation (which merely slices it)
        self._prefix: _CompiledPrefix | None = None

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vtype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a new variable.

        Raises
        ------
        ModelingError
            If the name is already taken in this model.
        """
        if name in self._var_names:
            raise ModelingError(f"duplicate variable name {name!r}")
        var = Variable(name, lb=lb, ub=ub, vtype=vtype, index=len(self._vars))
        self._vars.append(var)
        self._var_names.add(name)
        self.invalidate_standard_form()
        return var

    def binary_var(self, name: str) -> Variable:
        """Create a binary variable."""
        return self.add_var(name, lb=0.0, ub=1.0, vtype=VarType.BINARY)

    def integer_var(
        self, name: str, lb: float = 0.0, ub: float = math.inf
    ) -> Variable:
        """Create an integer variable."""
        return self.add_var(name, lb=lb, ub=ub, vtype=VarType.INTEGER)

    def continuous_var(
        self, name: str, lb: float = 0.0, ub: float = math.inf
    ) -> Variable:
        """Create a continuous variable."""
        return self.add_var(name, lb=lb, ub=ub, vtype=VarType.CONTINUOUS)

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._vars)

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def num_binary_vars(self) -> int:
        return sum(1 for v in self._vars if v.vtype is VarType.BINARY)

    @property
    def num_integral_vars(self) -> int:
        return sum(1 for v in self._vars if v.vtype.is_integral)

    def get_var(self, name: str) -> Variable:
        """Look up a variable by name (linear scan; for tests/debugging)."""
        for var in self._vars:
            if var.name == name:
                return var
        raise KeyError(name)

    def fix_var(self, var: Variable, value: float) -> None:
        """Fix a variable to a value by tightening both bounds."""
        self._check_owned(var)
        if value < var.lb - 1e-12 or value > var.ub + 1e-12:
            raise ModelingError(
                f"cannot fix {var.name!r} to {value}: outside [{var.lb}, {var.ub}]"
            )
        var.lb = var.ub = float(value)
        self.invalidate_standard_form()

    def set_var_bounds(self, var: Variable, lb: float, ub: float) -> None:
        """Overwrite a variable's bounds (possibly *loosening* them).

        Unlike :meth:`fix_var` this is not restricted to the current
        interval, so incremental formulations can un-pin a previously
        fixed variable.  A bounds write never touches the constraint
        matrix, so the compiled prefix survives.
        """
        if lb > ub:
            raise ModelingError(
                f"cannot bound {var.name!r} to empty interval [{lb}, {ub}]"
            )
        self._check_owned(var)
        var.lb = float(lb)
        var.ub = float(ub)
        self.invalidate_standard_form()

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparison.

        Trivial constraints (no variables) are checked immediately: if
        they hold they are dropped, otherwise a :class:`ModelingError` is
        raised — silently accepting ``3 <= 2`` would make the model
        infeasible in a hard-to-debug way.
        """
        if not isinstance(constraint, Constraint):
            raise ModelingError(
                f"expected a Constraint (use <=, >=, ==), got {constraint!r}"
            )
        if name:
            constraint.name = name
        if constraint.is_trivial:
            if constraint.trivially_holds():
                return constraint
            raise ModelingError(
                f"trivially infeasible constraint: 0 {constraint.sense.value} "
                f"{constraint.rhs} ({constraint.name or 'unnamed'})"
            )
        for var in constraint.lhs.terms:
            self._check_owned(var)
        self._chunks.append(constraint)
        self._num_rows += 1
        self.invalidate_standard_form()
        return constraint

    def add_constrs(
        self, constraints: Iterable[Constraint], prefix: str = ""
    ) -> list[Constraint]:
        """Register several constraints, optionally auto-naming them."""
        added = []
        for i, con in enumerate(constraints):
            added.append(self.add_constr(con, name=f"{prefix}{i}" if prefix else ""))
        return added

    def add_row_block(self, block: "RowBlock") -> "RowBlock":
        """Register a pre-compiled :class:`~repro.mip.columnar.RowBlock`.

        Blocks are produced by
        :meth:`~repro.mip.columnar.ColumnarEmitter.flush`; their rows
        compile in place alongside dict-built constraints in insertion
        order.
        """
        if len(block):
            self._chunks.append(block)
            self._num_rows += len(block)
            self.columnar_nnz += block.nnz
            get_registry().inc("model.columnar_terms", block.nnz)
            self.invalidate_standard_form()
        return block

    def columnar_emitter(self) -> "ColumnarEmitter":
        """A fresh :class:`~repro.mip.columnar.ColumnarEmitter` on this model."""
        from repro.mip.columnar import ColumnarEmitter

        return ColumnarEmitter(self)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """All rows as :class:`Constraint` objects (diagnostics only).

        Row blocks re-materialize lazily (and cache the result), so the
        hot path never pays for this; the LP writer and
        :meth:`check_assignment` do.
        """
        out: list[Constraint] = []
        for chunk in self._chunks:
            if isinstance(chunk, Constraint):
                out.append(chunk)
            else:
                out.extend(chunk.to_constraints(self._vars))
        return tuple(out)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    # ------------------------------------------------------------------
    # incremental construction
    # ------------------------------------------------------------------
    def mark(self) -> ModelMark:
        """Checkpoint the current append-only state for :meth:`truncate`."""
        return ModelMark(
            num_vars=len(self._vars),
            num_chunks=len(self._chunks),
            num_rows=self._num_rows,
            objective=self._objective.copy(),
            sense=self._sense,
        )

    def truncate(self, mark: ModelMark) -> None:
        """Roll the model back to a :meth:`mark` checkpoint.

        Drops every variable and row chunk added since the mark and
        restores the objective captured in it.  Rows added before the
        mark can only reference variables that existed then, so the
        surviving prefix is self-consistent — and its compiled CSR parts
        are merely sliced, not discarded.
        """
        if mark.num_vars > len(self._vars) or mark.num_chunks > len(self._chunks):
            raise ModelingError("cannot truncate to a mark from a larger model")
        for var in self._vars[mark.num_vars :]:
            self._var_names.discard(var.name)
        del self._vars[mark.num_vars :]
        del self._chunks[mark.num_chunks :]
        self._num_rows = mark.num_rows
        self._objective = mark.objective.copy()
        self._sense = mark.sense
        if self._prefix is not None and self._prefix.num_chunks > mark.num_chunks:
            self._prefix = self._prefix.sliced(mark.num_chunks, mark.num_rows)
        self.invalidate_standard_form()

    # ------------------------------------------------------------------
    # objective
    # ------------------------------------------------------------------
    def set_objective(
        self, expr: ExprLike, sense: ObjectiveSense = ObjectiveSense.MINIMIZE
    ) -> None:
        """Set the objective expression and direction."""
        expr = as_expr(expr)
        for var in expr.terms:
            self._check_owned(var)
        self._objective = expr.copy()
        self._sense = sense
        self.invalidate_standard_form()

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def objective_sense(self) -> ObjectiveSense:
        return self._sense

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def invalidate_standard_form(self) -> None:
        """Drop the memoized :class:`StandardForm`.

        Every mutating ``Model`` method calls this; the only time user
        code must call it by hand is after mutating a ``Variable``'s
        bounds *directly* (``var.lb = ...``) instead of going through
        :meth:`fix_var` — the model cannot observe such writes.
        """
        self._mutation_version += 1
        self._form_cache = None

    def to_standard_form(self) -> StandardForm:
        """Compile to the matrix form consumed by the solver backends.

        The result is memoized: repeated calls on an unmutated model
        return the *same* :class:`StandardForm` object, so successive
        consumers of one model (HiGHS solve → relaxation, warm-start
        validation) share one matrix assembly and any per-form caches
        attached to it.  Any mutation (new variable/constraint, new
        objective, :meth:`fix_var`) invalidates the memo.  Callers must
        treat the returned form as read-only.
        """
        if (
            self._form_cache is not None
            and self._form_cache_version == self._mutation_version
        ):
            get_registry().inc(_CACHE_HITS)
            return self._form_cache
        get_registry().inc(_CACHE_MISSES)
        form = self._compile_standard_form()
        self._form_cache = form
        self._form_cache_version = self._mutation_version
        return form

    @staticmethod
    def _compile_chunk_rows(
        chunks: Sequence[Union[Constraint, "RowBlock"]], m: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """Assemble a chunk run into canonical CSR parts over ``n`` columns.

        Returns ``(indptr, indices, data, row_lb, row_ub, names)`` for
        the ``m`` rows the chunks contribute.  Everything funnels through
        one COO→CSR conversion, so the output rows are canonical (sorted
        columns, summed duplicates) regardless of chunk kind — which is
        what makes prefix/tail concatenation byte-identical to a global
        recompile.
        """
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        row_lb = np.empty(m)
        row_ub = np.empty(m)
        names: list[str] = []
        i = 0
        for chunk in chunks:
            if isinstance(chunk, Constraint):
                con = chunk
                k = len(con.lhs.terms)
                idx = np.fromiter(
                    (v.index for v in con.lhs.terms), dtype=np.int64, count=k
                )
                val = np.fromiter(con.lhs.terms.values(), dtype=np.float64, count=k)
                rows.append(np.full(k, i, dtype=np.int64))
                cols.append(idx)
                data.append(val)
                if con.sense is Sense.LE:
                    row_lb[i], row_ub[i] = -np.inf, con.rhs
                elif con.sense is Sense.GE:
                    row_lb[i], row_ub[i] = con.rhs, np.inf
                else:
                    row_lb[i] = row_ub[i] = con.rhs
                names.append(con.name)
                i += 1
            else:
                k = len(chunk)
                counts = np.diff(chunk.indptr)
                rows.append(
                    np.repeat(np.arange(i, i + k, dtype=np.int64), counts)
                )
                cols.append(chunk.cols)
                data.append(chunk.data)
                row_lb[i : i + k] = chunk.row_lb
                row_ub[i : i + k] = chunk.row_ub
                names.extend(chunk.names)
                i += k
        if i != m:
            raise ModelingError(f"chunk row count mismatch: {i} != {m}")
        # normalize signed zeros (from_sides negates constants, yielding
        # -0.0) so both emission paths compile to identical bytes
        row_lb += 0.0
        row_ub += 0.0
        if m:
            A = sp.coo_matrix(
                (
                    np.concatenate(data),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(m, n),
            ).tocsr()
            return A.indptr, A.indices, A.data, row_lb, row_ub, names
        return (
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            row_lb,
            row_ub,
            names,
        )

    def _compile_standard_form(self) -> StandardForm:
        """COO→CSR assembly, reusing the compiled chunk prefix.

        Every supported mutation is append-only (rows, columns) or
        matrix-preserving (bounds, objective), so the CSR parts compiled
        last time are still the first rows of the matrix: only the tail
        chunks are assembled and the parts concatenated.  A model that
        was never compiled (or was truncated to row zero) takes the
        all-tail path, which is exactly the old global compile.
        """
        n = len(self._vars)
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            c[var.index] += coef
        sign = self._sense.sign
        c *= sign  # internal minimization

        m = self._num_rows
        prefix = self._prefix if self._prefix is not None else _CompiledPrefix()
        t_indptr, t_indices, t_data, t_lb, t_ub, t_names = self._compile_chunk_rows(
            self._chunks[prefix.num_chunks :], m - prefix.num_rows, n
        )
        if prefix.num_rows:
            get_registry().inc("model.incremental_reuses")
            indptr = np.concatenate(
                [prefix.indptr, t_indptr[1:].astype(np.int64) + prefix.nnz]
            )
            indices = np.concatenate([prefix.indices, t_indices])
            values = np.concatenate([prefix.data, t_data])
            A = sp.csr_matrix((values, indices, indptr), shape=(m, n))
            row_lb = np.concatenate([prefix.row_lb, t_lb])
            row_ub = np.concatenate([prefix.row_ub, t_ub])
            names = prefix.names + t_names
        else:
            A = sp.csr_matrix((t_data, t_indices, t_indptr), shape=(m, n))
            row_lb, row_ub, names = t_lb, t_ub, t_names
        self._prefix = _CompiledPrefix(
            num_chunks=len(self._chunks),
            num_rows=m,
            nnz=int(A.indptr[-1]),
            indptr=A.indptr,
            indices=A.indices,
            data=A.data,
            row_lb=row_lb,
            row_ub=row_ub,
            names=names,
        )

        lb = np.fromiter((v.lb for v in self._vars), dtype=np.float64, count=n)
        ub = np.fromiter((v.ub for v in self._vars), dtype=np.float64, count=n)
        integrality = np.fromiter(
            (1 if v.vtype.is_integral else 0 for v in self._vars),
            dtype=np.uint8,
            count=n,
        )
        return StandardForm(
            c=c,
            c0=self._objective.constant,
            A=A,
            row_lb=row_lb,
            row_ub=row_ub,
            lb=lb,
            ub=ub,
            integrality=integrality,
            sense_sign=sign,
            variables=list(self._vars),
            constraint_names=names,
        )

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, backend="highs", **kwargs):
        """Solve this model via the backend registry.

        Thin convenience over :func:`repro.mip.solve`; ``backend`` may
        be a registered name (``"highs"``, ``"bnb"``) or any backend
        callable, and ``kwargs`` (``time_limit``, ``mip_gap``, ...) are
        forwarded.  ``time_limit`` must be ``None`` or a non-negative
        finite number of seconds (else :class:`ValidationError`).
        """
        from repro.mip import solve as _solve

        return _solve(self, backend=backend, **kwargs)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_assignment(
        self, values: dict[Variable, float], tol: float = 1e-6
    ) -> list[Constraint]:
        """Return the constraints violated by an assignment (for tests)."""
        violated = []
        for con in self.constraints:
            if not con.satisfied_by(values, tol):
                violated.append(con)
        for var in self._vars:
            val = values.get(var)
            if val is None:
                continue
            if val < var.lb - tol or val > var.ub + tol:
                violated.append(
                    Constraint(
                        LinExpr({var: 1.0}), Sense.LE, var.ub, name=f"bounds[{var.name}]"
                    )
                )
        return violated

    def stats(self) -> dict[str, int]:
        """Model size statistics (used by the evaluation reports)."""
        nnz = sum(
            len(chunk.lhs.terms) if isinstance(chunk, Constraint) else chunk.nnz
            for chunk in self._chunks
        )
        return {
            "variables": self.num_vars,
            "binary": self.num_binary_vars,
            "integral": self.num_integral_vars,
            "constraints": self.num_constraints,
            "nonzeros": nnz,
        }

    def _check_owned(self, var: Variable) -> None:
        idx = var.index
        if idx < 0 or idx >= len(self._vars) or self._vars[idx] is not var:
            raise ModelingError(
                f"variable {var.name!r} does not belong to model {self.name!r}"
            )

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constrs={self.num_constraints})"
        )
