"""One growing cSigma model across greedy insertions (Sec. V, MIP form).

Only perfbench/tracing.py still needs this module; no solver path uses it.

The greedy algorithm cSigma^G_A solves a cSigma model per insertion in
which only the newest request is undecided — yet the historical loop
rebuilt the *entire* model from scratch every iteration, re-emitting the
per-request embedding blocks of all previously processed requests
(O(|R|^2) embedding constructions over a run).

:class:`IncrementalCSigmaModel` keeps **one** :class:`~repro.mip.model.Model`
alive for the whole run and exploits the structure of the iteration
sequence:

* the per-request *embedding* blocks (placement/flow variables,
  Constraints (1)-(2)) depend only on the virtual network, the substrate
  and the fixed node mapping — never on the time windows — so they are
  **append-only**: each insertion adds exactly one new block and all
  previous blocks survive verbatim (their compiled CSR rows are reused
  through the model's :class:`~repro.mip.model._CompiledPrefix`);
* accept/reject decisions and window pins are **bound-only** updates
  (``x_R`` fixed via :meth:`~repro.mip.model.Model.set_var_bounds`),
  which never touch the constraint matrix;
* only the *temporal* tail (events, cuts, time coupling, states) is a
  global function of the request set — event counts and dependency
  ranges shift with every insertion — so it is rolled back with
  :meth:`~repro.mip.model.Model.truncate` and rebuilt per iteration.

Byte parity with the historical loop is load-bearing: the model this
class exposes at each iteration compiles to the *same*
:class:`~repro.mip.model.StandardForm` as a fresh
:class:`~repro.tvnep.csigma_model.CSigmaModel` over the same pinned
request list (``tests/tvnep/test_incremental_model.py``), so the greedy
makes the accept/reject decisions a fresh model per iteration would.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.exceptions import ValidationError
from repro.mip.model import Model
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["IncrementalCSigmaModel"]


class IncrementalCSigmaModel(CSigmaModel):
    """A cSigma model grown one request at a time.

    Use as::

        inc = IncrementalCSigmaModel(substrate, options=opts, horizon=T)
        for request in order:
            inc.insert(request, mappings[request.name])
            inc.rebuild_tail()          # temporal layer over current set
            ... solve, read decision ...
            inc.decide(request.name, embedded, pinned_request)
        inc.rebuild_tail()              # final fully-pinned model

    After :meth:`rebuild_tail` the instance *is* a regular
    :class:`~repro.tvnep.csigma_model.CSigmaModel` — solve/extract/
    warm-start machinery is inherited unchanged.

    Parameters
    ----------
    substrate:
        The substrate network (shared by every iteration).
    options:
        Formulation options; ``time_horizon`` must be set (the greedy
        shares one horizon across iterations, so the growing model can
        too).
    horizon:
        The shared horizon ``T`` (must match ``options.time_horizon``
        when that is set).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        options: ModelOptions | None = None,
        horizon: float | None = None,
    ) -> None:
        # deliberately does NOT call CSigmaModel.__init__: the base
        # constructor builds a full model over a fixed request list,
        # while this class starts empty and grows
        self.substrate = substrate
        self.requests: list[Request] = []
        self.options = options or ModelOptions()
        self.model = Model(self.formulation_name)
        if horizon is None:
            horizon = self.options.time_horizon
        if horizon is None:
            raise ValidationError(
                "IncrementalCSigmaModel needs an explicit time horizon "
                "(there are no requests yet to infer one from)"
            )
        self.T = float(horizon)

        self._fixed_mappings: dict[str, dict[Hashable, Hashable]] = {}
        self._force_embedded: set[str] = set()
        self._force_rejected: set[str] = set()
        self.embeddings = {}
        self._index_of: dict[str, int] = {}
        #: checkpoint separating the persistent embedding prefix from
        #: the disposable temporal tail
        self._embedding_mark = self.model.mark()
        self._tail_built = False

    # ------------------------------------------------------------------
    def insert(self, request: Request, mapping: NodeMapping | None) -> None:
        """Append ``request``'s embedding block (drops the temporal tail).

        The new request enters *undecided* (``x_R`` free); call
        :meth:`rebuild_tail` to get a solvable model and
        :meth:`decide` once the iteration's outcome is known.
        """
        if request.name in self._index_of:
            raise ValidationError(f"request {request.name!r} already inserted")
        if request.latest_end > self.T + 1e-9:
            raise ValidationError(
                "time horizon smaller than the latest request end"
            )
        self._drop_tail()
        checkpoint = self.model.mark()
        self.requests.append(request)
        self._index_of[request.name] = len(self.requests) - 1
        if mapping is not None:
            self._fixed_mappings[request.name] = dict(mapping)
        with get_registry().timer("model.build"):
            try:
                self._build_one_embedding(request)
            except Exception:
                # leave the model exactly as before the failed insert,
                # so it stays usable
                self.model.truncate(checkpoint)
                self.requests.pop()
                del self._index_of[request.name]
                self._fixed_mappings.pop(request.name, None)
                self.embeddings.pop(request.name, None)
                raise
        self._embedding_mark = self.model.mark()

    def decide(self, name: str, embedded: bool, pinned: Request) -> None:
        """Pin a processed request's outcome (bound-only, matrix untouched).

        ``pinned`` is the zero-flexibility copy carrying the chosen (or
        earliest-slot, for rejections) window; it replaces the original
        in :attr:`requests` so the next :meth:`rebuild_tail` computes
        event ranges from the pinned windows — exactly what a fresh
        per-iteration model sees.
        """
        index = self._index_of[name]
        self.requests[index] = pinned
        emb = self.embeddings[name]
        emb.request = pinned
        if embedded:
            self._force_embedded.add(name)
            self.model.set_var_bounds(emb.x_embed, 1.0, 1.0)
        else:
            self._force_rejected.add(name)
            self.model.set_var_bounds(emb.x_embed, 0.0, 0.0)

    def rebuild_tail(self) -> None:
        """(Re)build the temporal layer over the current request set.

        Raises
        ------
        ModelingError
            When the dependency cuts prove the current set infeasible
            (empty event range) — the same error a fresh model's
            constructor raises.  The model is left in the clean
            embeddings-only state, so the caller can :meth:`decide` a
            rejection and continue.
        """
        if not self.requests:
            raise ValidationError("TVNEP needs at least one request")
        self._drop_tail()
        with get_registry().timer("model.build"):
            try:
                self._build_temporal()
            except Exception:
                self.model.truncate(self._embedding_mark)
                raise
            self.set_access_control_objective()
            self._tail_built = True
        self._emit_build_event(incremental=True)

    # ------------------------------------------------------------------
    def _drop_tail(self) -> None:
        if self._tail_built:
            self.model.truncate(self._embedding_mark)
            self._tail_built = False
