"""Deterministic fault injection for solver backends.

Failure paths are only trustworthy if they are exercised; this module
wraps any backend so tests (and chaos-style smoke runs) can make it

* raise :class:`~repro.exceptions.SolverError` (``FaultMode.ERROR``), or
* simulate a timeout without incumbent (``FaultMode.TIMEOUT`` — the
  paper's "no solution found within the hour" case)

on chosen call numbers — deterministically, with no randomness, so a
failing test reproduces byte-for-byte.

Combine with :func:`~repro.runtime.backends.override_backend` (or the
:func:`inject_faults` convenience below) to poison a *named* backend:
everything that solves through the registry — models, the sweep
runner — then sees the faults without any test-only plumbing.
"""

from __future__ import annotations

import enum
import logging
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Iterator

from repro.exceptions import SolverError
from repro.mip.solution import Solution, SolveStatus
from repro.runtime.backends import Backend, get_backend, override_backend

__all__ = ["FaultMode", "FaultInjector", "inject_faults"]

logger = logging.getLogger("repro.runtime")


class FaultMode(enum.Enum):
    """What a poisoned call does."""

    ERROR = "error"
    TIMEOUT = "timeout"


class FaultInjector:
    """Wrap a backend and misbehave on scripted call numbers.

    Parameters
    ----------
    backend:
        The inner backend (name or callable).  Names are resolved
        *eagerly* so installing the injector over the same name via
        :func:`~repro.runtime.backends.override_backend` does not
        recurse.
    script:
        ``{call number (1-based): FaultMode}`` — faults for specific
        calls.
    always:
        Fault applied to every call (overridden by ``script`` entries).

    Attributes
    ----------
    calls:
        Total calls seen.
    injected:
        ``(call number, FaultMode)`` log of the faults actually raised.
    """

    def __init__(
        self,
        backend: str | Backend = "highs",
        script: Mapping[int, FaultMode | str] | None = None,
        always: FaultMode | str | None = None,
    ) -> None:
        self._inner = get_backend(backend)
        self._name = backend if isinstance(backend, str) else "backend"
        self.script = {
            int(k): FaultMode(v) for k, v in (script or {}).items()
        }
        self.always = FaultMode(always) if always is not None else None
        self.calls = 0
        self.injected: list[tuple[int, FaultMode]] = []

    def _mode_for(self, call: int) -> FaultMode | None:
        if call in self.script:
            return self.script[call]
        return self.always

    def __call__(self, model, **kwargs) -> Solution:
        self.calls += 1
        mode = self._mode_for(self.calls)
        if mode is None:
            return self._inner(model, **kwargs)
        self.injected.append((self.calls, mode))
        logger.info(
            "injecting fault mode=%s backend=%s call=%d",
            mode.value,
            self._name,
            self.calls,
        )
        if mode is FaultMode.ERROR:
            raise SolverError(
                f"injected {self._name} failure (call #{self.calls})"
            )
        return Solution(
            status=SolveStatus.NO_SOLUTION,
            runtime=0.0,
            solver=f"{self._name}-faulty",
            message=f"injected timeout without incumbent (call #{self.calls})",
        )


@contextmanager
def inject_faults(
    name: str,
    script: Mapping[int, FaultMode | str] | None = None,
    always: FaultMode | str | None = None,
) -> Iterator[FaultInjector]:
    """Poison the named registry backend for the duration of the block.

    Example
    -------
    ::

        with inject_faults("highs", always="error") as injector:
            ...  # every "highs" solve now raises SolverError
        assert injector.calls > 0
    """
    injector = FaultInjector(name, script=script, always=always)
    with override_backend(name, injector):
        yield injector
