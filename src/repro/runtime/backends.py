"""The solver-backend registry.

Every solve in the library routes through :func:`repro.mip.solve`, which
resolves its ``backend`` argument here.  Backends are callables
``(model, **kwargs) -> Solution``; they may be addressed by name (the
strings the CLI and the evaluation config carry around) or passed
directly as callables (e.g. a fault-injecting wrapper from
:mod:`repro.runtime.faults`).

The registry is also the seam the fault-injection harness uses: tests
:func:`override_backend` a name ("highs") with a wrapped version and the
whole stack — models, greedy, the sweep runner — transparently exercises
the failure path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.exceptions import SolverError

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "override_backend",
]

#: ``(model, **kwargs) -> Solution``
Backend = Callable[..., "object"]

_LOCK = threading.Lock()
_REGISTRY: dict[str, Backend] = {}


def _solve_highs(model, **kwargs):
    from repro.mip.highs_backend import solve

    return solve(model, **kwargs)


def _solve_bnb(model, **kwargs):
    from repro.mip.bnb import solve

    return solve(model, **kwargs)


def register_backend(name: str, backend: Backend, replace: bool = False) -> None:
    """Register a backend under a name.

    Raises
    ------
    SolverError
        If the name is taken and ``replace`` is false.
    """
    with _LOCK:
        if not replace and name in _REGISTRY:
            raise SolverError(f"backend {name!r} is already registered")
        _REGISTRY[name] = backend


def get_backend(spec: str | Backend) -> Backend:
    """Resolve a backend name or pass a callable through unchanged."""
    if callable(spec):
        return spec
    with _LOCK:
        backend = _REGISTRY.get(spec)
    if backend is None:
        raise SolverError(
            f"unknown backend {spec!r}; expected one of {backend_names()} "
            "or a callable"
        )
    return backend


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    with _LOCK:
        return tuple(sorted(_REGISTRY))


@contextmanager
def override_backend(name: str, backend: Backend) -> Iterator[Backend]:
    """Temporarily replace a named backend (fault injection, tests).

    Restores the previous registration (or removes the name) on exit.
    """
    with _LOCK:
        previous = _REGISTRY.get(name)
        _REGISTRY[name] = backend
    try:
        yield backend
    finally:
        with _LOCK:
            if previous is None:
                _REGISTRY.pop(name, None)
            else:
                _REGISTRY[name] = previous


register_backend("highs", _solve_highs)
register_backend("bnb", _solve_bnb)
