"""Import ``repro`` from the checkout this benchmark sits in, never elsewhere."""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")


class CheckoutError(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def use_checkout_source() -> None:
    """Put ``<checkout>/src`` first on ``sys.path`` and check ``repro`` loads from it.

    Raises :class:`CheckoutError` when the package is missing or an
    installed copy elsewhere would shadow the checkout's source.
    """
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise CheckoutError(f"no repro package under {SOURCE}")
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    repro = importlib.import_module("repro")
    location = os.path.abspath(repro.__file__)
    if not location.startswith(SOURCE + os.sep):
        raise CheckoutError(f"repro imported from {location}, not from {SOURCE}")
