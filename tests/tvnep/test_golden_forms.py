"""Golden fingerprints of the standard forms every model compiles to.

``docs/formulations.md`` is the readable specification of the Delta-,
Sigma- and cSigma-Models; this suite pins what the builders actually
emit.  For a fixed grid of generator scenarios, each model's
:class:`~repro.mip.model.StandardForm` is reduced to one sha256 over
every field a solver sees — variable and constraint names, the
objective (``c``, ``c0``, ``sense_sign``), the CSR parts of ``A``, row
and column bounds, and integrality — and compared with the value
recorded in ``golden_forms.json``, next to ``(rows, cols, nnz)`` so a
failure says what moved.  Canonical CSR is unique per row, so an equal
hash means the same polyhedron in the same row and column order.

When the goldens were recorded, every case was also built through an
independent ``LinExpr`` dict-algebra emitter of the same rows, and the
two compiled forms were byte-identical.

A change that is *meant* to alter a model re-pins the file::

    PYTHONPATH=src python tests/tvnep/test_golden_forms.py > tests/tvnep/golden_forms.json

and should say which cases moved and why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Callable
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.mip.model import Model, StandardForm
from repro.tvnep import CSigmaModel, DeltaModel, SigmaModel
from repro.tvnep.base import ModelOptions
from repro.tvnep.discrete_model import DiscreteTimeModel
from repro.tvnep.rerouting import ReroutingCSigmaModel
from repro.vnep.static_model import StaticVNEPModel
from repro.workloads import small_scenario

GOLDEN_PATH = Path(__file__).with_name("golden_forms.json")

SEEDS = range(4)
SIZES = (2, 3, 4)
FLEXIBILITIES = (0.0, 0.5, 1.0, 2.0)

#: ``(label, model class, options)`` built on every grid scenario
GRID_MODELS = (
    ("csigma", CSigmaModel, ModelOptions()),
    ("sigma-plain", SigmaModel, ModelOptions.plain()),
    ("sigma", SigmaModel, ModelOptions()),
    ("delta-plain", DeltaModel, ModelOptions.plain()),
)


def fingerprint(form: StandardForm) -> str:
    """sha256 over every field of a compiled standard form.

    Arrays are hashed in a fixed dtype and byte order (and ``-0.0`` as
    ``0.0``), so the value does not depend on the platform's index type.
    """
    digest = hashlib.sha256()

    def put(payload: bytes) -> None:
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)

    put("\0".join(v.name for v in form.variables).encode())
    put("\0".join(form.constraint_names).encode())
    floats = (
        form.c,
        [form.c0, form.sense_sign],
        form.A.data,
        form.row_lb,
        form.row_ub,
        form.lb,
        form.ub,
    )
    for values in floats:
        put((np.asarray(values, dtype="<f8") + 0.0).tobytes())
    for values in (form.A.indptr, form.A.indices, form.integrality):
        put(np.asarray(values, dtype="<i8").tobytes())
    return digest.hexdigest()


def _temporal(model_cls, options, seed, num_requests, flexibility, fixed=True):
    scenario = small_scenario(seed, num_requests=num_requests).with_flexibility(
        flexibility
    )
    return model_cls(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings if fixed else None,
        options=options,
    ).model


def _static(seed, fixed):
    scenario = small_scenario(seed, num_requests=3)
    return StaticVNEPModel(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings if fixed else None,
    ).model


def _discrete(seed, fixed):
    scenario = small_scenario(seed, num_requests=3).with_flexibility(1.0)
    return DiscreteTimeModel(
        scenario.substrate,
        scenario.requests,
        slot_length=0.5,
        fixed_mappings=scenario.node_mappings if fixed else None,
    ).model


def golden_cases() -> dict[str, Callable[[], Model]]:
    """Case id -> zero-argument builder of the case's model."""
    cases: dict[str, Callable[[], Model]] = {}
    for (label, cls, options), seed, n, flex in itertools.product(
        GRID_MODELS, SEEDS, SIZES, FLEXIBILITIES
    ):
        cases[f"{label}/s{seed}-n{n}-f{flex}"] = partial(
            _temporal, cls, options, seed, n, flex
        )
    # free placement: the full placement-variable space
    for label, cls in (
        ("csigma", CSigmaModel),
        ("sigma", SigmaModel),
        ("delta", DeltaModel),
    ):
        cases[f"{label}/free-s0-n2-f1.0"] = partial(
            _temporal, cls, ModelOptions(), 0, 2, 1.0, fixed=False
        )
    for seed, flex in itertools.product(SEEDS, (0.0, 1.0)):
        cases[f"rerouting/s{seed}-n3-f{flex}"] = partial(
            _temporal, ReroutingCSigmaModel, ModelOptions(), seed, 3, flex
        )
    for seed, fixed in itertools.product(SEEDS, (True, False)):
        placement = "fixed" if fixed else "free"
        cases[f"static/{placement}-s{seed}-n3"] = partial(_static, seed, fixed)
        cases[f"discrete/{placement}-s{seed}-n3-f1.0"] = partial(
            _discrete, seed, fixed
        )
    return cases


def record(model: Model) -> dict:
    """The golden entry of one built model."""
    form = model.to_standard_form()
    return {
        "shape": [form.num_constraints, form.num_vars, int(form.A.nnz)],
        "sha256": fingerprint(form),
    }


CASES = golden_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_form_matches_golden(golden, case_id):
    got = record(CASES[case_id]())
    want = golden[case_id]
    assert got["shape"] == want["shape"], (
        f"{case_id}: (rows, cols, nnz) moved from {want['shape']} to {got['shape']}"
    )
    assert got["sha256"] == want["sha256"], (
        f"{case_id}: same (rows, cols, nnz) {got['shape']}, but names, "
        "coefficients, bounds or integrality changed"
    )


def dumps(records: dict) -> str:
    """The golden file's text: one case per line, sorted by id."""
    lines = (
        f" {json.dumps(case_id)}: {json.dumps(records[case_id], sort_keys=True)}"
        for case_id in sorted(records)
    )
    return "{\n" + ",\n".join(lines) + "\n}"


if __name__ == "__main__":
    print(dumps({case_id: record(build()) for case_id, build in CASES.items()}))
