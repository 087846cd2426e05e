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

The ``fixed-schedule/`` family pins the link-embedding LPs of
:mod:`repro.tvnep.fixed_schedule`, which are assembled as arrays with no
:class:`~repro.mip.model.Model` (so they have no names).  Each case runs
the one-LP-per-candidate greedy of ``reference_greedy.py`` (the
executable spec of ``greedy_enumerative``, which solves far fewer LPs)
on a grid scenario, or solves one instance of ``test_fixed_schedule.py``,
and hashes every LP it solves — ``c``, the CSR parts of ``A``, row and
column bounds — in solve order.  These
goldens were recorded from the ``Model``-compiled LPs the arrays
replaced, which they match byte for byte.

A change that is *meant* to alter a model re-pins the file::

    PYTHONPATH=src python -m tests.tvnep.test_golden_forms > tests/tvnep/golden_forms.json

and should say which cases moved and why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Callable
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.mip.model import Model, StandardForm
from repro.tvnep import (
    CSigmaModel,
    DeltaModel,
    SigmaModel,
    fixed_schedule,
    solve_fixed_schedule,
)
from repro.tvnep.base import ModelOptions
from repro.tvnep.discrete_model import DiscreteTimeModel
from repro.tvnep.rerouting import ReroutingCSigmaModel
from repro.vnep.static_model import StaticVNEPModel
from repro.workloads import small_scenario

from .reference_greedy import reference_greedy
from .test_fixed_schedule import INSTANCES as FIXED_SCHEDULE_INSTANCES

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


def _put(digest, payload: bytes) -> None:
    digest.update(len(payload).to_bytes(8, "little"))
    digest.update(payload)


def _put_arrays(digest, floats, ints) -> None:
    """Hash arrays in a fixed dtype and byte order (``-0.0`` as ``0.0``),
    so the value does not depend on the platform's index type."""
    for values in floats:
        _put(digest, (np.asarray(values, dtype="<f8") + 0.0).tobytes())
    for values in ints:
        _put(digest, np.asarray(values, dtype="<i8").tobytes())


def fingerprint(form: StandardForm) -> str:
    """sha256 over every field of a compiled standard form."""
    digest = hashlib.sha256()
    _put(digest, "\0".join(v.name for v in form.variables).encode())
    _put(digest, "\0".join(form.constraint_names).encode())
    floats = (
        form.c,
        [form.c0, form.sense_sign],
        form.A.data,
        form.row_lb,
        form.row_ub,
        form.lb,
        form.ub,
    )
    _put_arrays(digest, floats, (form.A.indptr, form.A.indices, form.integrality))
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


# ---------------------------------------------------------------------------
# the fixed-schedule LP: arrays only, one entry per run of LPs
# ---------------------------------------------------------------------------
def capture_fixed_schedule_lps(run: Callable[[], object]) -> list[tuple]:
    """``(c, A, row_lb, row_ub, lb, ub)`` of every LP ``run()`` solves."""
    with mock.patch.object(
        fixed_schedule, "solve_highs", wraps=fixed_schedule.solve_highs
    ) as solve:
        run()
    return [call.args[:6] for call in solve.call_args_list]


def record_fixed_schedule(run: Callable[[], object]) -> dict:
    """The golden entry of the fixed-schedule LPs one run solves."""
    digest = hashlib.sha256()
    shapes = []
    for c, A, row_lb, row_ub, lb, ub in capture_fixed_schedule_lps(run):
        shapes.append([A.shape[0], A.shape[1], int(A.nnz)])
        _put_arrays(digest, (c, A.data, row_lb, row_ub, lb, ub), (A.indptr, A.indices))
    return {"shapes": shapes, "sha256": digest.hexdigest()}


def _reference_greedy(seed, flexibility):
    scenario = small_scenario(seed).with_flexibility(flexibility)
    reference_greedy(scenario.substrate, scenario.requests, scenario.node_mappings)


def _fixed_schedule_instance(builder):
    solve_fixed_schedule(*builder())


def fixed_schedule_cases() -> dict[str, Callable[[], object]]:
    """Case id -> zero-argument run that solves the case's LPs."""
    cases: dict[str, Callable[[], object]] = {}
    for seed, flex in itertools.product(SEEDS, (0.0, 1.0)):
        cases[f"fixed-schedule/greedy-s{seed}-n6-f{flex}"] = partial(
            _reference_greedy, seed, flex
        )
    for name, builder in FIXED_SCHEDULE_INSTANCES.items():
        cases[f"fixed-schedule/{name}"] = partial(_fixed_schedule_instance, builder)
    return cases


CASES = golden_cases()
FIXED_SCHEDULE_CASES = fixed_schedule_cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted([*CASES, *FIXED_SCHEDULE_CASES])


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


@pytest.mark.parametrize("case_id", list(FIXED_SCHEDULE_CASES))
def test_fixed_schedule_lps_match_golden(golden, case_id):
    got = record_fixed_schedule(FIXED_SCHEDULE_CASES[case_id])
    want = golden[case_id]
    assert got["shapes"] == want["shapes"], (
        f"{case_id}: (rows, cols, nnz) per LP moved from {want['shapes']} "
        f"to {got['shapes']}"
    )
    assert got["sha256"] == want["sha256"], (
        f"{case_id}: same LP shapes, but coefficients or bounds changed"
    )


def dumps(records: dict) -> str:
    """The golden file's text: one case per line, sorted by id."""
    lines = (
        f" {json.dumps(case_id)}: {json.dumps(records[case_id], sort_keys=True)}"
        for case_id in sorted(records)
    )
    return "{\n" + ",\n".join(lines) + "\n}"


if __name__ == "__main__":
    records = {case_id: record(build()) for case_id, build in CASES.items()}
    for case_id, run in FIXED_SCHEDULE_CASES.items():
        records[case_id] = record_fixed_schedule(run)
    print(dumps(records))
