"""The public names: set classes that load on first use, the result records, and
the README's Library example."""

import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import ncpgd
import ncpgd.sets
from ncpgd import ApocalypseFlag, StationarityReport, StepResult

SET_MODULES = {"SparseSet": "sparse", "NonnegSparseSet": "sparse", "LowRankSet": "lowrank",
               "PsdLowRankSet": "lowrank", "CurveSet": "curves", "EpigraphSet": "curves"}


@pytest.mark.parametrize("module", [ncpgd, ncpgd.sets], ids=lambda m: m.__name__)
def test_every_public_name_resolves_and_is_listed(module):
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None
        assert name in listed
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# The public surface, spelled out: a name added to or removed from a module
# and its __all__ together shows up here.
PUBLIC_NAMES = {
    ncpgd: [
        "ApocalypseFlag", "AverageRule", "BacktrackError", "CurveSet", "EpigraphSet",
        "FeasibleSet", "InfeasiblePointError", "LowRankSet", "MaxRule", "NonnegSparseSet",
        "Objective", "Point", "PsdLowRankSet", "ShapeError", "SolverConfig", "SparseSet",
        "StationarityReport", "StepResult", "Termination", "Trace", "WITNESS_ALPHA_GRID",
        "check_gradient", "classify_stationarity", "constant", "detect_apocalypse",
        "from_spec", "in_proximal_normal_witness", "inner", "least_squares",
        "norm", "p2gd", "pgd", "pgd_map", "projected_translation_check",
        "proximal_normal_witness", "quartic", "stationarity_measure_series",
    ],
    ncpgd.sets: [
        "CurveSet", "DEFAULT_TOL", "EpigraphSet", "FeasibleSet", "InfeasiblePointError",
        "LowRankSet", "NonnegSparseSet", "PsdLowRankSet", "SparseSet", "WITNESS_ALPHA_GRID",
        "from_spec", "in_proximal_normal_witness", "projected_translation_check",
        "proximal_normal_witness",
    ],
}


@pytest.mark.parametrize("module", [ncpgd, ncpgd.sets], ids=lambda m: m.__name__)
def test_public_names_are_exactly_the_listed_ones(module):
    assert sorted(module.__all__) == PUBLIC_NAMES[module]


@pytest.mark.parametrize("name", sorted(SET_MODULES))
def test_set_classes_are_the_ones_their_modules_define(name):
    defined = getattr(importlib.import_module(f"ncpgd.sets.{SET_MODULES[name]}"), name)
    assert getattr(ncpgd, name) is defined
    assert getattr(ncpgd.sets, name) is defined


@pytest.mark.parametrize("kind", sorted(ncpgd.sets._KINDS))
def test_set_constructors_take_exactly_their_spec_fields(kind):
    # A constructor parameter without a spec field would be a knob that no
    # spec, config file or command line can reach.
    _, name, fields = ncpgd.sets._KINDS[kind]
    params = inspect.signature(getattr(ncpgd.sets, name)).parameters
    assert tuple(params) == fields


@pytest.mark.parametrize("module", [ncpgd, ncpgd.sets], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'Ball'"):
        module.Ball


# Field order and defaults as the records had them when they were dataclasses.
RECORDS = [
    (StepResult, ("y", "alpha_accepted", "backtracks", "armijo_lhs", "armijo_rhs"), {}),
    (StationarityReport, ("d_regular", "d_general_member", "proximal_member",
                          "classification"), {}),
    (ApocalypseFlag, ("limit_point", "measure_at_limit", "flagged", "note"), {"note": ""}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
def test_records_keep_their_fields_and_stay_immutable(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    required = [f for f in fields if f not in defaults]
    instance = record(*range(len(required)))
    for name, value in defaults.items():
        assert getattr(instance, name) == value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)


README = Path(__file__).parent.parent / "README.md"


def test_readme_library_block_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert out.getvalue().splitlines() == comments == ["stationary-at-tol P-stationary", "True"]
