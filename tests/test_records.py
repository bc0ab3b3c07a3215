"""The public result classes against dataclass twins, and the modules a
cold import of flaghorn loads.

FlagType, MovabilityReport, GrassmannianFactor, FactorizationTree and
SuiteResult are plain classes, so that importing flaghorn does not load
dataclasses (and, through it, inspect, ast, dis and tokenize).  Each one
must still behave as the dataclass it replaced: the twins below are those
dataclasses, rebuilt here with make_dataclass."""

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import flaghorn
from flaghorn.factor import FactorizationTree, GrassmannianFactor, factor_full
from flaghorn.flags import FlagType
from flaghorn.levi import MovabilityReport, enumerate_levi_movable, is_levi_movable
from flaghorn.suites import SuiteResult

_OPTIONAL = ("condition_i", "condition_iii", "condition_iv", "coefficient", "failing_witness")

TWINS = {
    FlagType: dataclasses.make_dataclass("FlagType", ["steps", "n"], frozen=True),
    MovabilityReport: dataclasses.make_dataclass(
        "MovabilityReport",
        ["classes", "flag", "method"] + [(name, object, None) for name in _OPTIONAL],
        frozen=True,
    ),
    GrassmannianFactor: dataclasses.make_dataclass(
        "GrassmannianFactor", ["space", "classes", "partitions", "coefficient"], frozen=True
    ),
    FactorizationTree: dataclasses.make_dataclass(
        "FactorizationTree", ["flag", "classes", "coefficient", "base", "fiber"], frozen=True
    ),
    SuiteResult: dataclasses.make_dataclass(
        "SuiteResult",
        ["name", "passed"]
        + [(name, list, dataclasses.field(default_factory=list)) for name in ("lines", "failures")],
    ),
}


def _samples():
    """(instance, its field values) pairs, at least two per class, with
    nested records and defaults among them."""
    flag = FlagType((1, 2), 4)
    movable = enumerate_levi_movable(flag, 3)[0][0]
    tree = factor_full(movable, flag)
    out = [
        FlagType((1, 3), 4),
        FlagType(steps=(2,), n=4),
        is_levi_movable(movable, flag),
        is_levi_movable(movable, flag, "cross_check"),
        MovabilityReport(movable, flag, "via_iii"),
        tree,
        tree.fiber,
        tree.base,
        GrassmannianFactor(FlagType((1,), 2), ((1, 2),), ((),), 1),
        SuiteResult("thm1", True),
        SuiteResult("lengths", False, ["a line"], failures=["a failure"]),
    ]
    return [(r, tuple(getattr(r, name) for name in r.__match_args__)) for r in out]


SAMPLES = _samples()
IDS = [f"{type(record).__name__}-{k}" for k, (record, _) in enumerate(SAMPLES)]


def test_every_class_has_samples():
    assert {type(record) for record, _ in SAMPLES} == set(TWINS)


@pytest.mark.parametrize("record, values", SAMPLES, ids=IDS)
def test_record_matches_its_dataclass_twin(record, values):
    cls = type(record)
    twin_cls = TWINS[cls]
    twin = twin_cls(*values)
    names = [f.name for f in dataclasses.fields(twin_cls)]
    assert cls.__match_args__ == twin_cls.__match_args__ == tuple(names)
    assert repr(record) == repr(twin)
    # construction by position and by keyword, field for field
    for made, twin_made in [(cls(*values), twin), (cls(**dict(zip(names, values))), twin)]:
        assert made == record and repr(made) == repr(twin_made)
        assert tuple(getattr(made, name) for name in names) == values
    # equal only within the class: each side declines the other
    assert record.__eq__(twin) is NotImplemented and twin.__eq__(record) is NotImplemented
    assert record != twin and record != values and not (record == values)
    if cls is SuiteResult:
        for obj in (record, twin):
            with pytest.raises(TypeError):
                hash(obj)
        made = cls(*values)
        made.passed = not made.passed
        assert made != record
        del made.passed
        assert not hasattr(made, "passed")
    else:
        assert hash(record) == hash(twin) == hash(cls(*values))
        for name in names:
            for obj in (record, twin):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert tuple(getattr(record, name) for name in names) == values
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == repr(record)
        if cls is not SuiteResult:
            assert hash(copied) == hash(record)
    twin_copy = copy.deepcopy(twin)
    assert twin_copy == twin and repr(twin_copy) == repr(record)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_defaults_match_the_twin(cls):
    twin_cls = TWINS[cls]
    missing = dataclasses.MISSING
    fields = dataclasses.fields(twin_cls)
    required = [f.name for f in fields if f.default is f.default_factory is missing]
    point = FlagType((1,), 2)
    values = {
        "steps": (1,), "n": 2, "classes": ((1, 2),), "flag": point, "space": point,
        "method": "via_iii", "partitions": ((),), "coefficient": 1, "base": None,
        "fiber": None, "name": "thm1", "passed": True,
    }
    kwargs = {name: values[name] for name in required}
    record, twin = cls(**kwargs), twin_cls(**kwargs)
    assert repr(record) == repr(twin)
    assert all(getattr(record, f.name) == getattr(twin, f.name) for f in fields)
    if cls is SuiteResult:  # a new list for every instance, as default_factory gives
        assert record.lines is not cls(**kwargs).lines


def test_match_statement_reads_the_fields():
    match FlagType((1, 3), 4):
        case FlagType(steps, n):
            assert (steps, n) == ((1, 3), 4)
    match SuiteResult("thm1", True):
        case SuiteResult("thm1", passed, [], []):
            assert passed


def test_flag_type_is_not_a_tuple():
    flag = FlagType((1, 2), 3)
    assert flag != ((1, 2), 3) and flag == FlagType([True, 2], 3)
    assert repr(FlagType([True, 2], 3)) == "FlagType(steps=(1, 2), n=3)"
    assert len({flag, FlagType((1, 2), 3), FlagType((1,), 3)}) == 2


# Modules that a cold import of flaghorn must not load: dataclasses pulls in
# inspect, and inspect ast, dis and tokenize; csv and argparse are imported
# only by the CLI paths that need them.
NOT_ON_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "argparse"}


def test_cold_import_loads_no_heavy_module():
    """A fresh interpreter records the modules it starts with, then imports
    flaghorn and flaghorn.cli; the modules each import adds are compared
    against that bare set, so that a module a site hook loads at startup
    does not count."""
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import flaghorn\n"
        "package = set(sys.modules) - bare\n"
        "import flaghorn.cli\n"
        "print(sorted(package))\n"
        "print(sorted(set(sys.modules) - bare))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(flaghorn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    package, cli = (set(ast.literal_eval(line)) for line in out)
    assert "flaghorn.levi" in package and "flaghorn.cli" in cli
    assert not package & NOT_ON_IMPORT, sorted(package & NOT_ON_IMPORT)
    assert not cli & NOT_ON_IMPORT, sorted(cli & NOT_ON_IMPORT)
