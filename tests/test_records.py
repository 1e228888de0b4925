"""Value classes built by gradedalg.record: construction, immutability, equality, replace."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopcomm.catalog import FAMILIES, check, instantiate, report, route
from loopcomm.gradedalg import Algebra, ContractViolation, _frozen_setattr, record, replace
from loopcomm.steenrod import SteenrodOp
from loopcomm.sullivan import build_formal_model, find_rational_witness

_MODULES = ("gradedalg", "criteria", "steenrod", "sullivan", "catalog")
_SRC = Path(__file__).resolve().parent.parent / "src"


def _record_classes() -> list:
    out = []
    for name in _MODULES:
        module = importlib.import_module(f"loopcomm.{name}")
        out += [
            c
            for c in vars(module).values()
            if isinstance(c, type) and c.__module__ == module.__name__ and c.__setattr__ is _frozen_setattr
        ]
    return out


RECORDS = _record_classes()


def _samples() -> dict:
    """One instance of every record class, found in what the catalog builds."""
    found = {}

    def walk(obj):
        if type(obj) in RECORDS:
            found.setdefault(type(obj), obj)
            walk([getattr(obj, name) for name in obj._fields])
        elif isinstance(obj, Algebra):
            walk((obj.field, obj.generators))
        elif isinstance(obj, (tuple, list)):
            for x in obj:
                walk(x)
        elif isinstance(obj, dict):
            walk(list(obj.values()))

    walk([report(), FAMILIES])
    for fam in FAMILIES:
        for params in fam.default_range[:1]:
            instance = instantiate(fam.id, params)
            plan = route(instance)
            walk([instance, plan, check(instance)])
    (eii,) = route(instantiate("EII")).steps
    walk(find_rational_witness(build_formal_model(eii.presentation)))
    found[SteenrodOp] = SteenrodOp("Sq", 2)  # a P operation would reject the default prime
    return found


SAMPLES = _samples()


def test_every_record_class_is_sampled():
    assert len(RECORDS) == 22
    assert set(SAMPLES) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordClass:
    def test_positional_and_keyword_construction(self, cls):
        s = SAMPLES[cls]
        values = [getattr(s, name) for name in cls._fields]
        assert cls(*values) == s
        assert cls(**dict(zip(cls._fields, values))) == s
        assert replace(s) == s

    def test_defaults(self, cls):
        s = SAMPLES[cls]
        defaulted = [name for name in cls._fields if name in vars(cls)]
        required = {name: getattr(s, name) for name in cls._fields if name not in defaulted}
        built = cls(**required)
        for name in defaulted:
            assert getattr(built, name) == vars(cls)[name]
        positional = cls(*required.values())
        assert positional == built

    def test_bad_arguments_are_type_errors(self, cls):
        s = SAMPLES[cls]
        kwargs = {name: getattr(s, name) for name in cls._fields}
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(**kwargs, bogus=1)
        with pytest.raises(TypeError, match="arguments but"):
            cls(*kwargs.values(), None)
        first = cls._fields[0]
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(kwargs[first], **kwargs)
        required = [name for name in cls._fields if name not in vars(cls)]
        if required:
            del kwargs[required[-1]]
            with pytest.raises(TypeError, match=f"missing required argument.*'{required[-1]}'"):
                cls(**kwargs)

    def test_frozen(self, cls):
        s = SAMPLES[cls]
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, cls._fields[0])
        assert getattr(s, cls._fields[0]) is not None

    def test_equality_and_hash_by_values(self, cls):
        s = SAMPLES[cls]
        copy = cls(*[getattr(s, name) for name in cls._fields])
        assert copy == s and not copy != s
        assert s != object()
        try:
            h = hash(s)
        except TypeError:  # a field holds a dict, as for a frozen dataclass
            with pytest.raises(TypeError):
                hash(copy)
        else:
            assert hash(copy) == h


@record
class _Point:
    x: int
    y: int = 0


@record
class _Pair:
    x: int
    y: int = 0


def test_equal_values_of_different_classes_are_unequal():
    assert _Point(1, 2) == _Point(1, 2) and hash(_Point(1, 2)) == hash(_Point(x=1, y=2))
    assert _Point(1, 2) != _Pair(1, 2)
    assert _Point(1, 2) != _Point(1, 3)
    assert len({_Point(1), _Point(1, 0), _Pair(1)}) == 2


def test_repr_names_the_class_and_fields():
    assert repr(SteenrodOp("P", 1, 3)) == "SteenrodOp(family='P', k=1, prime=3)"
    assert repr(_Point(1)) == "_Point(x=1, y=0)"


def test_replace_runs_post_init():
    op = SteenrodOp("Sq", 2)
    assert replace(op, k=4) == SteenrodOp("Sq", 4)
    assert op.k == 2
    with pytest.raises(ContractViolation, match="Sq operations live at the prime 2"):
        replace(op, prime=4)
    with pytest.raises(TypeError, match="unexpected keyword argument 'degree'"):
        replace(op, degree=4)


def test_a_required_field_after_a_default_is_rejected():
    with pytest.raises(TypeError, match="without a default follows one with a default"):

        @record
        class _Bad:
            x: int = 0
            y: int


def _fresh_run(code: str, *flags: str) -> tuple:
    """(the modules a fresh interpreter, started with `flags`, adds to sys.modules while it runs `code`, its stdout)."""
    script = f"import sys; before = set(sys.modules); {code}; print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True)
    return done.stderr.split(), done.stdout


def _modules_loaded_by(code: str, *flags: str) -> list:
    """The modules a fresh interpreter, started with `flags`, adds to sys.modules while it runs `code`."""
    return _fresh_run(code, *flags)[0]


_NOT_AT_IMPORT = ("dataclasses", "inspect", "argparse", "gettext", "locale")
_CATALOG_SIDE = ("loopcomm.catalog", "loopcomm.steenrod", "loopcomm.criteria")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    new = _modules_loaded_by("import loopcomm.cli")
    assert "loopcomm.cli" in new
    assert not set(new) & {*_NOT_AT_IMPORT, *_CATALOG_SIDE, "loopcomm.gradedalg", "loopcomm.sullivan"}


def test_hilbert_and_model_load_only_what_they_run(tmp_path):
    pres = tmp_path / "cp3.pres"
    pres.write_text("field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n", encoding="utf-8")
    runs = {
        command: _modules_loaded_by(
            f"from loopcomm.cli import main; assert main([{command!r}, '--file', {str(pres)!r}{extra}]) == 0"
        )
        for command, extra in (("hilbert", ", '--up-to', '8', '--complete-intersection'"), ("model", ""))
    }
    hilbert = {name for name in runs["hilbert"] if name.startswith("loopcomm")}
    assert hilbert == {"loopcomm", "loopcomm.cli", "loopcomm.gradedalg"}
    assert {name for name in runs["model"] if name.startswith("loopcomm")} == hilbert | {"loopcomm.sullivan"}
    for argv in (["report", "--all", "--format", "structured"], ["check", "CII", "--m", "5", "--n", "5"]):
        runs[argv[0]] = _modules_loaded_by(f"from loopcomm.cli import main; main({argv!r})")
    for loaded in runs.values():
        assert not set(loaded) & set(_NOT_AT_IMPORT)
    # an abbreviation is read by argparse, to the same values
    exact, abbreviated = (
        _fresh_run(f"from loopcomm.cli import main; assert main(['hilbert', '--file', {str(pres)!r}, {up!r}, '8', {ci!r}]) == 0")
        for up, ci in (("--up-to", "--complete-intersection"), ("--up", "--comp"))
    )
    assert "argparse" in abbreviated[0]
    assert {name for name in abbreviated[0] if name.startswith("loopcomm")} == hilbert
    cp3 = "".join(f"{d}: {int(d % 2 == 0 and d < 8)}\n" for d in range(9)) + "complete intersection: True\n"
    assert abbreviated[1] == exact[1] == cp3


def test_commands_load_only_the_standard_library_they_run(tmp_path):
    # -S: a site hook (a .pth file) may preload these modules, which would hide the package's own imports
    pres = tmp_path / "cp3.pres"
    pres.write_text("field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n", encoding="utf-8")
    algebra_only = ("re", "enum", "typing", "pathlib")
    catalog_side = ("typing", "pathlib", "urllib.parse", "ipaddress")
    for argv, unused in (
        (["hilbert", "--file", str(pres), "--up-to", "8", "--complete-intersection"], algebra_only),
        (["model", "--file", str(pres)], algebra_only),
        (["check", "CII", "--m", "5", "--n", "5"], catalog_side),
        (["report", "--all", "--format", "structured"], catalog_side),
    ):
        loaded = _modules_loaded_by(f"from loopcomm.cli import main; assert main({argv!r}) == 0", "-S")
        assert "loopcomm.cli" in loaded and not set(loaded) & set(unused), (argv, loaded)


def test_the_catalog_finds_its_data_without_importlib_resources():
    assert "importlib.resources" not in _modules_loaded_by("from loopcomm.cli import main; assert main(['check', 'EIV']) == 0")


_NUMERIC_AND_JSON = ("fractions", "decimal", "json")


def test_integral_input_and_structured_output_load_no_fractions_or_json(tmp_path):
    integral = tmp_path / "cp3.pres"
    integral.write_text("field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n", encoding="utf-8")
    fractional = tmp_path / "half.pres"
    fractional.write_text("field rational\ngenerator x2 2\nrelation 6 explicit\nterm 1/2 3\nend\n", encoding="utf-8")
    for argv in (
        ["hilbert", "--file", str(integral), "--up-to", "8", "--complete-intersection", "--format", "structured"],
        ["model", "--file", str(integral), "--format", "structured"],
        ["model", "--file", str(integral)],
        ["report", "--all", "--format", "structured"],
    ):
        loaded = _modules_loaded_by(f"from loopcomm.cli import main; assert main({argv!r}) == 0")
        assert not set(loaded) & set(_NUMERIC_AND_JSON), (argv, loaded)
    loaded, out = _fresh_run(f"from loopcomm.cli import main; assert main(['model', '--file', {str(fractional)!r}]) == 0")
    assert "fractions" in loaded
    assert out.endswith("d x2 = 0\nd y5 = 1/2*x2^3\nd^2 = 0: True\n"), out
