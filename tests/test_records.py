"""Record semantics of every parameter and result class: read-only fields,
equality and hashing within one class, and the ``Name(field=value, ...)``
repr. The repr literals were taken from the dataclass versions of these
classes, so the text is unchanged."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from oracles import rebuild

import moranlab
from moranlab import (
    AvoidanceVerdict,
    CertifiedModulus,
    DelReport,
    Factorization,
    FiberTable,
    GaugeFunction,
    MixedRadixDigits,
    NormalityReport,
    PartitionCertificate,
    PrimeSchedule,
    SamplePoint,
    SparseCertificate,
    binary_system,
    build_context,
    build_convolved,
    build_schedule,
)
from moranlab._record import Record
from moranlab.delsum import BlockRow
from moranlab.dimension import BallRow, HRateRow
from moranlab.fourier import _build_level, _Level

ONE = PrimeSchedule(d=1, q=(7,), ell=(1,))
TOY = PrimeSchedule(d=1, q=(7, 11), ell=(1, 2))

# (record builder, its repr)
CASES = {
    "PrimeSchedule": (
        lambda: build_schedule(2, 3),
        "PrimeSchedule(d=2, q=(7, 11, 13), ell=(1, 2, 3), variant='nth-prime-from-7')",
    ),
    "MixedRadixDigits": (
        lambda: MixedRadixDigits((1, 2), (7, 11)),
        "MixedRadixDigits(digits=(1, 2), bases=(7, 11))",
    ),
    "_Level": (
        lambda: _build_level((0, 1), (F(1, 3), F(2, 3))),
        "_Level(digits=(0, 1), weights=(), gain=(0.44444444444444436, 0.4444444444444445))",
    ),
    "MoranSystem": (
        lambda: binary_system(ONE),
        "MoranSystem(schedule=PrimeSchedule(d=1, q=(7,), ell=(1,), variant='explicit'), "
        "digit_sets=((0, 1),), weights=((Fraction(1, 2), Fraction(1, 2)),))",
    ),
    "CertifiedModulus": (
        lambda: CertifiedModulus(0.25, 0.5, 3, -1.0),
        "CertifiedModulus(lo=0.25, hi=0.5, truncation_level=3, tail_bound_log=-1.0)",
    ),
    "Factorization": (
        lambda: Factorization(((2, 3), (7, 1))),
        "Factorization(pairs=((2, 3), (7, 1)))",
    ),
    "BaseContext": (
        lambda: build_context(2, 1, TOY),
        "BaseContext(b=2, h=1, schedule=PrimeSchedule(d=1, q=(7, 11), ell=(1, 2), "
        "variant='explicit'), weights=(Fraction(1, 2), Fraction(1, 2)), r0_prime=1, n0=1, "
        "Q=1, Q_valuations=(0, 0), k=(0, 1), j=(1, 1), r0=1, gamma=0.8660254037844386, "
        "alpha=0.9973194378783357, r1=19798)",
    ),
    "DelReport": (
        lambda: DelReport(2, 0.5, 1e-16, (0.25, 0.25), 0.3, 0.2, ((1, 0.5),)),
        "DelReport(N_max=2, partial_sum=0.5, radius=1e-16, increments=(0.25, 0.25), "
        "diagonal_sum=0.3, offdiagonal_sum=0.2, block_sums=((1, 0.5),))",
    ),
    "BlockRow": (
        lambda: BlockRow(r=1, m=0, block_sum=0.5, bound=1.0),
        "BlockRow(r=1, m=0, block_sum=0.5, bound=1.0, flag='asymptotic-regime-only')",
    ),
    "PartitionCertificate": (
        lambda: PartitionCertificate(
            I_start=0, length=4, J=2, y_size=2, classes=((0, 1), (2, 3))
        ),
        "PartitionCertificate(I_start=0, length=4, J=2, y_size=2, classes=((0, 1), (2, 3)))",
    ),
    "FiberTable": (
        lambda: FiberTable(s=1, length=2, fibers=(((0,), 2),), image_sizes=((1, 2),)),
        "FiberTable(s=1, length=2, fibers=(((0,), 2),), image_sizes=((1, 2),))",
    ),
    "SamplePoint": (
        lambda: SamplePoint(digits=(1, 0), value=F(1, 7), depth=2, seed=3),
        "SamplePoint(digits=(1, 0), value=Fraction(1, 7), depth=2, seed=3)",
    ),
    "NormalityReport": (
        lambda: NormalityReport(2, 4, ((0, 2), (1, 2)), F(0), F(1, 4)),
        "NormalityReport(base=2, trusted_digit_count=4, counts=((0, 2), (1, 2)), "
        "max_deviation=Fraction(0, 1), discrepancy=Fraction(1, 4), periodic=True)",
    ),
    "AvoidanceVerdict": (
        lambda: AvoidanceVerdict(
            passed=True, first_violation_j=None, interval_lo=F(1, 3), j_max=4
        ),
        "AvoidanceVerdict(passed=True, first_violation_j=None, interval_lo=Fraction(1, 3), "
        "j_max=4)",
    ),
    "GaugeFunction": (
        lambda: GaugeFunction("power", 0.5),
        "GaugeFunction(kind='power', param=0.5)",
    ),
    "SparseCertificate": (
        lambda: SparseCertificate(levels=(2,), rows=((1, 0, 0.0, -1.0, False),)),
        "SparseCertificate(levels=(2,), rows=((1, 0, 0.0, -1.0, False),))",
    ),
    "ConvolvedSystem": (
        lambda: build_convolved(binary_system(ONE), "dim-one"),
        "ConvolvedSystem(schedule=PrimeSchedule(d=1, q=(7,), ell=(1,), variant='explicit'), "
        "base_sets=((0, 1),), nu_sets=((0, 2),), digit_sets=((0, 1, 2, 3),), "
        "weights=((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),), "
        "special_levels=(1,), variant='dim-one')",
    ),
    "HRateRow": (
        lambda: HRateRow(r=F(1, 7), h_r=1, ratio=0.5, band=None),
        "HRateRow(r=Fraction(1, 7), h_r=1, ratio=0.5, band=None)",
    ),
    "BallRow": (
        lambda: BallRow(x_seed=1, r=F(1, 7), h_r=1, ball=F(1, 2), phi_r=0.125, ratio=5.0),
        "BallRow(x_seed=1, r=Fraction(1, 7), h_r=1, ball=Fraction(1, 2), phi_r=0.125, "
        "ratio=5.0)",
    ),
}


def _record_classes() -> list[type]:
    # every subclass of Record, direct or not (a ConvolvedSystem is a
    # MoranSystem), except the ones this file defines
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                todo.append(cls)
    return [cls for cls in found if cls.__module__ != __name__]


def test_every_record_class_is_covered():
    # the imports above load every library module, so every record class
    # the package defines is a subclass of Record by now
    defined = {cls.__name__ for cls in _record_classes()}
    assert defined == set(CASES) and len(CASES) == 19
    for name, (build, _) in CASES.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    build, text = CASES[name]
    record = build()
    # read-only: fields and new names refuse assignment, and fields deletion
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    # a field-wise twin, built through the constructor, is equal with an equal hash
    twin = rebuild(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    # never equal to a record of another class, to an instance of a subclass
    # with the same fields, or to the tuple of its field values
    for other_name, (other_build, _) in CASES.items():
        if other_name != name:
            assert record != other_build()
    subclass = type(f"Sub{name}", (type(record),), {})
    assert record != subclass(**{f: getattr(record, f) for f in record._fields})
    assert record != tuple(getattr(record, f) for f in record._fields)
    assert repr(record) == text


def test_derived_attributes_stay_out_of_eq_hash_and_repr():
    # PrimeSchedule's L, N and _bases and every cached_property live in the
    # instance __dict__ but are no fields
    sch = build_schedule(2, 3)
    twin = PrimeSchedule(d=2, q=(7, 11, 13), ell=(1, 2, 3), variant="nth-prime-from-7")
    sch.prefix_product(3)  # fills the cached _prefix of one of the two
    assert "_prefix" in vars(sch) and "_prefix" not in vars(twin)
    assert sch == twin and hash(sch) == hash(twin)
    assert repr(sch) == repr(twin)
    assert (sch.L, sch.N, sch._bases) == ((0, 1, 3, 6), (1, 7, 847, 1860859), (7, 11, 11, 13, 13, 13))
    with pytest.raises(AttributeError):
        sch._prefix = ()
    # _Level keeps its slots and no __dict__
    level = _build_level((0, 1), (F(1, 2), F(1, 2)))
    assert _Level.__slots__ == _Level._fields and not hasattr(level, "__dict__")


def test_window_verdict_is_kept_per_instance_out_of_eq_hash_and_repr():
    # the window check of digit_decay_bound is a cached_property: each
    # instance keeps its own verdict, and equal instances stay equal
    sysm, twin = binary_system(TOY), binary_system(TOY)
    assert sysm._window_bounded
    assert "_window_bounded" in vars(sysm) and "_window_bounded" not in vars(twin)
    assert sysm == twin and hash(sysm) == hash(twin)
    assert repr(sysm) == repr(twin)


X = F(1, 7)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SamplePoint((1,), X, 1, 3, 4), "takes 4 positional arguments, got 5"),
        (lambda: SamplePoint((1,), X, 1, seed=3, sead=4), "unexpected keyword argument 'sead'"),
        (lambda: SamplePoint((1,), X, 1, depth=1, seed=3), "multiple values for argument 'depth'"),
        (lambda: SamplePoint((1,), X, seed=3), "missing required argument 'depth'"),
        (lambda: BlockRow(1, 0, 0.5), "missing required argument 'bound'"),
        (lambda: _Level((0, 1), ()), "missing required argument 'gain'"),
    ],
    ids=["too-many", "unknown", "repeated", "missing", "missing-before-default", "missing-slots"],
)
def test_generic_constructor_rejects_bad_arguments(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_defaults_fill_trailing_fields_by_position_and_by_name():
    by_position = BlockRow(1, 0, 0.5, 1.0)
    by_name = BlockRow(bound=1.0, block_sum=0.5, m=0, r=1)
    assert by_position == by_name and by_position.flag == "asymptotic-regime-only"
    assert BlockRow(1, 0, 0.5, 1.0, "x").flag == BlockRow(1, 0, 0.5, 1.0, flag="x").flag == "x"
    report = NormalityReport(2, 4, ((0, 2), (1, 2)), F(0), F(1, 4))
    assert report.periodic is True
    assert report.frequencies == (F(1, 2), F(1, 2))
    assert NormalityReport(2, 4, (), F(0), F(1, 4), False).periodic is False
    assert NormalityReport(2, 4, (), F(0), F(1, 4), periodic=False).periodic is False
    # only these two classes have defaults
    with_defaults = {c.__name__ for c in _record_classes() if c._defaults}
    assert with_defaults == {"BlockRow", "NormalityReport"}


def _assign_only(init: ast.FunctionDef) -> bool:
    # every statement stores a parameter unchanged into a field: through
    # self.__dict__.update(name=name, ...), object.__setattr__(self, "name",
    # name) or self.name = name
    params = {a.arg for a in init.args.args + init.args.kwonlyargs}
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring

    def stored(values):
        return all(isinstance(v, ast.Name) and v.id in params for v in values)

    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call, target = stmt.value, ast.unparse(stmt.value.func)
            if target == "self.__dict__.update" and not call.args:
                ok = stored([k.value for k in call.keywords])
            elif target == "object.__setattr__" and len(call.args) == 3:
                ok = stored(call.args[2:])
            else:
                ok = False
        elif isinstance(stmt, ast.Assign):
            ok = ast.unparse(stmt.targets[0]).startswith("self.") and stored([stmt.value])
        else:
            ok = isinstance(stmt, ast.Pass)
        if not ok:
            return False
    return True


def test_no_record_has_an_assign_only_constructor():
    # the Record base binds arguments to fields; a class writes its own
    # __init__ only to run checks
    src = Path(moranlab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Record" not in {ast.unparse(base) for base in node.bases}:
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    if _assign_only(item):
                        found.append(f"{path.name}:{node.name}")
    assert found == []

