"""The record contract: every report record is a frozen value built by one shared constructor.

Each record class of the package is checked on one instance that the
library itself builds: its field order, construction by position, by name
and with defaults, refusal of bad calls, frozenness, value equality and
hashing within one class only, pickling, and the validation its
``__post_init__`` keeps.
"""

import pickle

import pytest

from polyurn import analysis, montecarlo, oracle, ratpoly, stability, urns
from polyurn.analysis import analyze_model
from polyurn.montecarlo import SimConfig, cluster_finals, judge, ks_beta, run_replicates
from polyurn.oracle import UrnState, cond_moments_oracle, step_distribution
from polyurn.ratpoly import RatPoly, Record
from polyurn.urns import one_draw_model, two_draw_model


class _Outer(Record):
    first: int
    second: str = "default"


class _Inner(_Outer):
    third: tuple = ()


def _samples() -> dict[type, Record]:
    bistable = two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)
    bistable.scaled  # cached, so pickling carries it
    full = analyze_model(bistable)
    config = SimConfig(bistable, 20, 3, record_trajectory=True, trajectory_stride=5)
    results = run_replicates(config)
    finals = [r.final_z for r in results]
    report = judge(full.prediction, config, results)
    single = one_draw_model([1, 0, 0, 1])
    state = UrnState(5, 2)
    found = [
        full, bistable, bistable.matrix, bistable.scaled, full.meta, full.drift, full.noise,
        full.attainable, full.scheme, full.equilibria[0], full.prediction,
        full.prediction.points[0], full.prediction.excluded[0], full.prediction.points[0].root,
        analyze_model(single).noise, single.matrix,
        analyze_model(two_draw_model([0, 0, 0, 1, 1, 0])).degenerate,
        state, step_distribution(state, bistable)[0], cond_moments_oracle(state, bistable),
        config, results[0], cluster_finals(finals, [0.25, 0.75], 0.05), ks_beta(finals, 1, 1),
        report, report.conventions,
        _Inner(1, "two", (3,)),
    ]
    return {type(record): record for record in found}


_SAMPLES = _samples()

#: For each record whose ``__post_init__`` validates, fields it must refuse.
_REFUSED = {
    SimConfig: {"steps": -1},
    urns.OneDrawMatrix: dict.fromkeys(urns.OneDrawMatrix._fields, 0),
    urns.TwoDrawMatrix: dict.fromkeys(urns.TwoDrawMatrix._fields, 0),
    urns.UrnModel: {"w0": -1},
    UrnState: {"white": 0, "black": 0},
    stability.SAConditions: {"t_min": 0},
}


def _package_records() -> set[type]:
    modules = (ratpoly, urns, stability, montecarlo, analysis, oracle)
    return {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value._fields
    }


def test_every_package_record_has_a_sample():
    assert _package_records() == set(_SAMPLES) - {_Inner}


@pytest.mark.parametrize("cls", list(_SAMPLES), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    record = _SAMPLES[cls]
    names = cls._fields
    values = tuple(getattr(record, name) for name in names)
    fields = dict(zip(names, values))

    # Declared order, inherited fields first.
    declared = [
        name
        for klass in reversed(cls.__mro__[:cls.__mro__.index(Record)])
        for name in vars(klass).get("__annotations__", {})
    ]
    assert list(names) == declared and names

    if cls is RatPoly:  # canonical form from coefficients, its own constructor
        copy = RatPoly(record.coeffs)
    else:
        copy = cls(*values)
        assert cls(**fields) == copy
        # A default is a class attribute, the subclass's own or inherited.
        defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        required = [name for name in names if name not in defaults]
        assert cls(*values[:len(required)]) == cls(*values[:len(required)], **defaults)
        without_first = {name: fields[name] for name in names if name != required[0]}
        for bad_args, bad_kwargs in [
            ((), without_first),                   # a missing field
            (values, {"no_such_field": 1}),        # an unknown field
            (values, {names[0]: values[0]}),       # a repeated field
            ((*values, None), {}),                 # one value too many
        ]:
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
        if cls in _REFUSED:
            with pytest.raises(ValueError):
                cls(**{**fields, **_REFUSED[cls]})
        own_check = cls.__post_init__ is not Record.__post_init__
        assert own_check == (cls in _REFUSED)

    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    assert copy == record and not copy != record
    try:
        expected_hash = hash(values)
    except TypeError:  # a field holds a dict, as a verification report's points do
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record) == expected_hash

    twin = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(names, "object")})
    assert twin(*values) != record and record != twin(*values)

    clone = pickle.loads(pickle.dumps(record))  # cached views, such as a model's scaled one, too
    assert clone == record and clone is not record and vars(clone).keys() == vars(record).keys()
    assert repr(clone) == repr(record) and repr(record).startswith(f"{cls.__qualname__}(")
