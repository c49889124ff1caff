"""Contract of the value objects built by `core.one_write_init`.

`Matrix`, `CheckRecord`, `BalanceReport`, `Spectrum2`, `SpectrumEstimate`
and `DiscrepancyReport` store their fields by assigning the instance
`__dict__` once. They must still behave as the frozen dataclasses they are:
assignment and deletion raise FrozenInstanceError; equality, hashing,
`repr`, `fields`, `replace` and pickling are the dataclass's; `Matrix` and
`CheckRecord` still validate; and an instrument that rebinds
`Matrix.__post_init__` sees every construction from outside data, and no
other: entries the program computed take `core._generated_matrix`, which
checks them once itself. The one write rests on CPython's handling of
`__dict__`, so each interpreter checks it.

This module needs no pytest:

    PYTHONPATH=src python3 tests/value_object_cases.py

prints each failing check and exits 1 if there is one.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import sys

from balmat import algebra
from balmat.balance import BalanceReport, classify_balance
from balmat.core import CheckRecord, Matrix, matrix_from_rows
from balmat.discrepancy import DiscrepancyReport, discrepancy_report, interior
from balmat.errors import DimensionError, InvalidInputError
from balmat.spectral2 import Spectrum2, SpectrumEstimate

#: Per class: the field values of one instance, and one field with another value.
SAMPLES = {
    Matrix: ((2, 2, (1.0, 2.0, 3.0, 4.0)), ("entries", (4.0, 3.0, 2.0, 1.0))),
    CheckRecord: (("trace_entry", True, 1.5, 2.0, -0.5), ("lhs", 1.25)),
    BalanceReport: (((5.0, 25.0), (10.0, 20.0), 0.8, 0.5, False, False, False, False), ("vertical_defect", 0.25)),
    Spectrum2: ((-1.0, 3.0, False), ("is_complex", True)),
    SpectrumEstimate: ((4.0, 1.0, 0.5, 1e-12), ("spread", 0.0)),
    DiscrepancyReport: (
        ((3.0, 7.0), (4.0, 6.0), (1.5, 3.5), (2.0, 3.0), 0.5, 1.0, True, False, frozenset({0, 1}), 0.75),
        ("fair_row_indices", frozenset({1})),
    ),
}


def _raises(exc_type, fn) -> bool:
    try:
        fn()
    except exc_type:
        return True
    return False


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def check_fields(cls, values, other):
    obj = cls(*values)
    assert dataclasses.is_dataclass(obj)
    assert tuple(getattr(obj, name) for name in _names(cls)) == values
    assert obj.__dict__ == dict(zip(_names(cls), values))
    assert cls(**dict(zip(_names(cls), values))) == obj
    assert _raises(TypeError, lambda: cls(*values[:-1]))
    assert _raises(TypeError, lambda: cls(*values, values[-1]))


def check_frozen(cls, values, other):
    obj = cls(*values)
    name, value = other
    assert _raises(dataclasses.FrozenInstanceError, lambda: setattr(obj, name, value))
    assert _raises(dataclasses.FrozenInstanceError, lambda: delattr(obj, name))
    assert _raises(dataclasses.FrozenInstanceError, lambda: setattr(obj, "extra", 1))
    assert tuple(getattr(obj, n) for n in _names(cls)) == values


def check_eq_hash(cls, values, other):
    obj, twin = cls(*values), cls(*values)
    assert obj is not twin and obj == twin and hash(obj) == hash(twin)
    changed = dataclasses.replace(obj, **dict([other]))
    assert changed != obj
    assert hash(obj) == hash(values)  # a frozen dataclass hashes its field tuple


def check_repr(cls, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(_names(cls), values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({fields})"


def check_replace(cls, values, other):
    obj = cls(*values)
    name, value = other
    changed = dataclasses.replace(obj, **{name: value})
    assert type(changed) is cls and getattr(changed, name) == value
    assert all(getattr(changed, n) == getattr(obj, n) for n in _names(cls) if n != name)
    assert dataclasses.replace(obj) == obj


def check_pickle(cls, values, other):
    obj = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj and hash(back) == hash(obj)


PER_CLASS = (check_fields, check_frozen, check_eq_hash, check_repr, check_replace, check_pickle)


def check_matrix_validates():
    m = Matrix(1, 3, [1, 2.5, True])
    assert m.entries == (1.0, 2.5, 1.0) and all(type(v) is float for v in m.entries)
    for bad in (math.nan, math.inf, -math.inf, "x", None, 10**400):
        assert _raises(InvalidInputError, lambda: Matrix(1, 2, (1.0, bad)))
    assert _raises(DimensionError, lambda: Matrix(2, 2, (1.0, 2.0, 3.0)))
    assert _raises(DimensionError, lambda: Matrix(0, 1, ()))
    assert _raises(InvalidInputError, lambda: dataclasses.replace(m, entries=(1.0, math.nan, 2.0)))


def check_record_validates():
    assert _raises(InvalidInputError, lambda: CheckRecord("x", True, 0.0, 0.0, 1.0))
    assert _raises(InvalidInputError, lambda: CheckRecord("x", False, 0.0, 0.0, -1.0))
    assert _raises(InvalidInputError, lambda: CheckRecord("x", True, 0.0, 0.0, math.nan))
    assert CheckRecord.bounded("x", 1.0, 2.0) == CheckRecord("x", True, 1.0, 2.0, -1.0)


def check_rebound_post_init_sees_every_matrix():
    # Outside data only: the sum, the transpose and the interior are computed.
    seen = []
    original = Matrix.__post_init__

    def hook(self):
        seen.append(self.shape)
        original(self)

    Matrix.__post_init__ = hook
    try:
        a = Matrix(2, 2, (1.0, 2.0, 3.0, 4.0))
        b = matrix_from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        algebra.add(a, a)
        algebra.transpose(b)
        interior(b, 0, 2, 1, 2)
        dataclasses.replace(a, n_rows=1, n_cols=4)
        pickle.loads(pickle.dumps(a))  # unpickling stores the state and calls no __init__
    finally:
        Matrix.__post_init__ = original
    assert seen == [(2, 2), (3, 3), (1, 4)], seen


def check_producers_build_equal_records():
    m = matrix_from_rows([[3, 4], [4, 3]])
    report = classify_balance(m)
    assert report == BalanceReport((25.0, 25.0), (25.0, 25.0), 0.0, 0.0, True, True, True, False)
    drep = discrepancy_report(m, 1.0)
    assert drep == DiscrepancyReport((7.0, 7.0), (7.0, 7.0), (3.5, 3.5), (3.5, 3.5), 0.5, 0.5, True, True,
                                     frozenset({0, 1}), 1.0)  # fmt: skip


CHECKS = [
    *((f"{check.__name__}[{cls.__name__}]", check, (cls, *SAMPLES[cls])) for cls in SAMPLES for check in PER_CLASS),
    *((check.__name__, check, ()) for check in (
        check_matrix_validates, check_record_validates, check_rebound_post_init_sees_every_matrix,
        check_producers_build_equal_records,
    )),
]  # fmt: skip


def failures() -> list[str]:
    bad = []
    for name, check, args in CHECKS:
        try:
            check(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            bad.append(f"{name}: {type(exc).__name__}: {exc}")
    return bad


if __name__ == "__main__":
    bad = failures()
    for line in bad:
        print(f"failed: {line}")
    print(f"Python {sys.version.split()[0]}: {len(bad)} of {len(CHECKS)} value-object checks fail")
    sys.exit(1 if bad else 0)
