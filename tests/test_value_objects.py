"""The value-object contract of `value_object_cases.py`, one test per check.

`test_cross_version.py` runs the same checks under every other installed
CPython 3.10-3.13.
"""

import pytest

from value_object_cases import CHECKS


@pytest.mark.parametrize("check, args", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_value_object_contract(check, args):
    check(*args)
