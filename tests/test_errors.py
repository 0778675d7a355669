"""The one field check: its message template and its recurring rules."""

import re

import numpy as np
import pytest

from lstmpc import errors

FINITE_RULES = (errors.FINITE, errors.POSITIVE, errors.NONNEGATIVE)
INT_RULES = (errors.POSITIVE_INT, errors.NONNEGATIVE_INT)


@pytest.mark.parametrize("rule", FINITE_RULES + INT_RULES)
@pytest.mark.parametrize("value", [np.nan, float("nan"), np.inf, -np.inf, True, False,
                                   "1", None, np.array(1.0)])
def test_rejects_nan_inf_bool_and_non_numbers(rule, value):
    with pytest.raises(ValueError, match=r"^level must be .*, got "):
        errors.check("level", value, rule)


@pytest.mark.parametrize("rule", INT_RULES)
@pytest.mark.parametrize("value", [1.0, 2.5, np.float64(3.0)])
def test_int_rules_reject_floats(rule, value):
    with pytest.raises(ValueError, match=r"^n must be a (positive|nonnegative) integer"):
        errors.check("n", value, rule)


@pytest.mark.parametrize("rule, good, bad", [
    (errors.FINITE, [-1e300, 0, -2, np.float64(-0.5)], []),
    (errors.POSITIVE, [1e-300, 3, np.float32(0.5)], [0.0, -0.0, -1]),
    (errors.NONNEGATIVE, [0.0, 0, 7.5, np.float64(2.0)], [-1e-300, -1]),
    (errors.POSITIVE_INT, [1, 10 ** 30, np.int64(4)], [0, -3]),
    (errors.NONNEGATIVE_INT, [0, 2, np.int32(0)], [-1]),
])
def test_rule_bounds(rule, good, bad):
    for value in good:
        errors.check("x", value, rule)
    for value in bad:
        with pytest.raises(ValueError, match=re.escape(f"x must be {rule[1]}, got {value!r}")):
            errors.check("x", value, rule)


def test_message_names_the_field_first():
    with pytest.raises(ValueError) as info:
        errors.check("t_s", -1.0, errors.POSITIVE)
    assert str(info.value) == "t_s must be finite and positive, got -1.0"
