"""The two setting rules, ``core.check_real`` and ``core.check_integer``, on every settings class.

Each numeric field of ``GridSpec``, ``RhsOptions``, ``BFamilyConfig``,
``FitOptions`` and ``SyntheticSpec`` is built once per value below, the
other fields held at valid values.  A refused value must raise
ConfigError whose message names the field and the rule it broke; an
accepted value must be kept as given.  ``dealias`` is the one flag: a
bool and nothing else.
"""

import math

import numpy as np
import pytest

from bfamily.core import GridSpec
from bfamily.errors import ConfigError
from bfamily.integrator import BFamilyConfig
from bfamily.spectral import RhsOptions
from bfamily.synthetic import SyntheticSpec
from bfamily.tracker import FitOptions

# class: the keyword arguments of a valid instance
VALID = {
    GridSpec: dict(n_modes=16),
    RhsOptions: dict(b=3.0),
    BFamilyConfig: dict(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0),
    FitOptions: dict(),
    SyntheticSpec: dict(alpha=0.5, delta=0.2, x_star=0.0),
}

# (class, field, rule): "real", "positive real", "integer", "positive integer" or "flag"
FIELDS = [
    (GridSpec, "n_modes", "positive integer"),
    (RhsOptions, "b", "real"),
    (RhsOptions, "dealias", "flag"),
    (BFamilyConfig, "b", "real"),
    (BFamilyConfig, "dt", "positive real"),
    (BFamilyConfig, "t_end", "positive real"),
    (BFamilyConfig, "dealias", "flag"),
    (BFamilyConfig, "sample_every", "positive integer"),
    (FitOptions, "k_min", "integer"),
    (FitOptions, "k_max", "integer"),
    (FitOptions, "min_strip_width", "positive real"),
    (SyntheticSpec, "alpha", "real"),
    (SyntheticSpec, "delta", "positive real"),
    (SyntheticSpec, "x_star", "real"),
    (SyntheticSpec, "amplitude", "positive real"),
]


def refused(rule):
    """(value, what the message says the field must be) for values that ``rule`` refuses."""
    if rule == "flag":
        return [(value, "a bool") for value in ("true", 0, 1, None, math.nan, np.bool_(True))]
    if rule.endswith("integer"):
        values = [(value, "an integer") for value in
                  (True, False, "16", None, 16.0, np.float64(16.0), math.nan, math.inf, -math.inf)]
        if rule.startswith("positive"):
            values += [(value, "at least") for value in (0, -1, np.int64(0))]
        return values
    values = [(value, "a real number") for value in (True, False, "16", None, 1j)]
    # 10**400 is an int past the double range
    values += [(value, "finite") for value in
               (math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"), 10**400)]
    if rule.startswith("positive"):
        values += [(value, "positive") for value in (0, -1, -0.5, 0.0, np.float64(-0.25))]
    return values


def accepted(rule):
    """Values that ``rule`` keeps: ints, floats and numpy numbers of its kind."""
    if rule == "flag":
        return [True, False]
    if rule.endswith("integer"):
        return [16, np.int64(16), np.int32(16)]
    values = [2, 0.25, np.float64(0.25), np.float32(0.25), np.int64(2)]
    return values if rule.startswith("positive") else values + [0, -0.5, np.float64(-3.0)]


def refused_cases():
    # None is FitOptions' "no value", so only the other classes refuse it
    return [pytest.param(cls, name, value, words, id=f"{cls.__name__}.{name}-{value!r:.24}")
            for cls, name, rule in FIELDS for value, words in refused(rule)
            if value is not None or cls is not FitOptions]


def accepted_cases():
    return [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{value!r:.24}")
            for cls, name, rule in FIELDS for value in accepted(rule)]


def build(cls, name, value):
    return cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize("cls, name, value, words", refused_cases())
def test_refused_value_is_a_config_error(cls, name, value, words):
    with pytest.raises(ConfigError, match=rf"^{name} must be {words}"):
        build(cls, name, value)


@pytest.mark.parametrize("cls, name, value", accepted_cases())
def test_accepted_value_is_kept(cls, name, value):
    assert getattr(build(cls, name, value), name) is value


@pytest.mark.parametrize("cls, name", [(FitOptions, "k_min"), (FitOptions, "k_max"),
                                       (FitOptions, "min_strip_width")])
def test_none_is_no_value(cls, name):
    assert getattr(build(cls, name, None), name) is None
