"""The package's one policy for numeric inputs.

An integer is a Python or NumPy integer and never a bool. A real is a
finite Python or NumPy integer or float and never a bool. Both checks
take an inclusive lower bound (`integer` also an upper one, `real` the
bound > 0 instead), raise one ValueError that names the field, and
return the value as a plain Python number: an `int` from `integer`, a
`float` from `real`. So whatever passes can go into a JSON manifest or
record as it is, and two reals that compare equal, such as 1 and 1.0,
are stored alike.
"""

from __future__ import annotations

import math

import numpy as np


def _bounds(low, high=None) -> str:
    if low is None:
        return ""
    return f" >= {low}" if high is None else f" in [{low}, {high}]"


def integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and (low is None or value >= low)
        and (high is None or value <= high)
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer{_bounds(low, high)}, got {value!r}")


def real(name: str, value, low: float | None = None, positive: bool = False) -> float:
    try:
        finite = (
            isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:   # a Python int beyond the float range
        finite = False
    if not finite or (low is not None and value < low):
        raise ValueError(f"{name} must be a finite real number{_bounds(low)}, got {value!r}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def fields(obj, check, *names: str, **bounds) -> None:
    """Check the named attributes of a dataclass instance, frozen or not,
    with `check` (`integer` or `real`) and store the plain values."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **bounds))
