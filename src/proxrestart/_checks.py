"""The one rule every numeric parameter of a constructor or set-up entry follows.

A value is a Python or numpy int or float but never a bool (``True``
would count as 1), is finite, lies in its interval, and is an integer
where it counts something. :func:`number` returns it as a ``float`` or an
``int``, or raises ``ValueError("<name> must be ..., got <value!r>")``;
the CLI reads the leading name to file the error under its config field.
The checks on the iteration path, such as a prox stepsize's, are not
made by this rule: they run every iteration and stay as small as they are.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["number", "number_field"]

_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def number(name, value, low, high=math.inf, *, low_open=False, integer=False):
    """Return ``value`` as an ``int`` (``integer``) or ``float`` in ``[low, high]``.

    ``low_open`` leaves ``low`` out of the interval. Anything else raises
    a ``ValueError`` that names ``name``, the interval and ``value``.
    """
    if isinstance(value, _INTEGERS if integer else _NUMBERS) and not isinstance(value, bool):
        try:
            v = int(value) if integer else float(value)
        except OverflowError:  # an int past the float range
            v = math.inf
        if (low < v if low_open else low <= v) and v <= high and (integer or math.isfinite(v)):
            return v
    kind = "integer" if integer else "finite number"
    if high < math.inf:
        rule = f"{kind} in {'(' if low_open else '['}{low:g}, {high:g}]"
    elif low == 0:
        rule = f"{'positive' if low_open else 'nonnegative'} {kind}"
    else:
        rule = f"{kind} {'>' if low_open else '>='} {low:g}"
    raise ValueError(f"{name} must be {'an' if rule[0] == 'i' else 'a'} {rule}, got {value!r}")


def number_field(obj, name, low, high=math.inf, **kwargs):
    """Check field ``name`` of the frozen dataclass ``obj`` by :func:`number`.

    The returned ``int`` or ``float`` replaces the field's value and is returned.
    """
    value = number(name, getattr(obj, name), low, high, **kwargs)
    object.__setattr__(obj, name, value)
    return value
