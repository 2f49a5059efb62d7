"""The one rule for a number or a count a caller passes.

A value of the wrong kind raises TypeError: a bool or numpy bool, a string,
None, or a float where an integer is needed.  A value of the right kind that
is NaN or outside its range raises ValueError.  Each message names the
parameter.
"""

import math
import numbers


def integer(name, value, least):
    """value as an int of at least least.  An int or numpy integer passes; a
    bool, which compares as 0 or 1 but counts nothing, does not."""
    if type(value) is not int:  # an int takes this test alone
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")
    return value


def real(name, value, *, positive=False, nonnegative=False, finite=False):
    """value as a float that is not NaN and, as the keywords ask, above 0, at
    least 0 and finite.  Any numbers.Real but a bool passes the type test;
    numpy's bool is no numbers.Real."""
    if type(value) is not float:  # a float takes this test alone
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if (
        value != value  # NaN fails every comparison
        or (positive and value <= 0.0)
        or (nonnegative and value < 0.0)
        or (finite and abs(value) == math.inf)
    ):
        wanted = (("positive", positive), ("at least 0", nonnegative), ("finite", finite))
        need = " and ".join(word for word, on in wanted if on) or "a number, not NaN"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return value
