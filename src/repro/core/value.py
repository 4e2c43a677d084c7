"""Values of the space-time algebra: the set ``N0∞``.

The paper models points in time as elements of ``N0∞``: zero, the natural
numbers, and a special top element ``∞`` that encodes "no spike on this
line".  ``∞`` obeys the usual conventions: ``∞ > n`` and ``∞ + n = ∞`` for
every natural ``n``.

This module provides:

* :data:`INF` — the singleton top element, with total-order comparisons and
  saturating arithmetic against Python ints.
* :data:`Time` — the type alias ``int | Infinity`` used throughout the
  library.
* Validation helpers (:func:`is_time`, :func:`check_time`,
  :func:`check_vector`) and coercion (:func:`as_time`).
* Vector utilities used by normalized function tables and network
  evaluation (:func:`t_min`, :func:`t_max`, :func:`normalize`,
  :func:`shift`).
* The sentinel int64 encoding every engine and the serving wire share
  (:data:`INF_I64`, :data:`MAX_FINITE`, :func:`encode_time`,
  :func:`decode_time`, :func:`decode_matrix`): plain Python, so a
  process that only moves encoded times never imports NumPy.

Design note: finite times are plain Python ``int``s rather than a wrapper
class.  Simulations touch millions of time values; keeping them unboxed
keeps the library fast and lets callers use ordinary integer literals.
``Infinity`` is a dedicated singleton (not ``float('inf')``) so that
arithmetic never silently produces floats and ``repr`` stays exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Union


class Infinity:
    """The top element ``∞`` of ``N0∞``.

    A singleton: every construction returns the same instance, so identity
    checks (``x is INF``) are valid, though ``==`` works too.  Supports the
    operations the algebra requires: total-order comparison with ints and
    saturating addition/subtraction.
    """

    _instance: "Infinity | None" = None
    __slots__ = ()

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    # -- ordering -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity) or other == float("inf")

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return self.__eq__(other)

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Infinity):
            return False
        if isinstance(other, (int, float)):
            return other != float("inf")
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (Infinity, int, float)):
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(float("inf"))

    # -- arithmetic (saturating) ---------------------------------------------
    def __add__(self, other: object) -> "Infinity":
        if isinstance(other, (int, Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "Infinity":
        # ∞ - n = ∞ for finite n; ∞ - ∞ is undefined in the algebra.
        if isinstance(other, Infinity):
            raise ArithmeticError("infinity - infinity is undefined in N0∞")
        if isinstance(other, int):
            return self
        return NotImplemented

    def __repr__(self) -> str:
        return "INF"

    def __str__(self) -> str:
        return "∞"

    def __bool__(self) -> bool:
        return True

    def __reduce__(self):
        # Keep the singleton property across pickling.
        return (Infinity, ())


INF = Infinity()

Time = Union[int, Infinity]
TimeVector = Sequence[Time]


def is_time(value: object) -> bool:
    """Return True if *value* is a member of ``N0∞``.

    Members are non-negative ints and :data:`INF`.  Booleans are rejected —
    they are ints in Python, but treating ``True`` as the time 1 invites
    silent confusion between logical and temporal code.
    """
    if isinstance(value, Infinity):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_time(value: object, *, name: str = "value") -> Time:
    """Validate that *value* is in ``N0∞``, returning it unchanged.

    Raises :class:`TypeError` for non-members, :class:`ValueError` for
    negative ints.
    """
    if isinstance(value, Infinity):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a non-negative int or INF, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def as_time(value: object) -> Time:
    """Coerce *value* into ``N0∞``.

    Accepts non-negative ints, :data:`INF`, ``float('inf')``, ``None``
    (interpreted as "no spike"), and integral floats.  Anything else raises.
    """
    if isinstance(value, Infinity):
        return value
    if value is None:
        return INF
    if isinstance(value, float):
        if value == float("inf"):
            return INF
        if value.is_integer():
            return check_time(int(value))
        raise ValueError(f"non-integral float {value!r} is not a valid time")
    return check_time(value)


def check_vector(values: Iterable[object], *, name: str = "input") -> tuple[Time, ...]:
    """Validate a whole vector of times, returning it as a tuple."""
    return tuple(
        check_time(v, name=f"{name}[{i}]") for i, v in enumerate(values)
    )


def is_finite(value: Time) -> bool:
    """Return True for finite times (actual spikes), False for ``∞``."""
    return not isinstance(value, Infinity)


def finite_values(values: Iterable[Time]) -> list[int]:
    """Return only the finite members of *values*, in order."""
    return [v for v in values if not isinstance(v, Infinity)]


def t_min(values: Iterable[Time]) -> Time:
    """Minimum over ``N0∞``; the empty minimum is ``∞`` (the top element)."""
    best: Time = INF
    for v in values:
        if v < best:
            best = v
    return best


def t_max(values: Iterable[Time]) -> Time:
    """Maximum over ``N0∞``; the empty maximum is ``0`` (the bottom element)."""
    best: Time = 0
    for v in values:
        if v > best:
            best = v
    return best


def shift(values: TimeVector, amount: int) -> tuple[Time, ...]:
    """Shift every element of *values* by *amount* time units.

    ``∞`` is absorbing (``∞ + c = ∞``).  A negative *amount* is allowed as
    long as no finite element would become negative — this is exactly the
    operation needed to normalize a vector.
    """
    out: list[Time] = []
    for v in values:
        if isinstance(v, Infinity):
            out.append(INF)
        else:
            moved = v + amount
            if moved < 0:
                raise ValueError(
                    f"shift by {amount} takes {v} below zero; not in N0∞"
                )
            out.append(moved)
    return tuple(out)


def normalize(values: TimeVector) -> tuple[tuple[Time, ...], Time]:
    """Normalize a vector: subtract ``x_min`` so the earliest spike is at 0.

    Returns ``(normalized_vector, x_min)``.  For an all-``∞`` vector the
    shift is ``∞`` and the vector is returned unchanged — there is no spike
    to anchor the local frame of reference.
    """
    lo = t_min(values)
    if isinstance(lo, Infinity):
        return tuple(values), INF
    return shift(values, -lo), lo


def is_normalized(values: TimeVector) -> bool:
    """True if at least one element is 0 (the paper's normal-form rule 1)."""
    return any(v == 0 for v in values)


# ---------------------------------------------------------------------------
# Sentinel int64 encoding
# ---------------------------------------------------------------------------

#: Sentinel encoding of ``∞`` as an int64: the largest int64.
INF_I64: int = (1 << 63) - 1

#: Largest finite time the int64 encoding carries.
MAX_FINITE: int = INF_I64 - 1


def encode_time(value: Time) -> int:
    """Encode one ``Time`` as a sentinel int64 value."""
    if isinstance(value, Infinity):
        return INF_I64
    value = check_time(value)
    if value > MAX_FINITE:
        # The batched engine's error type; its module imports no NumPy.
        from ..network.graph import NetworkError

        raise NetworkError(
            f"finite time {value} exceeds the batched engine's limit "
            f"({MAX_FINITE}); use the interpreted evaluator"
        )
    return value


def decode_time(value: int) -> Time:
    """Decode one sentinel int64 value back into ``Time``."""
    return INF if value == INF_I64 else int(value)


def decode_matrix(matrix) -> list[tuple[Time, ...]]:
    """Decode encoded ``(B, n)`` rows (lists or an ndarray) into ``Time`` tuples."""
    return [tuple(decode_time(int(v)) for v in row) for row in matrix]
