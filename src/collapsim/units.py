"""Unit-safe quantities over the (mass, length, time) lattice.

Values are stored at SI base scale (kg, m, s); the unit tokens in UNITS are
pure I/O conversions.  `*`, `/`, `**` and `sqrt` combine dimensions, and
`<` and `>` across mismatched dimensions raise DimensionError rather than
silently coercing; no other arithmetic is defined.  Integer dimension
exponents suffice for every formula in this package; square roots are only
ever taken of quantities with even exponents, and a non-integer power of
any quantity, a dimensionless one included, raises DimensionError (the
oscillator's threshold raises a float to the 2/3 power instead).

A value is a Python float (or int).  The verdicts' formulas run on SI
floats (`discrimination`'s kernels); Quantities carry a verdict's inputs,
whose dimensions its spec checks, and its results.

Dimension and Quantity are immutable values.  Dimension is interned:
there is one instance per exponent triple, so comparing two dimensions
compares pointers.  Quantity is a slotted pair (value, dim) that is built
without going through its own frozen __setattr__ (`_quantity`).
"""

from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError


class UnitError(ValueError):
    """Unknown unit token or malformed quantity text."""


class DimensionError(TypeError):
    """Operation attempted across incompatible dimensions."""


class _Frozen:
    """Assignment and deletion raise FrozenInstanceError, as on a frozen
    dataclass; constructors set their slots through object.__setattr__ or
    the slot descriptors."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# Every Dimension ever built, by exponent triple.
_DIMENSIONS: dict[tuple, "Dimension"] = {}


class Dimension(_Frozen):
    """Exponents of mass, length, and time.  Exact integer arithmetic.

    Dimension(mass, length, time) returns the one instance for that triple,
    so == and hashing are by identity.  An integral float exponent is stored
    as an int; any other non-integer raises DimensionError.
    """

    __slots__ = ("mass", "length", "time")

    def __new__(cls, mass: int = 0, length: int = 0, time: int = 0):
        key = (mass, length, time)
        self = _DIMENSIONS.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, exp in zip(cls.__slots__, key):
                if not float(exp).is_integer():
                    raise DimensionError(
                        f"{name} exponent must be an integer, got {exp!r}")
                object.__setattr__(self, name, int(exp))
            self = _DIMENSIONS.setdefault(key, self)
        return self

    def __reduce__(self):
        return Dimension, (self.mass, self.length, self.time)

    def __repr__(self) -> str:
        return (f"Dimension(mass={self.mass!r}, length={self.length!r}, "
                f"time={self.time!r})")

    def __mul__(self, other: "Dimension") -> "Dimension":
        key = (self.mass + other.mass, self.length + other.length,
               self.time + other.time)
        return _DIMENSIONS.get(key) or Dimension(*key)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        key = (self.mass - other.mass, self.length - other.length,
               self.time - other.time)
        return _DIMENSIONS.get(key) or Dimension(*key)

    def __pow__(self, n: int) -> "Dimension":
        if not float(n).is_integer():
            raise DimensionError(
                f"cannot raise {self.si_name()} to the non-integer power {n!r}")
        return Dimension(self.mass * n, self.length * n, self.time * n)

    def sqrt(self) -> "Dimension":
        if self.mass % 2 or self.length % 2 or self.time % 2:
            raise DimensionError(f"square root of odd dimension {self.si_name()}")
        key = (self.mass // 2, self.length // 2, self.time // 2)
        return _DIMENSIONS.get(key) or Dimension(*key)

    def si_name(self) -> str:
        """Composed SI name like 'kg m s^-2'; 'dimensionless' at the origin."""
        if self is DIMENSIONLESS:
            return "dimensionless"
        parts = []
        for sym, exp in (("kg", self.mass), ("m", self.length), ("s", self.time)):
            if exp == 1:
                parts.append(sym)
            elif exp != 0:
                parts.append(f"{sym}^{exp}")
        return " ".join(parts)


DIMENSIONLESS = Dimension()
MASS = Dimension(mass=1)
LENGTH = Dimension(length=1)
TIME = Dimension(time=1)
SPEED = LENGTH / TIME
ENERGY = MASS * LENGTH ** 2 / TIME ** 2
PER_SECOND = DIMENSIONLESS / TIME
ACTION = ENERGY * TIME


class Quantity(_Frozen):
    """A real value at SI base scale, tagged with its Dimension.

    Equal to another Quantity with equal value and dim, and to nothing else.
    """

    __slots__ = ("value", "dim")

    def __init__(self, value: float, dim: Dimension = DIMENSIONLESS):
        _set_value(self, value)
        _set_dim(self, dim)

    def __reduce__(self):
        return Quantity, (self.value, self.dim)

    def __repr__(self) -> str:
        return f"Quantity(value={self.value!r}, dim={self.dim!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.value, self.dim) == (other.value, other.dim)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.dim))

    def _require(self, other: "Quantity") -> None:
        if self.dim is not other.dim:
            raise DimensionError(
                f"cannot compare {self.dim.si_name()} and "
                f"{other.dim.si_name()}")

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return _quantity(self.value * other.value, self.dim * other.dim)
        return _quantity(self.value * float(other), self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return _quantity(self.value / other.value, self.dim / other.dim)
        return _quantity(self.value / float(other), self.dim)

    def __rtruediv__(self, other) -> "Quantity":
        return _quantity(float(other) / self.value, DIMENSIONLESS / self.dim)

    def __pow__(self, n: int) -> "Quantity":
        return _quantity(self.value ** n, self.dim ** n)

    def sqrt(self) -> "Quantity":
        return _quantity(math.sqrt(self.value), self.dim.sqrt())

    def __lt__(self, other: "Quantity") -> bool:
        self._require(other)
        return self.value < other.value

    def __gt__(self, other: "Quantity") -> bool:
        self._require(other)
        return self.value > other.value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def to(self, unit: str) -> float:
        """Numeric value in the given unit token (dimension-checked)."""
        scale, dim = _lookup(unit)
        if dim != self.dim:
            raise DimensionError(
                f"cannot express {self.dim.si_name()} in '{unit}' ({dim.si_name()})")
        return self.value / scale


_set_value = Quantity.value.__set__
_set_dim = Quantity.dim.__set__


def _quantity(value: float, dim: Dimension) -> Quantity:
    """Quantity(value, dim) for the arithmetic, without the __init__ call."""
    q = object.__new__(Quantity)
    _set_value(q, value)
    _set_dim(q, dim)
    return q


PI = math.pi
HBAR = Quantity(1.054571817e-34, ACTION)          # J s
C = Quantity(2.99792458e8, SPEED)                 # m/s
GEV_C2_IN_KG = 1.78266192e-27                     # kg per GeV/c^2 (CODATA)
EV_IN_J = 1.602176634e-19                         # J per eV (exact)

# Supported unit tokens; exact spellings.  Scale maps token -> SI base.
UNITS: dict[str, tuple[float, Dimension]] = {
    "kg": (1.0, MASS),
    "GeV/c2": (GEV_C2_IN_KG, MASS),
    "MeV/c2": (GEV_C2_IN_KG * 1e-3, MASS),
    "m": (1.0, LENGTH),
    "um": (1e-6, LENGTH),
    "nm": (1e-9, LENGTH),
    "s": (1.0, TIME),
    "us": (1e-6, TIME),
    "ns": (1e-9, TIME),
    "m/s": (1.0, SPEED),
    "J": (1.0, ENERGY),
    "eV": (EV_IN_J, ENERGY),
    "rad": (1.0, DIMENSIONLESS),
    "Hz": (1.0, PER_SECOND),
    "rad/s": (1.0, PER_SECOND),
    "1/s": (1.0, PER_SECOND),
    "dimensionless": (1.0, DIMENSIONLESS),
}

_NUMBER = re.compile(r"^([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S.*)$")


def _lookup(unit: str) -> tuple[float, Dimension]:
    try:
        return UNITS[unit]
    except KeyError:
        raise UnitError(f"unknown unit '{unit}'") from None


def quantity(value: float, unit: str) -> Quantity:
    """Quantity from a numeric value and a unit token."""
    scale, dim = _lookup(unit)
    return Quantity(float(value) * scale, dim)


def parse_quantity(text: str) -> Quantity:
    """Parse '<number><space?><unit>' into an SI-scaled Quantity.

    The unit token is mandatory; dimensionless values spell it out
    ('1.5 dimensionless' or '0.3 rad').  A number that overflows a double
    is rejected.
    """
    m = _NUMBER.match(text.strip())
    if m is None:
        raise UnitError(f"malformed quantity '{text}'")
    q = quantity(float(m.group(1)), m.group(2).strip())
    if not q.is_finite:
        raise UnitError(f"quantity '{text}' overflows")
    return q


def format_quantity(q: Quantity, unit: str, digits: int | None = 5) -> str:
    """Render q in the given unit, '<number> <unit>'; q.to converts it.

    digits counts significant figures; digits=None emits the shortest
    representation that parses back to the identical float, which is what
    the lossless round-trip guarantee relies on.
    """
    num = q.to(unit)
    text = repr(num) if digits is None else format(num, f"#.{digits}g")
    return f"{text} {unit}"


# Preferred tokens for serializing derivation traces and reports.
_PREFERRED_UNIT: dict[Dimension, str] = {
    MASS: "kg",
    LENGTH: "m",
    TIME: "s",
    SPEED: "m/s",
    ENERGY: "J",
    PER_SECOND: "rad/s",
    DIMENSIONLESS: "dimensionless",
}


def preferred_unit(dim: Dimension) -> str:
    """Canonical unit string for a dimension (composed SI name if exotic)."""
    unit = _PREFERRED_UNIT.get(dim)
    return dim.si_name() if unit is None else unit
