"""Unit-safe scalar quantities over the (mass, length, time) lattice.

Values are stored at SI base scale (kg, m, s); the unit tokens in UNITS are
pure I/O conversions.  Arithmetic across mismatched dimensions raises
DimensionError rather than silently coercing.  Integer dimension exponents
suffice for every formula in this package; square roots are only ever taken
of quantities with even exponents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


class UnitError(ValueError):
    """Unknown unit token or malformed quantity text."""


class DimensionError(TypeError):
    """Operation attempted across incompatible dimensions."""


@dataclass(frozen=True)
class Dimension:
    """Exponents of mass, length, and time.  Exact integer arithmetic."""

    mass: int = 0
    length: int = 0
    time: int = 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.mass + other.mass, self.length + other.length,
                         self.time + other.time)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.mass - other.mass, self.length - other.length,
                         self.time - other.time)

    def __pow__(self, n: int) -> "Dimension":
        return Dimension(self.mass * n, self.length * n, self.time * n)

    def sqrt(self) -> "Dimension":
        if self.mass % 2 or self.length % 2 or self.time % 2:
            raise DimensionError(f"square root of odd dimension {self.si_name()}")
        return Dimension(self.mass // 2, self.length // 2, self.time // 2)

    @property
    def is_dimensionless(self) -> bool:
        return self.mass == 0 and self.length == 0 and self.time == 0

    def si_name(self) -> str:
        """Composed SI name like 'kg m s^-2'; 'dimensionless' at the origin."""
        if self.is_dimensionless:
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
MOMENTUM = MASS * LENGTH / TIME
ACTION = ENERGY * TIME


@dataclass(frozen=True)
class Quantity:
    """A real value at SI base scale, tagged with its Dimension."""

    value: float
    dim: Dimension = DIMENSIONLESS

    def _require(self, other: "Quantity", op: str) -> None:
        if self.dim != other.dim:
            raise DimensionError(
                f"cannot {op} {self.dim.si_name()} and {other.dim.si_name()}")

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require(other, "add")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require(other, "subtract")
        return Quantity(self.value - other.value, self.dim)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __abs__(self) -> "Quantity":
        return Quantity(abs(self.value), self.dim)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value * other.value, self.dim * other.dim)
        return Quantity(self.value * float(other), self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            return Quantity(self.value / other.value, self.dim / other.dim)
        return Quantity(self.value / float(other), self.dim)

    def __rtruediv__(self, other) -> "Quantity":
        return Quantity(float(other) / self.value, DIMENSIONLESS / self.dim)

    def __pow__(self, n: int) -> "Quantity":
        return Quantity(self.value ** n, self.dim ** n)

    def sqrt(self) -> "Quantity":
        return Quantity(math.sqrt(self.value), self.dim.sqrt())

    def __lt__(self, other: "Quantity") -> bool:
        self._require(other, "compare")
        return self.value < other.value

    def __le__(self, other: "Quantity") -> bool:
        self._require(other, "compare")
        return self.value <= other.value

    def __gt__(self, other: "Quantity") -> bool:
        self._require(other, "compare")
        return self.value > other.value

    def __ge__(self, other: "Quantity") -> bool:
        self._require(other, "compare")
        return self.value >= other.value

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
    """Render q in the given unit, '<number> <unit>'.

    digits counts significant figures; digits=None emits the shortest
    representation that parses back to the identical float, which is what
    the lossless round-trip guarantee relies on.
    """
    scale, dim = _lookup(unit)
    if dim != q.dim:
        raise DimensionError(
            f"cannot format {q.dim.si_name()} as '{unit}' ({dim.si_name()})")
    num = q.value / scale
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
