import copy
import math
import operator
import pickle
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from collapsim.units import (ACTION, C, DIMENSIONLESS, ENERGY, HBAR, LENGTH,
                             MASS, PER_SECOND, SPEED, TIME, Dimension,
                             DimensionError, Quantity, UnitError, UNITS,
                             format_quantity, parse_quantity, preferred_unit,
                             quantity)

GEV = 1.78266192e-27


class TestParse:
    def test_micrometers(self):
        q = parse_quantity("10 um")
        assert q.value == pytest.approx(1.0e-5, rel=1e-12, abs=0)
        assert q.dim == LENGTH

    def test_gev_over_c2(self):
        # 5 * CODATA conversion factor, frozen independently
        q = parse_quantity("5 GeV/c2")
        assert q.value == pytest.approx(5 * GEV, rel=1e-12, abs=0)
        assert q.value == pytest.approx(8.9133096e-27, rel=1e-7, abs=0)
        assert q.dim == MASS

    def test_identity_scale(self):
        q = parse_quantity("1e2 m/s")
        assert q.value == 100.0
        assert q.dim == SPEED

    def test_no_space(self):
        assert parse_quantity("10um").value == pytest.approx(1e-5)

    def test_unknown_unit_names_token(self):
        with pytest.raises(UnitError, match="furlong"):
            parse_quantity("3 furlong")

    def test_malformed_number(self):
        with pytest.raises(UnitError, match="malformed"):
            parse_quantity("abc m")

    def test_missing_unit(self):
        with pytest.raises(UnitError):
            parse_quantity("42")

    @pytest.mark.parametrize("text", ["1e400 m/s", "-1e400 s", "1e400 GeV/c2"])
    def test_overflowing_number_rejected(self, text):
        with pytest.raises(UnitError, match="overflows"):
            parse_quantity(text)


class TestFormat:
    def test_gev_display(self):
        q = Quantity(5 * GEV, MASS)
        assert format_quantity(q, "GeV/c2") == "5.0000 GeV/c2"

    def test_um_display(self):
        assert format_quantity(Quantity(1.0e-5, LENGTH), "um") == "10.000 um"

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(DimensionError) as err:
            format_quantity(Quantity(100.0, SPEED), "kg")
        assert "kg" in str(err.value) and "s^-1" in str(err.value)


# Hypothesis shrinks toward simple floats; the exponent range covers the
# scales the package actually handles (1e-34 .. 1e15).
positive_floats = st.floats(min_value=1e-30, max_value=1e15,
                            allow_nan=False, allow_infinity=False)


@given(positive_floats, st.sampled_from(sorted(UNITS)))
def test_round_trip_lossless(x, unit):
    original = quantity(x, unit)
    text = format_quantity(original, unit, digits=None)
    again = parse_quantity(text)
    assert again.dim == original.dim
    assert again.value == pytest.approx(original.value, rel=1e-12, abs=0)


@given(st.floats(min_value=1.0, max_value=9.9999).map(lambda x: round(x, 4)),
       st.sampled_from(sorted(UNITS)))
def test_round_trip_default_digits(x, unit):
    # Values already at five significant figures survive the default display.
    original = parse_quantity(f"{x} {unit}")
    again = parse_quantity(format_quantity(original, unit))
    assert again.value == pytest.approx(original.value, rel=1e-12, abs=0)


class TestDimensionArithmetic:
    def test_product_adds_exponents(self):
        assert MASS * SPEED == Dimension(mass=1, length=1, time=-1)

    def test_quotient_subtracts(self):
        assert ENERGY / TIME == Dimension(mass=1, length=2, time=-3)

    def test_sqrt_even(self):
        assert (LENGTH ** 2).sqrt() == LENGTH

    def test_sqrt_odd_rejected(self):
        with pytest.raises(DimensionError):
            LENGTH.sqrt()


class TestQuantityArithmetic:
    def test_add_mismatched_rejected(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, MASS) + Quantity(1.0, LENGTH)

    def test_compare_mismatched_rejected(self):
        with pytest.raises(DimensionError):
            Quantity(1.0, MASS) < Quantity(2.0, TIME)

    def test_sums_negation_abs_and_order(self):
        a, b = Quantity(3.0, MASS), Quantity(-5.0, MASS)
        assert a + b == Quantity(-2.0, MASS)
        assert a - b == Quantity(8.0, MASS)
        assert -a == Quantity(-3.0, MASS)
        assert abs(b) == Quantity(5.0, MASS)
        assert b <= a and a >= b and a <= a and a >= a
        assert not a <= b and not b >= a
        assert b < a and a > b
        assert not a < a and not a > a and not a < b and not b > a

    @pytest.mark.parametrize("op, verb", [
        (operator.add, "add"), (operator.sub, "subtract"),
        (operator.le, "compare"), (operator.ge, "compare")],
        ids=["add", "sub", "le", "ge"])
    def test_mismatched_dimensions_name_both(self, op, verb):
        with pytest.raises(DimensionError, match=f"^cannot {verb} kg and m$"):
            op(Quantity(1.0, MASS), Quantity(1.0, LENGTH))

    def test_scalar_division_inverts_dimension(self):
        q = 1.0 / Quantity(2.0, TIME)
        assert q.value == 0.5
        assert q.dim == PER_SECOND

    def test_to_converts(self):
        assert quantity(2.5, "GeV/c2").to("MeV/c2") == pytest.approx(2500.0)

    def test_to_another_dimension_rejected(self):
        with pytest.raises(DimensionError, match=r"^cannot express kg in "
                           r"'m/s' \(m s\^-1\)$"):
            quantity(1, "kg").to("m/s")


def test_preferred_unit_falls_back_to_the_si_name():
    assert preferred_unit(MASS) == "kg"
    assert preferred_unit(MASS * SPEED) == "kg m s^-1"


class TestConstants:
    def test_codata_values(self):
        assert HBAR.value == 1.054571817e-34
        assert C.value == 2.99792458e8
        assert UNITS["GeV/c2"][0] == 1.78266192e-27


# README's unit tokens, each with its SI scale and its (mass, length, time)
# exponents, written out here rather than read from UNITS.
README_UNITS = {
    "kg": (1.0, (1, 0, 0)), "GeV/c2": (GEV, (1, 0, 0)),
    "MeV/c2": (GEV / 1e3, (1, 0, 0)),
    "m": (1.0, (0, 1, 0)), "um": (1e-6, (0, 1, 0)), "nm": (1e-9, (0, 1, 0)),
    "s": (1.0, (0, 0, 1)), "us": (1e-6, (0, 0, 1)), "ns": (1e-9, (0, 0, 1)),
    "m/s": (1.0, (0, 1, -1)),
    "J": (1.0, (1, 2, -2)), "eV": (1.602176634e-19, (1, 2, -2)),
    "rad": (1.0, (0, 0, 0)), "dimensionless": (1.0, (0, 0, 0)),
    "Hz": (1.0, (0, 0, -1)), "rad/s": (1.0, (0, 0, -1)),
    "1/s": (1.0, (0, 0, -1)),
}


def test_readme_lists_every_unit_token():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Unit tokens", 1)[1].split("(exact", 1)[0]
    listed = re.findall(r"`([^`]+)`", section)
    assert sorted(listed) == sorted(README_UNITS) == sorted(UNITS)
    assert "`1 GeV/c2 = 1.78266192e-27 kg`" in " ".join(readme.split())


@pytest.mark.parametrize("token", sorted(README_UNITS))
def test_unit_token_scale_and_dimension(token):
    scale, exponents = README_UNITS[token]
    q = parse_quantity(f"1 {token}")
    assert math.isclose(q.value, scale, rel_tol=1e-15)
    assert (q.dim.mass, q.dim.length, q.dim.time) == exponents


class TestFormulaDimensions:
    """Each implemented formula, evaluated over dimensions only."""

    def test_trapped_criterion_is_energy_times_length(self):
        E = Quantity(1.0, ENERGY)
        D = Quantity(1.0, LENGTH)
        assert (E * D).dim == (4 * math.pi * HBAR * C).dim
        assert (E * D).dim == ENERGY * LENGTH

    def test_doppler_error_is_speed(self):
        omega = Quantity(1.0, PER_SECOND)
        tau = Quantity(1.0, TIME)
        assert (C / (2 * omega * tau)).dim == SPEED

    def test_back_action_is_speed(self):
        omega = Quantity(1.0, PER_SECOND)
        M = Quantity(1.0, MASS)
        assert (2 * HBAR * omega / (C * M)).dim == SPEED

    def test_window_bounds_are_frequencies(self):
        D = Quantity(1.0, LENGTH)
        L = Quantity(1.0, LENGTH)
        p = Quantity(1.0, MASS * LENGTH / TIME)
        assert (2 * C / D).dim == PER_SECOND
        assert (p * C ** 2 / (2 * HBAR * L)).sqrt().dim == PER_SECOND

    def test_flight_criterion_matches_action(self):
        p = Quantity(1.0, MASS * LENGTH / TIME)
        D = Quantity(1.0, LENGTH)
        theta = Quantity(1.0, DIMENSIONLESS)
        assert (p * theta * D).dim == HBAR.dim

    def test_zero_point_amplitude_is_length(self):
        M = Quantity(1.0, MASS)
        omega0 = Quantity(1.0, PER_SECOND)
        assert (HBAR / (2 * M * omega0)).sqrt().dim == LENGTH


class TestValueSemantics:
    """Behaviour the Dimension and Quantity classes must keep as values."""

    def test_repr(self):
        assert repr(HBAR) == ("Quantity(value=1.054571817e-34, "
                              "dim=Dimension(mass=1, length=2, time=-1))")
        assert repr(MASS) == "Dimension(mass=1, length=0, time=0)"

    def test_quantity_is_immutable(self):
        with pytest.raises(FrozenInstanceError):
            HBAR.value = 1

    def test_dimension_is_immutable(self):
        with pytest.raises(FrozenInstanceError):
            MASS.mass = 2

    def test_fields_cannot_be_deleted(self):
        with pytest.raises(FrozenInstanceError,
                           match="^cannot delete field 'value'$"):
            del HBAR.value
        with pytest.raises(FrozenInstanceError,
                           match="^cannot delete field 'mass'$"):
            del MASS.mass

    def test_equal_values_compare_and_hash_equal(self):
        assert Quantity(1.0, MASS) == Quantity(1, MASS)
        assert hash(Quantity(1.0, MASS)) == hash(Quantity(1, MASS))
        assert Quantity(1.0, MASS) != Quantity(1.0, LENGTH)

    def test_quantity_equals_only_quantities(self):
        assert Quantity(1.0) != 1.0
        assert Quantity(1.0, MASS) != (1.0, MASS)

    def test_dimension_is_a_dict_key(self):
        assert {MASS: 1}[Dimension(mass=1)] == 1

    @pytest.mark.parametrize("value", [HBAR, MASS, Quantity(2.5)],
                             ids=["HBAR", "MASS", "dimensionless"])
    def test_copies_and_pickles_compare_equal(self, value):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


class TestInterning:
    """One Dimension instance per exponent triple."""

    def test_constructor_returns_the_constant(self):
        assert Dimension(1, 0, 0) is MASS
        assert Dimension(mass=1) is MASS

    def test_arithmetic_returns_the_constant(self):
        assert (C * C / C).dim is SPEED

    def test_pickle_and_copy_return_the_constant(self):
        assert pickle.loads(pickle.dumps(HBAR)).dim is ACTION
        assert copy.deepcopy(MASS) is MASS


class TestDimensionExponents:
    def test_integral_float_exponents_are_stored_as_ints(self):
        assert Dimension(mass=2.0) is MASS ** 2
        # A triple nothing else builds, so the constructor misses its cache.
        dim = Dimension(mass=37.0, length=-41.0, time=43.0)
        assert repr(dim) == "Dimension(mass=37, length=-41, time=43)"
        assert dim is Dimension(37, -41, 43)

    @pytest.mark.parametrize("exponents, message", [
        ({"mass": 0.5}, "mass exponent must be an integer, got 0.5"),
        ({"length": 2, "time": -1.5},
         "time exponent must be an integer, got -1.5"),
        ({"time": math.nan}, "time exponent must be an integer, got nan"),
        ({"length": math.inf}, "length exponent must be an integer, got inf"),
    ], ids=["half", "second", "nan", "inf"])
    def test_non_integral_exponent_rejected(self, exponents, message):
        with pytest.raises(DimensionError,
                           match="^" + re.escape(message) + "$"):
            Dimension(**exponents)


class TestPowers:
    def test_fractional_power_of_a_dimension_rejected(self):
        with pytest.raises(DimensionError, match="non-integer power"):
            quantity(4, "m") ** 0.5

    def test_integral_float_power_gives_integer_exponents(self):
        assert (quantity(4, "m") ** 2.0).dim is LENGTH ** 2

    def test_dimensionless_base_takes_any_real_power(self):
        q = Quantity(4.0) ** 0.5
        assert q == Quantity(2.0)
        assert q.dim is DIMENSIONLESS


# At most six steps, each a factor in 1e-3..1e3 or a power |n| <= 2, keep
# every value within 1e-192..1e192: no step overflows or underflows.
exponents = st.integers(min_value=-3, max_value=3)
dimension_triples = st.tuples(exponents, exponents, exponents)
operand_values = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def operation_chains(draw):
    start = (draw(operand_values), draw(dimension_triples))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["*", "/"]), operand_values,
                  dimension_triples),
        st.tuples(st.just("**"), st.integers(min_value=-2, max_value=2)),
        st.just(("sqrt",))), max_size=6))
    return start, ops


@given(operation_chains())
def test_chains_match_plain_float_and_tuple_arithmetic(chain):
    (value, exps), ops = chain
    q = Quantity(value, Dimension(*exps))
    for op in ops:
        if op[0] == "*":
            q = q * Quantity(op[1], Dimension(*op[2]))
            value *= op[1]
            exps = tuple(a + b for a, b in zip(exps, op[2]))
        elif op[0] == "/":
            q = q / Quantity(op[1], Dimension(*op[2]))
            value /= op[1]
            exps = tuple(a - b for a, b in zip(exps, op[2]))
        elif op[0] == "**":
            q = q ** op[1]
            value **= op[1]
            exps = tuple(a * op[1] for a in exps)
        elif all(a % 2 == 0 for a in exps):
            q = q.sqrt()
            value = math.sqrt(value)
            exps = tuple(a // 2 for a in exps)
        else:
            with pytest.raises(DimensionError):
                q.sqrt()
        assert q.value == value
        assert q.dim is Dimension(*exps)
