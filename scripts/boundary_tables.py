#!/usr/bin/env python3
"""Print the headline quantum/classical boundary numbers for each scenario.

Each row pairs a closed-form critical value with the bisected sweep result,
so the table doubles as a consistency check between the two routes.
"""

import math

import collapsim as cs
from collapsim.units import format_quantity, quantity


def trapped_row(v_mps, d_um):
    v, D = quantity(v_mps, "m/s"), quantity(d_um, "um")
    closed = cs.trapped_critical_mass(v, D)
    bisected = cs.mass_boundary("trapped", v, D).critical_value
    print(f"trapped pair     v={v_mps:>6g} m/s  D={d_um:g} um   "
          f"M* = {format_quantity(closed, 'GeV/c2'):>18}   "
          f"(bisected {format_quantity(bisected, 'GeV/c2')})")


def free_flight_row(v_mps, theta, d_um):
    v, D = quantity(v_mps, "m/s"), quantity(d_um, "um")
    closed = cs.free_flight_critical_mass(v, theta, D)
    bisected = cs.mass_boundary("free-flight", v, D, theta).critical_value
    print(f"free flight      v={v_mps:>6g} m/s  theta={theta:g}  D={d_um:g} um  "
          f"M* = {format_quantity(closed, 'GeV/c2'):>18}   "
          f"(bisected {format_quantity(bisected, 'GeV/c2')})")


def oscillator_row(mass_kg, f_hz):
    omega0 = quantity(2 * math.pi * f_hz, "rad/s")
    spec = cs.OscillatorSpec(mass=quantity(mass_kg, "kg"),
                             angular_frequency=omega0, quantum_number=0)
    verdict = cs.oscillator_verdict(spec)
    n_star = dict(verdict.derivation)["n_star"].value
    print(f"oscillator       M={mass_kg:g} kg  f={f_hz:g} Hz  ground state: "
          f"{verdict.regime.value}  (classical only above n* = {n_star:.3g})")


def main():
    print("quantum/classical boundary summary")
    print("-" * 78)
    trapped_row(100.0, 10.0)
    trapped_row(1.0, 10.0)
    free_flight_row(1e3, 1e-5, 10.0)
    oscillator_row(40.0, 1.0)
    print(f"photon           any arm length: "
          f"{cs.photon_tau().regime.value} (tau infinite)")
    print(f"Rabi drive       any gap: "
          f"{cs.rabi_tau(quantity(1, 'eV')).regime.value} (tau infinite)")


if __name__ == "__main__":
    main()
