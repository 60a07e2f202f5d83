#!/usr/bin/env python3
"""Write visibility-decay curves for three contrasting setups as CSV.

Outputs (into --outdir, default ./curves):
  free_flight_boundary.csv   exactly at the flip: drops to 1/e in one flight
  trapped_classical.csv      100x past the flip: gone within microseconds
  photon.csv                 flat at 1.0, any horizon
"""

import argparse
from pathlib import Path

import collapsim as cs
from collapsim.boundary import curve_to_csv
from collapsim.units import quantity


def write(path, verdict, t_end=None):
    traj = cs.curve_trajectory(verdict, t_end, record_stride=8)
    path.write_text(curve_to_csv(traj))
    print(f"{path}  final visibility {traj.visibility(0, 1)[-1]:.6f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    v = quantity(1e3, "m/s")
    D = quantity(10, "um")
    m_star = cs.free_flight_critical_mass(v, 1e-5, D)
    boundary = cs.free_flight_tau(cs.FreeFlightSpec(
        mass=m_star * (1 + 1e-9), speed=v, slit_separation=D,
        source_distance=quantity(1, "m"), slit_width=quantity(1, "um")))
    write(outdir / "free_flight_boundary.csv", boundary, quantity(1e-3, "s"))

    trapped = cs.trapped_tau(cs.TrappedPairSpec(
        mass=cs.trapped_critical_mass(quantity(100, "m/s"), D) * 100.0,
        mean_velocity=quantity(100, "m/s"), separation=D))
    write(outdir / "trapped_classical.csv", trapped)

    write(outdir / "photon.csv", cs.photon_tau())


if __name__ == "__main__":
    main()
