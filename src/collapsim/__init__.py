"""Pairwise spontaneous-collapse dynamics for density matrices.

The model: every off-diagonal element of a density matrix decays at a
pair-specific rate 1/tau_ij on top of the unitary evolution, where tau_ij
is the minimal time needed to repeatably discriminate the two basis states
by any physically allowed measurement.  Indiscriminable pairs get
tau = infinity and evolve exactly unitarily.

Modules: units (dimension-checked quantities), states (density matrices,
Hamiltonians, rate matrices), discrimination (per-scenario tau analyses),
evolution (fixed-step master-equation integrator with analytic oracle),
boundary (parameter sweeps and visibility curves), cli (command line).
"""

from .boundary import (BoundaryReport, Scenario, SweepError, SweepSpec,
                       curve_trajectory, mass_boundary, scenario_verdict,
                       sweep)
from .discrimination import (DiscriminationVerdict, FreeFlightSpec,
                             OscillatorSpec, Reason, Regime, TrappedPairSpec,
                             ValidationError, build_rate_matrix,
                             doppler_back_action, doppler_error,
                             doppler_window, free_flight_critical_mass,
                             free_flight_tau, oscillator_verdict, photon_tau,
                             rabi_tau, trapped_critical_mass, trapped_tau)
from .evolution import (EvolutionConfig, Method, Trajectory, analytic_isolated,
                        convergence_order, evolve, trajectory_to_csv,
                        trajectory_to_json, trajectory_to_json_text)
from .states import (CollapseRateMatrix, DensityMatrix, Hamiltonian,
                     invariants, make_basis, pure_state, validate)
from .units import (C, HBAR, DimensionError, Quantity, UnitError,
                    format_quantity, parse_quantity, quantity)

__version__ = "0.1.0"
