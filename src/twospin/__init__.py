"""Exact dynamics and geometric phases of two Ising-coupled spin-1/2 particles
in a rotating magnetic field."""

from .core import (
    BASIS_LABELS,
    PARAM_GROUPS,
    Operator4,
    SpinParams,
    TwoSpinState,
)
from .evolution import (
    AdiabaticCycleResult,
    EvolutionResult,
    adiabatic_cycle,
    evolve_exact,
    evolve_stepped,
    exact_propagator,
)
from .hamiltonian import (
    frame_rotation,
    h_rotating_frame,
    h_static,
    h_total,
    transverse_parts,
)
from .phases import (
    PhaseBreakdown,
    aa_breakdown,
    aa_phase,
    adiabatic_phases,
    berry_phase,
    legacy_single_spin_phase,
    principal_value,
)
from .spectral import (
    DegenerateParametersError,
    EigenPair,
    EigenSystem,
    eigensystem,
    singlet_energy,
    tilde_eigensystem,
    triplet_amplitudes,
    triplet_energies,
)
from .twocycle import (
    AA_FLIP_SET,
    ADIABATIC_FLIP_SET,
    AATwoCycleResult,
    AdiabaticTwoCycleResult,
    BerryGate,
    berry_gate,
    run_aa_two_cycle,
    run_adiabatic_two_cycle,
)

__version__ = "0.1.0"
