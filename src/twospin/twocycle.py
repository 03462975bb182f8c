"""Two-cycle sign-reversal protocols.

Running a second field period with the static detuning, transverse coupling
and Ising constant all negated hands every eigenpath of the first cycle to an
eigenpath of the reversed Hamiltonian with the opposite energy, so the
dynamical phases cancel and the net slow-cycle transformation is the purely
geometric diagonal gate diag(e^{2i g1}, e^{2i g2}, e^{2i g3}, 1) in the
eigenbasis. Negating the rotation rate as well makes the rotating-frame
generator of the second cycle the exact negative of the first, which cancels
the total phase: the composed propagator is the identity for any input state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Operator4, SpinParams, TwoSpinState, flip_params
from .evolution import evolve_exact, evolve_stepped, exact_propagator
from .phases import aa_breakdown, berry_phase
from .spectral import eigensystem

__all__ = [
    "AA_FLIP_SET",
    "ADIABATIC_FLIP_SET",
    "AATwoCycleResult",
    "AdiabaticTwoCycleResult",
    "BerryGate",
    "berry_gate",
    "one_cycle_dynamical_residual",
    "run_aa_two_cycle",
    "run_adiabatic_two_cycle",
]

# Parameter sign groups reversed in the second cycle.
ADIABATIC_FLIP_SET = frozenset({"omega0", "gamma", "J"})
AA_FLIP_SET = frozenset({"omega0", "omega1", "gamma", "J"})

@dataclass(frozen=True)
class BerryGate:
    """Purely geometric two-cycle gate, diagonal in the t=0 eigenbasis."""

    phases: tuple[float, float, float, float]
    in_eigenbasis: Operator4
    in_computational: Operator4


def berry_gate(omega0: float, gamma: float, J: float) -> BerryGate:
    """Ideal slow-limit gate of the adiabatic two-cycle protocol.

    Eigenbasis entries are exp(2i * geometric phase); the fourth entry is
    exactly 1. The computational-basis matrix conjugates the diagonal with the
    eigenvector matrix at t=0.
    """
    phases = tuple(berry_phase(omega0, gamma, J, n) for n in (1, 2, 3, 4))
    diag = np.diag(np.exp(2j * np.asarray(phases)))
    basis = eigensystem(SpinParams.symmetric(omega0, gamma, J), 0.0).basis_matrix()
    computational = basis @ diag @ basis.conj().T
    return BerryGate(
        phases=phases,
        in_eigenbasis=Operator4.unitary(diag),
        in_computational=Operator4.unitary(computational),
    )


@dataclass(frozen=True)
class AdiabaticTwoCycleResult:
    final_state: TwoSpinState
    ideal_state: TwoSpinState
    deviation: float


def run_adiabatic_two_cycle(
    params: SpinParams, initial: TwoSpinState, steps_per_cycle: int | None = None
) -> AdiabaticTwoCycleResult:
    """Simulate both cycles of the adiabatic protocol and compare to the gate.

    The parameter reversal happens instantaneously between the cycles; each
    cycle restarts the field at angle zero. deviation is the 2-norm distance
    between the simulated final state and berry_gate applied to the input
    (its inverse for omega1 < 0, where every geometric phase changes sign); it
    vanishes in the slow-rotation limit.
    """
    if params.omega1 == 0.0:
        raise ValueError("cycle protocols need omega1 != 0")
    state = initial
    for cycle in (params, flip_params(params, ADIABATIC_FLIP_SET)):
        if steps_per_cycle is None:
            state = evolve_exact(cycle, state, params.period).final_state
        else:
            state = evolve_stepped(cycle, state, params.period, steps_per_cycle).final_state
    gate = berry_gate(params.omega0, params.gamma, params.J).in_computational
    if params.omega1 < 0.0:
        gate = gate.dagger()
    ideal = TwoSpinState(gate.matrix @ initial.amplitudes)
    deviation = float(np.linalg.norm(state.amplitudes - ideal.amplitudes))
    return AdiabaticTwoCycleResult(final_state=state, ideal_state=ideal, deviation=deviation)


@dataclass(frozen=True)
class AATwoCycleResult:
    final_state: TwoSpinState
    identity_defect: float


def run_aa_two_cycle(params: SpinParams, initial: TwoSpinState) -> AATwoCycleResult:
    """Compose the two exact cycle propagators of the total-phase protocol.

    identity_defect is the max-abs entry of U2 U1 - I; it sits at rounding
    level because the second rotating-frame generator is the exact negative of
    the first. The input state is arbitrary (not restricted to eigenstates).
    """
    if params.omega1 == 0.0:
        raise ValueError("cycle protocols need omega1 != 0")
    u_first = exact_propagator(params, params.period)
    u_second = exact_propagator(flip_params(params, AA_FLIP_SET), params.period)
    composed = u_second.matrix @ u_first.matrix
    defect = float(np.abs(composed - np.eye(4)).max())
    final = TwoSpinState(composed @ initial.amplitudes)
    return AATwoCycleResult(final_state=final, identity_defect=defect)


def one_cycle_dynamical_residual(params: SpinParams, n: int) -> float:
    """Dynamical phase left over after a single exact cycle on eigenpath n.

    Nonzero for the singlet whenever J != 0, which is why no single-cycle
    parameter choice can cancel the dynamical phases alone.
    """
    return aa_breakdown(params, n).dynamical
