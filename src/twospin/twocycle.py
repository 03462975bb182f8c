"""Two-cycle sign-reversal protocols.

Running a second field period with the static detuning, transverse coupling
and Ising constant all negated hands every eigenpath of the first cycle to an
eigenpath of the reversed Hamiltonian with the opposite energy, so the
dynamical phases cancel and the net slow-cycle transformation is the purely
geometric diagonal gate diag(e^{2i g1}, e^{2i g2}, e^{2i g3}, 1) in the
eigenbasis. Negating the rotation rate as well makes the rotating-frame
generator of the second cycle the exact negative of the first, which cancels
the total phase: the composed propagator is the identity for any input state.

Both protocols are fixed unitaries, independent of the input state, so the two
cycle propagators are built once per parameter point; run_*_two_cycle accept
a sequence of start states and apply that one pair to each.

The exact cycle propagators come from one stacked kernel that takes per-field
columns of N parameter points (see rotating_frame_stack). _aa_two_cycles
composes U2 U1 for each point and measures the identity defect max|U2 U1 - I|;
run_aa_two_cycle is its N = 1 case and a twocycle-defect sweep calls it once
per block of grid points, so both give the same defects bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    PARAM_GROUPS,
    STATE_NORM_TOL,
    Operator4,
    SpinParams,
    TwoSpinState,
    _columns,
    _periods,
    _state_from_trusted,
    flip_params,
)
from .evolution import _propagators, evolve_stepped
from .hamiltonian import rotating_frame_stack
from .phases import berry_phase
from .spectral import eigensystem

__all__ = [
    "AA_FLIP_SET",
    "ADIABATIC_FLIP_SET",
    "AATwoCycleResult",
    "AdiabaticTwoCycleResult",
    "BerryGate",
    "berry_gate",
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


def _require_rotation(omega1) -> None:
    if np.any(omega1 == 0.0):
        raise ValueError("cycle protocols need omega1 != 0")


def _exact_cycles(columns: dict[str, np.ndarray], flips) -> list[np.ndarray]:
    """(N, 4, 4) exact propagators of the first and the second, flipped, cycle, one period each."""
    omega1 = columns["omega1"]
    _require_rotation(omega1)
    periods = _periods(omega1)
    flipped = {**columns, **{field: -columns[field] for name in flips for field in PARAM_GROUPS[name]}}
    return [_propagators(rotating_frame_stack(cycle), cycle["omega1"], periods) for cycle in (columns, flipped)]


def _cycle_propagators(params: SpinParams, flips, steps_per_cycle: int | None = None):
    """Matrices of the first cycle and of the second, flipped, cycle, each one period long."""
    if steps_per_cycle is None:
        return [u[0] for u in _exact_cycles(_columns(params, 1), flips)]
    _require_rotation(params.omega1)
    cycles = (params, flip_params(params, flips))
    probe = TwoSpinState.basis_state(0)  # the RK4 propagator does not depend on the state
    return [evolve_stepped(cycle, probe, params.period, steps_per_cycle).propagator.matrix for cycle in cycles]


def _aa_two_cycles(columns: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """U2 U1 of the total-phase protocol and its identity defect max|U2 U1 - I|, per point.

    columns holds N parameter points (see rotating_frame_stack); returns the
    (N, 4, 4) composed propagators and the (N,) defects. U2 U1 |uu> must pass
    the TwoSpinState norm check at every point.
    """
    u_first, u_second = _exact_cycles(columns, AA_FLIP_SET)
    composed = u_second @ u_first
    uu = composed[:, :, 0]
    for i in np.flatnonzero(~(np.abs(np.linalg.norm(uu, axis=1) - 1.0) <= STATE_NORM_TOL)):
        TwoSpinState(uu[i])  # raises the check's own error
    return composed, np.abs(composed - np.eye(4)).max(axis=(1, 2))


@dataclass(frozen=True)
class AdiabaticTwoCycleResult:
    final_state: TwoSpinState
    ideal_state: TwoSpinState
    deviation: float


def run_adiabatic_two_cycle(
    params: SpinParams,
    initial: TwoSpinState | Sequence[TwoSpinState],
    steps_per_cycle: int | None = None,
) -> AdiabaticTwoCycleResult | list[AdiabaticTwoCycleResult]:
    """Simulate both cycles of the adiabatic protocol and compare to the gate.

    The parameter reversal happens instantaneously between the cycles; each
    cycle restarts the field at angle zero. deviation is the 2-norm distance
    between the simulated final state and berry_gate applied to the input
    (its inverse for omega1 < 0, where every geometric phase changes sign); it
    vanishes in the slow-rotation limit. A sequence of start states returns a
    list with one result per state, all from one propagator pair and one gate.
    """
    u_first, u_second = _cycle_propagators(params, ADIABATIC_FLIP_SET, steps_per_cycle)
    gate = berry_gate(params.omega0, params.gamma, params.J).in_computational
    if params.omega1 < 0.0:
        gate = gate.dagger()
    # RK4 propagators are not exactly unitary, so their output skips the norm check.
    final_state = TwoSpinState if steps_per_cycle is None else _state_from_trusted
    single = isinstance(initial, TwoSpinState)
    results = []
    for start in [initial] if single else initial:
        final = final_state(u_second @ (u_first @ start.amplitudes))
        ideal = TwoSpinState(gate.matrix @ start.amplitudes)
        deviation = float(np.linalg.norm(final.amplitudes - ideal.amplitudes))
        results.append(AdiabaticTwoCycleResult(final_state=final, ideal_state=ideal, deviation=deviation))
    return results[0] if single else results


@dataclass(frozen=True)
class AATwoCycleResult:
    final_state: TwoSpinState
    identity_defect: float


def run_aa_two_cycle(
    params: SpinParams, initial: TwoSpinState | Sequence[TwoSpinState]
) -> AATwoCycleResult | list[AATwoCycleResult]:
    """Compose the two exact cycle propagators of the total-phase protocol.

    identity_defect is the max-abs entry of U2 U1 - I; it sits at rounding
    level because the second rotating-frame generator is the exact negative of
    the first. The input state is arbitrary (not restricted to eigenstates); a
    sequence of start states returns a list with one result per state.
    """
    composed, defects = _aa_two_cycles(_columns(params, 1))
    composed, defect = composed[0], float(defects[0])
    single = isinstance(initial, TwoSpinState)
    results = [
        AATwoCycleResult(final_state=TwoSpinState(composed @ start.amplitudes), identity_defect=defect)
        for start in ([initial] if single else initial)
    ]
    return results[0] if single else results

