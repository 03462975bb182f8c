"""Two-cycle sign-reversal protocols.

Running a second field period with the static detuning, transverse coupling
and Ising constant all negated hands every eigenpath of the first cycle to an
eigenpath of the reversed Hamiltonian with the opposite energy, so the
dynamical phases cancel and the net slow-cycle transformation is the purely
geometric diagonal gate diag(e^{2i g1}, e^{2i g2}, e^{2i g3}, 1) in the
eigenbasis. Negating the rotation rate as well makes the rotating-frame
generator of the second cycle the exact negative of the first, which cancels
the total phase: the composed propagator is the identity for any input state.

Both protocols are fixed unitaries, independent of the input state. The block
functions _adiabatic_two_cycles and _aa_two_cycles take field columns of N
points (see core._columns) and build the exact propagators of all N points
with one stacked kernel call per cycle, or their RK4 propagators with one
call over both cycles; run_*_two_cycle apply their N = 1 case to one state,
so both give the same numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PARAM_GROUPS, Operator4, SpinParams, TwoSpinState, _check_stack, _columns, _equal_coupling_fields
from .core import _periods, _points, _state_from_trusted
from .evolution import _check_steps, _propagators, _stepped_propagators
from .hamiltonian import rotating_frame_stack
from .phases import _berry_phases, _rotation_sense
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


def _berry_gates(columns: dict[str, np.ndarray]):
    """Positive-sense geometric phases (N, 4), t=0 eigensystems and the gates in the eigenbasis and
    the computational basis, (N, 4, 4) each; refuses as SpinParams, berry_phase, eigensystem and
    Operator4.unitary (on the gate) do, in that order.
    """
    points = _points(columns)
    phases = _berry_phases(*_equal_coupling_fields(columns))[1]
    systems = [eigensystem(point, 0.0) for point in points]
    diagonal = np.zeros((len(points), 4, 4), dtype=complex)
    diagonal[:, range(4), range(4)] = np.exp(2j * phases)
    bases = np.stack([system.basis_matrix() for system in systems])
    computational = bases @ diagonal @ bases.conj().swapaxes(-1, -2)
    _check_stack(computational, "unitary")
    return phases, systems, diagonal, computational


def berry_gate(omega0: float, gamma: float, J: float) -> BerryGate:
    """Ideal slow-limit gate of the adiabatic two-cycle protocol.

    Eigenbasis entries are exp(2i * geometric phase); the fourth entry is
    exactly 1. The computational-basis matrix conjugates the diagonal with the
    eigenvector matrix at t=0.
    """
    phases, _, diagonal, computational = _berry_gates(_columns(SpinParams.symmetric(omega0, gamma, J), 1))
    return BerryGate(tuple(phases[0].tolist()), Operator4.unitary(diagonal[0]), Operator4.unitary(computational[0]))


def _require_rotation(omega1) -> None:
    if np.any(omega1 == 0.0):
        raise ValueError("cycle protocols need omega1 != 0")


def _cycle_propagators(columns: dict[str, np.ndarray], flips, steps_per_cycle: int | None = None):
    """(N, 4, 4) propagators of the first and the second, flipped, cycle, one period each: exact, one
    _propagators call per cycle, or RK4 with steps_per_cycle steps, whose budget every point passes
    (cycle 1 first) before one _stepped_propagators call advances both cycles of all N points.
    """
    omega1 = columns["omega1"]
    _require_rotation(omega1)
    periods = _periods(omega1)
    flipped = {**columns, **{field: -columns[field] for name in flips for field in PARAM_GROUPS[name]}}
    cycles = (columns, flipped)
    if steps_per_cycle is None:
        return [_propagators(rotating_frame_stack(cycle), cycle["omega1"], periods) for cycle in cycles]
    for cycle in cycles:
        for point, period in zip(_points(cycle), periods.tolist()):
            _check_steps(point, period, steps_per_cycle)
    stacked = {name: np.concatenate([columns[name], flipped[name]]) for name in columns}
    return np.split(_stepped_propagators(stacked, np.concatenate([periods, periods]), steps_per_cycle), 2)


def _adiabatic_two_cycles(columns: dict[str, np.ndarray], steps_per_cycle: int | None = None):
    """The t=0 eigensystems, the (N, 4, 4) cycle propagators U1 and U2, the ideal gates and the (N, 4)
    targets, twice the geometric phases, of the adiabatic protocol. Where omega1 < 0 the loop runs
    backwards and every geometric phase changes sign, so the target is negated and the gate inverted.
    """
    phases, systems, _, gates = _berry_gates(columns)
    u_first, u_second = _cycle_propagators(columns, ADIABATIC_FLIP_SET, steps_per_cycle)
    sense = _rotation_sense(columns["omega1"])
    gates = [gate.conj().T if s < 0.0 else gate for gate, s in zip(gates, sense.tolist())]
    return systems, u_first, u_second, gates, 2.0 * sense[:, None] * phases


def _aa_two_cycles(columns: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """U2 U1 of the total-phase protocol and its identity defect max|U2 U1 - I|, per point.

    columns holds N parameter points (see rotating_frame_stack); returns the
    (N, 4, 4) composed propagators and the (N,) defects.
    """
    u_first, u_second = _cycle_propagators(columns, AA_FLIP_SET)
    composed = u_second @ u_first
    return composed, np.abs(composed - np.eye(4)).max(axis=(1, 2))


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
    _, (u_first,), (u_second,), (gate,), _ = _adiabatic_two_cycles(_columns(params, 1), steps_per_cycle)
    # RK4 propagators are not exactly unitary, so their output skips the norm check.
    final_state = TwoSpinState if steps_per_cycle is None else _state_from_trusted
    final = final_state(u_second @ (u_first @ initial.amplitudes))
    ideal = TwoSpinState(gate @ initial.amplitudes)
    deviation = float(np.linalg.norm(final.amplitudes - ideal.amplitudes))
    return AdiabaticTwoCycleResult(final_state=final, ideal_state=ideal, deviation=deviation)


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
    (composed,), (defect,) = _aa_two_cycles(_columns(params, 1))
    return AATwoCycleResult(final_state=TwoSpinState(composed @ initial.amplitudes), identity_defect=float(defect))
