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
_check_steps and one kernel call over both cycles; the ideal gates come from one
_eigenbases pass; _adiabatic_two_cycles also applies both cycles and the gate to
K start vectors per point. The CLI tables and run_*_two_cycle (N = 1, one
state) call these kernels, so both give the same numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PARAM_GROUPS, Operator4, SpinParams, TwoSpinState, _check_stack, _columns, _periods
from .core import _state_from_trusted
from .evolution import _check_steps, _propagators, _stepped_propagators
from .phases import _rotation_sense
from .spectral import _eigenbases

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
    """Positive-sense geometric phases (N, 4), then the t=0 eigenbases and the gates in the eigenbasis and the
    computational basis, (N, 4, 4) each, from one _eigenbases call. The closed-form bases are orthonormal only to
    about eps/gap, so one Newton-Schulz step B(3I - B^dag B)/2 takes them to the nearest unitary, to rounding,
    before the gate is built. Refuses as eigensystem does, then as Operator4.unitary does on the gate; the fields
    are taken as finite, which SpinParams checks before.
    """
    closed, bases = _eigenbases(columns)
    bases = bases @ (3.0 * np.eye(4) - bases.conj().swapaxes(-1, -2) @ bases) / 2.0
    diagonal = np.zeros((len(bases), 4, 4), dtype=complex)
    diagonal[:, range(4), range(4)] = np.exp(2j * closed.berry)
    computational = bases @ diagonal @ bases.conj().swapaxes(-1, -2)
    _check_stack(computational, "unitary")
    return closed.berry, bases, diagonal, computational


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
    _propagators call per cycle, or RK4 with steps_per_cycle steps, whose budget one _check_steps call
    checks on both cycles (cycle 1 rows first) before one _stepped_propagators call advances them.
    """
    _require_rotation(columns["omega1"])
    periods = _periods(columns["omega1"])
    flipped = {**columns, **{field: -columns[field] for name in flips for field in PARAM_GROUPS[name]}}
    if steps_per_cycle is None:
        return [_propagators(cycle, periods) for cycle in (columns, flipped)]
    stacked, times = {name: np.concatenate([columns[name], flipped[name]]) for name in columns}, np.tile(periods, 2)
    _check_steps(stacked, times, steps_per_cycle)
    return np.split(_stepped_propagators(stacked, times, steps_per_cycle), 2)


def _adiabatic_two_cycles(columns: dict[str, np.ndarray], starts=None, steps_per_cycle: int | None = None):
    """The adiabatic protocol on (N, K, 4, 1) start vectors s, by default the t=0 eigenbases by label: the starts,
    the (N, 4) targets 2 g_n, the outputs U2 U1 s and gate @ s and their (N, K) distances, each equal to its
    per-point product or np.linalg.norm bit for bit. Where omega1 < 0 every g_n changes sign, so the gate inverts.
    """
    phases, bases, _, gates = _berry_gates(columns)
    u_first, u_second = _cycle_propagators(columns, ADIABATIC_FLIP_SET, steps_per_cycle)
    sense = _rotation_sense(columns["omega1"])
    if starts is None:
        starts = bases.swapaxes(1, 2).copy()[..., None]
    finals = u_second[:, None] @ (u_first[:, None] @ starts)
    backwards = (sense < 0.0)[:, None, None, None]
    ideals = np.where(backwards, gates.conj().swapaxes(-1, -2)[:, None] @ starts, gates[:, None] @ starts)
    gaps = finals - ideals
    squares = gaps.real.swapaxes(-1, -2) @ gaps.real + gaps.imag.swapaxes(-1, -2) @ gaps.imag
    return starts, 2.0 * sense[:, None] * phases, finals, ideals, np.sqrt(squares[..., 0, 0])


def _aa_two_cycles(columns: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """U2 U1 of the total-phase protocol and its identity defect max|U2 U1 - I|, per point.

    columns holds N parameter points (see core._columns); returns the
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
    start = initial.amplitudes.reshape(1, 1, 4, 1)
    _, _, final, ideal, deviation = _adiabatic_two_cycles(_columns(params, 1), start, steps_per_cycle)
    # RK4 propagators are not exactly unitary, so their output skips the norm check.
    final_state = TwoSpinState if steps_per_cycle is None else _state_from_trusted
    final, ideal = final_state(final[0, 0, :, 0]), TwoSpinState(ideal[0, 0, :, 0])
    return AdiabaticTwoCycleResult(final_state=final, ideal_state=ideal, deviation=float(deviation[0, 0]))


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
