"""Exact and step-integrated time evolution.

The exact propagator uses the frame factorization

    U(t) = V(t) exp(-i H_rot t)

with V the frame rotation and H_rot the time-independent rotating-frame
generator; the matrix exponential is evaluated through the spectral
decomposition of the 4x4 hermitian H_rot, so it is exact to rounding and
valid for unequal couplings. One kernel, _propagators, computes it for an
(N, 4, 4) stack of generators with stacked eigh and matmul and runs the
Operator4 checks on the whole stack; exact_propagator is its N = 1 wrapper,
so a stacked propagator equals the per-point one bit for bit.

A fixed-step classical Runge-Kutta integrator of the time-ordered Schrodinger
equation serves as the independent cross-check; it samples the Hamiltonian
analytically at the substep times and converges at fourth order. Its kernel,
_stepped_propagators, advances an (M, 4, 4) stack of problems together without
_propagators; evolve_stepped is its M = 1 wrapper. The RK4 update's constants
(h/2, h, h/6, -1j, 2) are (M, 4, 4) complex arrays built once per call, and the
update keeps the float operations of the per-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Operator4, SpinParams, TwoSpinState, _check_stack, _columns, _state_from_trusted
from .hamiltonian import _fields, _frame_matrix, _static_matrix, h_total, rotating_frame_stack, transverse_parts
from .spectral import eigensystem

__all__ = [
    "AdiabaticCycleResult",
    "EvolutionResult",
    "MIN_STEPS_PER_PERIOD",
    "adiabatic_cycle",
    "evolve_exact",
    "evolve_stepped",
    "exact_propagator",
]

# Refusal threshold for the stepped integrator: fewer substeps than this per
# shortest dynamical period cannot meet the accuracy contract.
MIN_STEPS_PER_PERIOD = 8


@dataclass(frozen=True)
class EvolutionResult:
    final_state: TwoSpinState
    propagator: Operator4
    elapsed: float
    method: str
    step_count: int | None = None


def _propagators(h_rot: np.ndarray, omega1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """U(t) = V(t) exp(-i H_rot t) for an (N, 4, 4) stack of H_rot and (N,) omega1 and t.

    Checks H_rot as Operator4.hermitian and U as Operator4.unitary would, and
    raises ArithmeticError once the largest phase |lambda t|, over the
    eigenvalues lambda of H_rot and the frame rate omega1, reaches 2**52:
    neighbouring doubles are 1 rad apart there, so the phases are noise. The
    checks run in that order over the whole stack, so at N = 1 a point fails
    exactly as it would alone; at N > 1 the error may come from any point.
    """
    _check_stack(h_rot, "hermitian")
    vals, vecs = np.linalg.eigh(h_rot)
    largest = np.maximum(np.maximum(-vals[:, 0], vals[:, -1]), np.abs(omega1))  # eigh sorts vals
    with np.errstate(over="ignore"):  # an infinite phase is refused below
        phase = largest * np.abs(t)
    lost = phase >= 2.0**52
    if lost.any():
        raise ArithmeticError(
            f"propagator phase {phase[lost][0]:.3e} rad is too large to resolve (limit 2**52)"
        )
    expo = (vecs * np.exp(-1j * vals * t[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    propagators = _frame_matrix(omega1 * t) @ expo
    _check_stack(propagators, "unitary")
    return propagators


def exact_propagator(params: SpinParams, t: float) -> Operator4:
    """Closed-form propagator U(t); unitary for any couplings.

    The N = 1 case of _propagators, with its checks; raises ArithmeticError
    when the phases are too large to resolve.
    """
    columns = _columns(params, 1)
    matrix = _propagators(rotating_frame_stack(columns), columns["omega1"], np.array([t], dtype=float))
    return Operator4.unitary(matrix[0])


def evolve_exact(params: SpinParams, initial: TwoSpinState, t: float) -> EvolutionResult:
    propagator = exact_propagator(params, t)
    final = TwoSpinState(propagator.matrix @ initial.amplitudes)
    return EvolutionResult(final_state=final, propagator=propagator, elapsed=t, method="exact")


def _check_steps(params: SpinParams, t: float, steps: int) -> None:
    """Refuse fewer than one step, a non-finite time, or fewer than MIN_STEPS_PER_PERIOD steps per
    shortest dynamical period: the period of the rotation or 2*pi over the largest |eigenvalue| of H(0).
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t == 0.0:
        return
    h_norm = float(np.abs(np.linalg.eigvalsh(h_total(params, 0.0).matrix)).max())
    # A zero rate sets no bound, nor does a rotation too slow for a finite period.
    shortest = min((2.0 * math.pi / rate for rate in (abs(params.omega1), h_norm) if rate > 0.0), default=math.inf)
    if math.isfinite(shortest) and abs(t) / steps > shortest / MIN_STEPS_PER_PERIOD:
        needed = math.ceil(abs(t) * MIN_STEPS_PER_PERIOD / shortest)
        raise ValueError(f"step budget too small: need at least {needed} steps for t={t!r}")


# Steps times problems per block of Hamiltonian samples, so that a block holds
# about 3 * _SAMPLE_BLOCK matrices whatever the number of problems.
_SAMPLE_BLOCK = 512


def _stepped_propagators(columns: dict[str, np.ndarray], t: np.ndarray, steps: int) -> np.ndarray:
    """RK4 propagators of i dU/dt = H(t) U from 0 to t for (M,) field columns and times t.

    Problem m takes steps steps of size h = t[m] / steps. H is sampled at k h, k h + h/2 and
    k h + h of step k with h_total's arithmetic, so problem m equals a loop of h_total steps bit
    for bit. Sample blocks get the checks of Operator4.hermitian, the result those of "general".
    The update's constants are (M, 4, 4) arrays built once, each the complex value its scalar
    casts to, so every step multiplies same-shape operands in the loop's float operations.
    """
    fields = _fields(columns)
    static = _static_matrix(fields)
    cos_part, sin_part = transverse_parts(fields)
    h = t / steps
    shape = (len(t), 4, 4)
    half, full, sixth = (np.broadcast_to(f[:, None, None], shape).astype(complex) for f in (0.5 * h, h, h / 6.0))
    minus_i, two = np.full(shape, -1j), np.full(shape, 2.0 + 0j)
    propagators = np.tile(np.eye(4, dtype=complex), (len(t), 1, 1))
    block = max(1, _SAMPLE_BLOCK // len(t))
    for first in range(0, steps, block):
        t0 = np.arange(first, min(first + block, steps))[:, None] * h
        angle = columns["omega1"] * np.stack([t0, t0 + 0.5 * h, t0 + h], axis=1)
        cos, sin = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
        samples = static + (cos * cos_part + sin * sin_part)
        _check_stack(samples, "hermitian")
        for h_0, h_mid, h_1 in zip(*map(list, samples.swapaxes(0, 1))):
            k1 = minus_i * (h_0 @ propagators)
            k2 = minus_i * (h_mid @ (propagators + half * k1))
            k3 = minus_i * (h_mid @ (propagators + half * k2))
            k4 = minus_i * (h_1 @ (propagators + full * k3))
            propagators = propagators + sixth * (k1 + two * k2 + two * k3 + k4)
    _check_stack(propagators, "general")
    return propagators


def evolve_stepped(params: SpinParams, initial: TwoSpinState, t: float, steps: int) -> EvolutionResult:
    """Fixed-step RK4 integration of i dU/dt = H(t) U: the M = 1 case of _stepped_propagators.

    Refuses to run with fewer than MIN_STEPS_PER_PERIOD substeps per shortest
    dynamical period (the accuracy contract could not be met). The returned
    propagator carries the "general" tag; its unitarity defect shrinks at
    fourth order in the step size.
    """
    _check_steps(params, t, steps)
    propagator = _stepped_propagators(_columns(params, 1), np.array([t], dtype=float), steps)[0]
    op = Operator4.general(propagator)
    # The final-state norm mirrors the integrator's unitarity defect, so skip
    # the unit-norm sanity check: final_state must equal propagator @ initial.
    final = _state_from_trusted(propagator @ initial.amplitudes)
    return EvolutionResult(final_state=final, propagator=op, elapsed=t, method="stepped", step_count=steps)


@dataclass(frozen=True)
class AdiabaticCycleResult:
    final_state: TwoSpinState
    total_phase: float
    fidelity: float


def adiabatic_cycle(params: SpinParams, n: int, steps: int | None = None) -> AdiabaticCycleResult:
    """Drive eigenpath n through one full field period and read off its phase.

    Starts in the instantaneous eigenstate at t=0, evolves for one period
    (exactly, or with the stepped integrator when steps is given) and returns
    arg and modulus of the overlap with the starting state. The modulus is the
    adiabaticity diagnostic: it approaches 1 as omega1 -> 0 and is reported
    as-is in the nonadiabatic regime.
    """
    tau = params.period
    start = eigensystem(params, 0.0).state(n)
    if steps is None:
        result = evolve_exact(params, start, tau)
    else:
        result = evolve_stepped(params, start, tau, steps)
    overlap = start.overlap(result.final_state)
    return AdiabaticCycleResult(
        final_state=result.final_state,
        total_phase=float(np.angle(overlap)),
        fidelity=abs(overlap),
    )
