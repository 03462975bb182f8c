"""Exact and step-integrated time evolution.

The exact propagator uses the frame factorization

    U(t) = V(t) exp(-i H_rot t)

with V the frame rotation and H_rot the time-independent rotating-frame
generator; the matrix exponential is evaluated through the spectral
decomposition of the 4x4 hermitian H_rot, so it is exact to rounding and
valid for unequal couplings. One kernel, _propagators, computes it at (N,)
field columns: it builds their H_rot stack and runs stacked eigh and matmul
and the Operator4 checks on the whole stack; exact_propagator is its N = 1
wrapper, so a stacked propagator equals the per-point one bit for bit.

A fixed-step classical Runge-Kutta integrator of the time-ordered Schrodinger
equation serves as the independent cross-check; it samples the lab-frame
Hamiltonian at the substep times, with hamiltonian._hamiltonians, and converges
at fourth order. On the linear equation an RK4 step is a linear map,
U_{k+1} = R_k U_k, and by the frame identity H(t) = V(t) H(0) V(t)^dag each
step is the first one in a rotated frame, R_k = V(k h) R_0 V(k h)^dag. So its
kernel, _stepped_propagators, builds R_0 for an (M, 4, 4) stack of problems and
powers V(-h) R_0 in about 2 log2(n) matmuls: over 20,000 steps it lies within
3e-14 of the per-step product, and over 10**6 steps of a period within 4e-14 of
exact_propagator. evolve_stepped is its M = 1 wrapper. Its step budget,
_check_steps, is one rule over the same (M,) columns and times: one stacked
H(0) and eigvalsh, and the first problem that fails is named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Operator4, SpinParams, TwoSpinState, _check_stack, _checked_float, _columns, _refuse
from .core import _state_from_trusted
from .hamiltonian import _frame_matrix, _hamiltonians

__all__ = [
    "EvolutionResult",
    "MIN_STEPS_PER_PERIOD",
    "evolve_exact",
    "evolve_stepped",
    "exact_propagator",
]

# Fewest RK4 substeps per shortest dynamical period: a stability floor, not an accuracy bound. At the floor
# a step scales the fastest eigencomponent by about 0.9985, so 200 steps keep only about 0.74 of it.
MIN_STEPS_PER_PERIOD = 8


@dataclass(frozen=True)
class EvolutionResult:
    final_state: TwoSpinState
    propagator: Operator4
    elapsed: float
    method: str
    step_count: int | None = None


def _propagators(columns: dict[str, np.ndarray], t: np.ndarray) -> np.ndarray:
    """U(t) = V(t) exp(-i H_rot t) at (N,) field columns (see core._columns) and times t.

    The builder checks H_rot as Operator4.hermitian; then this raises ArithmeticError once the
    largest phase |lambda t|, over the eigenvalues lambda of H_rot and the frame rate omega1, reaches
    2**52 (neighbouring doubles are 1 rad apart there, so the phases are noise), and checks U as
    Operator4.unitary would. The checks run in that order over the whole stack, so at N = 1 a point
    fails exactly as it would alone; at N > 1 the error may come from any point.
    """
    h_rot, omega1 = _hamiltonians(columns, np.zeros(len(t)), rotating=True), columns["omega1"]
    vals, vecs = np.linalg.eigh(h_rot)
    largest = np.maximum(np.maximum(-vals[:, 0], vals[:, -1]), np.abs(omega1))  # eigh sorts vals
    with np.errstate(over="ignore"):  # an infinite phase is refused below
        phase = largest * np.abs(t)
    message = "propagator phase {:.3e} rad is too large to resolve (limit 2**52)"
    _refuse(phase >= 2.0**52, phase, ArithmeticError, message)
    expo = (vecs * np.exp(-1j * vals * t[:, None])[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    propagators = _frame_matrix(omega1 * t) @ expo
    _check_stack(propagators, "unitary")
    return propagators


def exact_propagator(params: SpinParams, t: float) -> Operator4:
    """Closed-form propagator U(t); unitary for any couplings.

    The N = 1 case of _propagators, with its checks; raises ArithmeticError
    when the phases are too large to resolve.
    """
    return Operator4.unitary(_propagators(_columns(params, 1), np.array([_checked_float("time", t)]))[0])


def evolve_exact(params: SpinParams, initial: TwoSpinState, t: float) -> EvolutionResult:
    propagator = exact_propagator(params, t)
    final = TwoSpinState(propagator.matrix @ initial.amplitudes)
    return EvolutionResult(final_state=final, propagator=propagator, elapsed=t, method="exact")


def _check_steps(columns: dict[str, np.ndarray], t: np.ndarray, steps: int) -> None:
    """Refuse fewer than one step, a non-finite time, then the first problem of (M,) field columns and times t with
    fewer than MIN_STEPS_PER_PERIOD steps per shortest period, 2*pi over the larger of |omega1| and max|eig H(0)|.
    A zero rate or an infinite period sets no bound; a count beyond the float range reads inf."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    _refuse(~np.isfinite(t), t, ValueError, "time must be finite, got {!r}")
    matrices = _hamiltonians(columns, columns["omega1"] * 0.0)  # h_total's angle at t = 0
    rate = np.maximum(np.abs(columns["omega1"]), np.abs(np.linalg.eigvalsh(matrices)).max(axis=1))
    with np.errstate(all="ignore"):  # 2*pi/0 is an infinite period and a count may overflow: both are handled
        shortest = 2.0 * math.pi / rate
        short = np.isfinite(shortest) & (np.abs(t) / steps > shortest / MIN_STEPS_PER_PERIOD)
        needed = np.ceil(np.abs(t) * MIN_STEPS_PER_PERIOD / shortest)
    first = np.argmax(short)  # the first short problem, if there is one
    if short[first]:
        raise ValueError(f"step budget too small: need at least {needed[first]:.0f} steps for t={float(t[first])!r}")


def _stepped_propagators(columns: dict[str, np.ndarray], t: np.ndarray, steps: int) -> np.ndarray:
    """RK4 propagators of i dU/dt = H(t) U from 0 to t for (M,) field columns and times t.

    Problem m takes steps steps of size h = t[m] / steps. With A = -iH at 0, h/2 and h (_hamiltonians, h_total's
    arithmetic), its first step is R_0 = I + D_R, D_R = h/6 (A0 + 2 K2 + 2 K3 + K4), K2 = Am (I + h/2 A0),
    K3 = Am (I + h/2 K2), K4 = A1 (I + h K3). Step k is V(k h) R_0 V(k h)^dag, so the product is V(t) (I + D)^steps
    with D = D_F + D_R + D_F D_R and the diagonal D_F = V(-h) - I. Binary powering keeps I off the small matrices:
    P <- P + D + D P where a bit of steps is set, D <- 2 D + D D between bits. Squaring the rounded V(-h) R_0
    instead would drop D's low bits once and multiply that error steps times: over 20,000 steps it lies 1.4e-12
    from an extended-precision product, this form 2.1e-14. Problem m equals its own M = 1 call bit for bit. The
    builder checks the samples as Operator4.hermitian; the result gets the checks of "general".
    """
    h = t / steps
    half, full, sixth = (f[:, None, None] for f in (0.5 * h, h, h / 6.0))
    eye = np.eye(4, dtype=complex)
    a_0, a_mid, a_1 = -1j * _hamiltonians(columns, columns["omega1"] * np.stack([0.0 * h, 0.5 * h, h]))
    k2 = a_mid @ (eye + half * a_0)
    k3 = a_mid @ (eye + half * k2)
    k4 = a_1 @ (eye + full * k3)
    d_step = sixth * (a_0 + 2.0 * k2 + 2.0 * k3 + k4)
    phi, d_frame = columns["omega1"] * h, np.zeros_like(d_step)  # e^{+-i phi} - 1 = -2 sin^2(phi/2) +- i sin(phi)
    sine, versine = np.sin(phi), -2.0 * np.sin(0.5 * phi) ** 2
    d_frame[:, 0, 0], d_frame[:, 3, 3] = versine + 1j * sine, versine - 1j * sine
    d, power = d_frame + d_step + d_frame @ d_step, np.zeros_like(d_step)
    for place, bit in enumerate(reversed(bin(steps)[2:])):  # the bits of steps, least significant first
        if place:
            d = 2.0 * d + d @ d
        if bit == "1":
            power = power + d + d @ power
    propagators = _frame_matrix(columns["omega1"] * t) @ (eye + power)
    _check_stack(propagators, "general")
    return propagators


def evolve_stepped(params: SpinParams, initial: TwoSpinState, t: float, steps: int) -> EvolutionResult:
    """Fixed-step RK4 integration of i dU/dt = H(t) U: the M = 1 case of _stepped_propagators.

    Refuses to run with fewer than MIN_STEPS_PER_PERIOD substeps per shortest
    dynamical period. That is a stability floor, not an accuracy bound: a run
    near it may be far from evolve_exact. The returned propagator carries the
    "general" tag; its unitarity defect shrinks at fourth order in the step size.
    """
    columns, times = _columns(params, 1), np.array([t], dtype=float)
    _check_steps(columns, times, steps)
    propagator = _stepped_propagators(columns, times, steps)[0]
    op = Operator4.general(propagator)
    # The final-state norm mirrors the integrator's unitarity defect, so skip
    # the unit-norm sanity check: final_state must equal propagator @ initial.
    final = _state_from_trusted(propagator @ initial.amplitudes)
    return EvolutionResult(final_state=final, propagator=op, elapsed=t, method="stepped", step_count=steps)
