"""Exact and step-integrated time evolution.

The exact propagator uses the frame factorization

    U(t) = V(t) exp(-i H_rot t)

with V the frame rotation and H_rot the time-independent rotating-frame
generator; the matrix exponential is evaluated through the spectral
decomposition of the 4x4 hermitian H_rot, so it is exact to rounding and
valid for unequal couplings. A fixed-step classical Runge-Kutta integrator of
the time-ordered Schrodinger equation serves as the independent cross-check;
it samples the Hamiltonian analytically at the substep times and converges at
fourth order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Operator4, SpinParams, TwoSpinState, _state_from_trusted
from .hamiltonian import frame_rotation, h_rotating_frame, h_static, h_total, transverse_parts
from .spectral import eigensystem

__all__ = [
    "AdiabaticCycleResult",
    "EvolutionResult",
    "MIN_STEPS_PER_PERIOD",
    "adiabatic_cycle",
    "evolve_exact",
    "evolve_stepped",
    "exact_propagator",
    "numeric_dynamical_phase",
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


def exact_propagator(params: SpinParams, t: float) -> Operator4:
    """Closed-form propagator U(t); unitary for any couplings.

    Raises ArithmeticError once the largest phase |lambda t|, over the
    eigenvalues lambda of H_rot and the frame rate omega1, reaches 2**52:
    neighbouring doubles are 1 rad apart there, so the phases are noise.
    """
    vals, vecs = np.linalg.eigh(h_rotating_frame(params).matrix)
    phase = float(max(-vals[0], vals[-1], abs(params.omega1))) * abs(t)  # eigh sorts vals
    if phase >= 2.0**52:
        raise ArithmeticError(f"propagator phase {phase:.3e} rad is too large to resolve (limit 2**52)")
    expo = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    return Operator4.unitary(frame_rotation(params, t).matrix @ expo)


def evolve_exact(params: SpinParams, initial: TwoSpinState, t: float) -> EvolutionResult:
    propagator = exact_propagator(params, t)
    final = TwoSpinState(propagator.matrix @ initial.amplitudes)
    return EvolutionResult(final_state=final, propagator=propagator, elapsed=t, method="exact")


def _shortest_period(params: SpinParams) -> float:
    periods = [math.inf]
    if params.omega1 != 0.0:
        periods.append(params.period)
    h_norm = float(np.abs(np.linalg.eigvalsh(h_total(params, 0.0).matrix)).max())
    if h_norm > 0.0:
        periods.append(2.0 * math.pi / h_norm)
    return min(periods)


def evolve_stepped(params: SpinParams, initial: TwoSpinState, t: float, steps: int) -> EvolutionResult:
    """Fixed-step RK4 integration of the propagator of i dU/dt = H(t) U.

    Refuses to run with fewer than MIN_STEPS_PER_PERIOD substeps per shortest
    dynamical period (the accuracy contract could not be met). The returned
    propagator carries the "general" tag; its unitarity defect shrinks at
    fourth order in the step size.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if t != 0.0:
        shortest = _shortest_period(params)
        if math.isfinite(shortest) and abs(t) / steps > shortest / MIN_STEPS_PER_PERIOD:
            needed = math.ceil(abs(t) * MIN_STEPS_PER_PERIOD / shortest)
            raise ValueError(
                f"step budget too small: need at least {needed} steps for t={t!r}"
            )

    h = t / steps
    propagator = np.eye(4, dtype=complex)
    for k in range(steps):
        t0 = k * h
        h_0 = h_total(params, t0).matrix
        h_mid = h_total(params, t0 + 0.5 * h).matrix
        h_1 = h_total(params, t0 + h).matrix
        k1 = -1j * (h_0 @ propagator)
        k2 = -1j * (h_mid @ (propagator + 0.5 * h * k1))
        k3 = -1j * (h_mid @ (propagator + 0.5 * h * k2))
        k4 = -1j * (h_1 @ (propagator + h * k3))
        propagator = propagator + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

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
    if params.omega1 == 0.0:
        raise ValueError("adiabatic cycle needs omega1 != 0")
    start = eigensystem(params, 0.0).state(n)
    tau = params.period
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


def numeric_dynamical_phase(params: SpinParams, initial: TwoSpinState, t: float, steps: int) -> float:
    """Trapezoidal estimate of -integral of <psi(s)|H(s)|psi(s)> ds.

    The trajectory is the exact one; only the quadrature is numerical. The
    instantaneous energy is evaluated literally in the lab frame at each node,
    splitting H(s) into its static part plus cos/sin transverse components.
    """
    if steps < 100:
        raise ValueError("need at least 100 quadrature steps")
    times = np.linspace(0.0, t, steps + 1)

    vals, vecs = np.linalg.eigh(h_rotating_frame(params).matrix)
    tilde0 = vecs.conj().T @ initial.amplitudes
    tilde_traj = vecs @ (np.exp(-1j * np.outer(vals, times)) * tilde0[:, None])
    traj = tilde_traj.copy()
    traj[0, :] *= np.exp(-1j * params.omega1 * times)
    traj[3, :] *= np.exp(1j * params.omega1 * times)

    static = h_static(params).matrix
    cos_part, sin_part = transverse_parts(params)

    def quad_form(op):
        return np.einsum("ik,ij,jk->k", traj.conj(), op, traj).real

    energies = (
        quad_form(static)
        + np.cos(params.omega1 * times) * quad_form(cos_part)
        + np.sin(params.omega1 * times) * quad_form(sin_part)
    )
    dt = t / steps
    integral = dt * (energies.sum() - 0.5 * (energies[0] + energies[-1]))
    return -float(integral)
