"""Adiabatic (Berry) and nonadiabatic (Aharonov-Anandan) cycle phases.

For a slow field rotation each instantaneous eigenstate returns to itself
after one period tau = 2*pi/|omega1| with total phase

    total_n = dynamical_n + geometric_n,   dynamical_n = -E_n * tau

and the geometric part equals 2*pi times the population imbalance between the
uu and dd amplitudes of the eigenstate. In closed form, for triplet labels,

    geometric_n = 2*pi * 32 gamma^2 omega0 (2E_n - J)
                  / ( N_n * [ (2E_n - J)^2 - 4 omega0^2 ]^2 )

with N_n the eigenvector normalization; the singlet phase is exactly zero.
The closed form is the phase for the positive rotation sense (omega1 > 0).
For omega1 < 0 the field traverses the same loop backwards, so the geometric
part takes the sign of omega1 while the dynamical part -E_n * tau does not.

Without any slowness assumption, a state prepared in an eigenstate of the
rotating-frame generator is cyclic with total phase -E_tilde_n * tau; its
geometric (Aharonov-Anandan) part is the same closed form evaluated at the
shifted detuning omega0 - omega1, again times the sign of omega1.

_cycle_phases evaluates both breakdowns at N points with one call each of
spectral._closed_form and spectral._fallback_rows (on H(0) at the detuning
used, shifted or not); adiabatic_phases, aa_breakdown and aa_phase (its
geometric part) are its N = 1 case. berry_phase is that of _berry_phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpinParams, _checked_float, _columns, _equal_coupling_fields, _label, _periods, _refuse
from .spectral import _LOST_ENERGY, _TWO_PI, _closed_form, _detuning, _fallback_rows, _point, singlet_energy

__all__ = [
    "PhaseBreakdown",
    "aa_breakdown",
    "aa_phase",
    "adiabatic_phases",
    "berry_phase",
    "legacy_single_spin_phase",
    "principal_value",
]

_LOST_PHASE = "phase {!r} rad is not finite"


def _principal_values(phases: np.ndarray) -> np.ndarray:
    """principal_value of every entry; the first non-finite one in row-major order raises."""
    _refuse(~np.isfinite(phases), phases, ArithmeticError, _LOST_PHASE)
    r = np.fmod(phases, _TWO_PI)  # then math.remainder's value, and -pi as +pi: both steps are exact (Sterbenz)
    r = np.where(r > math.pi, r - _TWO_PI, r)
    return np.where(r <= -math.pi, r + _TWO_PI, r)


def principal_value(phase: float) -> float:
    """Map a phase to the branch (-pi, pi]; a non-finite phase raises ArithmeticError."""
    return float(_principal_values(np.array([phase], dtype=float))[0])


@dataclass(frozen=True)
class PhaseBreakdown:
    """Total / dynamical / geometric phase of one cycle, in radians.

    The components are raw: total == dynamical + geometric holds exactly as
    computed. Wrap them with principal_value for display.
    """

    label: int
    total: float
    dynamical: float
    geometric: float


def _berry_phases(omega0: np.ndarray, gamma: np.ndarray, J: np.ndarray):
    """Triplet energies (N, 3) and positive-sense Berry phases (N, 4) from one _closed_form call; fallback rows
    take spectral._fallback_rows on H(0) at these fields."""
    closed, zero = _closed_form(omega0, gamma, J), np.zeros(len(J))
    columns = {"omega_a0": omega0, "omega_b0": omega0, "gamma_a": gamma, "gamma_b": gamma, "J": J, "omega1": zero}
    _fallback_rows(columns, closed, zero, rotating=False)
    return closed.energies, closed.berry


def berry_phase(omega0: float, gamma: float, J: float, n: int) -> float:
    """Geometric phase of eigenpath n over one slow field cycle.

    Evaluates the closed form above; near eigenvector-formula degeneracies it
    falls back to 2*pi*(|x_n|^2 - |w_n|^2) with numerically diagonalized
    eigenvectors. This is the phase for the positive rotation sense; callers
    with a negative omega1 negate it. A non-finite energy raises ArithmeticError.
    """
    n = _label(n)
    energies, berry = _berry_phases(*_point(omega0, gamma, J))
    _refuse(~np.isfinite(energies), energies, ArithmeticError, _LOST_ENERGY)
    return float(berry[0, n - 1])


def _rotation_sense(omega1):
    """-1.0 where the field rotates backwards (omega1 < 0), else +1.0; elementwise on arrays."""
    return np.where(omega1 < 0.0, -1.0, 1.0)


def _cycle_phases(columns: dict[str, np.ndarray], shifted: bool):
    """Raw total, dynamical and geometric phases, each (N, 4), at the points of columns.

    shifted=False gives adiabatic_phases, shifted=True aa_breakdown. A point
    refuses omega1 = 0, then unequal couplings, then (shifted) a detuning
    omega0 - omega1 beyond the float range, as the Hamiltonian builder does,
    then the closed forms' own failures, then a period that overflows.
    """
    omega1 = columns["omega1"]
    if np.any(omega1 == 0.0):
        kind = "cycling" if shifted else "adiabatic"
        raise ValueError(f"{kind} phases need omega1 != 0 (no cycle defined)")
    omega0, gamma, J = _equal_coupling_fields(columns)
    with np.errstate(all="ignore"):  # as in float arithmetic; a non-finite phase is refused when shown
        triplets, berry = _berry_phases(_detuning(omega0, omega1, shifted), gamma, J)
        periods = _periods(omega1)[:, None]
        energies = np.column_stack([triplets, singlet_energy(J)])
        geometric = _rotation_sense(omega1)[:, None] * berry
        if shifted:
            total = -energies * periods
            return total, total - geometric, geometric
        dynamical = -energies * periods
        return dynamical + geometric, dynamical, geometric


def _breakdown(params: SpinParams, n: int, shifted: bool) -> PhaseBreakdown:
    n = _label(n)
    parts = np.array([part[0, n - 1] for part in _cycle_phases(_columns(params, 1), shifted)])
    _refuse(~np.isfinite(parts), parts, ArithmeticError, _LOST_PHASE)
    return PhaseBreakdown(n, *parts.tolist())


def adiabatic_phases(params: SpinParams, n: int) -> PhaseBreakdown:
    """Slow-cycle phase breakdown of eigenpath n; a non-finite part raises ArithmeticError."""
    return _breakdown(params, n, shifted=False)


def aa_phase(params: SpinParams, n: int) -> float:
    """Geometric phase of the cycling state built on rotating-frame eigenstate n: aa_breakdown's geometric part.

    Equal to the slow-cycle geometric phase at the detuning shifted by -omega1,
    with the sign of omega1; zero for the singlet; refuses omega1 = 0 and a
    breakdown with a non-finite part, as aa_breakdown does.
    """
    return _breakdown(params, n, shifted=True).geometric


def aa_breakdown(params: SpinParams, n: int) -> PhaseBreakdown:
    """Exact-cycle phase breakdown for rotating-frame eigenpath n; a non-finite part raises ArithmeticError."""
    return _breakdown(params, n, shifted=True)


def legacy_single_spin_phase(omega_b0: float, gamma_b: float, J: float, sigma_az: int) -> float:
    """Single-spin reduction used by earlier treatments, for comparison only.

    Spin b is taken to precess about the axis (omega_b0 + J*sigma_az) z + gamma_b x
    conditioned on a frozen spin a; the cycle phase is -pi*(1 - cos(theta)) with
    theta the axis polar angle. This ignores the rotating-field coupling of
    spin a and is not a faithful description of the two-spin problem. A non-finite field raises
    ValueError, as SpinParams does; an axis beyond the float range raises OverflowError.
    """
    omega_b0, gamma_b, J = map(_checked_float, ("omega_b0", "gamma_b", "J"), (omega_b0, gamma_b, J))
    if sigma_az not in (1, -1):
        raise ValueError("sigma_az must be +1 or -1")
    axis_z = omega_b0 + J * sigma_az
    radius = math.hypot(axis_z, gamma_b)
    if not math.isfinite(radius):
        raise OverflowError("precession axis overflows the float range")
    if radius == 0.0:
        raise ValueError("precession axis is undefined (zero field)")
    return -math.pi * (1.0 - axis_z / radius)
