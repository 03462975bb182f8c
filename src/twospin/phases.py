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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SpinParams
from .spectral import (
    DegenerateParametersError,
    _triplet_denominators,
    eigensystem,
    singlet_energy,
    triplet_energies,
)

__all__ = [
    "PhaseBreakdown",
    "aa_breakdown",
    "aa_phase",
    "adiabatic_phases",
    "berry_phase",
    "legacy_single_spin_phase",
    "principal_value",
]

_TWO_PI = 2.0 * math.pi


def principal_value(phase: float) -> float:
    """Map a phase to the branch (-pi, pi]; a non-finite phase raises ArithmeticError."""
    if not math.isfinite(phase):
        raise ArithmeticError(f"phase {float(phase)!r} rad is not finite")
    r = math.remainder(phase, _TWO_PI)
    if r <= -math.pi:
        r += _TWO_PI
    return r


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


def berry_phase(omega0: float, gamma: float, J: float, n: int) -> float:
    """Geometric phase of eigenpath n over one slow field cycle.

    Evaluates the closed form above; near eigenvector-formula degeneracies it
    falls back to 2*pi*(|x_n|^2 - |w_n|^2) with numerically diagonalized
    eigenvectors. This is the phase for the positive rotation sense; callers
    with a negative omega1 negate it.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("label must be in 1..4")
    if n == 4:
        return 0.0
    try:
        energy, d_plus, d_minus = _triplet_denominators(omega0, gamma, J, n)
    except DegenerateParametersError:
        system = eigensystem(SpinParams.symmetric(omega0, gamma, J), 0.0)
        amps = system.state(n).amplitudes
        return _TWO_PI * float(abs(amps[0]) ** 2 - abs(amps[3]) ** 2)
    norm_sq = 2.0 + 4.0 * gamma * gamma / d_plus**2 + 4.0 * gamma * gamma / d_minus**2
    big_d = 2.0 * energy - J
    return (
        _TWO_PI
        * 32.0
        * gamma
        * gamma
        * omega0
        * big_d
        / (norm_sq * (big_d * big_d - 4.0 * omega0 * omega0) ** 2)
    )


def _label_energy(omega0: float, gamma: float, J: float, n: int) -> float:
    if n == 4:
        return singlet_energy(J)
    return triplet_energies(omega0, gamma, J)[n - 1]


def _rotation_sense(params: SpinParams) -> float:
    """-1 when the field rotates backwards (omega1 < 0), else +1."""
    return -1.0 if params.omega1 < 0.0 else 1.0


def adiabatic_phases(params: SpinParams, n: int) -> PhaseBreakdown:
    """Slow-cycle phase breakdown of eigenpath n."""
    if params.omega1 == 0.0:
        raise ValueError("adiabatic phases need omega1 != 0 (no cycle defined)")
    geometric = _rotation_sense(params) * berry_phase(params.omega0, params.gamma, params.J, n)
    dynamical = -_label_energy(params.omega0, params.gamma, params.J, n) * params.period
    return PhaseBreakdown(label=n, total=dynamical + geometric, dynamical=dynamical, geometric=geometric)


def aa_phase(params: SpinParams, n: int) -> float:
    """Geometric phase of the cycling state built on rotating-frame eigenstate n.

    Equal to the slow-cycle geometric phase with the detuning shifted by
    -omega1, with the sign of omega1; zero for the singlet.
    """
    return _rotation_sense(params) * berry_phase(params.omega0 - params.omega1, params.gamma, params.J, n)


def aa_breakdown(params: SpinParams, n: int) -> PhaseBreakdown:
    """Exact-cycle phase breakdown for rotating-frame eigenpath n."""
    if params.omega1 == 0.0:
        raise ValueError("cycling phases need omega1 != 0 (no cycle defined)")
    total = -_label_energy(params.omega0 - params.omega1, params.gamma, params.J, n) * params.period
    geometric = aa_phase(params, n)
    return PhaseBreakdown(label=n, total=total, dynamical=total - geometric, geometric=geometric)


def legacy_single_spin_phase(omega_b0: float, gamma_b: float, J: float, sigma_az: int) -> float:
    """Single-spin reduction used by earlier treatments, for comparison only.

    Spin b is taken to precess about the axis (omega_b0 + J*sigma_az) z + gamma_b x
    conditioned on a frozen spin a; the cycle phase is -pi*(1 - cos(theta)) with
    theta the axis polar angle. This ignores the rotating-field coupling of
    spin a and is not a faithful description of the two-spin problem.
    """
    if sigma_az not in (1, -1):
        raise ValueError("sigma_az must be +1 or -1")
    axis_z = omega_b0 + J * sigma_az
    radius = math.hypot(axis_z, gamma_b)
    if radius == 0.0:
        raise ValueError("precession axis is undefined (zero field)")
    return -math.pi * (1.0 - axis_z / radius)
