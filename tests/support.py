"""Shared helpers and independent oracles for the test suite."""

import math

import numpy as np

from twospin import PARAM_GROUPS, SpinParams, triplet_amplitudes

TWO_PI = 2.0 * math.pi


def wrap(angle):
    """Principal branch (-pi, pi]."""
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def circ_dist(a, b):
    return abs(wrap(a - b))


def random_symmetric(rng, omega1_low=0.0, omega1_high=0.0):
    omega0, gamma, J = rng.uniform(-3.0, 3.0, 3)
    omega1 = float(rng.uniform(omega1_low, omega1_high)) if omega1_high > 0 else 0.0
    return SpinParams.symmetric(float(omega0), float(gamma), float(J), omega1)


def random_general(rng, omega1_low=0.8, omega1_high=2.0):
    wa, wb, ga, gb, J = (float(v) for v in rng.uniform(-3.0, 3.0, 5))
    return SpinParams(wa, wb, ga, gb, J, float(rng.uniform(omega1_low, omega1_high)))


def flip_params(params, names):
    """Negate the named parameter groups (omega0 and gamma act on both spins): the second
    cycle of a two-cycle protocol, built point by point as an oracle for the stacked flip."""
    updates = {}
    for name in names:
        if name not in PARAM_GROUPS:
            raise ValueError(f"unknown flip group {name!r}")
        for field in PARAM_GROUPS[name]:
            updates[field] = -getattr(params, field)
    return params.replace(**updates)


def random_state(rng):
    from twospin import TwoSpinState

    return TwoSpinState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))


def cubic_trisection(omega0, gamma, J):
    """The arccos argument -q / (2 sqrt(-(p/3)^3)) and amplitude sqrt(-p/3) of the
    trigonometric root in the spectral module docstring, in float arithmetic;
    (0, 0) where p = 0."""
    p = -(4.0 * J * J / 3.0 + 4.0 * omega0 * omega0 + 4.0 * gamma * gamma)
    if p == 0.0:
        return 0.0, 0.0
    q = 16.0 / 27.0 * J**3 + (8.0 * gamma * gamma - 16.0 * omega0 * omega0) * J / 3.0
    return -q / (2.0 * math.sqrt(-((p / 3.0) ** 3))), math.sqrt(-p / 3.0)


def closed_form_reference(omega0, gamma, J):
    """The triplet energies and Berry phases of one point by the scalar formulas
    of the spectral and phases docstrings, in float arithmetic.

    A Berry phase is None where min|d+-| < 1e-8 * scale (the fallback branch).
    """
    arg, amp = cubic_trisection(omega0, gamma, J)
    if amp == 0.0:
        return (0.0, 0.0, 0.0), (None, None, None)
    phi = math.acos(min(1.0, max(-1.0, arg))) / 3.0
    energies = tuple(amp * math.cos(phi + s) + J / 6.0 for s in (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0))
    scale = max(abs(omega0), abs(gamma), abs(J), 1.0)
    phases = []
    for energy in energies:
        d_plus = 2.0 * omega0 + J - 2.0 * energy
        d_minus = -2.0 * omega0 + J - 2.0 * energy
        if min(abs(d_plus), abs(d_minus)) < 1e-8 * scale:
            phases.append(None)
            continue
        norm_sq = 2.0 + 4.0 * gamma * gamma / d_plus**2 + 4.0 * gamma * gamma / d_minus**2
        big_d = 2.0 * energy - J
        phases.append(
            TWO_PI * 32.0 * gamma * gamma * omega0 * big_d / (norm_sq * (big_d * big_d - 4.0 * omega0 * omega0) ** 2)
        )
    return energies, tuple(phases)


def sorted_spectrum_oracle(matrix):
    """Direct diagonalization oracle: ascending eigenvalues of a 4x4 hermitian."""
    return np.linalg.eigvalsh(matrix)


def berry_line_integral(omega0, gamma, J, n, intervals=20000):
    """Numeric loop integral i * closed-integral <xi|d xi/d theta> d theta.

    Amplitudes come from the closed-form eigenstate gauge at field angle theta;
    the derivative is a periodic central difference and the quadrature is the
    trapezoid rule on the closed uniform grid.
    """
    theta = np.linspace(0.0, TWO_PI, intervals, endpoint=False)
    x, y, z, w = triplet_amplitudes(omega0, gamma, J, n, theta)
    xi = np.vstack([x, y, z, w])
    dtheta = TWO_PI / intervals
    dxi = (np.roll(xi, -1, axis=1) - np.roll(xi, 1, axis=1)) / (2.0 * dtheta)
    integrand = (1j * np.sum(xi.conj() * dxi, axis=0)).real
    return float(dtheta * integrand.sum())
