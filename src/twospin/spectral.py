"""Closed-form eigensystem of the equal-coupling Hamiltonian.

The singlet (ud - du)/sqrt(2) is an exact eigenstate with energy -J/2 at every
time and every field speed; it always carries label 4. The remaining three
energies solve the depressed cubic v^3 + p v + q = 0 through the trigonometric
root formula,

    p = -(4 J^2/3 + 4 omega0^2 + 4 gamma^2)
    q = 16 J^3/27 + (8 gamma^2 - 16 omega0^2) J / 3
    Phi = arccos(-q / (2 sqrt(-(p/3)^3))) / 3
    E_n = sqrt(-p/3) * cos(Phi + shift_n) + J/6,   E = (v + J/3)/2

with shift_1 = 0, shift_2 = +2*pi/3, shift_3 = -2*pi/3. These labels are the
stable bookkeeping used by the sign-reversal protocols.

Triplet eigenvectors, in the fixed basis order and with the field at angle
theta = omega1*t, are proportional to

    ( -2 gamma e^{-i theta} / (2 omega0 + J - 2 E_n),
      1,
      1,
      -2 gamma e^{+i theta} / (-2 omega0 + J - 2 E_n) )

normalized by N_n = 2 + 4 gamma^2/d+^2 + 4 gamma^2/d-^2. This fixes the gauge:
the ud and du amplitudes are real and positive. When either denominator falls
below 1e-8 times the spectral scale the formula is abandoned for a direct
numerical diagonalization of the symmetric (triplet) sector, with labels
re-attached by energy matching and the last of the largest-magnitude
amplitudes (ties within 1e-12 relative) made real and positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import SpinParams, TwoSpinState, flip_params
from .hamiltonian import h_rotating_frame, h_total

__all__ = [
    "ARCCOS_EXCESS_TOL",
    "DEGENERACY_RTOL",
    "CubicCoefficients",
    "DegenerateParametersError",
    "EigenPair",
    "EigenSystem",
    "InternalConsistencyError",
    "SymmetryReport",
    "cubic_coefficients",
    "eigensystem",
    "singlet_energy",
    "spectral_scale",
    "symmetry_check",
    "tilde_eigensystem",
    "triplet_amplitudes",
    "triplet_energies",
]

# Relative threshold below which eigenvector-formula denominators are treated
# as degenerate and the numerical fallback is used instead.
DEGENERACY_RTOL = 1e-8
# Allowed floating-point excess of the arccos argument beyond [-1, 1].
ARCCOS_EXCESS_TOL = 1e-9

_ROOT_SHIFTS = (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)


class DegenerateParametersError(ValueError):
    """Closed-form branch does not apply at these parameters."""


class InternalConsistencyError(RuntimeError):
    """A quantity drifted further from its mathematical range than rounding allows."""


def spectral_scale(omega0: float, gamma: float, J: float) -> float:
    return max(abs(omega0), abs(gamma), abs(J), 1.0)


def singlet_energy(J: float) -> float:
    return -J / 2.0


@dataclass(frozen=True)
class CubicCoefficients:
    """Depressed-cubic data (p, q) and the trisected arccos angle Phi."""

    p: float
    q: float
    Phi: float


def _trisected_angle(p: float, q: float) -> float:
    """Phi = arccos(-q / (2 sqrt(-(p/3)^3))) / 3 with a clamped argument.

    Requires p < 0. Floating-point drift may push the argument marginally past
    [-1, 1]; excess beyond ARCCOS_EXCESS_TOL is a consistency failure rather
    than rounding and raises.
    """
    arg = -q / (2.0 * math.sqrt(-((p / 3.0) ** 3)))
    if abs(arg) > 1.0 + ARCCOS_EXCESS_TOL:
        raise InternalConsistencyError(f"arccos argument {arg!r} outside [-1, 1] beyond tolerance")
    return math.acos(min(1.0, max(-1.0, arg))) / 3.0


def cubic_coefficients(omega0: float, gamma: float, J: float) -> CubicCoefficients:
    """Coefficients of the depressed cubic solved by twice the triplet energies.

    Raises DegenerateParametersError when p == 0, which happens only for
    omega0 = gamma = J = 0 (the angle Phi is undefined there).
    """
    p = -(4.0 * J * J / 3.0 + 4.0 * omega0 * omega0 + 4.0 * gamma * gamma)
    q = 16.0 / 27.0 * J**3 + (8.0 * gamma * gamma - 16.0 * omega0 * omega0) * J / 3.0
    if p == 0.0:
        raise DegenerateParametersError("all parameters vanish; spectrum is identically zero")
    return CubicCoefficients(p=p, q=q, Phi=_trisected_angle(p, q))


def triplet_energies(omega0: float, gamma: float, J: float) -> tuple[float, float, float]:
    """The three non-singlet energies, in the fixed label order (E1, E2, E3)."""
    try:
        coeffs = cubic_coefficients(omega0, gamma, J)
    except DegenerateParametersError:
        return (0.0, 0.0, 0.0)
    amp = math.sqrt(-coeffs.p / 3.0)
    return tuple(amp * math.cos(coeffs.Phi + s) + J / 6.0 for s in _ROOT_SHIFTS)


def _triplet_denominators(omega0: float, gamma: float, J: float, n: int) -> tuple[float, float, float]:
    """E_n and the eigenvector denominators d+- = +-2 omega0 + J - 2 E_n of triplet label n.

    Raises DegenerateParametersError when either denominator falls below
    DEGENERACY_RTOL times the spectral scale.
    """
    energy = triplet_energies(omega0, gamma, J)[n - 1]
    d_plus = 2.0 * omega0 + J - 2.0 * energy
    d_minus = -2.0 * omega0 + J - 2.0 * energy
    threshold = DEGENERACY_RTOL * spectral_scale(omega0, gamma, J)
    if min(abs(d_plus), abs(d_minus)) < threshold:
        raise DegenerateParametersError(
            f"eigenvector denominator below {threshold:.1e} for label {n}"
        )
    return energy, d_plus, d_minus


def triplet_amplitudes(omega0: float, gamma: float, J: float, n: int, theta=0.0):
    """Normalized closed-form amplitudes (x, y, z, w) of triplet state n.

    theta is the instantaneous field angle (omega1*t); it may be a numpy array,
    in which case each returned amplitude has the same shape. Raises
    DegenerateParametersError near eigenvector-formula degeneracies.
    """
    if n not in (1, 2, 3):
        raise ValueError("triplet label must be 1, 2 or 3")
    _, d_plus, d_minus = _triplet_denominators(omega0, gamma, J, n)
    x0 = -2.0 * gamma / d_plus
    w0 = -2.0 * gamma / d_minus
    norm = math.sqrt(2.0 + x0 * x0 + w0 * w0)
    phase = np.exp(-1j * np.asarray(theta, dtype=float))
    one = np.ones_like(phase) / norm
    return (x0 * phase / norm, one, one, w0 * np.conj(phase) / norm)


@dataclass(frozen=True)
class EigenPair:
    label: int
    energy: float
    state: TwoSpinState


@dataclass(frozen=True)
class EigenSystem:
    """Four labeled eigenpairs of H(t), ordered by label (1..4)."""

    pairs: tuple[EigenPair, ...]
    time: float
    used_fallback: bool = False

    def pair(self, n: int) -> EigenPair:
        if n not in (1, 2, 3, 4):
            raise ValueError("label must be in 1..4")
        return self.pairs[n - 1]

    def energy(self, n: int) -> float:
        return self.pair(n).energy

    def state(self, n: int) -> TwoSpinState:
        return self.pair(n).state

    @property
    def energies(self) -> tuple[float, float, float, float]:
        return tuple(p.energy for p in self.pairs)

    def basis_matrix(self) -> np.ndarray:
        """Columns are the eigenstates in label order."""
        return np.column_stack([p.state.amplitudes for p in self.pairs])


# Rows map the 4-dim space onto the symmetric (triplet) sector basis
# {uu, (ud+du)/sqrt2, dd}; the singlet spans the complement.
_SYM_PROJECTOR = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    # The tolerance keeps last-bit rounding from breaking a tie between equal magnitudes.
    mags = np.abs(vec)
    k = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))[-1])
    c = vec[k]
    return vec * (np.conj(c) / abs(c))


def _fallback_triplet_states(hamiltonian: np.ndarray, labels_energies) -> list[np.ndarray]:
    """Diagonalize the symmetric sector and order states by label energies."""
    block = _SYM_PROJECTOR @ hamiltonian @ _SYM_PROJECTOR.conj().T
    vals, vecs = np.linalg.eigh(block)
    best = min(
        permutations(range(3)),
        key=lambda perm: sum(abs(labels_energies[i] - vals[perm[i]]) for i in range(3)),
    )
    return [_fix_phase(_SYM_PROJECTOR.conj().T @ vecs[:, best[i]]) for i in range(3)]


def _require_equal_couplings(params: SpinParams):
    if not params.equal_couplings:
        raise ValueError("closed-form spectral results require equal couplings")


def _build_eigensystem(
    omega0: float, gamma: float, J: float, theta: float, time: float, hamiltonian
) -> EigenSystem:
    """Closed-form eigenpairs at field angle theta, or the sector fallback.

    hamiltonian() returns the matrix to diagonalize when the closed-form
    eigenvectors degenerate; it is only built on that branch.
    """
    energies = triplet_energies(omega0, gamma, J)
    used_fallback = False
    try:
        states = [np.array(triplet_amplitudes(omega0, gamma, J, n, theta), dtype=complex) for n in (1, 2, 3)]
    except DegenerateParametersError:
        used_fallback = True
        states = _fallback_triplet_states(hamiltonian(), energies)

    pairs = [EigenPair(n, energies[n - 1], TwoSpinState(states[n - 1])) for n in (1, 2, 3)]
    pairs.append(EigenPair(4, singlet_energy(J), TwoSpinState.singlet()))
    return EigenSystem(pairs=tuple(pairs), time=time, used_fallback=used_fallback)


def eigensystem(params: SpinParams, t: float = 0.0) -> EigenSystem:
    """Instantaneous eigensystem of H(t) for equal couplings.

    Labels follow the trigonometric-root convention; label 4 is the singlet.
    used_fallback reports whether the numerical sector diagonalization was
    taken instead of the closed-form eigenvectors.
    """
    _require_equal_couplings(params)
    return _build_eigensystem(
        params.omega0, params.gamma, params.J, params.omega1 * t, t, lambda: h_total(params, t).matrix
    )


def tilde_eigensystem(params: SpinParams) -> EigenSystem:
    """Eigensystem of the rotating-frame generator.

    The generator is H(0) with the static frequencies shifted by -omega1, so
    the closed form is that of eigensystem at the shifted detuning and field
    angle zero. The fallback diagonalizes h_rotating_frame itself: at exact
    resonance (omega0 == omega1) a degenerate eigenvector's sign depends on
    the last bits of the matrix it comes from.
    """
    _require_equal_couplings(params)
    return _build_eigensystem(
        params.omega0 - params.omega1, params.gamma, params.J, 0.0, 0.0,
        lambda: h_rotating_frame(params).matrix,
    )


_EXCHANGE = {1: 2, 2: 1, 3: 3, 4: 4}


@dataclass(frozen=True)
class SymmetryReport:
    """Measured deviations from the sign-reversal symmetry relations.

    energy_deviations[n-1] is |E_n[-J] + E_m[J]| for the exchanged label m;
    state_deviations[n-1] is 1 - |<xi_m[-gamma,-omega0,-J] | xi_n[gamma,omega0,J]>|.
    """

    energy_deviations: tuple[float, float, float, float]
    state_deviations: tuple[float, float, float, float]

    @property
    def max_energy_deviation(self) -> float:
        return max(self.energy_deviations)

    @property
    def max_state_deviation(self) -> float:
        return max(self.state_deviations)

    @property
    def max_deviation(self) -> float:
        return max(self.max_energy_deviation, self.max_state_deviation)


def symmetry_check(params: SpinParams) -> SymmetryReport:
    """Verify the spectrum/eigenstate exchange under parameter sign reversal.

    Energies with J negated pair up as E1 <-> -E2, E3 and E4 odd; eigenstates
    with (gamma, omega0, J) all negated exchange 1 <-> 2 and fix 3 and 4.
    """
    _require_equal_couplings(params)
    omega0, gamma, J = params.omega0, params.gamma, params.J

    plus = triplet_energies(omega0, gamma, J) + (singlet_energy(J),)
    minus = triplet_energies(omega0, gamma, -J) + (singlet_energy(-J),)
    energy_devs = tuple(abs(minus[n - 1] + plus[_EXCHANGE[n] - 1]) for n in (1, 2, 3, 4))

    sys_plus = eigensystem(params, 0.0)
    sys_minus = eigensystem(flip_params(params, ("omega0", "gamma", "J")), 0.0)
    state_devs = tuple(
        1.0 - abs(sys_minus.state(_EXCHANGE[n]).overlap(sys_plus.state(n)))
        for n in (1, 2, 3, 4)
    )
    return SymmetryReport(energy_deviations=energy_devs, state_deviations=state_devs)
