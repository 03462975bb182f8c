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

One kernel, _closed_form, evaluates all of this on (N,) columns of omega0,
gamma and J; triplet_energies, triplet_amplitudes and the eigensystems are its
N = 1 case. NumPy does the + - * / and sqrt, which IEEE 754 rounds exactly as
float arithmetic does. acos, cos and the powers **2 and **3 go through Python
floats: NumPy's versions differ from libm in the last bit on some arguments
(x**2 on about 1 double in 1,200), and an overflowing power must raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, repeat

import numpy as np

from .core import SpinParams, TwoSpinState
from .hamiltonian import h_rotating_frame, h_total

__all__ = [
    "ARCCOS_EXCESS_TOL",
    "DEGENERACY_RTOL",
    "DegenerateParametersError",
    "EigenPair",
    "EigenSystem",
    "InternalConsistencyError",
    "eigensystem",
    "singlet_energy",
    "spectral_scale",
    "tilde_eigensystem",
    "triplet_amplitudes",
    "triplet_energies",
]

# Relative threshold below which eigenvector-formula denominators are treated
# as degenerate and the numerical fallback is used instead.
DEGENERACY_RTOL = 1e-8
# Allowed floating-point excess of the arccos argument beyond [-1, 1].
ARCCOS_EXCESS_TOL = 1e-9

_ROOT_SHIFTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
_TWO_PI = 2.0 * math.pi


class DegenerateParametersError(ValueError):
    """Closed-form branch does not apply at these parameters."""


class InternalConsistencyError(RuntimeError):
    """A quantity drifted further from its mathematical range than rounding allows."""


def spectral_scale(omega0, gamma, J):
    """max(|omega0|, |gamma|, |J|, 1), elementwise for arrays."""
    return np.maximum(np.maximum(np.maximum(np.abs(omega0), np.abs(gamma)), np.abs(J)), 1.0)


def singlet_energy(J):
    return -J / 2.0


def _python(function, values: np.ndarray, *args) -> np.ndarray:
    """function(value, *args) for every entry of values, called on Python floats."""
    calls = map(function, values.ravel().tolist(), *map(repeat, args))
    return np.fromiter(calls, float, values.size).reshape(values.shape)


def _power(values: np.ndarray, exponent: int) -> np.ndarray:
    return _python(pow, values, exponent)


@dataclass(frozen=True)
class _ClosedForm:
    """Row i is point i, column k label k + 1. energies, d_plus, d_minus and the
    fallback mask (min|d+-| < DEGENERACY_RTOL * scale) are (N, 3); berry holds
    the (N, 4) positive-sense Berry phases, NaN on the mask, 0 for the singlet.
    """

    energies: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    fallback: np.ndarray
    berry: np.ndarray


def _closed_form(omega0: np.ndarray, gamma: np.ndarray, J: np.ndarray) -> _ClosedForm:
    """Energies, d+-, fallback mask and Berry phases (see phases) at (N,) columns of omega0, gamma, J.

    p = 0 only at omega0 = gamma = J = 0, where the energies are 0. The arccos
    argument is clamped to [-1, 1]; an excess beyond ARCCOS_EXCESS_TOL raises
    InternalConsistencyError. Overflow and division by zero raise as in floats.
    """
    with np.errstate(all="ignore"):  # non-finite values pass through, as in float arithmetic
        p = -(4.0 * J * J / 3.0 + 4.0 * omega0 * omega0 + 4.0 * gamma * gamma)
        q = 16.0 / 27.0 * _power(J, 3) + (8.0 * gamma * gamma - 16.0 * omega0 * omega0) * J / 3.0
        zero = p == 0.0
        p = np.where(zero, -3.0, p)  # any p < 0; the energies of these points are set to 0 below
        root = 2.0 * np.sqrt(-_power(p / 3.0, 3))
        if np.any(root == 0.0):
            raise ZeroDivisionError("float division by zero")
        arg = -q / root
        beyond = np.abs(arg) > 1.0 + ARCCOS_EXCESS_TOL
        if beyond.any():
            raise InternalConsistencyError(
                f"arccos argument {float(arg[beyond][0])!r} outside [-1, 1] beyond tolerance"
            )
        phi = _python(lambda a: math.acos(min(1.0, max(-1.0, a))), arg) / 3.0
        amp = np.sqrt(-p / 3.0)[:, None]
        energies = amp * _python(math.cos, phi[:, None] + _ROOT_SHIFTS) + (J / 6.0)[:, None]
        energies[zero] = 0.0

        d_plus = (2.0 * omega0 + J)[:, None] - 2.0 * energies
        d_minus = (-2.0 * omega0 + J)[:, None] - 2.0 * energies
        threshold = DEGENERACY_RTOL * spectral_scale(omega0, gamma, J)
        fallback = np.minimum(np.abs(d_plus), np.abs(d_minus)) < threshold[:, None]

        # Off the mask |d+-| >= 1e-8, and d+- is below about 1e53 (a cube above
        # overflows for larger inputs) or not finite: no power raises and no
        # divisor is 0.
        coupling = (4.0 * gamma * gamma)[:, None]
        norm_sq = 2.0 + coupling / _power(d_plus, 2) + coupling / _power(d_minus, 2)
        big_d = 2.0 * energies - J[:, None]
        d_product = big_d * big_d - (4.0 * omega0 * omega0)[:, None]
        berry = (_TWO_PI * 32.0 * gamma * gamma * omega0)[:, None] * big_d / (norm_sq * _power(d_product, 2))
    berry[fallback] = np.nan
    return _ClosedForm(energies, d_plus, d_minus, fallback, np.column_stack([berry, np.zeros(len(J))]))


def _point(*values) -> list[np.ndarray]:
    return [np.array([value], dtype=float) for value in values]


def triplet_energies(omega0: float, gamma: float, J: float) -> tuple[float, float, float]:
    """The three non-singlet energies, in the fixed label order (E1, E2, E3)."""
    return tuple(_closed_form(*_point(omega0, gamma, J)).energies[0].tolist())


def _amplitudes(gamma: float, d_plus: float, d_minus: float, theta):
    x0 = -2.0 * gamma / d_plus
    w0 = -2.0 * gamma / d_minus
    norm = math.sqrt(2.0 + x0 * x0 + w0 * w0)
    if not math.isfinite(norm):  # d+- overflowed: the spectral scale is out of float range
        raise ArithmeticError(f"closed-form eigenvector is not finite (d+ = {d_plus!r}, d- = {d_minus!r})")
    phase = np.exp(-1j * np.asarray(theta, dtype=float))
    one = np.ones_like(phase) / norm
    return (x0 * phase / norm, one, one, w0 * np.conj(phase) / norm)


def triplet_amplitudes(omega0: float, gamma: float, J: float, n: int, theta=0.0):
    """Normalized closed-form amplitudes (x, y, z, w) of triplet state n.

    theta is the instantaneous field angle (omega1*t); it may be a numpy array,
    in which case each returned amplitude has the same shape. Raises
    DegenerateParametersError near eigenvector-formula degeneracies.
    """
    if n not in (1, 2, 3):
        raise ValueError("triplet label must be 1, 2 or 3")
    closed = _closed_form(*_point(omega0, gamma, J))
    if closed.fallback[0, n - 1]:
        threshold = DEGENERACY_RTOL * spectral_scale(omega0, gamma, J)
        raise DegenerateParametersError(f"eigenvector denominator below {threshold:.1e} for label {n}")
    return _amplitudes(gamma, float(closed.d_plus[0, n - 1]), float(closed.d_minus[0, n - 1]), theta)


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
    closed = _closed_form(*_point(omega0, gamma, J))
    energies = tuple(closed.energies[0].tolist())
    used_fallback = bool(closed.fallback.any())
    if used_fallback:
        states = _fallback_triplet_states(hamiltonian(), energies)
    else:
        denominators = zip(closed.d_plus[0].tolist(), closed.d_minus[0].tolist())
        states = [np.array(_amplitudes(gamma, *d, theta), dtype=complex) for d in denominators]

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
