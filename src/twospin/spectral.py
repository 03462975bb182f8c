"""Closed-form eigensystem of the equal-coupling Hamiltonian.

The singlet (ud - du)/sqrt(2) is an exact eigenstate with energy -J/2 at every
time and every field speed; it always carries label 4. The remaining three
energies solve the depressed cubic v^3 + p v + q = 0 through the trigonometric
root formula,

    p = -(4 J^2/3 + 4 omega0^2 + 4 gamma^2)
    q = 16 J^3/27 + (8 gamma^2 - 16 omega0^2) J / 3
    D = 4 (-p/3)^3 - q^2
      = (64/27) [4 omega0^2 ((J - omega0)(J + omega0))^2 + gamma^2 (20 J^2 omega0^2 + 12 omega0^4)
                 + gamma^4 (J^2 + 12 omega0^2) + 4 gamma^6]
    Phi = atan2(sqrt(D), -q) / 3
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

One kernel, _closed_form, evaluates the energies, amplitudes and Berry phases
on (N,) columns of omega0, gamma and J; triplet_energies is its N = 1 case. D is
a sum of non-negative terms, so no digits cancel near a level crossing, and
atan2 has no domain to leave. Each point is solved on its parameters divided
by the power of two of the largest one, so no power overflows and tiny
parameters keep their digits; the energies are multiplied back, exactly, and
the Berry phases and amplitude ratios are scale-free. NumPy does the + - * /
and sqrt, which IEEE 754 rounds exactly as float arithmetic does; atan2 and
cos go through Python floats, as NumPy's versions may differ from libm in the
last bit (arctan2 on about 1 argument pair in 13).

_solve is a frame's one eigen-solve: _closed_form, and on the fallback mask one
stacked Hamiltonian build, one eigh of the (K, 3, 3) sectors, an argmin over
the 6 label permutations and a stacked gauge fix. _eigenbases builds the
(N, 4, 4) eigenbases from it; eigensystem and tilde_eigensystem are its N = 1
case, and phases reads the same solve. Each basis equals the one-point,
one-label construction bit for bit: the same float operations, one
matrix-vector product per state, and np.hypot for a scalar abs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import SpinParams, TwoSpinState, _checked_float, _columns, _equal_coupling_fields, _label
from .core import _refuse
from .hamiltonian import _OVERFLOW, _hamiltonians

__all__ = [
    "DEGENERACY_RTOL",
    "EigenSystem",
    "eigensystem",
    "singlet_energy",
    "spectral_scale",
    "tilde_eigensystem",
    "triplet_energies",
]

# Relative threshold below which eigenvector-formula denominators are treated
# as degenerate and the numerical fallback is used instead.
DEGENERACY_RTOL = 1e-8

_ROOT_SHIFTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
_TWO_PI = 2.0 * math.pi


def spectral_scale(omega0, gamma, J):
    """max(|omega0|, |gamma|, |J|, 1), elementwise for arrays."""
    return np.maximum(np.maximum(np.maximum(np.abs(omega0), np.abs(gamma)), np.abs(J)), 1.0)


def singlet_energy(J):
    return -J / 2.0


def _python(function, *arrays) -> np.ndarray:
    """function at every entry of the broadcast arrays, called on Python floats."""
    arrays = np.broadcast_arrays(*arrays)
    calls = map(function, *(array.ravel().tolist() for array in arrays))
    return np.fromiter(calls, float, arrays[0].size).reshape(arrays[0].shape)


@dataclass(frozen=True)
class _ClosedForm:
    """Row i is point i, column k label k + 1. energies, the scale-free t = 0 amplitudes x = -2 gamma/d+ and
    w = -2 gamma/d- (uu and dd, with ud = du = 1; meaningless on the mask) and the fallback mask
    (min|d+-| < DEGENERACY_RTOL * scale) are (N, 3); berry holds the (N, 4) positive-sense Berry phases
    2*pi(|x|^2 - |w|^2), 0 for the singlet: the closed form off the mask, NaN on it until _fallback_rows sets
    them from the states it returns.
    """

    energies: np.ndarray
    x: np.ndarray
    w: np.ndarray
    fallback: np.ndarray
    berry: np.ndarray


def _closed_form(omega0: np.ndarray, gamma: np.ndarray, J: np.ndarray) -> _ClosedForm:
    """Energies, amplitudes, fallback mask and Berry phases (see phases) at (N,) columns of omega0, gamma, J.

    Each point is solved on its parameters divided by 2**k, k the frexp exponent of the largest finite one
    (as TwoSpinState.normalized scales), and its energies are multiplied back. The scaling is exact, so at
    ordinary parameters every value equals the unscaled computation's, bit for bit. Only an energy beyond
    the float range is lost (it reads inf); non-finite parameters give non-finite energies, as in float
    arithmetic. Nothing raises.
    """
    magnitudes = np.abs([omega0, gamma, J])
    exponent = np.frexp(np.where(np.isfinite(magnitudes), magnitudes, 0.0).max(axis=0))[1]
    o, g, j = np.ldexp([omega0, gamma, J], -exponent)
    with np.errstate(all="ignore"):  # non-finite values pass through, as in float arithmetic
        o2, g2, j2, crossing = o * o, g * g, j * j, (j - o) * (j + o)
        p = -(4.0 * j2 / 3.0 + 4.0 * o2 + 4.0 * g2)
        q = 16.0 / 27.0 * (j2 * j) + (8.0 * g2 - 16.0 * o2) * j / 3.0
        terms = 4.0 * o2 * crossing * crossing + g2 * (20.0 * j2 * o2 + 12.0 * o2 * o2) + g2 * g2 * (j2 + 12.0 * o2)
        discriminant = 64.0 / 27.0 * (terms + 4.0 * g2 * g2 * g2)
        phi = _python(math.atan2, np.sqrt(discriminant), -q) / 3.0
        amp = np.sqrt(-p / 3.0)[:, None]
        energies = amp * _python(math.cos, phi[:, None] + _ROOT_SHIFTS) + (j / 6.0)[:, None]

        d_plus = (2.0 * o + j)[:, None] - 2.0 * energies
        d_minus = (-2.0 * o + j)[:, None] - 2.0 * energies
        threshold = np.ldexp(DEGENERACY_RTOL * spectral_scale(omega0, gamma, J), -exponent)
        fallback = np.minimum(np.abs(d_plus), np.abs(d_minus)) < threshold[:, None]

        coupling = (4.0 * g2)[:, None]
        norm_sq = 2.0 + coupling / (d_plus * d_plus) + coupling / (d_minus * d_minus)
        big_d, d_product = 2.0 * energies - j[:, None], d_plus * d_minus
        berry = (_TWO_PI * 32.0 * g * g * o)[:, None] * big_d / (norm_sq * d_product * d_product)
        x, w = -2.0 * g[:, None] / d_plus, -2.0 * g[:, None] / d_minus
        energies = np.ldexp(energies, exponent[:, None])
    berry[fallback] = np.nan
    return _ClosedForm(energies, x, w, fallback, np.column_stack([berry, np.zeros(len(J))]))


def _point(omega0, gamma, J) -> dict[str, np.ndarray]:
    """One point's field columns, omega1 = 0; a non-finite field raises ValueError naming it, as SpinParams does."""
    o, g, j = (np.array([_checked_float(name, v)]) for name, v in zip(("omega0", "gamma", "J"), (omega0, gamma, J)))
    return {"omega_a0": o, "omega_b0": o, "gamma_a": g, "gamma_b": g, "J": j, "omega1": np.zeros(1)}


_LOST_ENERGY = "closed-form energy {!r} is not finite"  # beyond the float range


def triplet_energies(omega0: float, gamma: float, J: float) -> tuple[float, float, float]:
    """The three non-singlet energies, in the fixed label order (E1, E2, E3); a non-finite one raises."""
    energies = _closed_form(*_equal_coupling_fields(_point(omega0, gamma, J))).energies
    _refuse(~np.isfinite(energies), energies, ArithmeticError, _LOST_ENERGY)
    return tuple(energies[0].tolist())


def _amplitudes(x, w, energies, theta):
    """The closed-form amplitudes (x, y, z, w) on broadcast arrays; the first non-finite energy raises."""
    _refuse(~np.isfinite(energies), energies, ArithmeticError, _LOST_ENERGY)
    norm = np.sqrt(2.0 + x * x + w * w)
    phase = np.exp(-1j * theta)
    one = np.ones_like(phase) / norm
    return (x * phase / norm, one, one, w * np.conj(phase) / norm)


@dataclass(frozen=True)
class EigenSystem:
    """The energies and states of the four eigenpairs of H(t), each in label order (1..4)."""

    energies: tuple[float, float, float, float]
    states: tuple[TwoSpinState, TwoSpinState, TwoSpinState, TwoSpinState]
    time: float
    used_fallback: bool = False

    def energy(self, n: int) -> float:
        return self.energies[_label(n) - 1]

    def state(self, n: int) -> TwoSpinState:
        return self.states[_label(n) - 1]

    def basis_matrix(self) -> np.ndarray:
        """Columns are the eigenstates in label order."""
        return np.column_stack([state.amplitudes for state in self.states])


# Rows map the 4-dim space onto the symmetric (triplet) sector basis
# {uu, (ud+du)/sqrt2, dd}; the singlet spans the complement.
_HALF = 1.0 / math.sqrt(2.0)
_SYM_PROJECTOR = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, _HALF, _HALF, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
_PERMUTATIONS = np.array(list(permutations(range(3))))
_SINGLET = TwoSpinState.singlet().amplitudes


def _fallback_states(columns: dict[str, np.ndarray], energies: np.ndarray, theta: np.ndarray, rotating: bool):
    """(K, 4, 3) triplet states, label k + 1 in column k, of the K points of columns with (K, 3) label energies:
    one stacked eigh of the sectors of _hamiltonians(columns, theta, rotating), which checks them as
    Operator4.hermitian (H_rot itself, not H(0) at the shifted detuning: at exact resonance a degenerate
    eigenvector's sign depends on its last bits); the eigenvalue permutation of least summed distance to the
    energies (the first in itertools order on a tie); each state one matrix-vector product, and the last of its
    largest-magnitude amplitudes (ties within 1e-12 relative, against last-bit noise) made real and positive.
    """
    hamiltonians = _hamiltonians(columns, theta, rotating)
    vals, vecs = np.linalg.eigh(_SYM_PROJECTOR @ hamiltonians @ _SYM_PROJECTOR.conj().T)
    with np.errstate(over="ignore"):  # near the float range a wrong permutation's distance may read inf
        distance = np.abs(energies[:, None, :] - vals[:, _PERMUTATIONS]).sum(axis=-1)
    # Not the rank order [2, 0, 1]: where E1 and E3 tie in float (gamma = 0 at zero detuning, or |J| that hides
    # omega0) the first permutation keeps eigh's uu before dd, as label 1 before 3; the rank order swaps them.
    best = _PERMUTATIONS[np.argmin(distance, axis=1)]
    chosen = np.take_along_axis(vecs, best[:, None, :], axis=2)
    states = (_SYM_PROJECTOR.conj().T @ chosen.swapaxes(1, 2)[..., None])[..., 0]
    magnitudes = np.abs(states)
    tied = magnitudes >= magnitudes.max(axis=-1, keepdims=True) * (1.0 - 1e-12)
    pivot = np.take_along_axis(states, 3 - np.argmax(tied[..., ::-1], axis=-1)[..., None], axis=-1)
    return (states * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))).swapaxes(1, 2)


def _fallback_rows(columns: dict[str, np.ndarray], closed: _ClosedForm, theta: np.ndarray, rotating: bool):
    """The (N,) mask of the K rows with a label on closed.fallback and their (K, 4, 3) _fallback_states at angles
    theta, from one call; closed.berry on the mask is set, in place, to 2*pi*(|x|^2 - |w|^2) of each label's
    returned state, in either frame and at any angle."""
    rows = closed.fallback.any(axis=1)
    if not rows.any():
        return rows, np.empty((0, 4, 3), dtype=complex)
    subset = {name: column[rows] for name, column in columns.items()}
    states = _fallback_states(subset, closed.energies[rows], theta[rows], rotating)
    x, w = (np.hypot(a.real, a.imag) for a in states[:, [0, 3]].swapaxes(0, 1))
    geometric = _TWO_PI * (_python(pow, x, 2) - _python(pow, w, 2))  # the scalar abs and **
    closed.berry[rows, :3] = np.where(closed.fallback[rows], geometric, closed.berry[rows, :3])
    return rows, states


def _solve(columns: dict[str, np.ndarray], t: float = 0.0, rotating: bool = False):
    """The closed forms, (N,) field angles and _fallback_rows of H(t) at equal-coupling field columns, or (rotating)
    of H_rot, whose closed form is H(0)'s at the detuning omega0 - omega1; one beyond the float range raises the
    builder's OverflowError, as an H_rot diagonal entry then overflows."""
    (omega0, gamma, J), omega1 = _equal_coupling_fields(columns), columns["omega1"]
    with np.errstate(over="ignore"):  # as in float arithmetic; an overflowing detuning is refused below
        theta = np.zeros(len(omega1)) if rotating else omega1 * t
        detuning = omega0 - omega1 if rotating else omega0
    _refuse(~np.isfinite(detuning), detuning, OverflowError, _OVERFLOW)
    closed = _closed_form(detuning, gamma, J)
    return (closed, theta, *_fallback_rows(columns, closed, theta, rotating))


def _eigenbases(columns: dict[str, np.ndarray], t: float = 0.0, rotating: bool = False):
    """The closed forms and (N, 4, 4) eigenbases, column k the state of label k + 1, of _solve's frame. At N > 1
    the error may come from any failing point."""
    closed, theta, fallback, states = _solve(columns, t, rotating)
    bases = np.empty((len(theta), 4, 4), dtype=complex)
    bases[:, :, 3] = _SINGLET
    parts = (part[~fallback] for part in (closed.x, closed.w, closed.energies))
    bases[~fallback, :, :3] = np.stack(np.broadcast_arrays(*_amplitudes(*parts, theta[~fallback, None])), axis=1)
    bases[fallback, :, :3] = states
    return closed, bases


def _system(params: SpinParams, t: float, rotating: bool) -> EigenSystem:
    closed, (basis,) = _eigenbases(_columns(params, 1), _checked_float("time", t), rotating)
    energies = (*closed.energies[0].tolist(), singlet_energy(params.J))
    return EigenSystem(energies, tuple(map(TwoSpinState, basis.T)), t, bool(closed.fallback.any()))


def eigensystem(params: SpinParams, t: float = 0.0) -> EigenSystem:
    """Instantaneous eigensystem of H(t) for equal couplings: the N = 1 case of _eigenbases.

    Labels follow the trigonometric-root convention; label 4 is the singlet.
    used_fallback reports whether the numerical sector diagonalization was
    taken instead of the closed-form eigenvectors.
    """
    return _system(params, t, rotating=False)


def tilde_eigensystem(params: SpinParams) -> EigenSystem:
    """Eigensystem of the rotating-frame generator: the N = 1 case of _eigenbases(rotating=True)."""
    return _system(params, 0.0, rotating=True)
