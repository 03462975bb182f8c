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

One kernel, _closed_form, evaluates the energies, denominators and Berry
phases on (N,) columns of omega0, gamma and J; triplet_energies is its N = 1
case. NumPy does the + - * / and sqrt, which IEEE 754 rounds exactly as float
arithmetic does. acos, cos and the powers **2 and **3 go through Python
floats: NumPy's versions differ from libm in the last bit on some arguments
(x**2 on about 1 double in 1,200), and an overflowing power must raise.

A second kernel, _eigenbases, builds the (N, 4, 4) eigenbases, labels in
columns: the closed-form amplitudes as arrays; on the fallback mask one
stacked Hamiltonian build, one eigh of the (K, 3, 3) sectors, an argmin over
the 6 label permutations and a stacked gauge fix. eigensystem and
tilde_eigensystem are its N = 1 case. Each basis equals the one-point,
one-label construction bit for bit: the same float operations, one
matrix-vector product per state, and np.hypot for a scalar abs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, repeat

import numpy as np

from .core import SpinParams, TwoSpinState, _check_stack, _columns, _equal_coupling_fields, _label, _refuse
from .hamiltonian import _total_stack, rotating_frame_stack

__all__ = [
    "ARCCOS_EXCESS_TOL",
    "DEGENERACY_RTOL",
    "EigenPair",
    "EigenSystem",
    "InternalConsistencyError",
    "eigensystem",
    "singlet_energy",
    "spectral_scale",
    "tilde_eigensystem",
    "triplet_energies",
]

# Relative threshold below which eigenvector-formula denominators are treated
# as degenerate and the numerical fallback is used instead.
DEGENERACY_RTOL = 1e-8
# Allowed floating-point excess of the arccos argument beyond [-1, 1].
ARCCOS_EXCESS_TOL = 1e-9

_ROOT_SHIFTS = np.array([0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0])
_TWO_PI = 2.0 * math.pi


class InternalConsistencyError(ArithmeticError, RuntimeError):
    """A quantity drifted further from its mathematical range than rounding allows: a numeric failure."""


def spectral_scale(omega0, gamma, J):
    """max(|omega0|, |gamma|, |J|, 1), elementwise for arrays."""
    return np.maximum(np.maximum(np.maximum(np.abs(omega0), np.abs(gamma)), np.abs(J)), 1.0)


def singlet_energy(J):
    return -J / 2.0


def _python(function, values: np.ndarray, *args) -> np.ndarray:
    """function(value, *args) for every entry of values, called on Python floats."""
    calls = map(function, values.ravel().tolist(), *map(repeat, args))
    return np.fromiter(calls, float, values.size).reshape(values.shape)


def _power(values: np.ndarray, exponent: int, name: str) -> np.ndarray:
    """values**exponent in Python floats; an OverflowError names the power and its first overflowing value."""
    try:
        return _python(pow, values, exponent)
    except OverflowError:
        for value in values.ravel().tolist():
            try:
                pow(value, exponent)
            except OverflowError:
                raise OverflowError(f"closed-form {name}**{exponent} overflows at {name} = {value!r}") from None
        raise


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
    InternalConsistencyError. Division by zero raises as in floats; an overflowing power
    raises an OverflowError that names the power and its first overflowing value.
    """
    with np.errstate(all="ignore"):  # non-finite values pass through, as in float arithmetic
        p = -(4.0 * J * J / 3.0 + 4.0 * omega0 * omega0 + 4.0 * gamma * gamma)
        q = 16.0 / 27.0 * _power(J, 3, "J") + (8.0 * gamma * gamma - 16.0 * omega0 * omega0) * J / 3.0
        zero = p == 0.0
        p = np.where(zero, -3.0, p)  # any p < 0; the energies of these points are set to 0 below
        root = 2.0 * np.sqrt(-_power(p / 3.0, 3, "(p/3)"))
        if np.any(root == 0.0):
            raise ZeroDivisionError("float division by zero")
        arg = -q / root
        message = "arccos argument {!r} outside [-1, 1] beyond tolerance"
        _refuse(np.abs(arg) > 1.0 + ARCCOS_EXCESS_TOL, arg, InternalConsistencyError, message)
        clamped = np.where(arg > -1.0, arg, -1.0)  # max(-1.0, arg), NaN to -1.0, then min(1.0, ...)
        phi = _python(math.acos, np.where(clamped < 1.0, clamped, 1.0)) / 3.0
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
        norm_sq = 2.0 + coupling / _power(d_plus, 2, "d_plus") + coupling / _power(d_minus, 2, "d_minus")
        big_d = 2.0 * energies - J[:, None]
        d_product = big_d * big_d - (4.0 * omega0 * omega0)[:, None]
        denominator = norm_sq * _power(d_product, 2, "d_product")
        berry = (_TWO_PI * 32.0 * gamma * gamma * omega0)[:, None] * big_d / denominator
    berry[fallback] = np.nan
    return _ClosedForm(energies, d_plus, d_minus, fallback, np.column_stack([berry, np.zeros(len(J))]))


def _point(*values) -> list[np.ndarray]:
    return [np.array([value], dtype=float) for value in values]


_LOST_ENERGY = "closed-form energy {!r} is not finite"  # once 4 omega0^2 or 4 gamma^2 overflows


def triplet_energies(omega0: float, gamma: float, J: float) -> tuple[float, float, float]:
    """The three non-singlet energies, in the fixed label order (E1, E2, E3); a non-finite one raises."""
    energies = _closed_form(*_point(omega0, gamma, J)).energies
    _refuse(~np.isfinite(energies), energies, ArithmeticError, _LOST_ENERGY)
    return tuple(energies[0].tolist())


def _amplitudes(gamma, energies, d_plus, d_minus, theta):
    """The closed-form amplitudes (x, y, z, w) on broadcast arrays. The first entry whose normalization (d+-
    overflowed) or else energy is not finite raises."""
    with np.errstate(all="ignore"):  # non-finite values are refused below
        x0 = -2.0 * gamma / d_plus
        w0 = -2.0 * gamma / d_minus
        norm = np.sqrt(2.0 + x0 * x0 + w0 * w0)
    lost = np.flatnonzero(~np.isfinite(norm) | ~np.isfinite(energies))
    if len(lost) and not np.isfinite(np.ravel(norm)[lost[0]]):
        d_plus, d_minus = (float(np.ravel(d)[lost[0]]) for d in (d_plus, d_minus))
        raise ArithmeticError(f"closed-form eigenvector is not finite (d+ = {d_plus!r}, d- = {d_minus!r})")
    _refuse(~np.isfinite(energies), energies, ArithmeticError, _LOST_ENERGY)  # names lost[0]: those before are finite
    phase = np.exp(-1j * theta)
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
        return self.pairs[_label(n) - 1]

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
_HALF = 1.0 / math.sqrt(2.0)
_SYM_PROJECTOR = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, _HALF, _HALF, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
_PERMUTATIONS = np.array(list(permutations(range(3))))
_SINGLET = TwoSpinState.singlet().amplitudes


def _sector_states(hamiltonians: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """(K, 3, 4) triplet states, by label, of (K, 4, 4) Hamiltonians with (K, 3) label energies: one stacked
    eigh of the sectors, the eigenvalue permutation of least summed distance to the energies (the first in
    itertools order on a tie), each state one matrix-vector product, and the last of its largest-magnitude
    amplitudes (ties within 1e-12 relative, against last-bit noise) made real and positive.
    """
    vals, vecs = np.linalg.eigh(_SYM_PROJECTOR @ hamiltonians @ _SYM_PROJECTOR.conj().T)
    distance = np.abs(energies[:, None, :] - vals[:, _PERMUTATIONS])
    best = _PERMUTATIONS[np.argmin(distance[..., 0] + distance[..., 1] + distance[..., 2], axis=1)]
    chosen = np.take_along_axis(vecs, best[:, None, :], axis=2)
    states = (_SYM_PROJECTOR.conj().T @ chosen.swapaxes(1, 2)[..., None])[..., 0]
    magnitudes = np.abs(states)
    tied = magnitudes >= magnitudes.max(axis=-1, keepdims=True) * (1.0 - 1e-12)
    pivot = np.take_along_axis(states, 3 - np.argmax(tied[..., ::-1], axis=-1)[..., None], axis=-1)
    return states * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))


def _eigenbases(columns: dict[str, np.ndarray], t: float = 0.0, rotating: bool = False):
    """The closed forms and (N, 4, 4) eigenbases, column k the state of label k + 1, of H(t) at the points
    of equal-coupling field columns, or (rotating) of the rotating-frame generator: H(0) with the static
    frequencies shifted by -omega1, whose closed form is that of H(0) at the shifted detuning.

    Points with a label on the fallback mask take _sector_states of the matrix itself, built with h_total's
    arithmetic or rotating_frame_stack (at exact resonance a degenerate eigenvector's sign depends on its
    last bits) and checked as Operator4.hermitian. At N > 1 the error may come from any failing point.
    """
    (omega0, gamma, J), omega1 = _equal_coupling_fields(columns), columns["omega1"]
    with np.errstate(over="ignore"):  # as in float arithmetic
        theta = np.zeros(len(omega1)) if rotating else omega1 * t
        closed = _closed_form(omega0 - omega1 if rotating else omega0, gamma, J)
    fallback = closed.fallback.any(axis=1)
    bases = np.empty((len(theta), 4, 4), dtype=complex)
    bases[:, :, 3] = _SINGLET
    parts = (part[~fallback] for part in (closed.energies, closed.d_plus, closed.d_minus))
    amplitudes = _amplitudes(gamma[~fallback, None], *parts, theta[~fallback, None])
    bases[~fallback, :, :3] = np.stack(np.broadcast_arrays(*amplitudes), axis=1)
    if fallback.any():
        subset = {name: column[fallback] for name, column in columns.items()}
        matrices = rotating_frame_stack(subset) if rotating else _total_stack(subset, theta[fallback])
        _check_stack(matrices, "hermitian")
        bases[fallback, :, :3] = _sector_states(matrices, closed.energies[fallback]).swapaxes(1, 2)
    return closed, bases


def _system(params: SpinParams, t: float, rotating: bool) -> EigenSystem:
    closed, (basis,) = _eigenbases(_columns(params, 1), t, rotating)
    energies = [*closed.energies[0].tolist(), singlet_energy(params.J)]
    pairs = tuple(EigenPair(n, energies[n - 1], TwoSpinState(basis[:, n - 1])) for n in (1, 2, 3, 4))
    return EigenSystem(pairs=pairs, time=t, used_fallback=bool(closed.fallback.any()))


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
