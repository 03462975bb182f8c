"""Shared linear-algebra types and basis conventions.

Everything in this package lives in the 4-dimensional Hilbert space of two
spin-1/2 particles, with the basis ordered as

    index 0: |up, up>
    index 1: |up, down>
    index 2: |down, up>
    index 3: |down, down>

where the first slot is spin "a" and the second is spin "b". Every amplitude
vector and every 4x4 matrix in the package uses this order. Complex scalars
are plain Python/numpy complex doubles.

PARAM_GROUPS is the one table of parameter names: the CLI flags, config keys
and sweep axes and the flip groups of the two-cycle protocols all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "BASIS_LABELS",
    "HERMITIAN_TOL",
    "UNITARY_TOL",
    "STATE_NORM_TOL",
    "Operator4",
    "PARAM_GROUPS",
    "SpinParams",
    "TwoSpinState",
]

BASIS_LABELS = ("uu", "ud", "du", "dd")

# Tag-check tolerances (absolute, on max-abs matrix entries).
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
# Sanity bound on the norm of amplitudes handed to TwoSpinState. Exact-path
# operations keep states unit to ~1e-15; the stepped integrator is allowed to
# drift up to its own unitarity contract, which is far below this bound.
STATE_NORM_TOL = 1e-6

_EYE2 = np.eye(2, dtype=complex)


def _refuse(bad: np.ndarray, values, error: type[Exception], message: str) -> None:
    """Raise error(message.format(v)) for the first entry v of values, in row-major order, where bad holds."""
    if bad.any():
        raise error(message.format(float(np.asarray(values)[bad][0])))


def _checked_float(name: str, value) -> float:
    """float(value); a non-finite one raises ValueError naming the parameter."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _label(n) -> int:
    """An eigenstate label: an int or NumPy integer, not a bool, in 1..4; anything else raises ValueError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= 4:
        raise ValueError("label must be in 1..4")
    return int(n)


def _require_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("non-finite entries are not admitted")


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    _require_finite(arr)
    arr.setflags(write=False)
    return arr


def _check_tag(mats: np.ndarray, kind: str) -> None:
    """The tag check of Operator4 on one 4x4 matrix or on a (..., 4, 4) stack.

    Raises ValueError with the defect of the first matrix that violates the
    tag; "general" is not checked.
    """
    if kind == "hermitian":
        deviation, tol = np.abs(mats - mats.conj().swapaxes(-1, -2)), HERMITIAN_TOL
    elif kind == "unitary":
        deviation, tol = np.abs(mats.conj().swapaxes(-1, -2) @ mats - np.eye(4)), UNITARY_TOL
    elif kind == "general":
        return
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    worst = deviation.max()
    if worst > tol or worst != worst:  # a NaN defect passes, so look matrix by matrix
        defects = deviation.reshape(-1, 16).max(axis=1)
        failed = defects[defects > tol]
        if len(failed):
            raise ValueError(f"{kind} tag violated: defect {failed[0]:.3e}")


def _check_stack(mats: np.ndarray, kind: str) -> None:
    """Every check of building Operator4(m, kind), for each m of a (N, 4, 4) stack."""
    _require_finite(mats)
    _check_tag(mats, kind)


# The package's one Pauli table: the matrices of spin a (first tensor slot)
# and spin b embedded in the two-spin space, keyed by (site, axis), read-only.
_PAULI = {
    (site, axis): _frozen_array(np.kron(sigma, _EYE2) if site == "a" else np.kron(_EYE2, sigma), (4, 4))
    for axis, sigma in (
        ("x", np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)),
        ("y", np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)),
        ("z", np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)),
    )
    for site in ("a", "b")
}


def _state_from_trusted(values) -> "TwoSpinState":
    """Build a TwoSpinState without the unit-norm sanity check.

    For internal use by integrators whose output norm legitimately drifts with
    the discretization error; finiteness is still enforced.
    """
    state = object.__new__(TwoSpinState)
    object.__setattr__(state, "amplitudes", _frozen_array(values, (4,)))
    return state


@dataclass(frozen=True, eq=False)
class TwoSpinState:
    """Normalized amplitude vector over the fixed (uu, ud, du, dd) basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amplitudes, (4,))
        n = float(np.linalg.norm(arr))
        if abs(n - 1.0) > STATE_NORM_TOL:
            raise ValueError(
                f"amplitudes have norm {n!r}; use TwoSpinState.normalized for raw vectors"
            )
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def normalized(cls, values) -> "TwoSpinState":
        """The state along any finite nonzero vector; its parts are first scaled, exactly, by the power of
        two of the largest one, so the norm neither overflows nor underflows."""
        arr = np.array(values, dtype=complex)  # a fresh array: its float view interleaves re and im
        _require_finite(arr)
        parts = arr.view(float)
        largest = np.abs(parts).max(initial=0.0)
        if largest == 0.0:
            raise ValueError("cannot normalize the zero vector")
        scaled = np.ldexp(parts, -np.frexp(largest)[1]).view(complex)
        return cls(scaled / np.linalg.norm(scaled))

    @classmethod
    def basis_state(cls, which: int | str) -> "TwoSpinState":
        """The basis state named in BASIS_LABELS or of index 0-3; anything else raises ValueError."""
        if isinstance(which, str) and which in BASIS_LABELS:
            which = BASIS_LABELS.index(which)
        if isinstance(which, bool) or not isinstance(which, (int, np.integer)) or not 0 <= which <= 3:
            raise ValueError(f"basis state must be one of {BASIS_LABELS} or an index 0-3, got {which!r}")
        amp = np.zeros(4, dtype=complex)
        amp[which] = 1.0
        return cls(amp)

    @classmethod
    def singlet(cls) -> "TwoSpinState":
        return cls(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "TwoSpinState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __getitem__(self, idx: int) -> complex:
        return complex(self.amplitudes[idx])

    def __repr__(self) -> str:
        amps = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"TwoSpinState([{amps}])"


@dataclass(frozen=True, eq=False)
class Operator4:
    """4x4 complex matrix with a structural tag that is validated on build.

    kind is one of "hermitian", "unitary" or "general"; the first two are
    checked entrywise against HERMITIAN_TOL / UNITARY_TOL at construction.
    """

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        mat = _frozen_array(self.matrix, (4, 4))
        _check_tag(mat, self.kind)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def hermitian(cls, matrix) -> "Operator4":
        return cls(matrix, "hermitian")

    @classmethod
    def unitary(cls, matrix) -> "Operator4":
        return cls(matrix, "unitary")

    @classmethod
    def general(cls, matrix) -> "Operator4":
        return cls(matrix, "general")

    def __repr__(self) -> str:
        return f"Operator4(kind={self.kind!r})"


_UNEQUAL = "{} is only defined for equal couplings"


@dataclass(frozen=True)
class SpinParams:
    """Physical parameters of the two-spin model.

    omega_a0/omega_b0 are the static-field precession frequencies, gamma_a and
    gamma_b the couplings to the rotating field component, J the Ising
    constant and omega1 the rotation rate of the transverse field. All values
    are angular frequencies in units where hbar = 1.
    """

    omega_a0: float
    omega_b0: float
    gamma_a: float
    gamma_b: float
    J: float
    omega1: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _checked_float(f.name, getattr(self, f.name)))

    @classmethod
    def symmetric(cls, omega0: float, gamma: float, J: float, omega1: float = 0.0) -> "SpinParams":
        """Equal-coupling parameters (both spins see the same fields)."""
        return cls(omega0, omega0, gamma, gamma, J, omega1)

    @property
    def equal_couplings(self) -> bool:
        return self.omega_a0 == self.omega_b0 and self.gamma_a == self.gamma_b

    @property
    def omega0(self) -> float:
        if self.omega_a0 != self.omega_b0:
            raise ValueError(_UNEQUAL.format("omega0"))
        return self.omega_a0

    @property
    def gamma(self) -> float:
        if self.gamma_a != self.gamma_b:
            raise ValueError(_UNEQUAL.format("gamma"))
        return self.gamma_a

    @property
    def period(self) -> float:
        """Field rotation period 2*pi/|omega1|: refuses omega1 = 0, then is _periods at one point."""
        if self.omega1 == 0.0:
            raise ValueError("period is undefined for omega1 = 0")
        return float(_periods(np.array([self.omega1]))[0])

    def replace(self, **kwargs) -> "SpinParams":
        return replace(self, **kwargs)


def _periods(omega1: np.ndarray) -> np.ndarray:
    """2*pi/|omega1| for each nonzero entry of an omega1 column; the first period that overflows is refused."""
    with np.errstate(over="ignore"):  # overflow is refused below
        periods = 2.0 * math.pi / np.abs(omega1)
    message = "omega1 = {!r} is too small: the period 2*pi/|omega1| is not finite"
    _refuse(~np.isfinite(periods), omega1, ValueError, message)
    return periods


def _columns(params: SpinParams, n: int) -> dict[str, np.ndarray]:
    """Field columns: each SpinParams field name -> an (n,) array holding its value."""
    return {f.name: np.full(n, getattr(params, f.name)) for f in fields(SpinParams)}


def _equal_coupling_fields(columns: dict[str, np.ndarray]):
    """The omega0, gamma and J columns; refuses unequal couplings as SpinParams.omega0 and .gamma do."""
    for name in ("omega0", "gamma"):
        a, b = PARAM_GROUPS[name]
        if np.any(columns[a] != columns[b]):
            raise ValueError(_UNEQUAL.format(name))
    return columns["omega_a0"], columns["gamma_a"], columns["J"]


# Parameter name -> the SpinParams fields it sets, in flag order. Each
# equal-coupling pair alias comes just before its per-spin names, so a per-spin
# name applied after its pair overrides it.
PARAM_GROUPS = {
    "omega0": ("omega_a0", "omega_b0"),
    "omega_a0": ("omega_a0",),
    "omega_b0": ("omega_b0",),
    "gamma": ("gamma_a", "gamma_b"),
    "gamma_a": ("gamma_a",),
    "gamma_b": ("gamma_b",),
    "J": ("J",),
    "omega1": ("omega1",),
}
