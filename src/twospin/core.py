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
    "field_to_params",
    "flip_params",
    "pauli_operator",
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


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("non-finite entries are not admitted")
    arr.setflags(write=False)
    return arr


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
        arr = np.asarray(values, dtype=complex)
        n = np.linalg.norm(arr)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / n)

    @classmethod
    def basis_state(cls, which: int | str) -> "TwoSpinState":
        idx = BASIS_LABELS.index(which) if isinstance(which, str) else int(which)
        amp = np.zeros(4, dtype=complex)
        amp[idx] = 1.0
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

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

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
        if self.kind == "hermitian":
            defect = np.abs(mat - mat.conj().T).max()
            if defect > HERMITIAN_TOL:
                raise ValueError(f"hermitian tag violated: defect {defect:.3e}")
        elif self.kind == "unitary":
            defect = np.abs(mat.conj().T @ mat - np.eye(4)).max()
            if defect > UNITARY_TOL:
                raise ValueError(f"unitary tag violated: defect {defect:.3e}")
        elif self.kind != "general":
            raise ValueError(f"unknown operator kind {self.kind!r}")
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

    def dagger(self) -> "Operator4":
        return Operator4(self.matrix.conj().T, self.kind)

    def __repr__(self) -> str:
        return f"Operator4(kind={self.kind!r})"


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
            v = float(getattr(self, f.name))
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
            object.__setattr__(self, f.name, v)

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
            raise ValueError("omega0 is only defined for equal couplings")
        return self.omega_a0

    @property
    def gamma(self) -> float:
        if self.gamma_a != self.gamma_b:
            raise ValueError("gamma is only defined for equal couplings")
        return self.gamma_a

    @property
    def period(self) -> float:
        """Field rotation period 2*pi/|omega1|."""
        if self.omega1 == 0.0:
            raise ValueError("period is undefined for omega1 = 0")
        return 2.0 * math.pi / abs(self.omega1)

    def replace(self, **kwargs) -> "SpinParams":
        return replace(self, **kwargs)


# Parameter name -> the SpinParams fields it sets. The equal-coupling pair
# aliases come first, so a per-spin name applied after its pair overrides it.
PARAM_GROUPS = {
    "omega0": ("omega_a0", "omega_b0"),
    "gamma": ("gamma_a", "gamma_b"),
    **{f.name: (f.name,) for f in fields(SpinParams)},
}


def flip_params(params: SpinParams, names) -> SpinParams:
    """Negate the named parameter groups (omega0 and gamma act on both spins)."""
    updates = {}
    for name in names:
        if name not in PARAM_GROUPS:
            raise ValueError(f"unknown flip group {name!r}")
        for field in PARAM_GROUPS[name]:
            updates[field] = -getattr(params, field)
    return params.replace(**updates)


def pauli_operator(site: str, axis: str) -> Operator4:
    """Pauli operator of one spin, embedded in the two-spin space.

    site is "a" (first tensor slot) or "b" (second); axis is "x", "y" or "z".
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    if site not in ("a", "b"):
        raise ValueError(f"site must be 'a' or 'b'; got {site!r}")
    return Operator4.hermitian(_PAULI[site, axis])


def field_to_params(
    B0: float,
    B1: float,
    kappa_a: float,
    kappa_b: float,
    J: float = 0.0,
    omega1: float = 0.0,
) -> SpinParams:
    """Convert laboratory field magnitudes to model frequencies.

    B0 is the static z-field, B1 the rotating transverse field, kappa_a and
    kappa_b the gyromagnetic ratios. Precession frequencies are -kappa*B0 and
    the transverse couplings -kappa*B1; J and omega1 pass through.
    """
    return SpinParams(
        omega_a0=-kappa_a * B0,
        omega_b0=-kappa_b * B0,
        gamma_a=-kappa_a * B1,
        gamma_b=-kappa_b * B1,
        J=J,
        omega1=omega1,
    )
