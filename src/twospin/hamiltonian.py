"""Lab-frame and rotating-frame Hamiltonians of the two-spin model.

The lab-frame Hamiltonian is

    H(t) = (1/2) [ omega_a0 s_az + omega_b0 s_bz + J s_az s_bz ]
         + sum_over_sites (gamma/2) [ s_x cos(omega1 t) + s_y sin(omega1 t) ]

It is periodic with period 2*pi/|omega1| and satisfies the frame identity
H(t) = V(t) H(0) V(t)^dag with V(t) = exp(-i omega1 t (s_az + s_bz)/2), so the
frame-transformed generator

    H_rot = H(0) - (omega1/2)(s_az + s_bz)

is time independent. That construction is used verbatim here (it holds for
unequal couplings too) and is pinned by the frame-identity tests.

The matrix builders read the six fields by attribute, so rotating_frame_stack
and _total_stack run the same arithmetic on per-field columns and return
(N, 4, 4) stacks whose entries equal, bit for bit, those of h_rotating_frame
and h_total at each point; _total_stack takes angles of any leading shape, as
the RK4 kernel samples H at many times per point.

Finite parameters leave the float range only by overflowing; the builders
refuse a non-finite result with OverflowError, without a NumPy warning.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .core import _PAULI, Operator4, SpinParams

__all__ = [
    "frame_rotation",
    "h_rotating_frame",
    "h_total",
    "rotating_frame_stack",
    "transverse_parts",
]

_SZZ = _PAULI["a", "z"] @ _PAULI["b", "z"]
_OVERFLOW = "a Hamiltonian entry overflows the float range"


def _static_matrix(params) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        matrix = 0.5 * (params.omega_a0 * _PAULI["a", "z"] + params.omega_b0 * _PAULI["b", "z"] + params.J * _SZZ)
    if not np.isfinite(matrix).all():
        raise OverflowError(_OVERFLOW)
    return matrix


def transverse_parts(params: SpinParams) -> tuple[np.ndarray, np.ndarray]:
    """The cos and sin coefficients of the rotating transverse field.

    The transverse term of H(t) is cos(omega1 t) * cos_part + sin(omega1 t) * sin_part,
    with cos_part = (1/2) sum gamma s_x and sin_part = (1/2) sum gamma s_y.
    """
    half_a, half_b = 0.5 * params.gamma_a, 0.5 * params.gamma_b
    cos_part = half_a * _PAULI["a", "x"] + half_b * _PAULI["b", "x"]
    sin_part = half_a * _PAULI["a", "y"] + half_b * _PAULI["b", "y"]
    return cos_part, sin_part


def _transverse_matrix(params: SpinParams, angle: float) -> np.ndarray:
    cos_part, sin_part = transverse_parts(params)
    return np.cos(angle) * cos_part + np.sin(angle) * sin_part


def h_total(params: SpinParams, t: float) -> Operator4:
    """Full Hamiltonian at time t, including the rotating transverse field."""
    return Operator4.hermitian(_static_matrix(params) + _transverse_matrix(params, params.omega1 * t))


def h_rotating_frame(params: SpinParams) -> Operator4:
    """Time-independent generator in the frame co-rotating with the field.

    Built algebraically as H(0) - (omega1/2)(s_az + s_bz); equivalently the
    static detunings omega_a0, omega_b0 are shifted by -omega1 while the
    transverse couplings enter at angle zero.
    """
    return Operator4.hermitian(_rotating_frame_matrix(params))


def _rotating_frame_matrix(params) -> np.ndarray:
    shift = 0.5 * params.omega1 * (_PAULI["a", "z"] + _PAULI["b", "z"])
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        matrix = _static_matrix(params) + _transverse_matrix(params, 0.0) - shift
    if not np.isfinite(matrix).all():
        raise OverflowError(_OVERFLOW)
    return matrix


def _fields(columns: dict[str, np.ndarray]) -> SimpleNamespace:
    """Per-field columns as (N, 1, 1) attributes, which the matrix builders read as they read SpinParams."""
    return SimpleNamespace(**{name: column[:, None, None] for name, column in columns.items()})


def rotating_frame_stack(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Unchecked H_rot matrices for per-field columns, as an (N, 4, 4) stack.

    columns maps each SpinParams field name to an (N,) array; point i of the
    stack is h_rotating_frame of the fields at index i, without the
    Operator4 validation.
    """
    return _rotating_frame_matrix(_fields(columns))


def _total_stack(columns: dict[str, np.ndarray], angle: np.ndarray) -> np.ndarray:
    """Unchecked H matrices of (N,) field columns at field angles omega1*t of shape (..., N), as a (..., N, 4, 4)
    stack: the entry at angle[..., i] is h_total's at point i and that angle."""
    fields = _fields(columns)
    return _static_matrix(fields) + _transverse_matrix(fields, angle[..., None, None])


def _frame_matrix(angle) -> np.ndarray:
    """diag(exp(-i angle), 1, 1, exp(+i angle)) for a float, or a stack of them for an (N,) array."""
    frame = np.zeros(np.shape(angle) + (4, 4), dtype=complex)
    frame[..., 0, 0] = np.exp(-1j * angle)
    frame[..., 1, 1] = frame[..., 2, 2] = 1.0
    frame[..., 3, 3] = np.exp(1j * angle)
    return frame


def frame_rotation(params: SpinParams, t: float) -> Operator4:
    """Unitary V(t) = exp(-i omega1 t (s_az + s_bz)/2).

    Diagonal: diag(exp(-i omega1 t), 1, 1, exp(+i omega1 t)).
    """
    return Operator4.unitary(_frame_matrix(params.omega1 * t))
