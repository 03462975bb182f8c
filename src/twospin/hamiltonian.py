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

One builder, _hamiltonians, computes both at the field columns of core._columns;
h_total and h_rotating_frame are its N = 1 case. Finite parameters leave the
float range only by overflowing, which it refuses without a NumPy warning.
"""

from __future__ import annotations

import numpy as np

from .core import _PAULI, Operator4, SpinParams, _check_stack, _checked_float, _columns

__all__ = ["frame_rotation", "h_rotating_frame", "h_total"]

_SZZ = _PAULI["a", "z"] @ _PAULI["b", "z"]
_OVERFLOW = "a Hamiltonian entry overflows the float range"


def _hamiltonians(columns: dict[str, np.ndarray], angle: np.ndarray, rotating: bool = False) -> np.ndarray:
    """H matrices of (N,) field columns at field angles omega1*t of shape (..., N), as a (..., N, 4, 4) stack, or
    (rotating) minus (omega1/2)(s_az + s_bz): H_rot at angle +0.0. Each static term is halved (exactly) before the
    sum, so the static part overflows only where +-omega_a0/2 +- omega_b0/2 +- J/2 does; a non-finite entry of the
    finished stack is refused as that overflow, then each matrix as Operator4.hermitian. Point i equals the N = 1
    call's bit for bit."""
    names = ("omega_a0", "omega_b0", "gamma_a", "gamma_b", "J", "omega1")
    a0, b0, gamma_a, gamma_b, J, omega1 = (columns[name][:, None, None] for name in names)
    half_a, half_b, angle = 0.5 * gamma_a, 0.5 * gamma_b, angle[..., None, None]
    transverse = (np.cos(angle) * (half_a * _PAULI["a", "x"] + half_b * _PAULI["b", "x"])
                  + np.sin(angle) * (half_a * _PAULI["a", "y"] + half_b * _PAULI["b", "y"]))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        matrices = 0.5 * a0 * _PAULI["a", "z"] + 0.5 * b0 * _PAULI["b", "z"] + 0.5 * J * _SZZ + transverse
        if rotating:
            matrices = matrices - 0.5 * omega1 * (_PAULI["a", "z"] + _PAULI["b", "z"])
    if not np.isfinite(matrices).all():
        raise OverflowError(_OVERFLOW)
    _check_stack(matrices, "hermitian")
    return matrices


def h_total(params: SpinParams, t: float) -> Operator4:
    """Full Hamiltonian at time t, including the rotating transverse field: the N = 1 case of _hamiltonians."""
    return Operator4.hermitian(_hamiltonians(_columns(params, 1), np.full(1, _field_angle(params, t)))[0])


def h_rotating_frame(params: SpinParams) -> Operator4:
    """Time-independent generator in the frame co-rotating with the field.

    Built algebraically as H(0) - (omega1/2)(s_az + s_bz); equivalently the
    static detunings omega_a0, omega_b0 are shifted by -omega1 while the
    transverse couplings enter at angle zero. The N = 1 case of _hamiltonians.
    """
    return Operator4.hermitian(_hamiltonians(_columns(params, 1), np.zeros(1), rotating=True)[0])


def _field_angle(params: SpinParams, t) -> float:
    """omega1*t at a time checked as _checked_float("time", t) does; an angle beyond the float range raises."""
    angle = params.omega1 * _checked_float("time", t)
    if not np.isfinite(angle):
        raise OverflowError("the field angle omega1*t overflows the float range")
    return angle


def _frame_diagonal(angle) -> np.ndarray:
    """The diagonal (exp(-i angle), 1, 1, exp(+i angle)) of V at field angle omega1*t: shape (4,) for a float,
    (N, 4) for an (N,) array. Multiplying a matrix stack by its [..., :, None] scales rows as V @ M does."""
    one = np.ones_like(angle, dtype=complex)
    return np.stack([np.exp(-1j * angle), one, one, np.exp(1j * angle)], axis=-1)


def frame_rotation(params: SpinParams, t: float) -> Operator4:
    """Unitary V(t) = exp(-i omega1 t (s_az + s_bz)/2).

    Diagonal: diag(exp(-i omega1 t), 1, 1, exp(+i omega1 t)).
    """
    return Operator4.unitary(np.diag(_frame_diagonal(_field_angle(params, t))))
