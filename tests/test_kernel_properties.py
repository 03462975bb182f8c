"""Property tests of the closed-form kernel spectral._closed_form.

Stacks mix random points with gamma = 0, omega0 = 0 and all-zero (p = 0)
points. A stack must equal its points evaluated one at a time, and the scalar
formulas in float arithmetic, bit for bit; its energies must match a direct
diagonalization of H(0) built here from Kronecker products of Pauli matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin.spectral import InternalConsistencyError, _closed_form, spectral_scale

from support import closed_form_reference, cubic_trisection

EPS = float(np.finfo(float).eps)
FIELDS = ("energies", "d_plus", "d_minus", "fallback", "berry")

# Where (p/3)^3 is subnormal or underflows (every parameter below about 1e-51),
# sqrt(-(p/3)^3) is zero or has lost its digits, and the kernel may refuse the
# point: a division by zero, or an arccos argument beyond tolerance.
REFUSALS = (ZeroDivisionError, InternalConsistencyError)

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])
_I = np.eye(2)


def kron_hamiltonian(omega0, gamma, J):
    """H(0) = (1/2)[omega0 (s_az + s_bz) + J s_az s_bz + gamma (s_ax + s_bx)]."""
    return 0.5 * (
        omega0 * (np.kron(_Z, _I) + np.kron(_I, _Z))
        + J * np.kron(_Z, _Z)
        + gamma * (np.kron(_X, _I) + np.kron(_I, _X))
    )


coordinate = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def points(draw):
    omega0, gamma, J = draw(coordinate), draw(coordinate), draw(coordinate)
    kind = draw(st.sampled_from(["random", "gamma = 0", "omega0 = 0", "all zero"]))
    if kind in ("gamma = 0", "all zero"):
        gamma = 0.0
    if kind in ("omega0 = 0", "all zero"):
        omega0 = 0.0
    if kind == "all zero":
        J = 0.0
    return omega0, gamma, J


stacks = st.lists(points(), min_size=1, max_size=24)


def kernel(pts):
    return _closed_form(*(np.array(column, dtype=float) for column in zip(*pts)))


def one_at_a_time(pts):
    """The kernel of each point alone, or the refusal it raised."""
    results = []
    for point in pts:
        try:
            results.append(kernel([point]))
        except REFUSALS as exc:
            assert max(map(abs, point)) < 1e-50, point
            results.append(exc)
    return results


@settings(deadline=None, max_examples=200)
@given(stacks)
def test_a_stack_equals_its_points_bit_for_bit(pts):
    singles = one_at_a_time(pts)
    if any(isinstance(single, Exception) for single in singles):
        with pytest.raises(REFUSALS):
            kernel(pts)
        return
    stack = kernel(pts)
    for field in FIELDS:
        expected = np.concatenate([getattr(single, field) for single in singles])
        assert getattr(stack, field).tobytes() == expected.tobytes(), field


def trisection_error(omega0, gamma, J):
    """Rounding error model of the trigonometric root near a level crossing.

    Where two triplet levels meet, the arccos argument of the root formula nears
    +-1 and the arccos is ill-conditioned: an error of one ulp in the argument
    moves Phi by about eps / sqrt(1 - arg^2), and each energy by sqrt(-p/3)
    times that. The kernel keeps this error of the closed form.
    """
    arg, amp = cubic_trisection(omega0, gamma, J)
    return EPS * amp / math.sqrt(max(1.0 - arg * arg, EPS))


@settings(deadline=None, max_examples=200)
@given(stacks)
def test_energies_match_direct_diagonalization(pts):
    for point, single in zip(pts, one_at_a_time(pts)):
        if isinstance(single, Exception):
            continue
        omega0, gamma, J = point
        closed = sorted([*single.energies[0].tolist(), -J / 2.0])
        direct = np.linalg.eigvalsh(kron_hamiltonian(omega0, gamma, J))
        bound = 1e-12 * spectral_scale(omega0, gamma, J) + 4.0 * trisection_error(omega0, gamma, J)
        assert np.abs(np.array(closed) - direct).max() <= bound, point


def test_the_kernel_equals_the_scalar_formulas_bit_for_bit():
    # NumPy's x**2, x**3 and arccos differ from the float ones in the last bit
    # on some of these points, so any of them in the kernel fails this test.
    rng = np.random.default_rng(41)
    omega0, gamma, J = rng.uniform(-3.0, 3.0, (3, 4000))
    gamma[::7] = 0.0
    omega0[1::7] = 0.0
    gamma[2::7] *= 10.0 ** rng.uniform(-12.0, 0.0, len(gamma[2::7]))
    closed = _closed_form(omega0, gamma, J)
    for i in range(len(J)):
        energies, berry = closed_form_reference(float(omega0[i]), float(gamma[i]), float(J[i]))
        assert [e.hex() for e in closed.energies[i].tolist()] == [e.hex() for e in energies]
        assert closed.fallback[i].tolist() == [phase is None for phase in berry]
        for k, phase in enumerate(berry):
            if phase is not None:
                assert closed.berry[i, k].hex() == phase.hex()
