"""Property tests of the closed-form kernel spectral._closed_form.

Stacks mix random points with gamma = 0, omega0 = 0 and all-zero points. A
stack must equal its points evaluated one at a time, and the scalar formulas
in float arithmetic, bit for bit; its energies must match a direct
diagonalization of H(0) built from Kronecker products of Pauli matrices, and
its Berry phases the Hellmann-Feynman derivative of its energies.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin.spectral import _closed_form, spectral_scale

from support import closed_form_reference, kron_hamiltonian, scaled_spectrum_oracle

EPS = float(np.finfo(float).eps)
FIELDS = ("energies", "x", "w", "fallback", "berry")

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


@settings(deadline=None, max_examples=200)
@given(stacks)
def test_a_stack_equals_its_points_bit_for_bit(pts):
    singles = [kernel([point]) for point in pts]
    stack = kernel(pts)
    for field in FIELDS:
        expected = np.concatenate([getattr(single, field) for single in singles])
        assert getattr(stack, field).tobytes() == expected.tobytes(), field


@settings(deadline=None, max_examples=200)
@given(stacks)
def test_energies_match_direct_diagonalization(pts):
    closed = kernel(pts)
    for (omega0, gamma, J), energies in zip(pts, closed.energies.tolist()):
        direct = np.linalg.eigvalsh(kron_hamiltonian(omega0, gamma, J))
        error = np.abs(np.sort([*energies, -J / 2.0]) - direct).max()
        assert error <= 16.0 * EPS * spectral_scale(omega0, gamma, J), (omega0, gamma, J)


@settings(deadline=None, max_examples=100)
@given(stacks, st.integers(-1070, 1020))
def test_energies_at_every_scale_match_the_scaled_diagonalization(pts, power):
    """A stack times 2**power: the energies equal the Kronecker H's at the scaled-down parameters, multiplied
    back, to rounding of the largest parameter, from subnormal parameters to the end of the float range."""
    scaled = [tuple(math.ldexp(value, power) for value in point) for point in pts]
    closed = kernel(scaled)
    for point, energies in zip(scaled, closed.energies.tolist()):
        largest = max(map(abs, point))
        error = np.abs(np.sort([*energies, -point[2] / 2.0]) - scaled_spectrum_oracle(*point)).max()
        assert error <= 16.0 * EPS * largest + 2.0 * math.ulp(0.0), point


def test_the_kernel_equals_the_scalar_formulas_bit_for_bit():
    # The kernel's atan2, cos and powers must round as the reference's float ones do.
    rng = np.random.default_rng(41)
    omega0, gamma, J = rng.uniform(-3.0, 3.0, (3, 4000))
    gamma[::7] = 0.0
    omega0[1::7] = 0.0
    gamma[2::7] *= 10.0 ** rng.uniform(-12.0, 0.0, len(gamma[2::7]))
    J[3::7] = omega0[3::7] * (1.0 + rng.uniform(-1e-9, 1e-9, len(J[3::7])))
    closed = _closed_form(omega0, gamma, J)
    for i in range(len(J)):
        energies, berry = closed_form_reference(float(omega0[i]), float(gamma[i]), float(J[i]))
        assert [e.hex() for e in closed.energies[i].tolist()] == [e.hex() for e in energies]
        assert closed.fallback[i].tolist() == [phase is None for phase in berry]
        for k, phase in enumerate(berry):
            if phase is not None:
                assert closed.berry[i, k].hex() == phase.hex()


def hellmann_feynman(closed, omega0, J):
    """The positive-sense Berry phases 2 pi dE_n/d omega0 by implicit differentiation of the cubic,
    g_n = pi 8 omega0 (v_n + 4J/3) / ((v_n - v_m)(v_n - v_k)) with v = 2E - J/3, and the smallest gap
    |v_n - v_m| of each point."""
    v = 2.0 * closed.energies - (J / 3.0)[:, None]
    phases = np.empty_like(v)
    for n, m, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        phases[:, n] = math.pi * 8.0 * omega0 * (v[:, n] + 4.0 * J / 3.0) / ((v[:, n] - v[:, m]) * (v[:, n] - v[:, k]))
    gaps = np.abs(v[:, [0, 1, 2]] - v[:, [1, 2, 0]]).min(axis=1)
    return phases, gaps


def crossing_points(seed, count=4000):
    """Points next to the level crossings omega0 = +-J, with |omega0| in [0.5, 3], relative offsets up to 1e-6
    and |gamma| from 1e-7 to 1e-1, then as many generic points with |omega0|, |J| > 0.5 (where 2E_n = J,
    which the closed form's numerator 2E - J cancels at, is far)."""
    rng = np.random.default_rng(seed)
    omega0 = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 3.0, count)
    J = rng.choice([-1.0, 1.0], count) * omega0 * (1.0 + rng.uniform(-1e-6, 1e-6, count))
    gamma = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-7.0, -1.0, count)
    generic = rng.uniform(-3.0, 3.0, (3, 4 * count))
    generic = generic[:, (np.abs(generic[0]) > 0.5) & (np.abs(generic[2]) > 0.5)][:, :count]
    return (np.concatenate([column, extra]) for column, extra in zip((omega0, gamma, J), generic))


def test_berry_phases_equal_the_hellmann_feynman_derivative():
    # Each side is good to about eps * scale / gap; before the atan2 form, errors reached 1e8 times that.
    omega0, gamma, J = crossing_points(61)
    closed = _closed_form(omega0, gamma, J)
    phases, gaps = hellmann_feynman(closed, omega0, J)
    bound = 512.0 * EPS * spectral_scale(omega0, gamma, J) / gaps
    off = ~closed.fallback
    assert 0.1 < off.mean() < 1.0
    error = np.where(off, np.abs(phases - closed.berry[:, :3]), 0.0)
    assert (error <= bound[:, None]).all()


def test_berry_phases_sum_to_zero():
    omega0, gamma, J = crossing_points(62)
    closed = _closed_form(omega0, gamma, J)
    rows = ~closed.fallback.any(axis=1)
    gaps = hellmann_feynman(closed, omega0, J)[1]
    bound = 512.0 * EPS * spectral_scale(omega0, gamma, J) / gaps
    assert (np.abs(closed.berry[rows].sum(axis=1)) <= bound[rows]).all()
