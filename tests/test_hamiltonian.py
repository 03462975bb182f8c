import warnings

import numpy as np
import pytest

from twospin import (
    SpinParams,
    TwoSpinState,
    frame_rotation,
    h_rotating_frame,
    h_total,
)
from twospin.core import _columns
from twospin.hamiltonian import _hamiltonians

from support import kron_h, random_general, random_symmetric


# The static part of H is h_total without transverse coupling (gamma = 0), at any time.


def test_static_diagonal_values():
    p = SpinParams.symmetric(1.0, 0.0, 1.0)
    assert np.allclose(h_total(p, 0.0).matrix, np.diag([1.5, -0.5, -0.5, -0.5]))


def test_static_pure_ising():
    p = SpinParams.symmetric(0.0, 0.0, 2.0)
    assert np.allclose(h_total(p, 0.0).matrix, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_static_all_zero():
    p = SpinParams.symmetric(0.0, 0.0, 0.0)
    assert np.abs(h_total(p, 0.0).matrix).max() == 0.0


def test_total_at_time_zero_real_offdiagonals():
    p = SpinParams.symmetric(0.7, 1.3, 0.4, 0.2)
    h = h_total(p, 0.0).matrix
    # single-spin-flip positions carry gamma/2, double-flip and ud<->du are zero
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert h[i, j] == pytest.approx(0.65)
        assert h[i, j].imag == 0.0
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0


def test_total_reduces_to_static_without_coupling():
    p = SpinParams.symmetric(1.1, 0.0, -0.3, 0.5)
    for t in (0.0, 0.7, 3.1):
        assert np.allclose(h_total(p, t).matrix, h_total(p, 0.0).matrix)


def test_total_quarter_period_matrix_element():
    # at omega1*t = pi/2 the (uu, ud) element is (gamma/2) e^{-i pi/2} = -0.5i
    p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
    h = h_total(p, p.period / 4.0).matrix
    assert h[0, 1] == pytest.approx(-0.5j, abs=1e-12)


def test_rotating_frame_resonance_transverse_only():
    p = SpinParams.symmetric(1.0, 1.0, 0.0, 1.0)
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        expected[i, j] = expected[j, i] = 0.5
    assert np.allclose(h_rotating_frame(p).matrix, expected, atol=1e-15)


def test_rotating_frame_diagonal_without_coupling():
    p = SpinParams.symmetric(1.0, 0.0, 0.8, 0.3)
    det = p.omega0 - p.omega1
    expected = np.diag(
        [det + p.J / 2, -p.J / 2, -p.J / 2, -det + p.J / 2]
    )
    assert np.allclose(h_rotating_frame(p).matrix, expected, atol=1e-15)


def test_rotating_frame_substitution_rule():
    # equals the t=0 Hamiltonian with the detuning shifted by -omega1
    p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
    shifted = SpinParams.symmetric(1.0, 1.0, 1.0)
    assert np.allclose(h_rotating_frame(p).matrix, h_total(shifted, 0.0).matrix, atol=1e-15)


def test_frame_rotation_special_times():
    p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
    assert np.allclose(frame_rotation(p, 0.0).matrix, np.eye(4))
    assert np.allclose(frame_rotation(p, p.period).matrix, np.eye(4), atol=1e-14)
    assert np.allclose(
        frame_rotation(p, p.period / 2).matrix, np.diag([-1.0, 1.0, 1.0, -1.0]), atol=1e-14
    )


def test_frame_identity_random_params():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_general(rng)
        t = float(rng.uniform(-10.0, 10.0))
        v = frame_rotation(p, t).matrix
        rebuilt = v @ h_total(p, 0.0).matrix @ v.conj().T
        assert np.abs(h_total(p, t).matrix - rebuilt).max() <= 1e-12


def test_singlet_closure_equal_couplings():
    rng = np.random.default_rng(12)
    singlet = TwoSpinState.singlet().amplitudes
    for _ in range(25):
        p = random_symmetric(rng, 0.1, 2.0)
        for t in rng.uniform(0.0, p.period, 3):
            out = h_total(p, float(t)).matrix @ singlet
            assert np.abs(out - (-p.J / 2.0) * singlet).max() <= 1e-12


def test_periodicity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_symmetric(rng, 0.2, 1.5)
        t = float(rng.uniform(0.0, p.period))
        diff = h_total(p, t + p.period).matrix - h_total(p, t).matrix
        assert np.abs(diff).max() <= 1e-12



def _near_max(rng):
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(307.0, 308.25))


def test_overflow_is_refused_exactly_where_float_arithmetic_overflows():
    # Oracle: the four diagonal entries +-0.5 a +- 0.5 b +- 0.5 J, each term halved before the sum, in Python
    # float arithmetic, which overflows to inf silently, and the frame shift -+omega1.
    rng = np.random.default_rng(14)
    refused = 0
    for _ in range(2000):  # the halved sum overflows on fewer draws than the unhalved one did at 400
        a, b, J, w1 = (_near_max(rng) if rng.random() < 0.6 else float(rng.uniform(-2.0, 2.0)) for _ in range(4))
        p = SpinParams(a, b, 0.3, 0.3, J, w1)
        ha, hb, hJ = 0.5 * a, 0.5 * b, 0.5 * J
        static = [ha + hb + hJ, ha - hb - hJ, -ha + hb - hJ, -ha - hb + hJ]
        rotating = [static[0] - w1, static[1], static[2], static[3] + w1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build, diagonal in ((lambda: h_total(p, 0.7).matrix, static),
                                    (lambda: h_rotating_frame(p).matrix, rotating),
                                    (lambda: _hamiltonians(_columns(p, 3), np.zeros(3), rotating=True)[2], rotating)):
                if all(np.isfinite(diagonal)):
                    assert np.diag(build()).real.tolist() == diagonal
                else:
                    refused += 1
                    with pytest.raises(OverflowError, match="a Hamiltonian entry overflows the float range"):
                        build()
    assert refused > 100


class TestBuilder:
    """hamiltonian._hamiltonians, the one builder behind h_total, h_rotating_frame and the stacked kernels."""

    @staticmethod
    def _points(rng):
        points = [random_general(rng, -2.0, 2.0) for _ in range(60)]
        points += [SpinParams(0.0, -0.0, -0.0, 0.0, -0.0, w1) for w1 in (0.7, -0.7, -0.0)]
        return points, {name: np.array([getattr(p, name) for p in points]) for name in _columns(points[0], 1)}

    def test_stack_matches_the_kronecker_hamiltonian(self):
        rng = np.random.default_rng(15)
        points, columns = self._points(rng)
        angles = rng.uniform(-20.0, 20.0, (3, len(points)))
        stack = _hamiltonians(columns, angles)
        rotating = _hamiltonians(columns, np.zeros(len(points)), rotating=True)
        assert stack.shape == (3, len(points), 4, 4) and rotating.shape == (len(points), 4, 4)
        for i, p in enumerate(points):
            bound = 4.0 * np.finfo(float).eps * max(1.0, *(abs(getattr(p, name)) for name in columns))
            for k in range(3):
                assert np.abs(stack[k, i] - kron_h(p, float(angles[k, i]))).max() <= bound
            assert np.abs(rotating[i] - kron_h(p, 0.0, rotating=True)).max() <= bound

    def test_every_point_equals_its_one_point_call_bit_for_bit(self):
        rng = np.random.default_rng(16)
        points, columns = self._points(rng)
        times = np.concatenate([rng.uniform(-20.0, 20.0, len(points) - 3), [0.0, 0.0, -0.0]])
        angles = np.stack([columns["omega1"] * times, columns["omega1"] * 0.0, rng.uniform(-9.0, 9.0, len(points))])
        stack = _hamiltonians(columns, angles)
        rotating = _hamiltonians(columns, np.zeros(len(points)), rotating=True)
        for i, p in enumerate(points):
            one = _columns(p, 1)
            assert stack[:, i].tobytes() == _hamiltonians(one, angles[:, i : i + 1])[:, 0].tobytes()
            assert stack[0, i].tobytes() == h_total(p, float(times[i])).matrix.tobytes()
            assert stack[1, i].tobytes() == h_total(p, 0.0).matrix.tobytes()
            assert rotating[i].tobytes() == h_rotating_frame(p).matrix.tobytes()
