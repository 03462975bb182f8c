import math
import re

import numpy as np
import pytest

from twospin import Operator4, SpinParams, TwoSpinState
from twospin.core import _PAULI, _check_stack, _periods, _refuse


def test_pauli_z_diagonals():
    assert np.allclose(_PAULI["a", "z"], np.diag([1, 1, -1, -1]))
    assert np.allclose(_PAULI["b", "z"], np.diag([1, -1, 1, -1]))


def test_pauli_involution():
    sax = _PAULI["a", "x"]
    assert np.allclose(sax @ sax, np.eye(4))


def test_su2_algebra_per_site():
    for site in "ab":
        sx = _PAULI[site, "x"]
        sy = _PAULI[site, "y"]
        sz = _PAULI[site, "z"]
        comm = sx @ sy - sy @ sx
        assert np.abs(comm - 2j * sz).max() <= 1e-14


def test_cross_site_operators_commute():
    for ax_a in "xyz":
        for ax_b in "xyz":
            a = _PAULI["a", ax_a]
            b = _PAULI["b", ax_b]
            assert np.abs(a @ b - b @ a).max() == 0.0


def test_basis_order_pinning():
    # <ud| s_az |ud> = +1 and <ud| s_bz |ud> = -1 pins the (uu,ud,du,dd) order.
    ud = TwoSpinState.basis_state("ud").amplitudes
    assert np.vdot(ud, _PAULI["a", "z"] @ ud).real == pytest.approx(1.0)
    assert np.vdot(ud, _PAULI["b", "z"] @ ud).real == pytest.approx(-1.0)


def test_refuse_names_the_first_offender_in_row_major_order():
    values = np.array([[1.0, 5.0, 2.0], [7.0, 0.5, 9.0]])
    _refuse(values > 10.0, values, KeyError, "unused {!r}")
    # Column-major order would name 7.0 first.
    with pytest.raises(LookupError, match=r"^too large: 5\.0$"):
        _refuse(values > 4.0, values, LookupError, "too large: {!r}")
    with pytest.raises(ValueError, match=r"^at 9\.000e\+00$"):
        _refuse(values == 9.0, values, ValueError, "at {:.3e}")


class TestOperator4:
    def test_hermitian_tag_accepts(self):
        Operator4.hermitian(np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_hermitian_tag_rejects(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="hermitian"):
            Operator4.hermitian(m)

    def test_unitary_tag(self):
        Operator4.unitary(np.eye(4))
        with pytest.raises(ValueError, match="unitary"):
            Operator4.unitary(2.0 * np.eye(4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Operator4(np.eye(4), "weird")

    def test_rejects_nonfinite(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            Operator4.general(m)

    def test_stack_check_reports_the_first_failing_matrix(self):
        stack = np.stack([np.eye(4), 3.0 * np.eye(4), 2.0 * np.eye(4)]).astype(complex)
        with pytest.raises(ValueError, match="unitary tag violated: defect 8.000e\\+00"):
            _check_stack(stack, "unitary")
        stack[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite entries"):
            _check_stack(stack, "unitary")
        _check_stack(stack[:1], "unitary")

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (2, 4, 4)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(ValueError, match=f"^{re.escape(f'expected shape (4, 4), got {shape}')}$"):
            Operator4.general(np.zeros(shape))

    def test_matrix_immutable(self):
        op = Operator4.general(np.eye(4))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestTwoSpinState:
    def test_requires_near_unit_norm(self):
        with pytest.raises(ValueError):
            TwoSpinState([1.0, 1.0, 0.0, 0.0])

    def test_normalized_classmethod(self):
        s = TwoSpinState.normalized([1.0, 1.0, 0.0, 0.0])
        assert s.norm == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            TwoSpinState.normalized([0, 0, 0, 0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TwoSpinState([np.inf, 0, 0, 0])

    def test_normalized_equals_the_plain_division_on_ordinary_vectors(self):
        # The power-of-two scaling is exact, so the state is that of values / norm(values) bit for bit.
        rng = np.random.default_rng(132)
        for scale in 10.0 ** rng.uniform(-140.0, 140.0, 400):
            values = (rng.normal(size=4) + 1j * rng.normal(size=4)) * scale
            values[rng.integers(4)] = rng.choice([0.0, -0.0, complex(-0.0, 1.0), complex(1.0, -0.0)]) * scale
            expected = values / np.linalg.norm(values)
            assert np.array_equal(TwoSpinState.normalized(values).amplitudes.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "values",
        [
            [1.7976931348623157e308, 0.0, 1.7e308j, -1.7e308 - 1.7e308j],
            [5e-324, 0.0, 0.0, 0.0],
            [5e-324j, 5e-324, 0.0, -5e-324],
            [1e-170, 1e-170j, 0.0, 0.0],
            [1e300, 3e299, 0.0, 1e300j],
        ],
    )
    def test_normalized_takes_any_finite_nonzero_scale(self, values):
        state = TwoSpinState.normalized(values)
        assert abs(float(np.linalg.norm(state.amplitudes)) - 1.0) <= 2.2e-16
        nonzero = np.asarray(values) != 0.0
        assert np.array_equal(state.amplitudes != 0.0, nonzero)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_normalized_refuses_a_non_finite_entry_before_any_arithmetic(self, bad):
        # Under pytest a NumPy warning is an error, so a division by inf would fail here first.
        with pytest.raises(ValueError, match="^non-finite entries are not admitted$"):
            TwoSpinState.normalized([1.0, bad, 0.0, 0.0])

    def test_singlet(self):
        s = TwoSpinState.singlet()
        assert s[1] == pytest.approx(1 / math.sqrt(2))
        assert s[2] == pytest.approx(-1 / math.sqrt(2))
        assert s.norm == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("which", [-1, 4, 1.7, 1.0, True, np.float64(2.0), "UU", "singlet", None])
    def test_basis_state_refuses_anything_but_a_label_or_an_index(self, which):
        with pytest.raises(ValueError, match=r"^basis state must be one of \('uu', 'ud', 'du', 'dd'\) or an index 0-3"):
            TwoSpinState.basis_state(which)

    def test_basis_state_by_label_or_index(self):
        for index, label in enumerate(("uu", "ud", "du", "dd")):
            for which in (label, index, np.int64(index)):
                assert TwoSpinState.basis_state(which).amplitudes.tolist() == np.eye(4)[index].tolist()

    def test_overlap(self):
        uu = TwoSpinState.basis_state(0)
        ud = TwoSpinState.basis_state(1)
        assert uu.overlap(uu) == pytest.approx(1.0)
        assert uu.overlap(ud) == 0.0


class TestSpinParams:
    def test_finite_validation(self):
        with pytest.raises(ValueError):
            SpinParams(np.nan, 0, 0, 0, 0)

    def test_period_positive_both_signs(self):
        assert SpinParams.symmetric(1, 1, 1, 0.1).period == pytest.approx(20 * math.pi)
        assert SpinParams.symmetric(1, 1, 1, -0.1).period == pytest.approx(20 * math.pi)

    def test_period_undefined_without_rotation(self):
        with pytest.raises(ValueError):
            _ = SpinParams.symmetric(1, 1, 1).period

    @pytest.mark.parametrize("omega1", [5e-324, -1e-308])
    def test_period_overflow_names_omega1(self, omega1):
        message = f"omega1 = {omega1!r} is too small: the period 2\\*pi/\\|omega1\\| is not finite"
        with pytest.raises(ValueError, match=message):
            _ = SpinParams.symmetric(1, 1, 1, omega1).period
        with pytest.raises(ValueError, match=message):
            _periods(np.array([0.5, omega1, 1e-320]))

    def test_period_is_the_column_kernel_at_one_point(self):
        rng = np.random.default_rng(47)
        omega1 = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300.0, 300.0, 2000)
        periods = np.array([SpinParams.symmetric(1, 1, 1, w).period for w in omega1.tolist()])
        assert np.array_equal(periods.view(np.uint64), _periods(omega1).view(np.uint64))

    def test_equal_coupling_accessors(self):
        p = SpinParams.symmetric(1.5, 0.5, 2.0)
        assert p.equal_couplings and p.omega0 == 1.5 and p.gamma == 0.5
        q = SpinParams(1.0, 2.0, 0.5, 0.5, 0.0)
        assert not q.equal_couplings
        with pytest.raises(ValueError):
            _ = q.omega0

    @pytest.mark.parametrize(
        "params, name",
        [(SpinParams(1.0, 2.0, 0.5, 0.5, 0.0), "omega0"), (SpinParams(1.0, 1.0, 0.5, -0.5, 0.0), "gamma")],
    )
    def test_unequal_pair_is_refused(self, params, name):
        with pytest.raises(ValueError, match=f"^{name} is only defined for equal couplings$"):
            getattr(params, name)

    def test_replace(self):
        p = SpinParams.symmetric(1, 1, 1, 0.1)
        q = p.replace(J=-1.0)
        assert q.J == -1.0 and q.omega_a0 == 1.0 and p.J == 1.0
