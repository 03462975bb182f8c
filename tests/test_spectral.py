import math

import numpy as np
import pytest

from twospin import (
    DegenerateParametersError,
    SpinParams,
    TwoSpinState,
    eigensystem,
    frame_rotation,
    h_rotating_frame,
    h_total,
    singlet_energy,
    tilde_eigensystem,
    triplet_amplitudes,
    triplet_energies,
)
from twospin.spectral import ARCCOS_EXCESS_TOL, InternalConsistencyError, _closed_form, spectral_scale

from support import cubic_trisection, random_symmetric, sorted_spectrum_oracle

SQRT2 = math.sqrt(2.0)

# Frozen via direct diagonalization of H(0) at (omega0, gamma, J) = (1, 1, 1);
# the oracle comparison below re-derives them on the fly.
E111 = (1.746979603717467, -1.3019377358048376, 0.05495813208737174)


def _column_point(omega0, gamma, J):
    return [np.array([v]) for v in (omega0, gamma, J)]


class TestCubic:
    def test_all_zero_is_degenerate(self):
        closed = _closed_form(*_column_point(0.0, 0.0, 0.0))
        assert closed.energies.tolist() == [[0.0, 0.0, 0.0]]
        assert closed.fallback.all()
        assert triplet_energies(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)
        with pytest.raises(DegenerateParametersError):
            triplet_amplitudes(0.0, 0.0, 0.0, 1)

    def test_clamp_at_exact_boundary(self):
        # gamma = 0 puts the arccos argument at +-1 up to rounding
        assert triplet_energies(1.0, 0.0, 1.0) == pytest.approx((1.5, -0.5, -0.5), abs=1e-12)
        assert triplet_energies(0.0, 0.0, 1.0) == pytest.approx((0.5, -0.5, 0.5), abs=1e-12)

    def test_excess_beyond_tolerance_raises(self):
        # (p/3)^3 is subnormal here, so its square root keeps only a few bits
        assert abs(cubic_trisection(0.0, 0.0, 6e-54)[0]) > 1.0 + ARCCOS_EXCESS_TOL
        with pytest.raises(InternalConsistencyError, match="arccos argument -1.0000239017328967 outside"):
            _closed_form(*_column_point(0.0, 0.0, 6e-54))

    def test_excess_within_tolerance_clamps(self):
        # the argument is -sign(J) * (1 + 1.2e-10); clamped, Phi is pi/3 (J > 0) or 0 (J < 0)
        for J in (1.730062939871831e-53, -1.730062939871831e-53):
            arg = cubic_trisection(0.0, 0.0, J)[0]
            assert 1.0 < abs(arg) <= 1.0 + ARCCOS_EXCESS_TOL and arg * J < 0.0
            expected = [0.5 * J, -0.5 * J, 0.5 * J] if J > 0 else [-0.5 * J, 0.5 * J, 0.5 * J]
            energies = _closed_form(*_column_point(0.0, 0.0, J)).energies[0]
            assert energies.tolist() == pytest.approx(expected, rel=1e-12)

    def test_overflowing_power_names_its_first_value(self):
        # a cube overflows once |J| or |p/3| passes about 5.6e102; pow(inf, 3) is inf and passes through
        J = np.array([1.0, math.inf, 1e200, -1e201])
        ones = np.ones(len(J))
        with pytest.raises(OverflowError, match=r"^closed-form J\*\*3 overflows at J = 1e\+200$"):
            _closed_form(ones, ones, J)
        with pytest.raises(OverflowError, match=r"^closed-form \(p/3\)\*\*3 overflows at \(p/3\) = -1\.3"):
            triplet_energies(1e60, 1.0, 1.0)


class TestTripletEnergies:
    def test_decoupled_spins(self):
        e = triplet_energies(1.0, 1.0, 0.0)
        assert e[0] == pytest.approx(SQRT2, abs=1e-12)
        assert e[1] == pytest.approx(-SQRT2, abs=1e-12)
        assert e[2] == pytest.approx(0.0, abs=1e-12)

    def test_known_values_111(self):
        assert triplet_energies(1.0, 1.0, 1.0) == pytest.approx(E111, abs=1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            p = random_symmetric(rng)
            closed = sorted(triplet_energies(p.omega0, p.gamma, p.J) + (singlet_energy(p.J),))
            direct = sorted_spectrum_oracle(h_total(p, 0.0).matrix)
            scale = spectral_scale(p.omega0, p.gamma, p.J)
            assert np.abs(np.asarray(closed) - direct).max() <= 1e-10 * scale

    def test_trace_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_symmetric(rng)
            assert sum(triplet_energies(p.omega0, p.gamma, p.J)) == pytest.approx(
                p.J / 2.0, abs=1e-10 * spectral_scale(p.omega0, p.gamma, p.J)
            )

    def test_cubic_residual(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p = random_symmetric(rng)
            w0, g, J = p.omega0, p.gamma, p.J
            scale = spectral_scale(w0, g, J)
            for e in triplet_energies(w0, g, J):
                v = 2.0 * e
                res = v**3 - J * v**2 - (J * J + 4 * w0 * w0 + 4 * g * g) * v + (
                    J**3 - 4 * w0 * w0 * J + 4 * g * g * J
                )
                assert abs(res) <= 1e-8 * scale**3

    def test_even_in_omega0_and_gamma_bitwise(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            p = random_symmetric(rng)
            w0, g, J = p.omega0, p.gamma, p.J
            assert triplet_energies(w0, g, J) == triplet_energies(-w0, g, J)
            assert triplet_energies(w0, g, J) == triplet_energies(w0, -g, J)


class TestEigensystem:
    def test_known_eigenvector_no_ising(self):
        # (omega0, gamma, J) = (1, 1, 0), label 1: (sqrt2+1, 1, 1, sqrt2-1)/sqrt(8).
        # Frozen from direct diagonalization (product state of both spins along
        # the tilted field); all components are positive.
        state = eigensystem(SpinParams.symmetric(1.0, 1.0, 0.0), 0.0).state(1)
        expected = np.array([SQRT2 + 1.0, 1.0, 1.0, SQRT2 - 1.0]) / math.sqrt(8.0)
        assert np.abs(state.amplitudes - expected).max() <= 1e-12

    def test_singlet_label_independent_of_time(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            p = random_symmetric(rng, 0.1, 1.0)
            t = float(rng.uniform(0.0, p.period))
            sys_t = eigensystem(p, t)
            assert np.allclose(sys_t.state(4).amplitudes, TwoSpinState.singlet().amplitudes)
            assert sys_t.energy(4) == -p.J / 2.0

    def test_eigen_residuals_and_orthonormality(self):
        rng = np.random.default_rng(27)
        for _ in range(60):
            p = random_symmetric(rng, 0.1, 2.0)
            t = float(rng.uniform(0.0, p.period))
            system = eigensystem(p, t)
            h = h_total(p, t).matrix
            basis = system.basis_matrix()
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(4)).max() <= 1e-10
            for n in (1, 2, 3, 4):
                vec = system.state(n).amplitudes
                assert np.linalg.norm(h @ vec - system.energy(n) * vec) <= 1e-10

    def test_triplet_sum_rule(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            p = random_symmetric(rng)
            system = eigensystem(p, 0.0)
            assert sum(system.energies[:3]) == pytest.approx(p.J / 2.0, abs=1e-10)

    def test_time_covariance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_symmetric(rng, 0.1, 1.5)
            t = float(rng.uniform(0.0, p.period))
            at_zero = eigensystem(p, 0.0)
            at_t = eigensystem(p, t)
            v = frame_rotation(p, t).matrix
            for n in (1, 2, 3, 4):
                rotated = v @ at_zero.state(n).amplitudes
                overlap = abs(np.vdot(rotated, at_t.state(n).amplitudes))
                assert 1.0 - overlap <= 1e-10

    def test_diagonal_fallback(self):
        system = eigensystem(SpinParams.symmetric(1.0, 0.0, 1.0), 0.0)
        assert system.used_fallback
        # extreme-energy states are the aligned basis states; the -J/2 sector
        # splits into the symmetric combination and the singlet
        assert abs(system.state(1).amplitudes[0]) == pytest.approx(1.0)
        assert np.allclose(system.state(4).amplitudes, TwoSpinState.singlet().amplitudes)
        h = h_total(SpinParams.symmetric(1.0, 0.0, 1.0), 0.0).matrix
        for n in (1, 2, 3, 4):
            vec = system.state(n).amplitudes
            assert np.linalg.norm(h @ vec - system.energy(n) * vec) <= 1e-12

    def test_closed_form_path_flag(self):
        assert not eigensystem(SpinParams.symmetric(1.0, 1.0, 1.0), 0.0).used_fallback

    def test_requires_equal_couplings(self):
        with pytest.raises(ValueError):
            eigensystem(SpinParams(1.0, 2.0, 1.0, 1.0, 0.5), 0.0)

    def test_label_accessor_validation(self):
        system = eigensystem(SpinParams.symmetric(1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            system.state(5)


class TestTripletAmplitudes:
    def test_gauge_real_positive_middle(self):
        x, y, z, w = triplet_amplitudes(1.0, 1.0, 1.0, 1, 0.37)
        assert y.imag == 0.0 and z.imag == 0.0 and y.real > 0.0
        assert y == z

    def test_vectorized_theta(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 7)
        x, y, z, w = triplet_amplitudes(1.0, 1.0, 1.0, 2, theta)
        assert x.shape == theta.shape and w.shape == theta.shape
        norms = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2 + abs(w) ** 2
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateParametersError):
            triplet_amplitudes(1.0, 0.0, 1.0, 1)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            triplet_amplitudes(1.0, 1.0, 1.0, 4)

    # 4 omega0^2 or 4 gamma^2 overflows to inf; d+- are infinite and the formula
    # would give the finite but meaningless state (0, 1, 1, 0)/sqrt(2).
    @pytest.mark.parametrize("omega0, gamma", [(1e154, 0.457), (1e200, 0.457), (0.7, -1e300)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_infinite_energy_raises(self, omega0, gamma, n):
        energy = triplet_energies(omega0, gamma, 0.296)[n - 1]
        assert not math.isfinite(energy)
        with pytest.raises(ArithmeticError, match=f"^closed-form energy {energy!r} is not finite$"):
            triplet_amplitudes(omega0, gamma, 0.296, n)


class TestTilde:
    def test_shifted_detuning_energies(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        system = tilde_eigensystem(p)
        assert system.energies[:3] == pytest.approx(E111, abs=1e-12)
        assert system.energy(4) == -0.5

    def test_zero_rotation_matches_instantaneous(self):
        p = SpinParams.symmetric(0.9, 0.7, -0.4)
        a = tilde_eigensystem(p)
        b = eigensystem(p, 0.0)
        assert a.energies == pytest.approx(b.energies, abs=1e-14)
        for n in (1, 2, 3, 4):
            assert np.allclose(a.state(n).amplitudes, b.state(n).amplitudes)

    def test_resonance_transverse_spectrum(self):
        p = SpinParams.symmetric(0.5, 1.0, 0.0, 0.5)
        system = tilde_eigensystem(p)
        assert system.used_fallback
        assert system.energies[:3] == pytest.approx((1.0, -1.0, 0.0), abs=1e-12)

    def test_rotating_frame_eigen_equation(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            p = random_symmetric(rng, 0.1, 2.0)
            system = tilde_eigensystem(p)
            h = h_rotating_frame(p).matrix
            for n in (1, 2, 3, 4):
                vec = system.state(n).amplitudes
                assert np.linalg.norm(h @ vec - system.energy(n) * vec) <= 1e-10

    def test_tied_fallback_gauge_is_independent_of_assembly(self):
        # Label 3 at resonance is (uu - dd)/sqrt2 up to noise: two components of
        # equal magnitude. The rotating-frame generator and H(0) at the shifted
        # detuning differ in the last bit, which must not flip the sign.
        p = SpinParams.symmetric(1.0, 0.8, 0.6, 1.0)
        a = tilde_eigensystem(p)
        b = eigensystem(SpinParams.symmetric(0.0, 0.8, 0.6), 0.0)
        assert a.used_fallback and b.used_fallback
        for n in (1, 2, 3):
            overlap = np.vdot(a.state(n).amplitudes, b.state(n).amplitudes)
            assert abs(overlap - 1.0) <= 1e-12
        # the last of the tied components is the real positive one
        assert a.state(3).amplitudes[3].real > 0.0 and a.state(3).amplitudes[3].imag == 0.0


class TestSymmetry:
    def test_energy_exchange_111(self):
        e_plus = triplet_energies(1.0, 1.0, 1.0)
        e_minus = triplet_energies(1.0, 1.0, -1.0)
        assert e_minus[0] == pytest.approx(-e_plus[1], abs=1e-12)
        assert e_minus[0] == pytest.approx(1.3019377358048376, abs=1e-10)
        assert e_minus[1] == pytest.approx(-e_plus[0], abs=1e-12)
        assert e_minus[2] == pytest.approx(-e_plus[2], abs=1e-12)

    def test_no_ising_odd_spectrum(self):
        e = triplet_energies(0.8, 1.1, 0.0)
        assert e[0] == pytest.approx(-e[1], abs=1e-12)
        assert e[2] == pytest.approx(0.0, abs=1e-12)

    def test_state_exchange_is_identity_111(self):
        a = eigensystem(SpinParams.symmetric(1.0, 1.0, 1.0), 0.0)
        b = eigensystem(SpinParams.symmetric(-1.0, -1.0, -1.0), 0.0)
        assert abs(b.state(2).overlap(a.state(1))) == pytest.approx(1.0, abs=1e-12)
        # with the shared gauge the exchanged vectors agree componentwise
        assert np.abs(a.state(1).amplitudes - b.state(2).amplitudes).max() <= 1e-12

    def test_report_over_draws(self):
        # J negated pairs E1 <-> -E2 with E3, E4 odd; (omega0, gamma, J) negated
        # exchanges the eigenstates 1 <-> 2 and fixes 3 and 4.
        exchange = {1: 2, 2: 1, 3: 3, 4: 4}
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_symmetric(rng)
            plus = triplet_energies(p.omega0, p.gamma, p.J) + (singlet_energy(p.J),)
            minus = triplet_energies(p.omega0, p.gamma, -p.J) + (singlet_energy(-p.J),)
            flipped = eigensystem(SpinParams.symmetric(-p.omega0, -p.gamma, -p.J), 0.0)
            system = eigensystem(p, 0.0)
            for n, m in exchange.items():
                assert abs(minus[n - 1] + plus[m - 1]) <= 1e-10 * spectral_scale(p.omega0, p.gamma, p.J)
                assert 1.0 - abs(flipped.state(m).overlap(system.state(n))) <= 1e-10
