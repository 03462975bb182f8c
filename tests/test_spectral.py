import math
from dataclasses import fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin import (
    SpinParams,
    TwoSpinState,
    eigensystem,
    h_rotating_frame,
    h_total,
    singlet_energy,
    tilde_eigensystem,
    triplet_energies,
)
from twospin.hamiltonian import _frame_diagonal
from twospin.spectral import (
    _amplitudes,
    _closed_form,
    _eigenbases,
    _solve,
    spectral_scale,
)

from support import (
    eigensystem_loop,
    kron_hamiltonian,
    random_symmetric,
    scalar_amplitudes,
    scaled_spectrum_oracle,
    sorted_spectrum_oracle,
    tilde_eigensystem_loop,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)

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
        assert eigensystem(SpinParams.symmetric(0.0, 0.0, 0.0)).used_fallback

    def test_double_roots_at_gamma_zero(self):
        # gamma = 0 and omega0 = J or omega0 = 0 make D = 0: atan2 gives Phi = 0 or pi/3 exactly
        assert triplet_energies(1.0, 0.0, 1.0) == pytest.approx((1.5, -0.5, -0.5), abs=1e-12)
        assert triplet_energies(0.0, 0.0, 1.0) == pytest.approx((0.5, -0.5, 0.5), abs=1e-12)

    @pytest.mark.parametrize("J", [6e-54, -6e-54, 1.730062939871831e-53, -1.730062939871831e-53, 1e-60, 5e-324])
    def test_tiny_couplings_are_solved(self, J):
        # (p/3)^3 of the unscaled parameters is subnormal or 0 here: once refused (6e-54 as an arccos argument
        # beyond tolerance), or clamped. On the scaled parameters each energy is +-J/2.
        expected = [0.5 * J, -0.5 * J, 0.5 * J] if J > 0 else [-0.5 * J, 0.5 * J, 0.5 * J]
        energies = _closed_form(*_column_point(0.0, 0.0, J)).energies[0]
        assert energies.tolist() == pytest.approx(expected, rel=1e-15, abs=math.ulp(0.0))
        direct = scaled_spectrum_oracle(0.0, 0.0, J)
        assert np.abs(np.sort([*energies, -J / 2.0]) - direct).max() <= 16.0 * EPS * abs(J) + math.ulp(0.0)

    def test_huge_parameters_are_solved(self):
        # Once refused as an overflowing J**3 or (p/3)**3; pow(inf, 3) is inf and passes through.
        J = np.array([1.0, math.inf, 1e200, -1e201, 1.0])
        omega0 = np.array([1.0, 1.0, 1.0, 1.0, 1e60])
        energies = _closed_form(omega0, np.ones(len(J)), J).energies
        assert not np.isfinite(energies[1]).any()
        for i in (0, 2, 3, 4):
            scale = max(abs(omega0[i]), abs(J[i]))
            direct = scaled_spectrum_oracle(omega0[i], 1.0, J[i])
            assert np.abs(np.sort([*energies[i], -J[i] / 2.0]) - direct).max() <= 16.0 * EPS * scale
        assert triplet_energies(1e60, 1.0, 1.0) == tuple(energies[4].tolist())


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

    # An energy beyond the float range: omega0 + J/2 = 2e308, or sqrt(omega0^2 + gamma^2) above 1.8e308.
    # A nan field, once read here as a nan energy, is a parameter error (test_phases.py).
    @pytest.mark.parametrize(
        "omega0, gamma, J, energy", [(1.5e308, 0.0, 1e308, "inf"), (1e308, 1.7e308, 0.296, "inf")]
    )
    def test_non_finite_energy_raises(self, omega0, gamma, J, energy):
        with pytest.raises(ArithmeticError, match=f"^closed-form energy {energy} is not finite$"):
            triplet_energies(omega0, gamma, J)

    # Once refused as energies lost to an overflowing 4 omega0^2 or 4 gamma^2.
    @pytest.mark.parametrize("omega0, gamma, J", [(1e154, 0.457, 0.296), (0.7, -1e300, 0.296), (1e308, 0.457, 0.296)])
    def test_huge_fields_match_the_scaled_diagonalization(self, omega0, gamma, J):
        energies = sorted(triplet_energies(omega0, gamma, J) + (singlet_energy(J),))
        scale = spectral_scale(omega0, gamma, J)
        assert np.abs(np.array(energies) - scaled_spectrum_oracle(omega0, gamma, J)).max() <= 16.0 * EPS * scale

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
        # The trace: E1 + E2 + E3 = J/2, to rounding (at most 5.6 eps * scale over 20,000 points measured)
        rng = np.random.default_rng(28)
        for _ in range(40):
            p = random_symmetric(rng)
            system = eigensystem(p, 0.0)
            scale = spectral_scale(p.omega0, p.gamma, p.J)
            assert sum(system.energies[:3]) == pytest.approx(p.J / 2.0, abs=8.0 * EPS * scale)

    def test_time_covariance(self):
        # eigensystem(p, t) = V(t) eigensystem(p, 0), row by row and bit for bit, fallback points included
        rng = np.random.default_rng(29)
        points = [random_symmetric(rng, 0.1, 1.5) for _ in range(20)]
        points += [SpinParams.symmetric(omega0, 0.0, J, omega1)
                   for omega0, J, omega1 in ((1.0, 1.0, 0.3), (-0.7, 0.7, -1.2), (0.4, -0.4, 0.9))]
        for p in points:
            t = float(rng.uniform(-p.period, p.period))
            at_zero = eigensystem(p, 0.0).basis_matrix()
            assert same_bits(eigensystem(p, t).basis_matrix(), _frame_diagonal(p.omega1 * t)[:, None] * at_zero)
        assert all(eigensystem(p).used_fallback for p in points[20:])

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


class TestClosedFormGauge:
    def test_gauge_real_positive_middle(self):
        p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.37)  # field angle 0.37 at t = 1
        for n in (1, 2, 3):
            x, y, z, w = eigensystem(p, 1.0).state(n).amplitudes
            assert y.imag == 0.0 and z.imag == 0.0 and y.real > 0.0
            assert y == z

    # Once refused as infinite energies (4 omega0^2 or 4 gamma^2 overflowed): each state is built, and it is
    # the eigenvector of the scaled Kronecker H(0) with its label's energy rank. At 8e307, d- = -2 omega0 - 2 E1
    # overflows, but the ratio -2 gamma/d- is taken on the scaled parameters (label 1's dd amplitude is 0.0025).
    @pytest.mark.parametrize("omega0, gamma", [(1e154, 0.457), (1e200, 0.457), (0.7, -1e300), (8e307, 8e306)])
    def test_huge_fields_build_their_eigenstates(self, omega0, gamma):
        system = eigensystem(SpinParams.symmetric(omega0, gamma, 0.296), 0.0)
        k = math.frexp(max(abs(omega0), abs(gamma)))[1]
        vectors = np.linalg.eigh(kron_hamiltonian(*(math.ldexp(v, -k) for v in (omega0, gamma, 0.296))))[1]
        for n, rank in ((1, 3), (2, 0)):  # label 1 is the top energy, label 2 the bottom one
            assert abs(np.vdot(vectors[:, rank], system.state(n).amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_energy_beyond_the_float_range_raises(self):
        with pytest.raises(ArithmeticError, match="^closed-form energy inf is not finite$"):
            eigensystem(SpinParams.symmetric(1e308, 1.7e308, 0.296), 0.0)


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))


def stacked(points) -> dict:
    """The field columns of a list of SpinParams."""
    return {f.name: np.array([getattr(p, f.name) for p in points]) for f in fields(SpinParams)}


def outcome(build):
    """The bits of the basis and the fallback flag of an EigenSystem or a (basis, used_fallback) pair that
    build returns, or the type and message of the error it raises."""
    try:
        result = build()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    basis, used = (result.basis_matrix(), result.used_fallback) if hasattr(result, "states") else result
    return basis.view(np.uint64).tolist(), used


# Both rotation senses, resonance (omega0 = omega1 in the rotating frame), gamma = 0 (every point on the
# fallback), omega0 = 0 and J = +-2 omega0 (a label on the fallback) and points off every degeneracy.
GRID = [
    SpinParams.symmetric(omega0, gamma, J, omega1)
    for omega0, gamma, omega1 in product([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.7, -1.0], [-0.5, 0.5, 1.0])
    for J in (0.0, 0.3, 2.0 * omega0, -2.0 * omega0)
]

components = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]), st.floats(-3.0, 3.0))
scales = st.sampled_from([1e-30, 1e-5, 1.0, 1e5, 1e40])


class TestEigenbasesKernel:
    """spectral._eigenbases, for H(0) and for the rotating frame, and its N = 1 wrappers, against the
    per-point oracle support.eigenbasis_loop: equal as uint64 views, fallback flags included. H(t)'s basis is
    H(0)'s with its rows scaled by V(t)'s diagonal."""

    @pytest.mark.parametrize("t", [0.0, 1.7, -3.1])
    def test_stacked_lab_bases_equal_the_loop(self, t):
        closed, bases = _eigenbases(stacked(GRID))
        used = closed.fallback.any(axis=1)
        assert 0 < used.sum() < len(GRID)
        for point, basis, fallback in zip(GRID, bases, used):
            expected, expected_fallback = eigensystem_loop(point, t)
            angle = point.omega1 * t
            got = _frame_diagonal(angle)[:, None] * basis if angle else basis
            assert same_bits(got, expected) and fallback == expected_fallback

    def test_stacked_tilde_bases_equal_the_loop(self):
        closed, bases = _eigenbases(stacked(GRID), rotating=True)
        used = closed.fallback.any(axis=1)
        assert 0 < used.sum() < len(GRID)
        for point, basis, fallback in zip(GRID, bases, used):
            expected, expected_fallback = tilde_eigensystem_loop(point)
            assert same_bits(basis, expected) and fallback == expected_fallback

    @pytest.mark.parametrize("t, rotating", [(0.0, False), (1.7, False), (0.0, True)])
    def test_berry_phases_are_the_spin_imbalance_of_the_bases(self, t, rotating):
        # closed.berry is 2*pi<n|S_z|n> = 2*pi(|x|^2 - |w|^2) of the basis the frame returns: the closed form
        # off the fallback mask, the returned states' own on it (worst measured: 6.2e-15 on the random points,
        # 1.8e-14 on GRID's fallback rows, whose labels off the mask take eigh's states)
        rng = np.random.default_rng(71)
        random_points = [SpinParams.symmetric(*point) for point in rng.uniform(-3.0, 3.0, (2000, 4)).tolist()]
        for points in (random_points, GRID):
            closed, bases = _eigenbases(stacked(points), rotating)
            bases = _frame_diagonal(np.array([p.omega1 for p in points]) * t)[:, :, None] * bases
            spin_z = 2.0 * math.pi * (np.abs(bases[:, 0]) ** 2 - np.abs(bases[:, 3]) ** 2)
            assert np.abs(spin_z - closed.berry).max() <= 2.2e-14
        assert closed.fallback.any()

    @pytest.mark.parametrize("p, fallback", [
        (SpinParams.symmetric(1.0, 0.8, 0.6, 0.3), False),
        (SpinParams.symmetric(0.4, 0.0, 0.9, 0.4), True),  # gamma = 0, and omega0 = omega1 in the rotating frame
    ])
    def test_eigensystems_hold_the_one_point_kernel_bit_for_bit(self, p, fallback):
        for system, (closed, bases), rows in (
            (eigensystem(p, 1.7), _eigenbases(stacked([p])), _frame_diagonal(p.omega1 * 1.7)),
            (tilde_eigensystem(p), _eigenbases(stacked([p]), rotating=True), None),
        ):
            basis = bases[0] if rows is None else rows[:, None] * bases[0]
            assert same_bits(np.array(system.energies), np.append(closed.energies[0], singlet_energy(p.J)))
            assert same_bits(np.array([state.amplitudes for state in system.states]), basis.T)
            assert system.used_fallback is bool(closed.fallback.any()) is fallback

    @settings(deadline=None, max_examples=300)
    @given(components, components, components, components, st.floats(-20.0, 20.0), scales)
    def test_wrappers_equal_the_loop(self, omega0, gamma, J, omega1, t, scale):
        p = SpinParams.symmetric(omega0 * scale, gamma * scale, J * scale, omega1 * scale)
        assert outcome(lambda: eigensystem(p, t)) == outcome(lambda: eigensystem_loop(p, t))
        assert outcome(lambda: eigensystem(p, 0.0)) == outcome(lambda: eigensystem_loop(p, 0.0))
        assert outcome(lambda: tilde_eigensystem(p)) == outcome(lambda: tilde_eigensystem_loop(p))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(components, components, components, components), min_size=1, max_size=40), scales)
    def test_stacks_equal_the_loop(self, draws, scale):
        points = [SpinParams.symmetric(*(v * scale for v in draw)) for draw in draws]
        for rotating, loop in ((False, eigensystem_loop), (True, tilde_eigensystem_loop)):
            expected = [outcome(lambda: loop(point)) for point in points]
            try:
                closed, bases = _eigenbases(stacked(points), rotating=rotating)
            except (ArithmeticError, ValueError) as exc:  # at N > 1 the error may come from any failing point
                assert (type(exc), str(exc)) in expected
                continue
            used = closed.fallback.any(axis=1).tolist()
            assert [(basis.view(np.uint64).tolist(), flag) for basis, flag in zip(bases, used)] == expected

    # Once refused as a non-finite eigenvector or energy, or (+-1e308) as a fallback H(0) entry whose unhalved sum
    # omega0 + omega0 overflowed; now computed, and still equal to the loop.
    @pytest.mark.parametrize("omega0, gamma", [(1e154, 0.457), (0.7, 1e300), (1e308, 0.457), (-1e308, 0.457)])
    def test_huge_points_equal_the_loop(self, omega0, gamma):
        p = SpinParams.symmetric(omega0, gamma, 0.296, 0.6)
        for kernel, loop in ((lambda: eigensystem(p), lambda: eigensystem_loop(p)),
                             (lambda: tilde_eigensystem(p), lambda: tilde_eigensystem_loop(p))):
            result = outcome(kernel)
            assert result == outcome(loop) and isinstance(result[0], list)

    # What is still refused: a fallback Hamiltonian entry (omega0/2 + omega0/2 + J/2 = 2.55e308) or an energy
    # beyond the float range.
    @pytest.mark.parametrize(
        "omega0, gamma, J, failure",
        [
            (1.7e308, 0.457, 1.7e308, (OverflowError, "a Hamiltonian entry overflows the float range")),
            (-1.7e308, 0.457, -1.7e308, (OverflowError, "a Hamiltonian entry overflows the float range")),
            (1e308, 1.7e308, 0.296, (ArithmeticError, "closed-form energy inf is not finite")),
        ],
    )
    def test_refusals_equal_the_loop(self, omega0, gamma, J, failure):
        p = SpinParams.symmetric(omega0, gamma, J, 0.6)
        for kernel, loop in ((lambda: eigensystem(p), lambda: eigensystem_loop(p)),
                             (lambda: tilde_eigensystem(p), lambda: tilde_eigensystem_loop(p))):
            assert outcome(kernel) == outcome(loop) == failure

    def test_fallback_labels_follow_the_energies_near_crossings(self):
        # Each fallback state's energy <v|H|v> is its label's closed-form energy. With the arccos form's noisy
        # energies, 33,577 of 100,000 such points took another label's eigenvector (eigh gaps up to 1.5e-8).
        rng = np.random.default_rng(52)
        count = 2000
        omega0 = np.ones(count)
        J = rng.choice([-1.0, 1.0], count)
        gamma = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-12.0, -6.0, count)
        columns = {"omega_a0": omega0, "omega_b0": omega0, "gamma_a": gamma, "gamma_b": gamma, "J": J,
                   "omega1": np.zeros(count)}
        closed, bases = _eigenbases(columns)
        assert closed.fallback.any(axis=1).all()
        hamiltonians = np.stack([h_total(SpinParams.symmetric(1.0, g, j), 0.0).matrix for g, j in zip(gamma, J)])
        rayleigh = np.einsum("nik,nij,njk->nk", bases.conj(), hamiltonians, bases).real[:, :3]
        assert np.abs(rayleigh - closed.energies).max() <= 8.0 * EPS

    def test_amplitudes_equal_the_scalar_formula(self):
        for point in GRID:
            closed = _closed_form(*_column_point(point.omega0, point.gamma, point.J))
            parts = [part[~closed.fallback] for part in (closed.x, closed.w, closed.energies)]
            got = _amplitudes(*parts)
            for k, label in enumerate(zip(*(part.tolist() for part in parts))):
                assert all(same_bits(part[k], value) for part, value in zip(got, scalar_amplitudes(*label)))

    def test_fallback_berry_phases_equal_the_loop(self):
        omega0, gamma, J = (np.array([getattr(p, name) for p in GRID]) for name in ("omega0", "gamma", "J"))
        closed = _solve(stacked(GRID))[0]
        for i, k in np.argwhere(closed.fallback).tolist():
            amps = eigensystem_loop(SpinParams.symmetric(omega0[i], gamma[i], J[i]), 0.0)[0][:, k]
            assert same_bits(closed.berry[i, k], 2.0 * math.pi * float(abs(amps[0]) ** 2 - abs(amps[3]) ** 2))
