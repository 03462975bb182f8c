import math
import re

import numpy as np
import pytest

from twospin import (
    PhaseBreakdown,
    SpinParams,
    aa_breakdown,
    aa_phase,
    adiabatic_phases,
    berry_gate,
    berry_phase,
    eigensystem,
    legacy_single_spin_phase,
    principal_value,
    tilde_eigensystem,
    triplet_energies,
)

from twospin import spectral
from twospin.core import _columns
from twospin.phases import _cycle_phases, _principal_values

from support import (
    adiabatic_cycle,
    berry_line_integral,
    circ_dist,
    numeric_dynamical_phase,
    random_symmetric,
    triplet_block_oracle,
    wrap,
)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Frozen from the amplitude-form oracle 2*pi*(|x|^2 - |w|^2) with eigenvectors
# from direct diagonalization at (omega0, gamma, J) = (1, 1, 1).
BERRY_111 = (5.473403608711894, -2.435893765860866, -3.0375098428510237)
TAU_01 = 62.83185307179586
DYN_111_N1 = -109.76596578020005


def amplitude_form(omega0, gamma, J, n):
    amps = eigensystem(SpinParams.symmetric(omega0, gamma, J), 0.0).state(n).amplitudes
    return TWO_PI * (abs(amps[0]) ** 2 - abs(amps[3]) ** 2)


class TestBerryPhase:
    def test_zero_detuning_kills_phase(self):
        for n in (1, 2, 3):
            assert berry_phase(0.0, 1.3, 0.7, n) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_exactly_zero(self):
        assert berry_phase(1.0, 1.0, 1.0, 4) == 0.0
        assert berry_phase(-2.0, 0.3, 0.9, 4) == 0.0

    def test_product_state_limit(self):
        assert berry_phase(1.0, 1.0, 0.0, 1) == pytest.approx(TWO_PI / math.sqrt(2.0), abs=1e-9)

    def test_known_values_111(self):
        for n in (1, 2, 3):
            assert berry_phase(1.0, 1.0, 1.0, n) == pytest.approx(BERRY_111[n - 1], abs=1e-9)
            assert berry_phase(1.0, 1.0, 1.0, n) == pytest.approx(
                amplitude_form(1.0, 1.0, 1.0, n), abs=1e-12
            )

    def test_bad_label(self):
        with pytest.raises(ValueError):
            berry_phase(1.0, 1.0, 1.0, 0)

    # The singlet passes the refusals of the triplet labels: there is no early exit for label 4. An energy
    # beyond the float range is refused, or before it the fallback's Hamiltonian entry omega0 + omega0.
    @pytest.mark.parametrize(
        "omega0, gamma, J, error, message",
        [
            (1e308, 1.7e308, 0.296, ArithmeticError, "closed-form energy inf is not finite"),
            (1.5e308, 0.0, 1e308, OverflowError, "a Hamiltonian entry overflows the float range"),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_label_refuses_a_failed_closed_form(self, omega0, gamma, J, error, message, n):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            berry_phase(omega0, gamma, J, n)

    # Once refused as infinite energies.
    @pytest.mark.parametrize("omega0, gamma, J", [(1e200, 1.0, 1.0), (1e154, 0.457, 0.296), (0.7, -1e300, 0.296)])
    def test_every_label_at_huge_fields_matches_the_triplet_block(self, omega0, gamma, J):
        expected = triplet_block_oracle(omega0, gamma, J)[1]
        phases = [berry_phase(omega0, gamma, J, n) for n in (1, 2, 3, 4)]
        assert phases == pytest.approx([*expected, 0.0], abs=1e-12) and phases[3] == 0.0

    def test_huge_coupling_gives_the_product_state_phases(self):
        # Once refused as an overflowing J**3. Labels 1 and 3 are uu and dd, whose energies J/2 +- omega0 are
        # equal in floats, so the triplet block cannot tell them apart; label 2 is (ud + du)/sqrt2.
        phases = [berry_phase(1.0, 1.0, 1e200, n) for n in (1, 2, 3, 4)]
        assert phases == pytest.approx([TWO_PI, 0.0, -TWO_PI, 0.0], abs=1e-12)

    def test_closed_form_equals_amplitude_form(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_symmetric(rng)
            for n in (1, 2, 3):
                closed = berry_phase(p.omega0, p.gamma, p.J, n)
                assert closed == pytest.approx(amplitude_form(p.omega0, p.gamma, p.J, n), abs=1e-12)

    def test_line_integral_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_symmetric(rng)
            for n in (1, 2, 3):
                numeric = berry_line_integral(p.omega0, p.gamma, p.J, n)
                assert berry_phase(p.omega0, p.gamma, p.J, n) == pytest.approx(numeric, abs=1e-6)

    def test_degenerate_route_no_coupling(self):
        # gamma = 0 forces the fallback amplitude route; populations are 0/1
        val = berry_phase(1.0, 0.0, 0.5, 1)
        assert math.isfinite(val)
        assert val == pytest.approx(TWO_PI, abs=1e-9)

    def test_degenerate_route_zero_detuning_root(self):
        # at omega0 = 0 one root always hits 2E = J; both routes give zero
        assert berry_phase(0.0, 1.0, 1.0, 1) == pytest.approx(0.0, abs=1e-9)

    def test_population_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = random_symmetric(rng)
            for n in (1, 2, 3, 4):
                assert abs(berry_phase(p.omega0, p.gamma, p.J, n)) <= TWO_PI * (1 + 1e-12)

    def test_exchange_parity(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            p = random_symmetric(rng)
            w0, g, J = p.omega0, p.gamma, p.J
            assert berry_phase(-w0, g, -J, 1) == pytest.approx(berry_phase(w0, g, J, 2), abs=1e-12)
            assert berry_phase(-w0, g, -J, 2) == pytest.approx(berry_phase(w0, g, J, 1), abs=1e-12)
            assert berry_phase(-w0, g, -J, 3) == pytest.approx(berry_phase(w0, g, J, 3), abs=1e-12)
            assert berry_phase(-w0, g, -J, 4) == 0.0


class TestBerryBlock:
    def test_one_closed_form_pass_per_block_with_fallback_rows(self, monkeypatch):
        # gamma = 0 puts every label of its point on the fallback, omega0 = J one label; the fallback rows
        # reuse the block's closed form instead of running it again through an eigenbasis pass.
        calls = []

        def counting(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("_closed_form", "_fallback_states"):  # phases binds neither: it reads spectral._solve
            monkeypatch.setattr(spectral, name, counting(name, getattr(spectral, name)))
        omega0 = np.array([1.0, 1.0, 0.7, -0.4, 1.3])
        gamma = np.array([0.0, 0.5, 0.0, 0.9, 0.2])
        J = np.array([0.6, 1.0, -0.7, 0.3, -1.1])
        columns = {"omega_a0": omega0, "omega_b0": omega0, "gamma_a": gamma, "gamma_b": gamma, "J": J,
                   "omega1": np.full(5, 0.1)}
        _, dynamical, berry = _cycle_phases(columns, shifted=False)
        assert calls == ["_closed_form", "_fallback_states"]
        assert np.isfinite(berry).all() and dynamical.shape == (5, 4)
        for i in range(5):
            assert berry[i].tolist() == [berry_phase(omega0[i], gamma[i], J[i], n) for n in (1, 2, 3, 4)]


class TestAdiabaticPhases:
    def test_singlet_breakdown(self):
        p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
        b = adiabatic_phases(p, 4)
        assert b.geometric == 0.0
        assert b.dynamical == pytest.approx((p.J / 2.0) * p.period, abs=1e-12)
        assert b.total == b.dynamical + b.geometric

    def test_known_dynamical_111(self):
        b = adiabatic_phases(SpinParams.symmetric(1.0, 1.0, 1.0, 0.1), 1)
        assert b.dynamical == pytest.approx(DYN_111_N1, abs=1e-9)
        assert b.geometric == pytest.approx(BERRY_111[0], abs=1e-9)

    def test_doubling_omega1(self):
        p1 = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
        p2 = p1.replace(omega1=0.2)
        b1, b2 = adiabatic_phases(p1, 2), adiabatic_phases(p2, 2)
        assert b1.geometric == b2.geometric  # bitwise: omega1 is not consumed
        assert abs(b1.dynamical) == pytest.approx(2.0 * abs(b2.dynamical), rel=1e-12)

    def test_raw_sum_exact(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            p = random_symmetric(rng, 0.1, 2.0)
            for n in (1, 2, 3, 4):
                b = adiabatic_phases(p, n)
                assert b.total == b.dynamical + b.geometric

    def test_requires_cycle(self):
        with pytest.raises(ValueError):
            adiabatic_phases(SpinParams.symmetric(1.0, 1.0, 1.0, 0.0), 1)


class TestAAPhase:
    @pytest.mark.parametrize("sense", [1.0, -1.0])
    def test_matches_shifted_berry(self, sense):
        rng = np.random.default_rng(46)
        for _ in range(60):
            p = random_symmetric(rng, 0.1, 2.0)
            p = p.replace(omega1=sense * p.omega1)
            for n in (1, 2, 3, 4):
                phase = aa_phase(p, n)
                assert phase == sense * berry_phase(p.omega0 - p.omega1, p.gamma, p.J, n)
                assert np.float64(phase).view(np.uint64) == np.float64(aa_breakdown(p, n).geometric).view(np.uint64)

    @pytest.mark.parametrize(
        "omega1, message",
        [
            (0.0, "cycling phases need omega1 != 0 (no cycle defined)"),
            (5e-324, "omega1 = 5e-324 is too small: the period 2*pi/|omega1| is not finite"),
            (-5e-324, "omega1 = -5e-324 is too small: the period 2*pi/|omega1| is not finite"),
        ],
    )
    def test_refuses_what_aa_breakdown_refuses(self, omega1, message):
        p = SpinParams.symmetric(1.0, 1.0, 1.0, omega1)
        for phase in (aa_phase, aa_breakdown):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                phase(p, 1)

    def test_known_value(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        assert aa_phase(p, 1) == pytest.approx(BERRY_111[0], abs=1e-9)

    def test_singlet_zero(self):
        assert aa_phase(SpinParams.symmetric(1.1, 1.0, 1.0, 0.1), 4) == 0.0

    def test_resonance_kills_all(self):
        p = SpinParams.symmetric(0.4, 1.2, 0.9, 0.4)
        for n in (1, 2, 3, 4):
            assert aa_phase(p, n) == pytest.approx(0.0, abs=1e-9)


class TestAABreakdown:
    def test_singlet(self):
        p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
        b = aa_breakdown(p, 4)
        assert b.total == pytest.approx((p.J / 2.0) * p.period, abs=1e-12)
        assert b.geometric == 0.0
        assert b.dynamical == b.total

    def test_known_values(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        b = aa_breakdown(p, 1)
        assert b.total == pytest.approx(-109.76596578020005, abs=1e-9)
        assert b.geometric == pytest.approx(5.473403608711894, abs=1e-9)
        assert b.dynamical == pytest.approx(-115.23936938891194, abs=1e-9)

    def test_resonance_no_ising(self):
        p = SpinParams.symmetric(0.5, 1.0, 0.0, 0.5)
        totals = sorted(aa_breakdown(p, n).total for n in (1, 2, 3, 4))
        expected = sorted([-1.0 * p.period, 1.0 * p.period, 0.0, 0.0])
        assert totals == pytest.approx(expected, abs=1e-9)
        for n in (1, 2, 3, 4):
            assert aa_breakdown(p, n).geometric == pytest.approx(0.0, abs=1e-9)

    def test_requires_cycle(self):
        with pytest.raises(ValueError):
            aa_breakdown(SpinParams.symmetric(1.0, 1.0, 1.0), 1)


class TestPhasesReadTheirStates:
    """The geometric phase of each label is sign(omega1) 2*pi(|x|^2 - |w|^2) of the state it belongs to: the AA
    phase of tilde_eigensystem's state, the Berry phase of eigensystem's at t = 0. Exactly so for a label on the
    fallback mask; any other label keeps the closed-form phase, and where a point's other labels took the fallback
    its state is eigh's, off that phase by the closed form's error (2.4e-8 and 9.8e-8 at omega0 = 1,
    gamma = 1.8249109341204752e-8, J = -1; on the points below, at most 1e-12)."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(73)
        points = [SpinParams.symmetric(0.4, 0.0, 0.9, 0.4)]  # tilde1 is dd there, whose AA phase is -2*pi
        for _ in range(40):
            omega0, gamma, J = rng.uniform(-3.0, 3.0, 3).tolist()
            omega1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))
            points += [SpinParams.symmetric(omega0, 0.0, J, omega1), SpinParams.symmetric(omega1, gamma, J, omega1)]
            points += [SpinParams.symmetric(omega1 + sign * J, gamma, J, omega1) for sign in (-1.0, 1.0)]
        return points

    @pytest.mark.parametrize("rotating, breakdown, system", [
        (True, aa_breakdown, tilde_eigensystem),
        (False, adiabatic_phases, lambda p: eigensystem(p, 0.0)),
    ])
    def test_geometric_phase_is_the_spin_imbalance_of_the_state(self, rotating, breakdown, system):
        # exact on the fallback labels; elsewhere the closed form, within eigh's error where a point's other
        # labels took the fallback states
        fallback = 0
        for p in self._points():
            eigen, mask = system(p), spectral._solve(_columns(p, 1), rotating=rotating)[0].fallback[0]
            fallback += int(mask.sum())
            for n in (1, 2, 3, 4):
                amps = eigen.state(n).amplitudes
                expected = math.copysign(1.0, p.omega1) * TWO_PI * (abs(amps[0]) ** 2 - abs(amps[3]) ** 2)
                got = breakdown(p, n).geometric
                assert got == expected if n < 4 and mask[n - 1] else abs(got - expected) <= 1e-12
        assert fallback >= 80


class TestNonFiniteBreakdown:
    """The scalar breakdowns refuse a non-finite part, naming the first of total, dynamical, geometric.

    The column helper _cycle_phases passes non-finite phases on (the CLI refuses them when it renders);
    its N = 1 wrappers raise the CLI's ArithmeticError text instead of returning them.
    """

    # -E * tau overflows: E is about 1e307 and tau = 20 pi.
    @pytest.mark.parametrize(
        "phase, n, message",
        [
            (aa_breakdown, 1, "phase -inf rad is not finite"),
            (adiabatic_phases, 2, "phase inf rad is not finite"),
            (aa_phase, 1, "phase -inf rad is not finite"),
        ],
    )
    def test_overflowing_energy_raises(self, phase, n, message):
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            phase(SpinParams.symmetric(1e307, 1.0, 1.0, 0.1), n)

    # Once refused as infinite energies: the parts now match the triplet block's energies, to rounding of
    # the largest parameter, and its phases.
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_huge_detuning_breakdowns_match_the_triplet_block(self, n):
        p = SpinParams.symmetric(1e200, 1.0, 1.0, 0.1)
        for breakdown, detuning in ((adiabatic_phases, p.omega0), (aa_breakdown, p.omega0 - p.omega1)):
            energies, berry = triplet_block_oracle(detuning, p.gamma, p.J)
            parts = breakdown(p, n)
            cyclic = parts.dynamical if breakdown is adiabatic_phases else parts.total
            assert cyclic == pytest.approx(-energies[n - 1] * p.period, abs=16.0 * EPS * p.omega0 * p.period)
            assert parts.geometric == pytest.approx(berry[n - 1], abs=1e-12)

    # Huge energies in both senses (computed since the closed form scales its parameters), and finite
    # energies whose period makes -E * tau overflow.
    @pytest.mark.parametrize(
        "point", [(1e200, 1.0, 1.0, 0.1), (1e200, 1.0, 1.0, -0.1), (1e154, 0.457, 0.296, 0.1), (100.0, 1.0, 1.0, 1e-307)]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_first_non_finite_part_of_the_column_helper(self, point, n):
        p = SpinParams.symmetric(*point)
        for phase, shifted in ((adiabatic_phases, False), (aa_breakdown, True), (aa_phase, True)):
            parts = [float(part[0, n - 1]) for part in _cycle_phases(_columns(p, 1), shifted)]
            lost = [value for value in parts if not math.isfinite(value)]
            if lost:
                with pytest.raises(ArithmeticError, match=f"^{re.escape(f'phase {lost[0]!r} rad is not finite')}$"):
                    phase(p, n)
            else:
                assert phase(p, n) == (parts[2] if phase is aa_phase else PhaseBreakdown(n, *parts))


class TestRotationSense:
    """Both rotation senses against exact evolution and the quadrature oracle.

    Reversing omega1 traverses the same loop backwards: the geometric part
    changes sign, the dynamical part -E * tau (tau = 2 pi/|omega1|) does not.
    """

    @pytest.mark.parametrize("omega1", [0.3, -0.3])
    def test_aa_dynamical_matches_quadrature(self, omega1):
        p = SpinParams.symmetric(1.0, 0.8, 0.6, omega1)
        system = tilde_eigensystem(p)
        for n in (1, 2, 3, 4):
            numeric = numeric_dynamical_phase(p, system.state(n), p.period, 2000)
            assert aa_breakdown(p, n).dynamical == pytest.approx(numeric, abs=1e-9)

    @pytest.mark.parametrize("omega1", [0.002, -0.002])
    def test_slow_cycle_total_matches_exact_evolution(self, omega1):
        p = SpinParams.symmetric(1.0, 0.8, 0.6, omega1)
        for n in (1, 2, 3, 4):
            measured = adiabatic_cycle(p, n).total_phase
            assert circ_dist(measured, adiabatic_phases(p, n).total) <= 5e-3

    @pytest.mark.parametrize("omega1", [0.1, -0.1, 1.7, -1.7])
    def test_geometric_takes_the_sign_of_omega1(self, omega1):
        p = SpinParams.symmetric(1.0, 0.8, 0.6, omega1)
        sense = math.copysign(1.0, omega1)
        for n in (1, 2, 3, 4):
            assert adiabatic_phases(p, n).geometric == sense * berry_phase(1.0, 0.8, 0.6, n)
            assert aa_phase(p, n) == sense * berry_phase(1.0 - omega1, 0.8, 0.6, n)


_P_LABELS = SpinParams.symmetric(1.0, 0.8, 0.6, 0.3)
_LABEL_CALLS = {
    "berry_phase": lambda n: berry_phase(1.0, 1.0, 1.0, n),
    "adiabatic_phases": lambda n: adiabatic_phases(_P_LABELS, n),
    "aa_breakdown": lambda n: aa_breakdown(_P_LABELS, n),
    "aa_phase": lambda n: aa_phase(_P_LABELS, n),
    "EigenSystem.state": lambda n: eigensystem(_P_LABELS).state(n),
}


class TestLabelRule:
    """Every call that takes an eigenstate label applies one rule: an int or NumPy integer, not a bool, in 1..4."""

    @pytest.mark.parametrize("n", [0, 5, -1, 2.0, np.float64(3.0), True, False, "1", None])
    @pytest.mark.parametrize("call", sorted(_LABEL_CALLS))
    def test_anything_but_a_label_is_refused(self, call, n):
        with pytest.raises(ValueError, match=r"^label must be in 1\.\.4$"):
            _LABEL_CALLS[call](n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_numpy_integer_is_the_label(self, n):
        assert berry_phase(1.0, 1.0, 1.0, np.int64(n)) == berry_phase(1.0, 1.0, 1.0, n)
        for breakdown in (adiabatic_phases(_P_LABELS, np.int32(n)), aa_breakdown(_P_LABELS, np.uint8(n))):
            assert type(breakdown.label) is int and breakdown.label == n
        system = eigensystem(_P_LABELS)
        assert system.state(np.int64(n)) is system.state(n) and system.energy(np.int64(n)) == system.energy(n)


class TestPrincipal:
    def test_wrap_branch(self):
        assert principal_value(math.pi) == pytest.approx(math.pi)
        assert principal_value(-math.pi) == pytest.approx(math.pi)
        assert principal_value(3.0 * math.pi) == pytest.approx(math.pi)
        assert principal_value(TWO_PI) == pytest.approx(0.0, abs=1e-15)
        assert principal_value(0.1 - TWO_PI) == pytest.approx(0.1, abs=1e-12)

    def test_principal_values_equal_the_remainder_form_bit_for_bit(self):
        """The branch cut and the ties: +-pi, odd multiples of pi and their neighbours, signed zeros, the
        ends of the float range; the kernel's fmod form against math.remainder, value by value."""
        odd = [(2 * j + 1) * math.pi for j in range(-60, 60)] + [(2 * j + 1) * TWO_PI / 2.0 for j in (10**6, 10**12)]
        centres = [math.pi, -math.pi, TWO_PI, -TWO_PI, *odd, *(-x for x in odd)]
        near = [math.nextafter(x, direction) for x in centres for direction in (-math.inf, math.inf)]
        ends = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(7)
        values = np.array(centres + near + ends + list(rng.normal(size=200) * 10.0 ** rng.integers(-5, 20, 200)))
        expected = np.array([wrap(value) for value in values.tolist()])
        assert np.array_equal(_principal_values(values).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_is_a_numeric_failure(self, phase):
        with pytest.raises(ArithmeticError, match="is not finite"):
            principal_value(phase)


class TestLegacySingleSpin:
    def test_aligned_axis_no_phase(self):
        assert legacy_single_spin_phase(1.0, 0.0, 0.5, 1) == pytest.approx(0.0, abs=1e-15)

    def test_equatorial_axis(self):
        assert legacy_single_spin_phase(1.0, 2.0, -1.0, 1) == pytest.approx(-math.pi)

    def test_known_value(self):
        expected = -math.pi * (1.0 - 1.0 / math.sqrt(2.0))
        assert legacy_single_spin_phase(1.0, 2.0, 1.0, 1) == pytest.approx(expected, abs=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            legacy_single_spin_phase(1.0, 0.0, -1.0, 1)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            legacy_single_spin_phase(1.0, 1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((math.inf, 1.0, 1.0, 1), ValueError, "omega_b0 must be finite, got inf"),
            ((math.nan, 1.0, 1.0, 1), ValueError, "omega_b0 must be finite, got nan"),
            ((1.0, math.inf, 1.0, 1), ValueError, "gamma_b must be finite, got inf"),
            ((1.0, 1.0, -math.inf, -1), ValueError, "J must be finite, got -inf"),
            ((1e308, 1e308, 1e308, 1), OverflowError, "precession axis overflows the float range"),
            ((1.7e308, 1.7e308, 0.0, 1), OverflowError, "precession axis overflows the float range"),
        ],
    )
    def test_non_finite_field_and_overflowing_axis_refused(self, args, error, message):
        # Each of these returned nan or -pi silently.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            legacy_single_spin_phase(*args)


@pytest.mark.parametrize("function", [triplet_energies, berry_phase, berry_gate])
@pytest.mark.parametrize("position, name", list(enumerate(["omega0", "gamma", "J"])))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_field_is_a_parameter_error(function, position, name, value):
    # Each refuses one naming its own argument, as legacy_single_spin_phase does, not a lost energy or a per-spin
    # field of SpinParams. None, once read as nan, is a TypeError, as in SpinParams.
    fields = [0.7, 1.3, -0.4]
    label = (1,) if function is berry_phase else ()
    fields[position] = None
    with pytest.raises(TypeError):
        function(*fields, *label)
    fields[position] = value
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite, got {value!r}')}$"):
        function(*fields, *label)


def test_triplet_energy_shift_consistency():
    # aa energies really are the berry energies at shifted detuning
    p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
    assert triplet_energies(1.0, 1.0, 1.0) == triplet_energies(
        p.omega0 - p.omega1, p.gamma, p.J
    )
