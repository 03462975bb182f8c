import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin import (
    ADIABATIC_FLIP_SET,
    SpinParams,
    TwoSpinState,
    aa_breakdown,
    aa_phase,
    adiabatic_phases,
    eigensystem,
    evolve_exact,
    evolve_stepped,
    exact_propagator,
    frame_rotation,
    h_rotating_frame,
    h_total,
    tilde_eigensystem,
)
from twospin import core, evolution, hamiltonian
from twospin.core import _columns
from twospin.evolution import _check_steps, _stepped_propagators

from support import (
    adiabatic_cycle,
    check_steps_loop,
    circ_dist,
    flip_params,
    numeric_dynamical_phase,
    random_general,
    random_state,
    random_symmetric,
    stepped_propagator_stage_loop,
)

P111 = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)


class TestExactPropagator:
    def test_identity_at_zero(self):
        assert np.allclose(exact_propagator(P111, 0.0).matrix, np.eye(4), atol=1e-14)

    def test_negative_rotation_full_period(self):
        p = P111.replace(omega1=-0.1)
        system = tilde_eigensystem(p)
        final = evolve_exact(p, system.state(2), p.period).final_state
        assert 1.0 - abs(system.state(2).overlap(final)) <= 1e-12

    def test_full_period_is_rotating_frame_exponential(self):
        tau = P111.period
        vals, vecs = np.linalg.eigh(h_rotating_frame(P111).matrix)
        expected = (vecs * np.exp(-1j * vals * tau)) @ vecs.conj().T
        assert np.abs(exact_propagator(P111, tau).matrix - expected).max() <= 1e-12

    def test_unitary_tag(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            p = random_general(rng)
            op = exact_propagator(p, float(rng.uniform(0.0, 30.0)))
            assert op.kind == "unitary"

    def test_refuses_phases_without_digits(self):
        p = SpinParams.symmetric(0.0, 0.0, 0.0, 1.0)  # H_rot eigenvalues -1, 0, 0, 1
        assert exact_propagator(p, 2.0**51).kind == "unitary"
        with pytest.raises(ArithmeticError, match="2\\*\\*52"):
            exact_propagator(p, 2.0**52)
        with pytest.raises(ArithmeticError):
            exact_propagator(SpinParams.symmetric(0.0, 0.0, 1e200, 0.1), 1.0)

    def test_diagonal_case_phase(self):
        p = SpinParams.symmetric(0.9, 0.0, 1.0, 0.2)
        ud = TwoSpinState.basis_state("ud")
        for t in (0.3, 2.0, 17.0):
            final = evolve_exact(p, ud, t).final_state
            assert np.abs(final.amplitudes - np.exp(1j * p.J * t / 2.0) * ud.amplitudes).max() <= 1e-12


class TestEvolveExact:
    def test_singlet_cycle_phase(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            p = random_symmetric(rng, 0.1, 1.5)
            singlet = TwoSpinState.singlet()
            final = evolve_exact(p, singlet, p.period).final_state
            expected = np.exp(1j * p.J * p.period / 2.0) * singlet.amplitudes
            assert np.abs(final.amplitudes - expected).max() <= 1e-12

    def test_cycling_states_return_with_total_phase(self):
        rng = np.random.default_rng(52)
        for _ in range(15):
            p = random_symmetric(rng, 0.2, 1.5)
            system = tilde_eigensystem(p)
            for n in (1, 2, 3, 4):
                start = system.state(n)
                final = evolve_exact(p, start, p.period).final_state
                overlap = start.overlap(final)
                assert 1.0 - abs(overlap) <= 1e-12
                assert circ_dist(np.angle(overlap), -system.energy(n) * p.period) <= 1e-10

    def test_intermediate_time_amplitude_pattern(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        system = tilde_eigensystem(p)
        t = p.period / 3.0
        for n in (1, 2, 3):
            amps0 = system.state(n).amplitudes
            modulated = amps0 * np.exp(-1j * system.energy(n) * t)
            modulated = modulated * np.array(
                [np.exp(-1j * p.omega1 * t), 1.0, 1.0, np.exp(1j * p.omega1 * t)]
            )
            final = evolve_exact(p, system.state(n), t).final_state
            assert np.abs(final.amplitudes - modulated).max() <= 1e-10
            # cross-check against the stepped oracle
            stepped = evolve_stepped(p, system.state(n), t, 4000).final_state
            assert np.abs(final.amplitudes - stepped.amplitudes).max() <= 1e-8

    def test_final_state_is_propagator_times_initial(self):
        rng = np.random.default_rng(53)
        p = random_general(rng)
        psi = random_state(rng)
        res = evolve_exact(p, psi, 3.3)
        assert np.abs(res.final_state.amplitudes - res.propagator.matrix @ psi.amplitudes).max() <= 1e-15

    def test_norm_conservation_along_trajectory(self):
        rng = np.random.default_rng(54)
        p = random_general(rng)
        psi = random_state(rng)
        for t in np.linspace(0.0, 2.0 * p.period, 9):
            final = evolve_exact(p, psi, float(t)).final_state
            assert abs(final.norm - 1.0) <= 1e-12


class TestEvolveStepped:
    def test_diagonal_phase(self):
        p = SpinParams.symmetric(1.0, 0.0, 1.0, 0.3)
        uu = TwoSpinState.basis_state("uu")
        t = 4.0
        res = evolve_stepped(p, uu, t, 4000)
        expected = np.exp(-1j * (p.omega0 + p.J / 2.0) * t) * uu.amplitudes
        assert np.abs(res.final_state.amplitudes - expected).max() <= 1e-10

    def test_matches_exact_at_high_resolution(self):
        psi = TwoSpinState.normalized([0.2, -0.4 + 0.1j, 0.8, 0.3j])
        exact = evolve_exact(P111, psi, P111.period).final_state
        stepped = evolve_stepped(P111, psi, P111.period, 10000).final_state
        assert np.linalg.norm(exact.amplitudes - stepped.amplitudes) <= 1e-8

    def test_fourth_order_convergence(self):
        psi = TwoSpinState.normalized([0.2, -0.4 + 0.1j, 0.8, 0.3j])
        exact = evolve_exact(P111, psi, P111.period).final_state.amplitudes
        err_coarse = np.linalg.norm(
            exact - evolve_stepped(P111, psi, P111.period, 1000).final_state.amplitudes
        )
        err_fine = np.linalg.norm(
            exact - evolve_stepped(P111, psi, P111.period, 2000).final_state.amplitudes
        )
        assert err_coarse / err_fine >= 12.0

    def test_unitarity_defect_at_recommended_resolution(self):
        res = evolve_stepped(P111, TwoSpinState.basis_state("uu"), P111.period, 10000)
        u = res.propagator.matrix
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-9
        assert res.propagator.kind == "general"
        assert res.step_count == 10000 and res.method == "stepped"

    def test_refuses_insufficient_budget(self):
        with pytest.raises(ValueError, match="step budget"):
            evolve_stepped(P111, TwoSpinState.basis_state("uu"), P111.period, 50)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            evolve_stepped(P111, TwoSpinState.basis_state("uu"), 1.0, 0)

    # Refused before the step budget, whose step count would be infinite, and before the kernel, where
    # 0 * inf at zero field warns; under pytest a warning fails the test.
    @pytest.mark.parametrize("params", [P111, SpinParams.symmetric(0.0, 0.0, 0.0), SpinParams.symmetric(0.0, 0.0, 1.0)])
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_time(self, params, t):
        with pytest.raises(ValueError, match=f"^time must be finite, got {t!r}$"):
            evolve_stepped(params, TwoSpinState.basis_state("uu"), t, 100)

    def test_agreement_unequal_couplings(self):
        rng = np.random.default_rng(55)
        for _ in range(3):
            p = random_general(rng)
            psi = random_state(rng)
            exact = evolve_exact(p, psi, p.period).final_state
            stepped = evolve_stepped(p, psi, p.period, 10000).final_state
            assert np.linalg.norm(exact.amplitudes - stepped.amplitudes) <= 1e-7

    def test_final_state_is_propagator_product(self):
        rng = np.random.default_rng(57)
        p = random_general(rng)
        psi = random_state(rng)
        res = evolve_stepped(p, psi, 2.0, 600)
        assert np.abs(res.final_state.amplitudes - res.propagator.matrix @ psi.amplitudes).max() <= 1e-15

    def test_coarse_resolution_state_allowed(self):
        # a legal coarse run dissipates norm noticeably but must still return
        p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
        res = evolve_stepped(p, TwoSpinState.basis_state("uu"), p.period, 200)
        assert 0.9 < res.final_state.norm < 1.0


# Every public function that takes a time refuses a non-finite one alike, before any arithmetic on it: a NumPy
# warning first would fail the test under the tier-1 warning filter.
_TIMED_CALLS = {
    "h_total": lambda t: h_total(P111, t),
    "frame_rotation": lambda t: frame_rotation(P111, t),
    "eigensystem": lambda t: eigensystem(P111, t),
    "exact_propagator": lambda t: exact_propagator(P111, t),
    "evolve_exact": lambda t: evolve_exact(P111, TwoSpinState.basis_state("uu"), t),
    "evolve_stepped": lambda t: evolve_stepped(P111, TwoSpinState.basis_state("uu"), t, 100),
}


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", sorted(_TIMED_CALLS))
def test_every_timed_call_refuses_a_non_finite_time(call, t):
    with pytest.raises(ValueError, match=f"^time must be finite, got {t!r}$"):
        _TIMED_CALLS[call](t)


def _stack(points):
    """Field columns of a list of SpinParams."""
    return {name: np.array([getattr(p, name) for p in points]) for name in _columns(points[0], 1)}


def _assert_bits(stack, expected):
    """Equal bit for bit, signed zeros included."""
    assert stack.shape == expected.shape
    assert np.array_equal(stack.view(np.uint64), expected.view(np.uint64))


UNEQUAL = SpinParams(1.3, 0.4, 0.8, 1.1, -0.6, 0.7)


def _message(check, *args):
    """The text of the ValueError check(*args) raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _first_scalar_failure(points, times, steps):
    """The scalar rule applied problem by problem, in stack order: the text of its first refusal, or None."""
    for point, t in zip(points, times):
        text = _message(check_steps_loop, point, t, steps)
        if text is not None:
            return text
    return None


class TestStepBudget:
    """evolution._check_steps, one rule over (M,) columns, names the scalar rule's first failing problem."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 60), st.randoms(use_true_random=False))
    def test_random_stacks_name_the_scalar_rules_first_failure(self, m, steps, random):
        points, times = [], []
        for _ in range(m):
            fields = [random.choice([random.uniform(-3.0, 3.0), 0.0, -0.0]) for _ in range(5)]
            if random.random() < 0.2:
                fields[0] = fields[1] = fields[2] = fields[3] = fields[4] = 0.0  # omega0 = gamma = J = 0
            omega1 = random.choice([random.uniform(-2.0, 2.0), 5e-324, -5e-324, 0.0, -0.0])
            points.append(SpinParams(*fields, omega1))
            times.append(random.choice([random.uniform(-40.0, 40.0), 0.0, -0.0]))
        expected = _first_scalar_failure(points, times, steps)
        assert _message(_check_steps, _stack(points), np.array(times), steps) == expected

    @pytest.mark.parametrize(
        "points, times, expected",
        [
            ([P111.replace(omega1=5e-324)] * 2, [3.0, 30.0],
             "step budget too small: need at least 67 steps for t=30.0"),
            ([SpinParams.symmetric(0.0, 0.0, 0.0, 5e-324)], [1e300], None),  # no rate, no bound
            ([SpinParams.symmetric(0.0, 0.0, 0.0, 0.0)], [-1e300], None),
            ([P111, P111], [0.0, -200.0], "step budget too small: need at least 445 steps for t=-200.0"),
            # Both cycles of one two-cycle stack, the second with a faster spectrum: only it fails.
            ([P111, P111.replace(J=-9.0)], [10.0, 10.0], "step budget too small: need at least 71 steps for t=10.0"),
        ],
    )
    def test_cases(self, points, times, expected):
        assert _first_scalar_failure(points, times, 30) == expected
        assert _message(_check_steps, _stack(points), np.array(times), 30) == expected

    @pytest.mark.parametrize("t", [1e308, -1e308, 2.3e307])
    def test_a_count_beyond_the_floats_reads_inf(self, t):
        # The scalar rule's math.ceil raised OverflowError here.
        with pytest.raises(OverflowError):
            check_steps_loop(P111, t, 10)
        with pytest.raises(ValueError, match=re.escape(f"step budget too small: need at least inf steps for t={t!r}")):
            evolve_stepped(P111, TwoSpinState.basis_state("uu"), t, 10)

    def test_non_finite_time_is_named_before_any_budget(self):
        message = _message(_check_steps, _stack([P111, P111]), np.array([500.0, math.nan]), 3)
        assert message == "time must be finite, got nan"


SINGLE_PROBLEMS = [
    (P111, P111.period, 700),
    (P111.replace(omega1=-0.1), P111.period, 300),
    (UNEQUAL, 4.0, 200),
    (UNEQUAL.replace(omega1=-0.7), -4.0, 200),
    (UNEQUAL, 0.05, 1),
    (UNEQUAL, -0.05, 1),
    (UNEQUAL, 0.0, 3),
    (SpinParams(0.0, -0.0, 0.0, 0.0, 0.0, 0.0), 1.0, 2),
]
ZERO_HEAVY_PROBLEMS = [
    (SpinParams.symmetric(1.0, 0.0, 0.5, 0.3), 2.0, 5),  # gamma = 0
    (SpinParams(0.7, -0.4, 0.0, -0.0, 0.2, -0.6), -3.0, 20),
    (SpinParams(-0.0, 0.0, -0.0, 0.0, -0.0, -0.0), 1.0, 3),
    (SpinParams(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0), -1.5, 4),
    (SpinParams(0.0, -0.0, 0.0, -0.0, 0.0, 0.0), -0.0, 2),
    (SpinParams.symmetric(1.0, 0.0, 0.5, 0.3), -0.0, 3),
    (UNEQUAL, -0.0, 3),
]
# Both rotation senses, t = +-0.0, gamma = 0 and unequal couplings, with an adiabatic two-cycle pair.
_TWO_CYCLE = SpinParams.symmetric(1.0, 0.8, 0.6, -0.25)
MIXED_STACK = [
    (UNEQUAL, 4.0),
    (UNEQUAL.replace(omega1=-0.7), -3.0),
    (SpinParams.symmetric(1.0, 0.0, 0.5, 0.3), 2.0),
    (SpinParams(0.7, -0.4, 0.0, -0.0, 0.2, -0.6), -3.0),
    (P111, 0.0),
    (P111.replace(omega1=-0.1), -0.0),
    (_TWO_CYCLE, _TWO_CYCLE.period),
    (flip_params(_TWO_CYCLE, ADIABATIC_FLIP_SET), _TWO_CYCLE.period),
]
# The stage form applies each slope to U; the kernel builds the first step's transfer matrix once and
# powers it, so the two round differently: at most 3e-14 apart on these cases, 20,000 steps included.
STAGE_BOUND = 1e-13


def _assert_rows_are_their_own(points, t, steps, stage=True):
    """Each problem of a stack equals its own M = 1 kernel call bit for bit. Where the step budget admits it, it
    also equals evolve_stepped bit for bit and (stage) lies within STAGE_BOUND of the stage-form loop; past the
    budget the propagators grow without bound, and so does their rounding."""
    stack = _stepped_propagators(_stack(points), np.array(t), steps)
    for matrix, point, time in zip(stack, points, t):
        _assert_bits(matrix, _stepped_propagators(_stack([point]), np.array([time]), steps)[0])
        if _message(_check_steps, _stack([point]), np.array([time]), steps) is None:
            _assert_bits(matrix, evolve_stepped(point, TwoSpinState.basis_state(0), time, steps).propagator.matrix)
            if stage:
                assert np.abs(matrix - stepped_propagator_stage_loop(point, time, steps)).max() <= STAGE_BOUND


class TestSteppedKernel:
    """The stacked RK4 kernel: each problem equals its own one-problem call and evolve_stepped bit for bit,
    and lies within rounding of the per-step stage-form loop of tests/support.py."""

    @pytest.mark.parametrize("params, t, steps", SINGLE_PROBLEMS + ZERO_HEAVY_PROBLEMS)
    def test_single_problem_equals_evolve_stepped(self, params, t, steps):
        stack = _stepped_propagators(_stack([params]), np.array([t]), steps)
        _assert_bits(evolve_stepped(params, TwoSpinState.basis_state(0), t, steps).propagator.matrix, stack[0])

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([1, 2, 5]),
        st.integers(1, 120),
        st.randoms(use_true_random=False),
    )
    def test_random_stacks_equal_their_single_problems(self, m, steps, random):
        points = [SpinParams(*(random.uniform(-3.0, 3.0) for _ in range(6))) for _ in range(m)]
        _assert_rows_are_their_own(points, [random.uniform(-6.0, 6.0) for _ in range(m)], steps)

    @pytest.mark.parametrize("steps", [1, 2, 3, 37, 1000, 20000])
    def test_mixed_stack_equals_its_single_problems(self, steps):
        points, t = zip(*MIXED_STACK)
        # the stage-form loop takes about 0.3 ms a step; the 20,000-step stage bound is pinned on UNEQUAL below
        _assert_rows_are_their_own(list(points), list(t), steps, stage=steps <= 1000)

    def test_no_work_per_step_outside_the_kernel(self, monkeypatch):
        counts = {"h_total": 0, "Operator4": 0}
        real_h_total, real_init = hamiltonian.h_total, core.Operator4.__post_init__

        def h_total(*args):
            counts["h_total"] += 1
            return real_h_total(*args)

        def post_init(self):
            counts["Operator4"] += 1
            real_init(self)

        for module in (hamiltonian, evolution):  # evolution binds no h_total; a later import would be counted
            monkeypatch.setattr(module, "h_total", h_total, raising=False)
        monkeypatch.setattr(core.Operator4, "__post_init__", post_init)
        seen = []
        for steps in (100, 1000):
            evolve_stepped(P111, TwoSpinState.basis_state(0), 5.0, steps)
            seen.append(dict(counts))
            counts.update(dict.fromkeys(counts, 0))
        assert seen == [{"h_total": 0, "Operator4": 1}] * 2  # the result; the budget check builds an unchecked stack

    @pytest.mark.parametrize(
        "params, t, steps",
        SINGLE_PROBLEMS + ZERO_HEAVY_PROBLEMS + [(UNEQUAL, 10.0 * UNEQUAL.period, 20000)],
    )
    def test_single_problem_within_rounding_of_the_stage_form(self, params, t, steps):
        stack = _stepped_propagators(_stack([params]), np.array([t]), steps)
        assert np.abs(stack[0] - stepped_propagator_stage_loop(params, t, steps)).max() <= STAGE_BOUND

    def test_stacks_within_rounding_of_the_stage_form(self):
        rng = np.random.default_rng(58)
        firsts = [SpinParams.symmetric(1.0, 0.8, 0.6, w1) for w1 in (0.1, -0.25, 0.4, -0.7)]
        points = firsts + [flip_params(p, ADIABATIC_FLIP_SET) for p in firsts]
        points += [UNEQUAL, UNEQUAL.replace(omega1=-0.7), random_general(rng), random_general(rng, -2.0, -0.8), P111]
        periods = core._periods(np.array([p.omega1 for p in firsts]))
        t = np.concatenate([periods, periods, [4.0, -3.0, 2.5, 0.0, -0.0]])
        stack = _stepped_propagators(_stack(points), t, 88)
        for matrix, point, time in zip(stack, points, t.tolist()):
            assert np.abs(matrix - stepped_propagator_stage_loop(point, time, 88)).max() <= STAGE_BOUND

    @pytest.mark.parametrize("params", [UNEQUAL, SpinParams.symmetric(1.0, 0.5, 0.3, 0.1)])
    def test_a_million_steps_are_within_rounding_of_exact(self, params):
        # RK4's truncation error is far below rounding here; a per-step product would gather about 2e-11
        result = evolve_stepped(params, TwoSpinState.basis_state(0), params.period, 10**6)
        assert np.abs(result.propagator.matrix - exact_propagator(params, params.period).matrix).max() <= 1e-13

    def test_every_sample_is_checked_as_hermitian(self, monkeypatch):
        # the builder broken from inside: its sine part turns non-hermitian, so in one step the sample at
        # angle 0 stays hermitian and only the midpoint and end samples are not
        monkeypatch.setitem(core._PAULI, ("a", "y"), np.triu(np.ones((4, 4), dtype=complex)))
        with pytest.raises(ValueError, match="hermitian tag violated"):
            _stepped_propagators(_stack([P111]), np.array([1.0]), 1)

    def test_non_finite_result_refused(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            _stepped_propagators(_stack([P111]), np.array([1e308]), 1)  # far past the step budget

    def test_overflowing_static_part_refused(self):
        columns = _stack([SpinParams(1.7e308, 1.7e308, 0.0, 0.0, 1.7e308, 0.1)])  # halved, 2.55e308
        with pytest.raises(OverflowError):
            _stepped_propagators(columns, np.array([1.0]), 4)


class TestAdiabaticCycle:
    def test_singlet_exact_at_any_speed(self):
        for omega1 in (0.05, 0.5, 5.0):
            p = P111.replace(omega1=omega1)
            res = adiabatic_cycle(p, 4)
            assert abs(res.fidelity - 1.0) <= 1e-12
            assert circ_dist(res.total_phase, (p.J / 2.0) * p.period) <= 1e-10

    def test_phase_error_shrinks_with_omega1(self):
        target = adiabatic_phases(P111, 1)
        devs = []
        for omega1 in (0.1, 0.05, 0.025):
            p = P111.replace(omega1=omega1)
            res = adiabatic_cycle(p, 1)
            want = adiabatic_phases(p, 1).total
            devs.append(circ_dist(res.total_phase, want))
        assert devs[0] > devs[1] > devs[2]
        assert target.geometric == adiabatic_phases(P111.replace(omega1=0.05), 1).geometric

    def test_fast_rotation_reports_low_fidelity(self):
        p = P111.replace(omega1=20.0)
        res = adiabatic_cycle(p, 1)
        assert res.fidelity < 1.0

    def test_stepped_variant(self):
        res = adiabatic_cycle(P111, 4, steps=2000)
        assert abs(res.fidelity - 1.0) <= 1e-9

    def test_requires_rotation(self):
        with pytest.raises(ValueError):
            adiabatic_cycle(SpinParams.symmetric(1.0, 1.0, 1.0), 1)


class TestNumericDynamicalPhase:
    def test_singlet_constant_energy(self):
        p = P111
        val = numeric_dynamical_phase(p, TwoSpinState.singlet(), p.period, 500)
        assert val == pytest.approx((p.J / 2.0) * p.period, abs=1e-9)

    def test_known_value_cycling_path(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        start = tilde_eigensystem(p).state(1)
        val = numeric_dynamical_phase(p, start, p.period, 2000)
        assert val == pytest.approx(-115.23936938891194, abs=1e-6)

    def test_diagonal_case(self):
        p = SpinParams.symmetric(0.7, 0.0, 1.1, 0.2)
        dd = TwoSpinState.basis_state("dd")
        t = 5.0
        val = numeric_dynamical_phase(p, dd, t, 500)
        assert val == pytest.approx(-(-p.omega0 + p.J / 2.0) * t, abs=1e-9)

    def test_split_consistency(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            p = random_symmetric(rng, 0.3, 1.5)
            system = tilde_eigensystem(p)
            for n in (1, 2, 3, 4):
                dyn = numeric_dynamical_phase(p, system.state(n), p.period, 2000)
                assert dyn + aa_phase(p, n) == pytest.approx(-system.energy(n) * p.period, abs=1e-6)
                assert dyn == pytest.approx(aa_breakdown(p, n).dynamical, abs=1e-6)

    def test_requires_enough_steps(self):
        with pytest.raises(ValueError):
            numeric_dynamical_phase(P111, TwoSpinState.singlet(), 1.0, 50)
