import math
import re

import numpy as np
import pytest

from twospin import (
    AA_FLIP_SET,
    ADIABATIC_FLIP_SET,
    SpinParams,
    TwoSpinState,
    aa_breakdown,
    berry_gate,
    berry_phase,
    eigensystem,
    h_rotating_frame,
    h_total,
    run_aa_two_cycle,
    run_adiabatic_two_cycle,
    triplet_energies,
)
from twospin import evolve_exact, evolve_stepped, exact_propagator, tilde_eigensystem
from twospin import cli, core, spectral, twocycle
from twospin.evolution import _propagators
from twospin.hamiltonian import _frame_diagonal
from twospin.twocycle import _aa_two_cycles, _adiabatic_two_cycles, _berry_gates, _cycle_propagators

from support import (
    adiabatic_rows_loop,
    adiabatic_two_cycles_loop,
    berry_gates_two_pass,
    check_steps_loop,
    circ_dist,
    flip_params,
    numeric_dynamical_phase,
    random_state,
    random_symmetric,
)

P111 = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)


class TestProtocols:
    def test_flip_params_groups(self):
        p = SpinParams(1.0, 1.0, 0.5, 0.5, -0.3, 0.1)
        f = flip_params(p, {"omega0", "gamma"})
        assert (f.omega_a0, f.omega_b0, f.gamma_a, f.gamma_b) == (-1.0, -1.0, -0.5, -0.5)
        assert f.J == -0.3 and f.omega1 == 0.1

    def test_flip_per_spin_group(self):
        p = SpinParams(1.0, 2.0, 0.5, 0.7, -0.3, 0.1)
        assert flip_params(p, {"omega_a0", "gamma_b"}) == SpinParams(-1.0, 2.0, 0.5, -0.7, -0.3, 0.1)

    def test_flip_rejects_unknown(self):
        with pytest.raises(ValueError):
            flip_params(P111, {"tau"})

    def test_protocol_requires_rotation(self):
        static = SpinParams.symmetric(1.0, 1.0, 1.0)
        start = TwoSpinState.basis_state("uu")
        for run in (run_aa_two_cycle, run_adiabatic_two_cycle):
            with pytest.raises(ValueError, match="cycle protocols need omega1 != 0"):
                run(static, start)


class TestBerryGate:
    def test_identity_without_detuning(self):
        gate = berry_gate(0.0, 1.0, 0.7)
        assert np.abs(gate.in_eigenbasis.matrix - np.eye(4)).max() <= 1e-9
        assert np.abs(gate.in_computational.matrix - np.eye(4)).max() <= 1e-9

    def test_diagonal_entries_match_phases(self):
        gate = berry_gate(1.0, 1.0, 1.0)
        for n in (1, 2, 3):
            expected = np.exp(2j * berry_phase(1.0, 1.0, 1.0, n))
            assert gate.in_eigenbasis.matrix[n - 1, n - 1] == pytest.approx(expected, abs=1e-14)

    def test_singlet_entry_exactly_one(self):
        for args in ((1.0, 1.0, 1.0), (0.3, -2.0, 1.7), (-1.2, 0.4, -0.8)):
            gate = berry_gate(*args)
            assert gate.in_eigenbasis.matrix[3, 3] == 1.0 + 0.0j

    def test_computational_action_on_eigenstates(self):
        gate = berry_gate(1.0, 1.0, 1.0)
        system = eigensystem(SpinParams.symmetric(1.0, 1.0, 1.0), 0.0)
        for n in (1, 2, 3, 4):
            vec = system.state(n).amplitudes
            out = gate.in_computational.matrix @ vec
            expected = np.exp(2j * gate.phases[n - 1]) * vec
            assert np.abs(out - expected).max() <= 1e-12

    def test_unitary_tags(self):
        gate = berry_gate(0.9, 1.4, -0.6)
        assert gate.in_eigenbasis.kind == "unitary"
        assert gate.in_computational.kind == "unitary"


class TestAdiabaticTwoCycle:
    def test_singlet_returns_exactly(self):
        for omega1 in (0.1, 1.0, 5.0):
            p = P111.replace(omega1=omega1)
            start = TwoSpinState.singlet()
            res = run_adiabatic_two_cycle(p, start)
            overlap = start.overlap(res.final_state)
            assert abs(abs(overlap) - 1.0) <= 1e-12
            assert circ_dist(float(np.angle(overlap)), 0.0) <= 1e-12
            assert res.deviation <= 1e-12

    def test_deviation_shrinks_with_omega1(self):
        start = eigensystem(P111, 0.0).state(1)
        devs = []
        for omega1 in (0.1, 0.05, 0.025):
            res = run_adiabatic_two_cycle(P111.replace(omega1=omega1), start)
            devs.append(res.deviation)
        assert devs[0] > devs[1] > devs[2]

    def test_phase_approaches_twice_geometric(self):
        p = P111.replace(omega1=0.025)
        for n in (1, 3):
            start = eigensystem(p, 0.0).state(n)
            res = run_adiabatic_two_cycle(p, start)
            phase = float(np.angle(start.overlap(res.final_state)))
            assert circ_dist(phase, 2.0 * berry_phase(1.0, 1.0, 1.0, n)) <= 5e-3

    @pytest.mark.parametrize("omega1", [0.002, -0.002])
    def test_slow_limit_in_both_rotation_senses(self, omega1):
        p = SpinParams.symmetric(1.0, 0.8, 0.6, omega1)
        for n in (1, 2, 3):
            start = eigensystem(p, 0.0).state(n)
            assert run_adiabatic_two_cycle(p, start).deviation <= 5e-3

    def test_stepped_variant_close_to_exact(self):
        start = eigensystem(P111, 0.0).state(2)
        exact = run_adiabatic_two_cycle(P111, start)
        stepped = run_adiabatic_two_cycle(P111, start, steps_per_cycle=8000)
        assert np.abs(exact.final_state.amplitudes - stepped.final_state.amplitudes).max() <= 1e-7

    def test_ideal_state_uses_gate(self):
        start = random_state(np.random.default_rng(60))
        res = run_adiabatic_two_cycle(P111, start)
        gate = berry_gate(1.0, 1.0, 1.0)
        assert np.allclose(
            res.ideal_state.amplitudes, gate.in_computational.matrix @ start.amplitudes
        )
        assert res.deviation == pytest.approx(
            float(np.linalg.norm(res.final_state.amplitudes - res.ideal_state.amplitudes))
        )


class TestAATwoCycle:
    def test_identity_defect_random_draws(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            p = random_symmetric(rng, 0.1, 2.0)
            res = run_aa_two_cycle(p, random_state(rng))
            assert res.identity_defect <= 1e-12

    def test_diagonal_case(self):
        p = SpinParams.symmetric(0.9, 0.0, 1.3, 0.25)
        res = run_aa_two_cycle(p, TwoSpinState.basis_state("ud"))
        assert res.identity_defect <= 1e-13

    def test_basis_states_return_unchanged(self):
        for label in ("uu", "ud", "du", "dd"):
            start = TwoSpinState.basis_state(label)
            res = run_aa_two_cycle(P111, start)
            overlap = start.overlap(res.final_state)
            assert abs(abs(overlap) - 1.0) <= 1e-13
            assert circ_dist(float(np.angle(overlap)), 0.0) <= 1e-12

    def test_works_for_unequal_couplings(self):
        p = SpinParams(1.3, 0.4, 0.8, 1.1, -0.6, 0.7)
        res = run_aa_two_cycle(p, TwoSpinState.basis_state("du"))
        assert res.identity_defect <= 1e-12

    def test_negative_rotation_sense(self):
        p = SpinParams.symmetric(1.0, 1.0, 1.0, -0.1)
        res = run_aa_two_cycle(p, TwoSpinState.basis_state("ud"))
        assert res.identity_defect <= 1e-12

    @staticmethod
    def _defect_set(kind, n=2000):
        """Seeded columns in both rotation senses: generic equal couplings, unequal couplings, or the rotating-frame
        level crossings omega0 - omega1 = +-J with |gamma| log-uniform in [1e-7, 1e-2]."""
        rng = np.random.default_rng(2800 + ["equal", "unequal", "crossing"].index(kind))
        omega1 = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
        a0, b0, gamma_a, gamma_b, J = rng.uniform(-2.0, 2.0, (5, n))
        if kind == "crossing":
            a0 = omega1 + rng.choice([-1.0, 1.0], n) * J
            gamma_a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-7.0, -2.0, n)
        if kind != "unequal":
            b0, gamma_b = a0, gamma_a
        return {"omega_a0": a0, "omega_b0": b0, "gamma_a": gamma_a, "gamma_b": gamma_b, "J": J, "omega1": omega1}

    @pytest.mark.parametrize("kind", ["equal", "unequal", "crossing"])
    def test_identity_defect_is_rounding(self, kind):
        # The second cycle inverts the first in the frame, so U2 U1 - I holds only the rounding of U1's
        # unitarity, the frame and the product; two independent solves left up to 2.8e-13 next to the crossings.
        _, defects = _aa_two_cycles(self._defect_set(kind))
        assert defects.max() <= 1e-14


class TestStateSequences:
    """For each of a sequence of start states, the runner's final state equals carrying the state
    through one cycle evolution after the other, bit for bit."""

    @pytest.mark.parametrize("steps", [None, 400])
    def test_adiabatic(self, steps):
        rng = np.random.default_rng(62)
        for start in [random_state(rng) for _ in range(3)] + [eigensystem(P111, 0.0).state(1)]:
            state = start
            for cycle in (P111, flip_params(P111, ADIABATIC_FLIP_SET)):
                if steps is None:
                    state = evolve_exact(cycle, state, P111.period).final_state
                else:
                    state = evolve_stepped(cycle, state, P111.period, steps).final_state
            result = run_adiabatic_two_cycle(P111, start, steps)
            assert np.array_equal(result.final_state.amplitudes, state.amplitudes)


class TestOneCycleResidual:
    """The dynamical phase left after one exact cycle on an eigenpath.

    It is nonzero for the singlet whenever J != 0, which is why no single-cycle
    parameter choice can cancel the dynamical phases alone.
    """

    def test_singlet_residual(self):
        assert aa_breakdown(P111, 4).dynamical == pytest.approx(
            0.5 * P111.period, abs=1e-12
        )
        assert aa_breakdown(P111, 4).dynamical == pytest.approx(10.0 * math.pi, abs=1e-9)

    def test_singlet_residual_vanishes_without_ising(self):
        p = SpinParams.symmetric(1.0, 1.0, 0.0, 0.1)
        assert aa_breakdown(p, 4).dynamical == pytest.approx(0.0, abs=1e-12)

    def test_matches_numeric_integral(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        assert aa_breakdown(p, 1).dynamical == pytest.approx(-115.23936938891194, abs=1e-9)
        start = tilde_eigensystem(p).state(1)
        numeric = numeric_dynamical_phase(p, start, p.period, 2000)
        assert aa_breakdown(p, 1).dynamical == pytest.approx(numeric, abs=1e-6)


class TestProtocolInvariants:
    def test_eigenpath_handoff(self):
        rng = np.random.default_rng(62)
        exchange = {1: 2, 2: 1, 3: 3, 4: 4}
        for _ in range(20):
            p = random_symmetric(rng, 0.1, 1.0)
            flipped = flip_params(p, ADIABATIC_FLIP_SET)
            system = eigensystem(p, 0.0)
            h_second = h_total(flipped, p.period).matrix
            e_flip = triplet_energies(flipped.omega0, flipped.gamma, flipped.J) + (
                flipped.J / -2.0,
            )
            for n in (1, 2, 3, 4):
                vec = system.state(n).amplitudes
                expected_energy = e_flip[exchange[n] - 1]
                assert np.linalg.norm(h_second @ vec - expected_energy * vec) <= 1e-10
                assert expected_energy == pytest.approx(-system.energy(n), abs=1e-12)

    def test_rotating_frame_negation_entrywise(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            p = random_symmetric(rng, 0.1, 2.0)
            flipped = flip_params(p, AA_FLIP_SET)
            diff = h_rotating_frame(flipped).matrix + h_rotating_frame(p).matrix
            assert np.abs(diff).max() == 0.0

    def test_dynamical_phase_cancellation(self):
        rng = np.random.default_rng(64)
        exchange = {1: 2, 2: 1, 3: 3, 4: 4}
        for _ in range(30):
            p = random_symmetric(rng, 0.1, 1.0)
            tau = p.period
            plus = triplet_energies(p.omega0, p.gamma, p.J) + (-p.J / 2.0,)
            minus = triplet_energies(p.omega0, p.gamma, -p.J) + (p.J / 2.0,)
            for n in (1, 2, 3, 4):
                residual = (-plus[n - 1] * tau) + (-minus[exchange[n] - 1] * tau)
                assert abs(residual) <= 1e-12 * max(1.0, abs(plus[n - 1])) * tau

    def test_negative_control_breaks_handoff(self):
        # flipping only omega0 and J leaves no triplet eigenstate shared
        for omega0, gamma, J in ((1.0, 1.0, 1.0), (1.3, 0.7, -0.9), (0.8, 1.6, 0.5)):
            a = eigensystem(SpinParams.symmetric(omega0, gamma, J), 0.0)
            b = eigensystem(SpinParams.symmetric(-omega0, gamma, -J), 0.0)
            for n in (1, 2, 3):
                for m in (1, 2, 3):
                    assert abs(b.state(n).overlap(a.state(m))) < 1.0 - 1e-6


class TestStackedKernel:
    """The stacked propagator kernel equals the per-point propagators bit for bit."""

    @staticmethod
    def _columns():
        rng = np.random.default_rng(2000)
        n = 2000
        fields = rng.uniform(-2.0, 2.0, size=(n, 6))  # unequal couplings, both rotation senses
        fields[::4, 1], fields[::4, 3] = fields[::4, 0], fields[::4, 2]  # equal couplings
        fields[1::5, 0] = fields[1::5, 1] = fields[1::5, 5]  # omega0 == omega1
        fields[2::7, 2:4] = 0.0  # gamma = 0
        fields[fields[:, 5] == 0.0, 5] = 0.5
        names = ("omega_a0", "omega_b0", "gamma_a", "gamma_b", "J", "omega1")
        return {name: fields[:, k].copy() for k, name in enumerate(names)}, rng.uniform(0.0, 40.0, n)

    @staticmethod
    def _points(columns):
        return [SpinParams(*values) for values in zip(*(column.tolist() for column in columns.values()))]

    def test_propagators_match_exact_propagator(self):
        columns, times = self._columns()
        stack = _propagators(columns, times)
        for point, t, u in zip(self._points(columns), times.tolist(), stack):
            assert np.array_equal(u, exact_propagator(point, t).matrix)

    @staticmethod
    def _second_cycle(point, first):
        """F* U1^dag F, F = V(T) at the period T: the second AA cycle as _aa_two_cycles derives it from U1."""
        frame = _frame_diagonal(np.array([point.omega1 * point.period]))[0]
        return frame.conj()[:, None] * first.conj().T * frame[None, :]

    def test_two_cycles_match_the_per_point_chain(self):
        columns, _ = self._columns()
        composed, defects = _aa_two_cycles(columns)
        for point, u, defect in zip(self._points(columns), composed, defects.tolist()):
            first = exact_propagator(point, point.period).matrix
            chain = self._second_cycle(point, first) @ first
            assert np.array_equal(u, chain)
            assert defect == float(np.abs(chain - np.eye(4)).max())

    def test_second_cycle_is_the_flipped_points_propagator(self):
        # Oracle: an independent solve of the AA-flipped point. The gap is that solve's own error next to
        # rotating-frame level crossings, about 2e-13 on this set.
        columns, _ = self._columns()
        worst = 0.0
        for point in self._points(columns):
            second = self._second_cycle(point, exact_propagator(point, point.period).matrix)
            flipped = exact_propagator(flip_params(point, AA_FLIP_SET), point.period).matrix
            worst = max(worst, float(np.abs(second - flipped).max()))
        assert worst <= 5e-13


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestAdiabaticKernel:
    """_adiabatic_two_cycles, the CLI table and run_adiabatic_two_cycle equal the per-point loop of
    support.adiabatic_two_cycles_loop bit for bit, exact and RK4, in both rotation senses."""

    STEPS = [None, 300]

    @staticmethod
    def _columns(rng, sense, n=40):
        """Equal-coupling columns, gamma = 0 (the fallback branch) at every 5th point; sense 0 mixes both."""
        omega0, gamma, J = (rng.uniform(-1.0, 1.0, n) for _ in range(3))
        gamma[::5] = 0.0
        signs = rng.choice([-1.0, 1.0], n) if sense == 0.0 else np.full(n, sense)
        return {"omega_a0": omega0, "omega_b0": omega0.copy(), "gamma_a": gamma, "gamma_b": gamma.copy(), "J": J,
                "omega1": signs * rng.uniform(0.3, 1.0, n)}

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("sense", [1.0, -1.0, 0.0])
    @pytest.mark.parametrize("k", [None, 1, 4])
    def test_kernel_equals_the_loop(self, k, sense, steps):
        rng = np.random.default_rng([int(sense) + 1, k or 0, steps or 0])
        columns = self._columns(rng, sense)
        starts = None
        if k is not None:
            starts = rng.normal(size=(40, k, 4)) + 1j * rng.normal(size=(40, k, 4))
            starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
        got_starts, *got = _adiabatic_two_cycles(columns, None if k is None else starts[..., None], steps)
        targets, finals, ideals, _, distances = adiabatic_two_cycles_loop(columns, starts, steps)
        bases = _berry_gates(columns)[1]
        assert np.array_equal(_bits(got_starts[..., 0]), _bits(bases.swapaxes(1, 2) if k is None else starts))
        expected = [targets, finals, ideals, distances]
        for part, reference in zip([got[0], got[1][..., 0], got[2][..., 0], got[3]], expected):
            assert np.array_equal(_bits(part), _bits(reference))

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("sense", [1.0, -1.0, 0.0])
    def test_table_equals_the_loop(self, sense, steps):
        columns = self._columns(np.random.default_rng([int(sense) + 5, steps or 0]), sense)
        table = cli._adiabatic_rows(columns, steps or 0)
        assert np.array_equal(table[..., 0], np.broadcast_to(np.arange(1.0, 5.0), (40, 4)))
        assert np.array_equal(_bits(table[..., 1:]), _bits(adiabatic_rows_loop(columns, steps)))

    @pytest.mark.parametrize("steps", STEPS)
    def test_run_is_the_one_start_case(self, steps):
        rng = np.random.default_rng(steps or 1)
        columns = self._columns(rng, 0.0, n=12)
        for i in range(12):
            point = {name: column[i : i + 1] for name, column in columns.items()}
            params = SpinParams(*(float(column[0]) for column in point.values()))
            state = random_state(rng)
            result = run_adiabatic_two_cycle(params, state, steps)
            _, finals, ideals, _, distances = adiabatic_two_cycles_loop(point, state.amplitudes[None, None], steps)
            assert np.array_equal(_bits(result.final_state.amplitudes), _bits(finals[0, 0]))
            assert np.array_equal(_bits(result.ideal_state.amplitudes), _bits(ideals[0, 0]))
            assert np.array_equal(_bits(result.deviation), _bits(distances[0, 0]))


def _fallback_heavy(rng, kind, sense, n=256):
    """Equal-coupling field columns of n points, many of them on the fallback branch: gamma = 0, tiny gamma,
    omega0 = J or -J with small gamma, omega0 = 0, or half omega0 = 0 and half gamma = 0; omega1 has the given
    sign (zero at every 17th point)."""
    omega0, gamma, J = (rng.uniform(-2.0, 2.0, n) for _ in range(3))
    if kind == "gamma=0":
        gamma[:] = 0.0
    elif kind == "tiny gamma":
        gamma = rng.choice([1e-300, 1e-12, -1e-9, 1e-7, 1e-5], n) * rng.uniform(0.5, 1.5, n)
    elif kind in ("omega0=J", "omega0=-J"):  # crossings: fallback at small gamma, refusals near gamma ~ 1e-2
        omega0 = J.copy() if kind == "omega0=J" else -J
        gamma = rng.choice([1e-7, 1e-5, 1e-3, 1e-2], n) * rng.uniform(-1.0, 1.0, n)
    elif kind == "omega0=0":
        omega0[:] = 0.0
    else:
        omega0[::2], gamma[1::2] = 0.0, 0.0
    omega1 = sense * rng.uniform(1e-3, 2.0, n)
    omega1[::17] = sense * 0.0
    return {"omega_a0": omega0, "omega_b0": omega0.copy(), "gamma_a": gamma, "gamma_b": gamma.copy(), "J": J,
            "omega1": omega1}


def _outcome(function, columns):
    """The uint64 views of function(columns)'s arrays, or the type and text of what it raised."""
    try:
        return [np.ascontiguousarray(part).view(np.uint64).tolist() for part in function(columns)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


KINDS = ["gamma=0", "tiny gamma", "omega0=J", "omega0=-J", "omega0=0", "mixed"]


class TestBerryGateBlock:
    """_berry_gates makes one _eigenbases pass, whose fallback bases also give the fallback phases."""

    @pytest.mark.parametrize("sense", [1.0, -1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_block_equals_the_two_pass_construction(self, kind, sense):
        rng = np.random.default_rng(KINDS.index(kind) + 10 * (sense > 0))
        columns = _fallback_heavy(rng, kind, sense)
        fallback = spectral._closed_form(columns["omega_a0"], columns["gamma_a"], columns["J"]).fallback
        assert fallback.any(axis=1).mean() > 0.4
        assert _outcome(_berry_gates, columns) == _outcome(berry_gates_two_pass, columns)

    @pytest.mark.parametrize("kind", ["omega0=J", "omega0=-J", "tiny gamma"])
    def test_points_and_their_refusals_equal_the_two_pass_construction(self, kind):
        columns = _fallback_heavy(np.random.default_rng(7), kind, -1.0, n=96)
        for name in ("omega_a0", "omega_b0", "J"):  # the first point's halved static sum overflows
            columns[name][0] = math.copysign(1.7e308, columns[name][0])
        outcomes = []
        for i in range(96):
            point = {name: column[i : i + 1] for name, column in columns.items()}
            outcomes.append(_outcome(_berry_gates, point))
            assert outcomes[-1] == _outcome(berry_gates_two_pass, point)
        # the unitary check on the gate once refused some points near omega0 = +-J; the Newton-Schulz step
        # leaves it none
        assert [isinstance(outcome, tuple) for outcome in outcomes] == [True] + [False] * 95

    @pytest.mark.parametrize("kind", ["omega0=1", "omega0=J", "omega0=-J"])
    def test_gates_are_unitary_to_rounding(self, kind):
        # The closed-form bases are orthonormal only to about eps/gap: unstepped, the unitary check refused 9,165
        # of 100,000 points with omega0 = 1 and small gamma, and some on omega0 = +-J. The Newton-Schulz step
        # leaves no refusal, and moves no entry of a gate that passed by more than rounding at the gap.
        rng = np.random.default_rng(["omega0=1", "omega0=J", "omega0=-J"].index(kind) + 90)
        n = 10_000
        J = rng.uniform(-3.0, 3.0, n)
        gamma = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-7.0, -2.0, n)
        omega0 = {"omega0=1": np.ones(n), "omega0=J": J, "omega0=-J": -J}[kind]
        columns = {"omega_a0": omega0, "omega_b0": omega0.copy(), "gamma_a": gamma, "gamma_b": gamma.copy(),
                   "J": J, "omega1": np.full(n, 0.1)}
        phases, _, _, gates = _berry_gates(columns)
        assert np.abs(gates.conj().swapaxes(-1, -2) @ gates - np.eye(4)).max() <= 1e-14
        bases = spectral._eigenbases(columns)[1]
        diagonal = np.zeros((n, 4, 4), dtype=complex)
        diagonal[:, range(4), range(4)] = np.exp(2j * phases)
        unstepped = bases @ diagonal @ bases.conj().swapaxes(-1, -2)
        passed = np.abs(unstepped.conj().swapaxes(-1, -2) @ unstepped - np.eye(4)).max(axis=(1, 2)) <= 1e-12
        assert np.abs(gates - unstepped)[passed].max() <= 6e-12

    @staticmethod
    def _count(monkeypatch, bindings):
        calls = []
        for module, name in bindings:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        return calls

    def test_one_closed_form_and_one_eigenbasis_pass_per_block(self, monkeypatch):
        columns = _fallback_heavy(np.random.default_rng(3), "mixed", 1.0)
        closed = self._count(monkeypatch, [(spectral, "_closed_form")])
        bases = self._count(monkeypatch, [(twocycle, "_eigenbases"), (spectral, "_fallback_states")])
        _berry_gates(columns)  # the one fallback call runs inside the eigenbasis pass; the phases reuse it
        assert (closed, bases) == (["_closed_form"], ["_eigenbases", "_fallback_states"])

    @pytest.mark.parametrize("steps", [None, 64])
    def test_no_spin_params_per_point(self, monkeypatch, steps):
        built = []
        real = core.SpinParams.__post_init__
        monkeypatch.setattr(core.SpinParams, "__post_init__", lambda self: built.append(self) or real(self))
        columns = _fallback_heavy(np.random.default_rng(4), "gamma=0", 1.0, n=32)
        columns["omega1"][:] = 0.7
        _berry_gates(columns)
        _cycle_propagators(columns, steps)
        _aa_two_cycles(columns)
        assert built == []

    def test_one_budget_check_per_rk4_call(self, monkeypatch):
        checks = self._count(monkeypatch, [(twocycle, "_check_steps")])
        columns = _fallback_heavy(np.random.default_rng(5), "mixed", -1.0, n=8)
        columns["omega1"][:] = -0.5
        _cycle_propagators(columns, 64)
        _cycle_propagators(columns)
        _aa_two_cycles(columns)
        assert checks == ["_check_steps"]


class TestStepBudgetOfTheCycles:
    """_cycle_propagators checks the RK4 budget of both adiabatic cycles in one call, cycle 1 rows first. A
    sign flip keeps the spectrum of H(0) up to sign (conjugation by a Pauli matrix flips omega and J, or gamma,
    of one spin), so the second cycle fails where the first does; the first failing omega1 is named. The AA
    scheme has no RK4 path: its second cycle is derived from the exact first one."""

    @pytest.mark.parametrize(
        "omega1, expected",
        [
            ([0.5, 0.05, 0.02], "step budget too small: need at least 240 steps for t=125.66370614359172"),
            ([-0.5, -0.3], None),
            ([-0.3, 1e-307], "step budget too small: need at least inf steps for t=6.283185307179587e+307"),
        ],
    )
    def test_names_the_scalar_rules_first_failure(self, omega1, expected):
        points = [SpinParams.symmetric(1.0, 0.8, 0.6, value) for value in omega1]
        columns = {name: np.array([getattr(p, name) for p in points]) for name in core._columns(P111, 1)}
        if expected is None:
            _cycle_propagators(columns, 40)
            return
        with pytest.raises(ValueError) as exc:
            _cycle_propagators(columns, 40)
        assert str(exc.value) == expected
        if "inf" not in expected:  # the scalar rule cannot name an infinite count
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                for point in [*points, *(flip_params(p, ADIABATIC_FLIP_SET) for p in points)]:
                    check_steps_loop(point, point.period, 40)
