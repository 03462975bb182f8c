import math

import numpy as np
import pytest

from twospin import (
    AA_FLIP_SET,
    ADIABATIC_FLIP_SET,
    SpinParams,
    TwoSpinState,
    berry_gate,
    berry_phase,
    eigensystem,
    flip_params,
    h_rotating_frame,
    h_total,
    one_cycle_dynamical_residual,
    run_aa_two_cycle,
    run_adiabatic_two_cycle,
    triplet_energies,
)
from twospin import evolve_exact, evolve_stepped, numeric_dynamical_phase, tilde_eigensystem

from support import circ_dist, random_state, random_symmetric

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


class TestStateSequences:
    """A sequence of start states gives exactly the per-state results."""

    @staticmethod
    def _starts():
        rng = np.random.default_rng(62)
        return [random_state(rng) for _ in range(3)] + [eigensystem(P111, 0.0).state(1)]

    @pytest.mark.parametrize("steps", [None, 400])
    def test_adiabatic(self, steps):
        starts = self._starts()
        batch = run_adiabatic_two_cycle(P111, starts, steps)
        assert len(batch) == len(starts)
        for start, res in zip(starts, batch):
            single = run_adiabatic_two_cycle(P111, start, steps)
            # Reference: carry the state through one cycle evolution after the other.
            state = start
            for cycle in (P111, flip_params(P111, ADIABATIC_FLIP_SET)):
                if steps is None:
                    state = evolve_exact(cycle, state, P111.period).final_state
                else:
                    state = evolve_stepped(cycle, state, P111.period, steps).final_state
            assert np.array_equal(single.final_state.amplitudes, state.amplitudes)
            assert np.array_equal(res.final_state.amplitudes, single.final_state.amplitudes)
            assert np.array_equal(res.ideal_state.amplitudes, single.ideal_state.amplitudes)
            assert res.deviation == single.deviation

    def test_aa(self):
        starts = self._starts()
        batch = run_aa_two_cycle(P111, starts)
        assert len(batch) == len(starts)
        for start, res in zip(starts, batch):
            single = run_aa_two_cycle(P111, start)
            assert np.array_equal(res.final_state.amplitudes, single.final_state.amplitudes)
            assert res.identity_defect == single.identity_defect


class TestOneCycleResidual:
    def test_singlet_residual(self):
        assert one_cycle_dynamical_residual(P111, 4) == pytest.approx(
            0.5 * P111.period, abs=1e-12
        )
        assert one_cycle_dynamical_residual(P111, 4) == pytest.approx(10.0 * math.pi, abs=1e-9)

    def test_singlet_residual_vanishes_without_ising(self):
        p = SpinParams.symmetric(1.0, 1.0, 0.0, 0.1)
        assert one_cycle_dynamical_residual(p, 4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_numeric_integral(self):
        p = SpinParams.symmetric(1.1, 1.0, 1.0, 0.1)
        assert one_cycle_dynamical_residual(p, 1) == pytest.approx(-115.23936938891194, abs=1e-9)
        start = tilde_eigensystem(p).state(1)
        numeric = numeric_dynamical_phase(p, start, p.period, 2000)
        assert one_cycle_dynamical_residual(p, 1) == pytest.approx(numeric, abs=1e-6)


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
            assert np.abs(diff).max() <= 1e-14

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
