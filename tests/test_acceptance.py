"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from twospin import (
    SpinParams,
    TwoSpinState,
    aa_phase,
    berry_phase,
    eigensystem,
    evolve_exact,
    evolve_stepped,
    h_total,
    run_aa_two_cycle,
    run_adiabatic_two_cycle,
    singlet_energy,
    tilde_eigensystem,
    triplet_energies,
)
from twospin.spectral import _closed_form

from support import (
    berry_line_integral,
    circ_dist,
    numeric_dynamical_phase,
    random_general,
    random_state,
    random_symmetric,
    sorted_spectrum_oracle,
)

TWO_PI = 2.0 * math.pi


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_spectrum_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = random_symmetric(rng)
        closed = np.sort(
            np.asarray(triplet_energies(p.omega0, p.gamma, p.J) + (singlet_energy(p.J),))
        )
        direct = sorted_spectrum_oracle(h_total(p, 0.0).matrix)
        scale = max(1.0, float(np.abs(direct).max()))
        worst = max(worst, float(np.abs(closed - direct).max() / scale))
        assert np.abs(closed - direct).max() <= 1e-10 * scale
    report(1, f"closed-form spectrum matches diagonalization over 1000 draws (worst rel {worst:.2e})")


def test_criterion_2_berry_triple_agreement():
    rng = np.random.default_rng(102)
    worst_pair = 0.0
    for _ in range(100):
        p = random_symmetric(rng)
        fallback = _closed_form(*(np.array([v]) for v in (p.omega0, p.gamma, p.J))).fallback[0]
        for n in (1, 2, 3):
            closed = berry_phase(p.omega0, p.gamma, p.J, n)
            amps = eigensystem(p, 0.0).state(n).amplitudes
            amplitude_form = TWO_PI * (abs(amps[0]) ** 2 - abs(amps[3]) ** 2)
            if fallback[n - 1]:
                line = amplitude_form  # closed-form gauge unavailable at degeneracies
            else:
                line = berry_line_integral(p.omega0, p.gamma, p.J, n)
            for a, b in ((closed, amplitude_form), (closed, line), (amplitude_form, line)):
                worst_pair = max(worst_pair, abs(a - b))
                assert abs(a - b) <= 1e-6
        assert berry_phase(p.omega0, p.gamma, p.J, 4) == 0.0
    report(2, f"closed form, amplitude form and line integral agree (worst pair gap {worst_pair:.2e})")


def test_criterion_3_known_values():
    assert berry_phase(1.0, 1.0, 0.0, 1) == pytest.approx(TWO_PI / math.sqrt(2.0), abs=1e-9)
    rng = np.random.default_rng(103)
    for _ in range(200):
        p = random_symmetric(rng, 0.1, 2.0)
        system = eigensystem(p, 0.0)
        assert system.energy(4) == -p.J / 2.0
        assert aa_phase(p, 4) == 0.0
    report(3, "product-state limit 2*pi/sqrt(2), E4 = -J/2 and beta4 = 0 hold")


def test_criterion_4_exact_vs_stepped():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(4):
        p = random_general(rng)  # unequal couplings included
        psi = random_state(rng)
        tau = p.period
        exact = evolve_exact(p, psi, tau).final_state.amplitudes
        stepped = evolve_stepped(p, psi, tau, 10000).final_state.amplitudes
        worst = max(worst, float(np.linalg.norm(exact - stepped)))
        assert np.linalg.norm(exact - stepped) <= 1e-7
    p = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
    psi = TwoSpinState.normalized([0.2, -0.4 + 0.1j, 0.8, 0.3j])
    exact = evolve_exact(p, psi, p.period).final_state.amplitudes
    err_coarse = np.linalg.norm(exact - evolve_stepped(p, psi, p.period, 1000).final_state.amplitudes)
    err_fine = np.linalg.norm(exact - evolve_stepped(p, psi, p.period, 2000).final_state.amplitudes)
    ratio = float(err_coarse / err_fine)
    assert ratio >= 12.0
    report(4, f"stepped propagation within 1e-7 of exact (worst {worst:.2e}); halving ratio {ratio:.1f}x")


def test_criterion_5_cyclic_ray_and_split():
    rng = np.random.default_rng(105)
    worst_split = 0.0
    for _ in range(12):
        p = random_symmetric(rng, 0.3, 1.5)
        system = tilde_eigensystem(p)
        tau = p.period
        for n in (1, 2, 3, 4):
            start = system.state(n)
            final = evolve_exact(p, start, tau).final_state
            overlap = start.overlap(final)
            assert abs(overlap) >= 1.0 - 1e-12
            assert circ_dist(float(np.angle(overlap)), -system.energy(n) * tau) <= 1e-10
            dyn = numeric_dynamical_phase(p, start, tau, 2000)
            split_gap = abs(dyn + aa_phase(p, n) - (-system.energy(n) * tau))
            worst_split = max(worst_split, split_gap)
            assert split_gap <= 1e-6
    report(5, f"cycling rays return with total phase -E~*tau; split gap <= {worst_split:.2e}")


def test_criterion_6_total_phase_cancellation():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        p = random_symmetric(rng, 0.1, 2.0)
        res = run_aa_two_cycle(p, random_state(rng))
        worst = max(worst, res.identity_defect)
        assert res.identity_defect <= 1e-12
    report(6, f"two-cycle total-phase cancellation identity defect <= {worst:.2e} over 100 draws")


def test_criterion_7_adiabatic_two_cycle_convergence():
    base = SpinParams.symmetric(1.0, 1.0, 1.0, 0.1)
    speeds = (0.2, 0.1, 0.05, 0.025)
    for n in (1, 2, 3):
        start = eigensystem(base, 0.0).state(n)
        target = 2.0 * berry_phase(1.0, 1.0, 1.0, n)
        devs = []
        for omega1 in speeds:
            res = run_adiabatic_two_cycle(base.replace(omega1=omega1), start)
            phase = float(np.angle(start.overlap(res.final_state)))
            devs.append(circ_dist(phase, target))
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)), devs
    singlet = eigensystem(base, 0.0).state(4)
    for omega1 in speeds:
        res = run_adiabatic_two_cycle(base.replace(omega1=omega1), singlet)
        phase = float(np.angle(singlet.overlap(res.final_state)))
        assert circ_dist(phase, 0.0) <= 1e-10
    report(7, "two-cycle phase error decreases monotonically; singlet phase 0 at every speed")


def test_criterion_8_symmetry_relations():
    rng = np.random.default_rng(108)
    for _ in range(120):
        p = random_symmetric(rng)
        scale = max(1.0, abs(p.omega0), abs(p.gamma), abs(p.J))
        plus = triplet_energies(p.omega0, p.gamma, p.J)
        minus = triplet_energies(p.omega0, p.gamma, -p.J)
        assert abs(minus[0] + plus[1]) <= 1e-10 * scale
        assert abs(minus[1] + plus[0]) <= 1e-10 * scale
        assert abs(minus[2] + plus[2]) <= 1e-10 * scale
        assert abs(singlet_energy(-p.J) + singlet_energy(p.J)) == 0.0
        sys_plus = eigensystem(p, 0.0)
        sys_minus = eigensystem(
            SpinParams.symmetric(-p.omega0, -p.gamma, -p.J, p.omega1), 0.0
        )
        exchange = {1: 2, 2: 1, 3: 3, 4: 4}
        for n in (1, 2, 3, 4):
            overlap = abs(sys_minus.state(exchange[n]).overlap(sys_plus.state(n)))
            assert overlap >= 1.0 - 1e-10
    # negative control at generic parameters: flipping only omega0 and J
    a = eigensystem(SpinParams.symmetric(1.0, 1.0, 1.0), 0.0)
    b = eigensystem(SpinParams.symmetric(-1.0, 1.0, -1.0), 0.0)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            assert abs(b.state(n).overlap(a.state(m))) < 1.0 - 1e-6
    report(8, "sign-reversal relations hold to 1e-10; partial flip breaks the hand-off")


def test_criterion_9_cli_determinism(tmp_path):
    args = [
        sys.executable,
        "-m",
        "twospin",
        "sweep",
        "--axis",
        "omega0=0.5:2.5:5",
        "--axis",
        "J=-1:1:5",
        "--quantity",
        "twocycle-defect",
        "--gamma",
        "1",
        "--omega1",
        "0.1",
    ]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        res = subprocess.run(args + ["--out", str(path)], capture_output=True)
        assert res.returncode == 0, res.stderr
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    lines = first.decode().strip().splitlines()
    assert lines[0] == "omega0,J,identity_defect"
    assert len(lines) == 26  # header + 5x5 grid
    defects = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert max(defects) <= 1e-12
    report(9, f"sweep byte-identical across runs; 25 grid defects <= {max(defects):.2e}")
