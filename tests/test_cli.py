import json
import math
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from twospin import (
    PARAM_GROUPS,
    SpinParams,
    TwoSpinState,
    aa_breakdown,
    adiabatic_phases,
    cli,
    evolution,
    phases,
    principal_value,
    run_aa_two_cycle,
    singlet_energy,
    spectral,
    triplet_energies,
    twocycle,
)
from support import (
    kron_hamiltonian,
    scaled_spectrum_oracle,
    triplet_block_oracle,
)

EPS = float(np.finfo(float).eps)


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestSpectrumCommand:
    def test_decoupled_values(self, capsys):
        code, out, _ = run_main(["spectrum", "--omega0", "1", "--gamma", "1", "--J", "0"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "energy"]
        values = {int(r[0]): float(r[1]) for r in rows}
        assert values[1] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert values[2] == pytest.approx(-math.sqrt(2.0), abs=1e-9)
        assert values[3] == pytest.approx(0.0, abs=1e-9)
        assert values[4] == pytest.approx(0.0, abs=1e-9)

    def test_singlet_row_present(self, capsys):
        code, out, _ = run_main(["spectrum", "--J", "1", "--omega1", "0.1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[3][1]) == pytest.approx(-0.5)

    def test_unequal_couplings_usage_error(self, capsys):
        code, out, err = run_main(["spectrum", "--omega-a0", "1", "--omega-b0", "2"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["exit_code"] == 2

    # Every closed-form eigenstate refuses unequal couplings with the message of SpinParams.omega0 or .gamma.
    @pytest.mark.parametrize(
        "command, pair, name",
        [
            (["twocycle", "--scheme", "aa"], ["--omega-a0", "1", "--omega-b0", "2", "--gamma", "0.5"], "omega0"),
            (["twocycle", "--scheme", "aa"], ["--omega0", "1", "--gamma-a", "1", "--gamma-b", "2"], "gamma"),
            (["evolve", "--initial", "eigen1"], ["--omega-a0", "1", "--omega-b0", "2", "--gamma", "0.5"], "omega0"),
            (["evolve", "--initial", "tilde2"], ["--omega0", "1", "--gamma-a", "1", "--gamma-b", "2"], "gamma"),
        ],
    )
    def test_unequal_couplings_refused_by_the_eigenbases(self, capsys, command, pair, name):
        message = f"{name} is only defined for equal couplings"
        argv = [*command, *pair, "--J", "0.3", "--omega1", "0.6"]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestPhasesCommand:
    def test_no_cycle_is_usage_error(self, capsys):
        code, out, err = run_main(["phases", "--omega0", "1", "--gamma", "1", "--J", "1"], capsys)
        assert code == 2 and out == ""
        assert "omega1" in json.loads(err)["error"]

    def test_berry_rows(self, capsys):
        code, out, _ = run_main(
            ["phases", "--omega0", "1", "--gamma", "1", "--J", "1", "--omega1", "0.1"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == cli._PHASE_COLUMNS
        assert len(rows) == 4
        geometric = {int(r[0]): float(r[3]) for r in rows}
        assert geometric[1] == pytest.approx(5.473403608711894, abs=1e-9)
        assert geometric[4] == 0.0
        for r in rows:
            assert -math.pi < float(r[4]) <= math.pi

    def test_aa_resonance_geometric_zero(self, capsys):
        code, out, _ = run_main(
            ["phases", "--mode", "aa", "--omega0", "0.4", "--gamma", "1.2", "--J", "0.9", "--omega1", "0.4"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r[3]) == pytest.approx(0.0, abs=1e-9)

    def test_principal_columns_wrap_the_raw_columns(self, capsys):
        args = ["phases", "--omega0", "1", "--gamma", "1", "--J", "1", "--omega1", "0.1"]
        code, out, _ = run_main(args, capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[1:4] == ["total_raw", "dynamical_raw", "geometric_raw"]
        for n, row in enumerate(rows, start=1):
            raw = adiabatic_phases(SpinParams.symmetric(1.0, 1.0, 1.0, 0.1), n)
            wrapped = [principal_value(v) for v in (raw.total, raw.dynamical, raw.geometric)]
            assert row[4:] == [f"{v + 0.0:.12e}" for v in wrapped]
            assert all(-math.pi < float(v) <= math.pi for v in row[4:])


class TestEvolveCommand:
    def test_singlet_full_period(self, capsys):
        code, out, _ = run_main(
            [
                "evolve",
                "--initial",
                "singlet",
                "--J",
                "1",
                "--omega1",
                "0.1",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["fidelity_vs_initial"] == pytest.approx(1.0, abs=1e-12)
        # J*tau/2 = 10*pi, so the returned principal phase is ~0
        assert doc["phase_vs_initial"] == pytest.approx(0.0, abs=1e-9)
        assert doc["method"] == "exact"

    def test_amplitude_list_and_steps(self, capsys):
        code, out, _ = run_main(
            [
                "evolve",
                "--initial",
                "1,0,1,0,0,0,0,0",
                "--omega0",
                "1",
                "--gamma",
                "1",
                "--J",
                "1",
                "--omega1",
                "0.5",
                "--time",
                "2.0",
                "--steps",
                "400",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "stepped" and doc["step_count"] == 400
        probs = [row[3] for row in doc["rows"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_named_eigenstate_initial(self, capsys):
        code, out, _ = run_main(
            [
                "evolve",
                "--initial",
                "tilde2",
                "--omega0",
                "1",
                "--gamma",
                "1",
                "--J",
                "1",
                "--omega1",
                "0.1",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fidelity_vs_initial"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_initial(self, capsys):
        code, _, err = run_main(["evolve", "--initial", "nope", "--omega1", "0.1"], capsys)
        assert code == 2
        assert "initial" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("1,0,0,0,0,0,0,x", "bad amplitude list '1,0,0,0,0,0,0,x'"),
            ("1,0,0", "unknown initial state '1,0,0'; use uu/ud/du/dd/singlet, eigenN, tildeN "
             "or 8 comma-separated re,im values"),
        ],
    )
    def test_bad_initial_is_refused(self, capsys, spec, message):
        argv = ["evolve", f"--initial={spec}", "--omega1", "0.1"]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    # The amplitudes are scaled by a power of two before their norm, so no vector is lost to overflow or
    # underflow; a non-finite entry is refused before any arithmetic, without a NumPy warning.
    HALF_UU_UD = (
        "component,re,im,probability\n"
        "uu,7.071067811865e-01,0.000000000000e+00,5.000000000000e-01\n"
        "ud,7.071067811865e-01,0.000000000000e+00,5.000000000000e-01\n"
        "du,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00\n"
        "dd,0.000000000000e+00,0.000000000000e+00,0.000000000000e+00\n"
    )

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("inf,0,0,0,0,0,0,0", (2, "", '{"error": "non-finite entries are not admitted", "exit_code": 2}\n')),
            ("0,0,0,0,0,0,0,0", (2, "", '{"error": "cannot normalize the zero vector", "exit_code": 2}\n')),
            ("1e300,0,1e300,0,0,0,0,0", (0, HALF_UU_UD, "")),
            ("1e-160,0,1e-160,0,0,0,0,0", (0, HALF_UU_UD, "")),
            ("1e-170,0,1e-170,0,0,0,0,0", (0, HALF_UU_UD, "")),
            ("1.7e308,0,1.7e308,0,0,0,0,0", (0, HALF_UU_UD, "")),
            ("5e-324,0,5e-324,-0,0,0,0,0", (0, HALF_UU_UD, "")),
        ],
    )
    def test_amplitude_lists_of_any_finite_scale(self, capsys, spec, expected):
        assert run_main(["evolve", f"--initial={spec}", "--omega1", "1"], capsys) == expected

    # |t| * 8 / shortest period overflows; the count reads inf instead of failing in math.ceil (exit 4).
    @pytest.mark.parametrize(
        "argv, t",
        [
            (["evolve", "--omega1", "1", "--time", "1e308", "--steps", "10"], "1e+308"),
            (["twocycle", "--scheme", "adiabatic", "--omega0", "1", "--gamma", "1", "--J", "1", "--omega1", "1e-307",
              "--steps", "10"], "6.283185307179587e+307"),
        ],
    )
    def test_an_overflowing_step_count_is_a_budget_refusal(self, capsys, argv, t):
        message = f"step budget too small: need at least inf steps for t={t}"
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    def test_missing_time_without_cycle(self, capsys):
        code, _, err = run_main(["evolve", "--omega0", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_time_refused_before_numerics(self, capsys, monkeypatch, time):
        def no_numerics(*args):
            raise AssertionError("numerics ran on a non-finite time")

        for name in ("eigensystem", "evolve_exact", "evolve_stepped"):
            monkeypatch.setattr(cli, name, no_numerics)
        code, out, err = run_main(["evolve", "--initial", "eigen1", f"--time={time}", "--omega1", "0.1"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": f"time must be finite, got {float(time)!r}", "exit_code": 2}


class TestTwocycleCommand:
    P = ["--omega0", "1", "--gamma", "0.8", "--J", "0.6"]

    def test_aa_total_equals_the_phases_total_at_the_float_range_edge(self, capsys):
        # gamma = 0 puts every label on the fallback; at omega0 - omega1 = 2**1023, H(0) at that detuning would
        # overflow (2**1023 + 2**1023), but both tables read H_rot, which does not: the table's total is
        # _cycle_phases', so both commands print the same one-cycle totals
        point = ["--omega0", repr(2.0**1023 - 2.0**970), "--omega1", "-2e293", "--gamma", "0", "--J", "0"]
        commands = (["twocycle", "--scheme", "aa", *point], ["phases", "--mode", "aa", *point])
        (code, out, err), (phases_code, phases_out, phases_err) = (run_main(argv, capsys) for argv in commands)
        assert (code, err, phases_code, phases_err) == (0, "", 0, "")
        rows, phases_rows = parse_csv(out)[1], parse_csv(phases_out)[1]
        assert [row[1:3] for row in rows] == [[row[1], row[4]] for row in phases_rows]
        assert float(rows[0][1]) < -1e15

    def test_aa_defect_column(self, capsys):
        code, out, _ = run_main(
            ["twocycle", "--scheme", "aa", "--omega0", "1", "--gamma", "1", "--J", "1", "--omega1", "0.1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "identity_defect"
        assert len(rows) == 4
        for r in rows:
            assert float(r[-1]) <= 1e-12
            assert abs(float(r[3])) <= 1e-10  # two-cycle phase vanishes

    def test_adiabatic_singlet_row(self, capsys):
        code, out, _ = run_main(
            [
                "twocycle",
                "--scheme",
                "adiabatic",
                "--omega0",
                "1",
                "--gamma",
                "1",
                "--J",
                "1",
                "--omega1",
                "0.1",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        singlet_row = rows[3]
        assert float(singlet_row[1]) == pytest.approx(0.0, abs=1e-10)  # phase
        assert float(singlet_row[4]) == pytest.approx(1.0, abs=1e-12)  # fidelity

    def test_omega1_sweep_trend_table(self, capsys):
        code, out, _ = run_main(
            [
                "twocycle",
                "--scheme",
                "adiabatic",
                "--omega1-sweep",
                "0.1,0.05",
                "--omega0",
                "1",
                "--gamma",
                "1",
                "--J",
                "1",
                "--omega1",
                "0.1",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["omega1", "n", "phase", "target", "circular_deviation"]
        assert len(rows) == 8
        dev_n1 = {float(r[0]): float(r[4]) for r in rows if r[1] == "1"}
        assert dev_n1[0.05] < dev_n1[0.1]

    @pytest.mark.parametrize("omega1", ["0.025", "-0.025"])
    def test_adiabatic_target_in_both_rotation_senses(self, capsys, omega1):
        code, out, _ = run_main(
            ["twocycle", "--scheme", "adiabatic", "--omega0", "1", "--gamma", "1", "--J", "1",
             "--omega1", omega1],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert float(r[3]) <= 5e-3  # circular deviation of phase from target

    def test_invalid_scheme_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["twocycle", "--scheme", "bogus", "--omega1", "0.1"])
        assert exc.value.code == 2

    def test_library_call_refuses_an_unknown_scheme(self):
        with pytest.raises(ValueError, match="^scheme must be adiabatic or aa, got 'x'$"):
            cli.cmd_twocycle(SpinParams.symmetric(1.0, 0.5, 0.3, 0.6), scheme="x")

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        return calls

    def test_aa_solves_its_rotating_frame_once(self, capsys, monkeypatch):
        # the starts and the one-cycle total read one spectral._solve, as the eigenbases and the phase table
        calls = [self._count_calls(monkeypatch, module, "_solve") for module in (spectral, phases)]
        argv = ["twocycle", "--scheme", "aa", "--omega0", "0.4", "--gamma", "0", "--J", "0.9", "--omega1", "0.4"]
        assert run_main(argv, capsys)[0] == 0
        assert [len(module_calls) for module_calls in calls] == [1, 0]

    def test_aa_builds_one_propagator(self, capsys, monkeypatch):
        # the second cycle is derived from the first (twocycle._aa_two_cycles), so one rotating-frame solve runs
        calls = self._count_calls(monkeypatch, twocycle, "_propagators")
        code, _, _ = run_main(
            ["twocycle", "--scheme", "aa", "--omega0", "1", "--gamma", "0.8", "--J", "0.6", "--omega1", "0.3"],
            capsys,
        )
        assert code == 0
        assert [len(columns["J"]) for columns, _ in calls] == [1]

    def test_exact_omega1_list_builds_one_stack_per_cycle(self, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch, twocycle, "_propagators")
        code, out, _ = run_main(
            ["twocycle", "--scheme", "adiabatic", "--omega1-sweep=0.1,-0.05,0.025", *self.P], capsys
        )
        assert code == 0
        assert len(parse_csv(out)[1]) == 12
        assert [len(columns["J"]) for columns, _ in calls] == [3, 3]

    @pytest.mark.parametrize(
        "values, code, message",
        [
            ("0.1,nan,0", 2, "omega1 must be finite, got nan"),
            ("0.1,inf,0", 2, "omega1 must be finite, got inf"),
            ("0.1,0,nan", 2, "cycle protocols need omega1 != 0"),
            ("0.2,5e-324,0", 2, "omega1 = 5e-324 is too small: the period 2*pi/|omega1| is not finite"),
            ("0.3,1e-14", 4, "propagator phase 3.204e+16 rad is too large to resolve (limit 2**52)"),
            ("0.1,x,0", 2, "bad --omega1-sweep list '0.1,x,0'"),
        ],
    )
    def test_first_failing_omega1_in_list_order_raises(self, capsys, values, code, message):
        argv = ["twocycle", "--scheme", "adiabatic", f"--omega1-sweep={values}", "--J", "1e2", "--omega0", "1"]
        assert run_main(argv, capsys) == (code, "", json.dumps({"error": message, "exit_code": code}) + "\n")

    # With unequal couplings and omega1 = 0, the AA scheme refuses the rotation
    # first and the adiabatic scheme the couplings, which its gate needs first.
    @pytest.mark.parametrize(
        "scheme, message",
        [("aa", "cycle protocols need omega1 != 0"), ("adiabatic", "omega0 is only defined for equal couplings")],
    )
    def test_refusal_order_without_rotation(self, capsys, scheme, message):
        argv = ["twocycle", "--scheme", scheme, *self.P, "--omega-a0", "1.3"]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    @pytest.mark.parametrize("scheme", ["adiabatic", "aa"])
    @pytest.mark.parametrize("values", [",", ""])
    def test_empty_omega1_list_exits_2(self, capsys, scheme, values):
        code, out, err = run_main(["twocycle", "--scheme", scheme, "--omega1-sweep", values, *self.P], capsys)
        assert (code, out) == (2, "")
        assert "--omega1-sweep" in json.loads(err)["error"]

    @pytest.mark.parametrize("scheme", ["adiabatic", "aa"])
    def test_negative_steps_exit_2(self, capsys, scheme):
        argv = ["twocycle", "--scheme", scheme, "--omega1", "0.3", "--steps", "-3", *self.P]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": "steps must be >= 0", "exit_code": 2}) + "\n")

    def test_adiabatic_sweep_builds_one_pair_per_omega1(self, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch, twocycle, "_stepped_propagators")
        exact = self._count_calls(monkeypatch, twocycle, "_propagators")
        code, out, _ = run_main(
            ["twocycle", "--scheme", "adiabatic", "--omega1-sweep", "0.4,0.3", "--steps", "200", *self.P,
             "--omega1", "0.3"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(out)[1]) == 8
        assert [(len(t), steps) for _, t, steps in calls] == [(4, 200)]  # both cycles of both omega1 values
        assert exact == []

    # The RK4 singlet phase is rounding only: the singlet is an eigenstate of both cycles with
    # opposite dynamical phases, so the stepped rows read about 4e-15 where the exact ones read 0.
    @pytest.mark.parametrize("sweep, steps", [("-0.1,0.05", "300"), ("0.5,-0.5", "400")])
    def test_stepped_singlet_phase_is_rounding_in_both_senses(self, capsys, sweep, steps):
        argv = ["twocycle", "--scheme", "adiabatic", f"--omega1-sweep={sweep}", *self.P, "--steps", steps]
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        singlet = [row for row in parse_csv(out)[1] if row[1] == "4"]
        assert sorted(float(row[0]) < 0.0 for row in singlet) == [False, True]
        assert all(abs(float(row[2])) <= 1e-13 for row in singlet)

    def test_step_budget_of_the_first_failing_omega1_raises(self, capsys):
        argv = ["twocycle", "--scheme", "adiabatic", "--omega1-sweep=0.4,0.01,0.3", "--steps", "200", *self.P]
        message = "step budget too small: need at least 1196 steps for t=628.3185307179587"
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    # The step budget is a stability floor, not an accuracy bound: the fewest steps it admits (100 here)
    # give a label-1 fidelity of 0.7449, where the exact propagators give 0.9980.
    def test_the_step_budget_admits_an_inaccurate_run(self, capsys):
        argv = ["twocycle", "--scheme", "adiabatic", "--omega0", "1", "--gamma", "0.5", "--J", "0.3", "--omega1", "0.1"]
        error = json.dumps({"error": "step budget too small: need at least 100 steps for t=62.83185307179586",
                            "exit_code": 2})
        assert run_main(argv + ["--steps", "99"], capsys) == (2, "", error + "\n")
        fidelities = {}
        for steps in ("100", "0"):
            code, out, _ = run_main(argv + ["--steps", steps], capsys)
            assert code == 0
            fidelities[steps] = round(float(parse_csv(out)[1][0][4]), 4)
        assert fidelities == {"100": 0.7449, "0": 0.998}

    def test_aa_refuses_steps(self, capsys):
        argv = ["twocycle", "--scheme", "aa", "--omega1", "0.3", "--steps", "200", *self.P]
        message = "--steps applies to the adiabatic scheme only; the aa scheme is exact"
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    @pytest.mark.parametrize(
        "command",
        [["twocycle", "--scheme", "adiabatic"], ["twocycle", "--scheme", "aa"], ["evolve", "--initial", "eigen1"]],
    )
    def test_overflowing_fallback_hamiltonian_is_a_numeric_failure(self, capsys, command):
        # every label takes the fallback (omega0 = J is a crossing, E1 is beyond the float range); its H(0) entry
        # omega0/2 + omega0/2 + J/2 overflows. Once refused as a non-finite closed-form eigenvector.
        argv = [*command, "--omega0=1.7e308", "--gamma=0.457", "--J=1.7e308", "--omega1=0.6"]
        message = "a Hamiltonian entry overflows the float range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(argv, capsys) == (4, "", json.dumps({"error": message, "exit_code": 4}) + "\n")


    @pytest.mark.parametrize(
        "command",
        [
            ["twocycle", "--scheme", "aa"],
            ["evolve", "--initial", "tilde1", "--time", "0"],
            ["phases", "--mode", "aa"],
            ["sweep", "--quantity", "aa", "--axis", "J=0:1:2"],
            ["sweep", "--quantity", "twocycle-defect", "--axis", "J=0:1:2"],
        ],
    )
    def test_overflowing_rotating_frame_detuning_is_a_numeric_failure(self, capsys, command):
        # omega0 - omega1 overflows, so an H_rot diagonal entry +-(omega0 - omega1) + J/2 does: every path
        # refuses it as the Hamiltonian builder does, without a warning. Once three messages, two of them
        # about the nan energies and phases of an infinite detuning.
        argv = [*command, "--omega0=1e308", "--gamma=0.3", "--omega1=-1e308"]
        message = "a Hamiltonian entry overflows the float range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(argv, capsys) == (4, "", json.dumps({"error": message, "exit_code": 4}) + "\n")


    def test_huge_finite_detuning_on_the_fallback_prints_no_warning(self, capsys):
        # omega0 - omega1 = 1.35e308 is finite, and label 1 is uu to the last bit, so the fallback runs; a wrong
        # label permutation's energy distance overflows there. Once two RuntimeWarnings on stderr.
        argv = ["evolve", "--initial", "tilde1", "--time", "0", "--omega0=8.144283528486894e+307",
                "--gamma=-0.3661071783200054", "--J=-1.8188992243902193", "--omega1=-5.331098918124436e+307"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "uu,1.000000000000e+00,0.000000000000e+00,1.000000000000e+00"


class TestSweepCommand:
    BASE = ["--omega0", "1", "--gamma", "1", "--omega1", "0.1"]

    def test_berry_sweep_shape(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_main(
            ["sweep", "--axis", "J=0:2:3", "--quantity", "berry", "--out", str(out_file)]
            + self.BASE,
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header[0] == "J" and header[1] == "n"
        assert len(rows) == 12  # 3 grid points x 4 labels
        assert [r[0] for r in rows[:4]] == ["0.000000000000e+00"] * 4

    def test_json_schema(self, capsys, tmp_path):
        out_file = tmp_path / "rows.json"
        code, _, _ = run_main(
            [
                "sweep",
                "--axis",
                "J=0:1:2",
                "--quantity",
                "spectrum",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
            + self.BASE,
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema_version"] == 1
        assert doc["command"] == "sweep"
        assert doc["params"]["omega_a0"] == 1.0
        assert doc["columns"] == ["J", "n", "energy"]
        assert len(doc["rows"]) == 8

    def test_defect_sweep_values(self, capsys, tmp_path):
        out_file = tmp_path / "defects.csv"
        code, _, _ = run_main(
            [
                "sweep",
                "--axis",
                "omega0=0.5:2.0:2",
                "--axis",
                "J=-1:1:2",
                "--quantity",
                "twocycle-defect",
                "--out",
                str(out_file),
            ]
            + self.BASE,
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header == ["omega0", "J", "identity_defect"]
        assert len(rows) == 4
        for r in rows:
            assert float(r[-1]) <= 1e-12

    def test_bad_axis_syntax(self, capsys):
        code, _, err = run_main(
            ["sweep", "--axis", "J=0:2", "--quantity", "berry"] + self.BASE, capsys
        )
        assert code == 2

    def test_unknown_axis_field(self, capsys):
        code, _, err = run_main(
            ["sweep", "--axis", "tau=0:1:2", "--quantity", "berry"] + self.BASE, capsys
        )
        assert code == 2

    @pytest.mark.filterwarnings("error")  # a NumPy warning would land on stderr ahead of the error object
    @pytest.mark.parametrize("axis", ["J=0:inf:3", "J=nan:1:3", "J=-inf:0:1", "J=-1e308:1e308:3"])
    def test_non_finite_axis_bound_rejected(self, capsys, axis):
        code, out, err = run_main(["sweep", "--axis", axis, "--quantity", "spectrum"] + self.BASE, capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        message = f"axis bounds and their span must be finite, got {axis!r}"
        assert json.loads(err) == {"error": message, "exit_code": 2}

    def test_descending_axis_rejected(self, capsys):
        code, _, _ = run_main(
            ["sweep", "--axis", "J=2:0:3", "--quantity", "berry"] + self.BASE, capsys
        )
        assert code == 2

    def test_unwritable_path_exits_3(self, capsys):
        code, _, err = run_main(
            ["sweep", "--axis", "J=0:1:2", "--quantity", "spectrum", "--out", "/nonexistent/x.csv"]
            + self.BASE,
            capsys,
        )
        assert code == 3
        assert json.loads(err)["exit_code"] == 3

    def test_missing_quantity_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--axis", "J=0:1:2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "axes",
        [["--axis", "J=0:1:1000000000"], ["--axis", "J=0:1:1000", "--axis", "gamma=0:1:1000"]],
    )
    def test_grid_cap_checked_before_values_are_built(self, capsys, monkeypatch, axes):
        def no_linspace(*args, **kwargs):
            raise AssertionError("axis values built before the grid cap was checked")

        monkeypatch.setattr(np, "linspace", no_linspace)
        code, out, err = run_main(["sweep", "--quantity", "spectrum", *axes] + self.BASE, capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["exit_code"] == 2
        assert str(cli.MAX_GRID_POINTS) in error["error"]

    def test_grid_cap_counts_the_product(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 6)
        args = ["sweep", "--quantity", "spectrum", "--axis", "J=0:1:2"] + self.BASE
        assert run_main(args + ["--axis", "gamma=0:1:3"], capsys)[0] == 0
        assert run_main(args + ["--axis", "gamma=0:1:4"], capsys)[0] == 2

    @pytest.mark.parametrize(
        "axes, message",
        [
            (["J=0:1:3", "J=5:6:2"], "sweep axes 'J' and 'J' both set J"),
            (["omega0=0:1:3", "omega_a0=5:6:2"], "sweep axes 'omega0' and 'omega_a0' both set omega_a0"),
            (["gamma_b=0:1:2", "J=0:1:2", "gamma=1:2:2"], "sweep axes 'gamma_b' and 'gamma' both set gamma_b"),
        ],
    )
    def test_axes_that_set_one_field_are_refused(self, capsys, axes, message):
        argv = ["sweep", "--quantity", "spectrum", "--omega0", "1", *(f"--axis={axis}" for axis in axes)]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    @pytest.mark.parametrize(
        "axes, message",
        [
            (["J=0:1:3", "J=2:0:3"], "axis start must be <= stop"),
            (["J=0:1:3", "J=0:1:1000000000"], "sweep axes 'J' and 'J' both set J"),
            (["J=0:1:3", "J=0:x:3"], "bad axis numbers in 'J=0:x:3'"),
            (["J=0:1:3", "J=0:1:2.5"], "bad axis numbers in 'J=0:1:2.5'"),
            (["J=0:1:3", "J=0:1:0"], "axis count must be >= 1"),
        ],
    )
    def test_overlap_is_checked_after_each_axis_and_before_the_grid_cap(self, capsys, axes, message):
        argv = ["sweep", "--quantity", "spectrum", "--omega0", "1", *(f"--axis={axis}" for axis in axes)]
        assert run_main(argv, capsys) == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    def test_per_spin_axes_of_both_spins_run(self, capsys):
        argv = ["sweep", "--quantity", "twocycle-defect", "--axis", "omega_a0=0:1:2", "--axis", "omega_b0=1:2:2",
                "--gamma", "0.3", "--omega1", "0.5"]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert header == ["omega_a0", "omega_b0", "identity_defect"]
        assert [[float(v) for v in row[:2]] for row in rows] == [[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [1.0, 2.0]]

    def test_pair_alias_axis_sets_both_spins(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--quantity", "spectrum", "--axis", "gamma=0.5:0.7:2",
             "--gamma-a", "1", "--gamma-b", "2", "--omega0", "1", "--J", "0.3"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for gamma, block in (("0.5", rows[:4]), ("0.7", rows[4:])):
            _, expected = parse_csv(
                run_main(["spectrum", "--gamma", gamma, "--omega0", "1", "--J", "0.3"], capsys)[1]
            )
            assert [r[1:] for r in block] == expected


class TestBlockedSweep:
    """twocycle-defect sweeps run the stacked kernel on blocks of cli.SWEEP_BLOCK points."""

    UNEQUAL = SpinParams(1.3, 0.4, 0.8, 1.1, -0.6, -0.7)

    def test_defects_across_a_block_boundary_match_per_point_runs(self, monkeypatch):
        calls = TestTwocycleCommand._count_calls(monkeypatch, twocycle, "_propagators")
        n = cli.SWEEP_BLOCK + 1
        axes = [("J", list(np.linspace(-1.0, 1.0, n)))]
        columns, rows, _ = cli.cmd_sweep(axes, "twocycle-defect", self.UNEQUAL)
        assert [len(columns["J"]) for columns, _ in calls] == [cli.SWEEP_BLOCK, 1]
        assert columns == ["J", "identity_defect"] and len(rows) == n
        uu = TwoSpinState.basis_state("uu")
        for (J, defect), expected_J in zip(rows, axes[0][1]):
            assert J == expected_J
            assert defect == run_aa_two_cycle(self.UNEQUAL.replace(J=J), uu).identity_defect

    def test_omega1_list_across_a_block_boundary_matches_single_point_tables(self, monkeypatch):
        calls = TestTwocycleCommand._count_calls(monkeypatch, twocycle, "_propagators")
        base = SpinParams.symmetric(1.0, 0.8, 0.6, 0.3)
        values = [w1 * (-1) ** i for i, w1 in enumerate(np.linspace(0.05, 0.5, cli.SWEEP_BLOCK + 1).tolist())]
        columns, rows, _ = cli.cmd_twocycle(base, "adiabatic", 0, values)
        assert [len(columns["J"]) for columns, _ in calls] == [cli.SWEEP_BLOCK, cli.SWEEP_BLOCK, 1, 1]
        assert columns == ["omega1", "n", "phase", "target", "circular_deviation"]
        expected = [
            [w1, *row[:4]] for w1 in values for row in cli.cmd_twocycle(base.replace(omega1=w1), "adiabatic")[1]
        ]
        assert _bits(rows) == _bits(expected)

    DEFECT = ["sweep", "--quantity", "twocycle-defect", "--omega0", "1", "--gamma", "1"]

    # Exit codes and stderr bytes of the point-by-point sweep; the kernel checks
    # omega1 = 0 before the phase limit, so a block holding both must be rerun.
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--axis", "omega1=-1:0:2", "--J", "1e200"], 4,
             "propagator phase 3.142e+200 rad is too large to resolve (limit 2**52)"),
            (["--axis", "omega1=0:1:2", "--J", "1e200"], 2, "cycle protocols need omega1 != 0"),
            # point 682 of 700 is the first whose phase is lost; point 699 has omega1 = 0
            (["--axis", "omega1=-1e-13:0:700", "--J", "1"], 4,
             "propagator phase 4.513e+15 rad is too large to resolve (limit 2**52)"),
            (["--axis", "J=0:1e200:2", "--axis", "gamma=0:1:600", "--omega1", "0.5"], 4,
             "propagator phase 6.283e+200 rad is too large to resolve (limit 2**52)"),
        ],
    )
    def test_first_failing_point_in_grid_order_raises(self, capsys, argv, code, message):
        assert cli.SWEEP_BLOCK <= 600  # the last two cases fail first in a later block
        for fmt in ([], ["--format", "json"]):
            assert run_main(self.DEFECT + argv + fmt, capsys) == (
                code, "", json.dumps({"error": message, "exit_code": code}) + "\n"
            )


class TestHalving:
    """cli._walk reruns a failing block by halves, the first half first, down to one point."""

    @staticmethod
    def _walk(n, refused, pool=lambda points: False):
        """The walk of a fake block function over the points J = 0..n-1, or the text of what it raised, and the size
        of each call. The function refuses a call holding a point of refused and names the last one held, so
        only a one-point call names the first; it also refuses every call for which pool(points) holds."""
        sizes = []

        def block_rows(columns):
            points = columns["J"]
            sizes.append(len(points))
            held = points[np.isin(points, refused)]
            if len(held) or pool(points):
                raise ValueError(f"point {held[-1] if len(held) else -1:.0f}")
            return np.stack([points, -points], axis=-1)[:, None, :]

        try:
            return cli._walk([("J", np.arange(n, dtype=float).tolist())], block_rows, SpinParams.symmetric(1.0, 0.5, 0.3, 0.2)), sizes
        except ValueError as exc:
            return str(exc), sizes

    @pytest.mark.parametrize("refused", [[3, 400], [400, 3], [255, 256], [510, 511], [0, 1], [600, 513], [700, 999]])
    def test_the_earlier_of_two_failing_points_raises(self, refused):
        assert cli.SWEEP_BLOCK == 512  # the last two pairs sit in the second block, one pair in each half
        assert self._walk(1000, refused)[0] == f"point {min(refused)}"

    def test_a_block_failing_at_row_506_takes_at_most_19_calls(self):
        message, sizes = self._walk(cli.SWEEP_BLOCK, [506])
        assert message == "point 506" and len(sizes) <= 19 and sizes[-1] == 1

    def test_passing_halves_give_the_block_s_rows(self):
        # every call of more than 100 points fails, although no point does: the walk is the halves' tables
        table, sizes = self._walk(1000, [], pool=lambda points: len(points) > 100)
        whole = np.arange(1000.0)
        assert table.tolist() == np.column_stack([whole, whole, -whole]).tolist()
        assert max(size for size in sizes if size <= 100) == 64 and sizes.count(1) == 0


def _bits(table):
    """A float table as the bit patterns of its entries, so == compares every bit (the sign of zero
    included); a list of rows with integer entries reads as the float table it stands for."""
    return np.asarray(table, dtype=float).view(np.int64).tolist()


class TestClosedFormBlocks:
    """spectrum, berry and aa sweeps call the closed-form kernel once per cli.SWEEP_BLOCK points."""

    # The gamma axis -1..1 in SWEEP_BLOCK + 1 steps holds gamma = 0, the
    # fallback; berry runs backwards, and aa sits at omega0 = omega1, where the
    # shifted detuning vanishes.
    BASE = {
        "spectrum": SpinParams.symmetric(0.7, 0.0, -0.6, 0.3),
        "berry": SpinParams.symmetric(1.0, 0.0, 0.6, -0.3),
        "aa": SpinParams.symmetric(0.4, 0.0, 0.9, 0.4),
    }

    @staticmethod
    def _point_rows(quantity, params):
        """The rows of one point, from the public N = 1 functions."""
        if quantity == "spectrum":
            energies = (*triplet_energies(params.omega0, params.gamma, params.J), singlet_energy(params.J))
            return [[n, energy] for n, energy in enumerate(energies, start=1)]
        breakdown = adiabatic_phases if quantity == "berry" else aa_breakdown
        rows = []
        for n in (1, 2, 3, 4):
            raw = breakdown(params, n)
            parts = [raw.total, raw.dynamical, raw.geometric]
            rows.append([n, *parts, *map(principal_value, parts)])
        return rows

    @pytest.mark.parametrize("quantity", ["spectrum", "berry", "aa"])
    def test_rows_across_a_block_boundary_match_the_n1_functions(self, quantity, monkeypatch):
        module = cli if quantity == "spectrum" else spectral  # phases reads spectral._solve
        calls = TestTwocycleCommand._count_calls(monkeypatch, module, "_closed_form")
        base = self.BASE[quantity]
        gammas = list(np.linspace(-1.0, 1.0, cli.SWEEP_BLOCK + 1))
        columns, rows, _ = cli.cmd_sweep([("gamma", gammas)], quantity, base)
        assert [len(omega0) for omega0, _, _ in calls] == [cli.SWEEP_BLOCK, 1]
        assert columns[0] == "gamma" and rows.dtype == float and rows.shape == (4 * len(gammas), len(columns))
        expected = [
            [gamma, *row]
            for gamma in gammas
            for row in self._point_rows(quantity, base.replace(gamma_a=gamma, gamma_b=gamma))
        ]
        assert _bits(rows) == _bits(expected)

    # Exit codes and stderr bytes of the code that evaluated one point at a
    # time. Each grid fails first in its second block, at point 600 or later;
    # the period case raises, inside one block, an error that is not the first
    # one in grid order. The last three single points pin the refusal order:
    # omega1 = 0 before unequal couplings.
    @pytest.mark.parametrize(
        "quantity, argv, code, message",
        [
            ("spectrum", "--axis omega_b0=0:1:2 --axis gamma=0:1:600 --omega0 0 --J 0.5 --omega1 0.3", 2,
             "omega0 is only defined for equal couplings"),
            ("berry", "--axis omega_b0=0:1:2 --axis gamma=0:1:600 --omega0 0 --J 0.5 --omega1 0.3", 2,
             "omega0 is only defined for equal couplings"),
            ("aa", "--axis gamma_b=0:1:2 --axis J=0:1:600 --omega0 1 --omega1 0.3", 2,
             "gamma is only defined for equal couplings"),
            ("berry", "--axis omega1=-1:0:600 --omega0 1 --gamma 1 --J 0.5", 2,
             "adiabatic phases need omega1 != 0 (no cycle defined)"),
            ("aa", "--axis omega1=-1:0:600 --omega0 1 --gamma 1 --J 0.5", 2,
             "cycling phases need omega1 != 0 (no cycle defined)"),
            ("spectrum", "--axis omega0=0:1.5e308:2 --axis J=0:1e308:600 --gamma 0", 4,
             "non-finite value inf in output"),
            # point 600 has a period that overflows
            ("aa", "--axis omega1=-2:5e-324:2 --axis omega0=-1:5e-324:2 --axis J=6e-54:1:300", 2,
             "omega1 = 5e-324 is too small: the period 2*pi/|omega1| is not finite"),
            ("spectrum", "--axis omega1=0:0:1 --omega-a0 1 --omega-b0 2", 2,
             "omega0 is only defined for equal couplings"),
            ("berry", "--axis omega1=0:0:1 --omega-a0 1 --omega-b0 2", 2,
             "adiabatic phases need omega1 != 0 (no cycle defined)"),
            ("aa", "--axis omega1=0:0:1 --omega-a0 1 --omega-b0 2", 2,
             "cycling phases need omega1 != 0 (no cycle defined)"),
        ],
    )
    def test_first_failing_point_in_grid_order_raises(self, capsys, quantity, argv, code, message):
        assert cli.SWEEP_BLOCK <= 600
        for fmt in ([], ["--format", "json"]):
            assert run_main(["sweep", "--quantity", quantity, *argv.split(), *fmt], capsys) == (
                code, "", json.dumps({"error": message, "exit_code": code}) + "\n"
            )


    # Grids once refused as an overflowing J**3, a division by zero or an arccos argument beyond tolerance.
    # Every point is now computed: its energies equal the scaled diagonalization's, and its geometric phases
    # the triplet block's wherever the block's energies are distinct in floats (at J = 1e200 the levels
    # J/2 +- omega0 are equal).
    @pytest.mark.parametrize(
        "quantity, argv",
        [
            ("spectrum", "--axis J=0:1e200:2 --axis gamma=0:1:600 --omega0 1 --omega1 0.5"),
            ("berry", "--axis J=0:1e200:2 --axis gamma=0:1:600 --omega0 1 --omega1 0.5"),
            ("aa", "--axis J=0:1e200:2 --axis gamma=0:1:600 --omega0 1 --omega1 0.5"),
            ("spectrum", "--axis omega0=-1:1e-110:2 --axis gamma=0:1e-110:600 --J 0"),
            ("berry", "--axis omega0=-1:1e-110:2 --axis gamma=0:1e-110:600 --J 0 --omega1 0.5"),
            ("spectrum", "--axis omega0=-1:0:2 --axis J=-1:6e-54:300"),
        ],
    )
    def test_once_refused_grids_match_the_oracles(self, capsys, quantity, argv):
        argv = ["sweep", "--quantity", quantity, *argv.split()]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        args = cli._build_parser().parse_args(argv)
        base, axes = cli._resolve_params(args, {}), cli._parse_axes(args.axis)
        columns, rows, _ = cli.cmd_sweep(axes, quantity, base)
        assert len(out.splitlines()) == 1 + len(rows)
        fields = [name for name, _ in axes]
        for point in rows.reshape(-1, 4, len(columns)):
            p = base.replace(**{f: v for name, v in zip(fields, point[0]) for f in PARAM_GROUPS[name]})
            if quantity == "spectrum":
                scale = max(abs(p.omega0), abs(p.gamma), abs(p.J))
                error = np.abs(np.sort(point[:, -1]) - scaled_spectrum_oracle(p.omega0, p.gamma, p.J)).max()
                assert error <= 16.0 * EPS * scale + math.ulp(0.0)
                continue
            detuning = p.omega0 - p.omega1 if quantity == "aa" else p.omega0
            energies, berry = triplet_block_oracle(detuning, p.gamma, p.J)
            geometric = point[:, columns.index("geometric_raw")]
            assert geometric[3] == 0.0 and np.abs(geometric).max() <= 2.0 * math.pi
            if len(set(energies.tolist())) == 3:
                assert np.abs(geometric[:3] - np.sign(p.omega1) * berry).max() <= 1e-12

class TestPeriodOverflow:
    """An omega1 whose period 2*pi/|omega1| overflows is a parameter error (exit 2)."""

    ERROR = {"error": "omega1 = 5e-324 is too small: the period 2*pi/|omega1| is not finite", "exit_code": 2}

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve"],
            ["evolve", "--steps", "100"],
            ["phases", "--mode", "berry"],
            ["phases", "--mode", "aa"],
            ["twocycle", "--scheme", "aa"],
            ["twocycle", "--scheme", "adiabatic"],
            ["sweep", "--quantity", "twocycle-defect", "--axis", "gamma=0:1:3"],
            ["sweep", "--quantity", "berry", "--axis", "gamma=0:1:3"],
        ],
    )
    def test_exits_2_naming_omega1(self, capsys, argv):
        code, out, err = run_main(argv + ["--omega0", "1", "--J", "1", "--omega1", "5e-324"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == self.ERROR

    def test_explicit_time_still_evolves(self, capsys):
        argv = ["evolve", "--J", "1", "--omega1", "5e-324", "--time", "2", "--steps", "100"]
        code, _, _ = run_main(argv, capsys)
        assert code == 0


class TestRK4Limit:
    """More than MAX_RK4_STEPS steps x problems exits 2 with one JSON line, before the integrator starts."""

    P = ["--omega0", "1", "--gamma", "0.5", "--J", "0.3", "--omega1", "0.6"]

    def _refused(self, capsys, argv, message):
        started = time.perf_counter()
        result = run_main(argv, capsys)
        assert time.perf_counter() - started < 0.5
        assert result == (2, "", json.dumps({"error": message, "exit_code": 2}) + "\n")

    @pytest.mark.parametrize(
        "command, problems",
        [(["evolve"], 1), (["twocycle", "--scheme", "adiabatic"], 2),
         (["twocycle", "--scheme", "adiabatic", "--omega1-sweep", "0.6,0.5,0.4"], 6)],
    )
    @pytest.mark.parametrize("steps", [10**12, cli.MAX_RK4_STEPS + 1])
    def test_steps_times_problems_over_the_limit_exit_2(self, capsys, monkeypatch, command, problems, steps):
        monkeypatch.setattr(evolution, "_stepped_propagators", self._no_numerics)
        monkeypatch.setattr(twocycle, "_stepped_propagators", self._no_numerics)
        message = f"RK4 run of {steps} steps x {problems} problems; the limit is 10000000 steps"
        self._refused(capsys, [*command, *self.P, "--steps", str(steps)], message)

    @staticmethod
    def _no_numerics(*args):
        raise AssertionError("the integrator ran")

    def test_omega1_list_crosses_the_limit_through_its_length(self, capsys):
        steps = cli.MAX_RK4_STEPS // 10  # 2 x 5 values is the limit itself
        argv = ["twocycle", "--scheme", "adiabatic", *self.P, "--steps", str(steps)]
        message = f"RK4 run of {steps} steps x 12 problems; the limit is 10000000 steps"
        self._refused(capsys, argv + ["--omega1-sweep", "1e-6,0.5,0.4,0.3,0.2,0.1"], message)
        # at the limit the run goes on to the step budget, which the first omega1 value fails
        message = "step budget too small: need at least 9949626 steps for t=6283185.307179587"
        self._refused(capsys, argv + ["--omega1-sweep", "1e-6,0.5,0.4,0.3,0.2"], message)

    @pytest.mark.parametrize("command", [["evolve"], ["twocycle", "--scheme", "adiabatic"]])
    def test_negative_steps_are_refused_as_before(self, capsys, command):
        self._refused(capsys, [*command, *self.P, "--steps", "-1"], "steps must be >= 0")

    def test_aa_scheme_refuses_any_steps_first(self, capsys):
        message = "--steps applies to the adiabatic scheme only; the aa scheme is exact"
        self._refused(capsys, ["twocycle", "--scheme", "aa", *self.P, "--steps", str(10**12)], message)

    @pytest.mark.parametrize(
        "command, problems", [(["evolve", "--time", "6283185307.179585"], 1), (["twocycle", "--scheme", "adiabatic"], 2)]
    )
    def test_limit_comes_before_the_step_budget(self, capsys, command, problems):
        """At omega1 = 1e-9 both run one period, t = 2*pi*1e9; 100 steps fail the budget, 1e8 the limit."""
        argv = [*command, *self.P, "--omega1", "1e-9", "--steps"]
        budget = "step budget too small: need at least 9949625020 steps for t=6283185307.179585"
        self._refused(capsys, argv + ["100"], budget)
        message = f"RK4 run of 100000000 steps x {problems} problems; the limit is 10000000 steps"
        self._refused(capsys, argv + ["100000000"], message)


class TestNegativeValues:
    """A flag value that starts with - and a digit or . is a value, also in exponent or list form."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["spectrum", "--omega0", "1", "--gamma", "0.8"], "--J", "-1e-3"),
            (["spectrum", "--omega0", "1", "--gamma", "0.8"], "--J", "-.5e-1"),
            (["evolve", "--omega1", "0.3"], "--time", "-1e-3"),
            (["twocycle", "--scheme", "adiabatic", "--omega0", "1", "--gamma", "0.8"], "--omega1-sweep", "-0.1,0.2"),
            (["evolve", "--omega1", "0.3"], "--initial", "-0.5,0,0.5,0,-0.5,0,0.5,0"),
        ],
    )
    def test_spaced_value_reads_as_the_joined_form(self, capsys, argv, flag, value):
        spaced = run_main(argv + [flag, value], capsys)
        assert spaced[0] == 0
        assert spaced == run_main(argv + [f"{flag}={value}"], capsys)


class TestConfigPrecedence:
    def test_config_supplies_parameters(self, capsys, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# two-spin setup\nomega0 = 1.0\ngamma = 1.0\nJ = 0\n")
        code, out, _ = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("J: 5.0\n")
        code, out, _ = run_main(["spectrum", "--J", "1", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[3][1]) == pytest.approx(-0.5)

    def test_specific_flag_beats_pair_flag(self, capsys):
        code, out, _ = run_main(
            ["spectrum", "--omega0", "2", "--omega-a0", "1", "--omega-b0", "1"], capsys
        )
        assert code == 0
        _, rows = parse_csv(out)
        # specific flags win: omega0 = 1 everywhere, gamma = J = 0, so E1 = 1
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "pair, spin_a, spin_b", [("omega0", "omega_a0", "omega_b0"), ("gamma", "gamma_a", "gamma_b")]
    )
    def test_full_precedence_chain(self, capsys, tmp_path, pair, spin_a, spin_b):
        """flag per-spin > flag pair > config per-spin > config pair > 0."""
        cfg = tmp_path / "params.cfg"
        cfg.write_text(f"{pair} = 1\n{spin_a} = 2\n")

        def resolved(*flags):
            argv = ["evolve", "--time", "0", "--format", "json", "--config", str(cfg), *flags]
            code, out, _ = run_main(argv, capsys)
            assert code == 0
            params = json.loads(out)["params"]
            assert params["J"] == 0.0 and params["omega1"] == 0.0  # set nowhere
            return params[spin_a], params[spin_b]

        flag = "--" + spin_a.replace("_", "-")
        assert resolved() == (2.0, 1.0)  # config per-spin > config pair
        assert resolved(f"--{pair}", "3") == (3.0, 3.0)  # flag pair > config per-spin
        assert resolved(f"--{pair}", "3", flag, "4") == (4.0, 3.0)  # flag per-spin > flag pair

    @pytest.mark.parametrize("name", list(PARAM_GROUPS))
    def test_every_parameter_name_is_a_flag(self, capsys, name):
        flag = "--" + name.replace("_", "-")
        code, out, _ = run_main(["evolve", "--time", "0", "--format", "json", flag, "0.5"], capsys)
        assert code == 0
        params = json.loads(out)["params"]
        assert params == {field: 0.5 if field in PARAM_GROUPS[name] else 0.0 for field in params}

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("velocity = 3\n")
        code, _, err = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run_main(["spectrum", "--config", "/no/such/file.cfg"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("J = 1\nvelocity = 3\n", "2: unknown parameter 'velocity'"),
            ("# comment\nJ 1\n", "2: expected 'key = value'"),
            ("J = 1\n\ngamma = one\n", "3: bad number 'one'"),
            ("omega0: 1e400x\n", "1: bad number '1e400x'"),
        ],
    )
    def test_bad_config_line_names_file_and_line(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "params.cfg"
        cfg.write_text(text)
        message = f"{cfg}:{message}"
        assert run_main(["spectrum", "--config", str(cfg)], capsys) == (
            2, "", json.dumps({"error": message, "exit_code": 2}) + "\n"
        )


class TestFormatsAndRouting:
    def test_evolve_csv_component_table(self, capsys):
        code, out, _ = run_main(
            ["evolve", "--initial", "uu", "--omega0", "1", "--omega1", "0.5", "--time", "1.0"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["component", "re", "im", "probability"]
        assert [r[0] for r in rows] == ["uu", "ud", "du", "dd"]

    def test_phases_json_document(self, capsys):
        code, out, _ = run_main(
            [
                "phases",
                "--omega0", "1", "--gamma", "1", "--J", "1", "--omega1", "0.1",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "phases"
        assert doc["columns"][0] == "n" and len(doc["rows"]) == 4

    def test_config_colon_separator(self, capsys, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("omega0: 1.0\ngamma: 1.0\nJ: 0    # comment\n")
        code, out, _ = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_sweep_to_stdout(self, capsys):
        code, out, _ = run_main(
            ["sweep", "--axis", "J=0:1:2", "--quantity", "spectrum", "--omega0", "1", "--gamma", "1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["J", "n", "energy"] and len(rows) == 8

    def test_aa_scheme_rejects_omega1_sweep(self, capsys):
        code, _, err = run_main(
            ["twocycle", "--scheme", "aa", "--omega1-sweep", "0.1,0.2", "--omega1", "0.1"],
            capsys,
        )
        assert code == 2
        assert "adiabatic" in json.loads(err)["error"]


class TestNumericGuard:
    def test_nan_aborts_with_exit_4(self, capsys, monkeypatch):
        real = cli._closed_form

        def nan_energy(*columns):
            closed = real(*columns)
            closed.energies[:, 0] = np.nan
            return closed

        monkeypatch.setattr(cli, "_closed_form", nan_energy)
        code, out, err = run_main(["spectrum", "--omega0", "1", "--gamma", "1"], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err)["exit_code"] == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_extra_exits_4(self, capsys, monkeypatch, fmt):
        real = cli.cmd_evolve

        def nan_extra(*args):
            columns, rows, extras = real(*args)
            return columns, rows, {**extras, "phase_vs_initial": float("nan")}

        monkeypatch.setattr(cli, "cmd_evolve", nan_extra)
        code, out, err = run_main(["evolve", "--omega1", "0.1", "--format", fmt], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err)["exit_code"] == 4

    def test_overflow_exits_4(self, capsys):
        # E1 = omega0 + J/2 = 2e308; spectrum --J 1e200, once refused here, now prints +-J/2.
        code, out, err = run_main(["spectrum", "--omega0", "1.5e308", "--gamma", "0", "--J", "1e308"], capsys)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "non-finite value inf in output", "exit_code": 4}

    # Once refused as an overflowing J**3 or (p/3)**3: each row's energy now matches the scaled
    # diagonalization, through the dynamical phase -E * tau where the command prints phases.
    @pytest.mark.parametrize(
        "argv, omega0, gamma, couplings, omega1",
        [
            ("phases --omega0 0.8619 --gamma -1.2554 --J -1e200 --omega1 0.1", 0.8619, -1.2554, [-1e200], 0.1),
            ("sweep --quantity berry --axis J=-1e200:1e200:5 --omega0 1 --gamma 1 --omega1 0.1", 1.0, 1.0,
             np.linspace(-1e200, 1e200, 5).tolist(), 0.1),
            ("spectrum --omega0 1e60 --gamma 1 --J 1", 1e60, 1.0, [1.0], None),
        ],
    )
    def test_once_overflowing_powers_are_computed(self, capsys, argv, omega0, gamma, couplings, omega1):
        code, out, err = run_main(argv.split(), capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        for k, J in enumerate(couplings):
            block = np.array(rows[4 * k : 4 * k + 4], dtype=float)
            if omega1 is None:
                energies = block[:, -1]
            else:
                energies = -block[:, header.index("dynamical_raw")] * abs(omega1) / (2.0 * math.pi)
            scale = max(abs(omega0), abs(gamma), abs(J))
            error = np.abs(np.sort(energies) - scaled_spectrum_oracle(omega0, gamma, J)).max()
            assert error <= 16.0 * EPS * scale + 1e-12 * np.abs(energies).max()

    # Entries beyond the float range are a numeric failure: exit 4, one JSON
    # line and no NumPy warning, as for the overflowing cube of spectrum --J 1e200.
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--omega0", "1.7e308", "--J", "1.7e308", "--omega1", "1"],
            ["evolve", "--omega0", "1.7e308", "--J", "1.7e308", "--omega1", "1", "--time", "1", "--steps", "100"],
            ["evolve", "--omega-a0", "1e308", "--omega1=-1.7e308"],  # H(0) - omega1 s_z overflows
            # only the static part overflows, in the step-budget check before RK4
            ["evolve", "--omega-a0", "1.7e308", "--omega-b0", "1.7e308", "--J", "1.7e308", "--omega1", "1",
             "--steps", "10"],
            # the static part is finite, and only the frame shift takes H_rot past the float range
            ["evolve", "--omega-a0", "1.7e308", "--omega1=-1.7e308"],
            ["sweep", "--quantity", "twocycle-defect", "--axis", "omega_a0=0:1.7e308:2", "--omega1=-1.7e308"],
            # the first overflowing point, 600, is in the second block
            ["sweep", "--quantity", "twocycle-defect", "--axis", "omega0=0:1.7e308:2", "--axis", "gamma=0:1:600",
             "--J", "1.7e308", "--omega1", "1e300"],
        ],
    )
    def test_hamiltonian_overflow_exits_4_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(argv, capsys) == (
                4, "", json.dumps({"error": "a Hamiltonian entry overflows the float range", "exit_code": 4}) + "\n"
            )

    def test_lost_phases_exit_4(self, capsys):
        code, out, err = run_main(["evolve", "--J", "1e200", "--omega1", "0.1"], capsys)
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["exit_code"] == 4 and "2**52" in error["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["phases", "--mode", "berry"],
            ["phases", "--mode", "aa"],
            ["sweep", "--quantity", "berry", "--axis", "gamma=0:1:2"],
        ],
    )
    def test_non_finite_phases_exit_4(self, capsys, argv):
        code, out, err = run_main(argv + ["--omega1", "1e-300", "--J", "1e10"], capsys)
        assert (code, out) == (4, "")
        assert json.loads(err) == {"error": "phase -inf rad is not finite", "exit_code": 4}

    @pytest.mark.parametrize(
        "failure",
        [
            np.linalg.LinAlgError("Eigenvalues did not converge"),
            ArithmeticError("closed-form energy inf is not finite"),
        ],
    )
    def test_numeric_exceptions_exit_4(self, capsys, monkeypatch, failure):
        def fail(*args):
            raise failure

        monkeypatch.setattr(cli, "_closed_form", fail)
        code, out, err = run_main(["spectrum", "--omega0", "1", "--gamma", "1"], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err) == {"error": str(failure), "exit_code": 4}


class TestInfiniteEnergies:
    """Between about 1e154 and 1e308, 4 omega0^2 or 4 gamma^2 once overflowed to inf, and these commands
    refused the infinite closed-form energies. The closed form now scales its parameters: the eigenstates
    and energies are computed, the two-cycles refuse their propagator's phase, and only an energy beyond
    the float range is refused."""

    OMEGA1, J = 0.6, 0.296
    EVOLVE = [(["evolve", "--initial", "eigen1", "--time", "0"], False, 1),
              (["evolve", "--initial", "tilde2", "--time", "0"], True, 2)]
    TWOCYCLE = [["twocycle", "--scheme", "adiabatic"], ["twocycle", "--scheme", "aa"]]

    def _argv(self, command, field, value):
        point = {"omega0": 0.7, "gamma": 0.457, field: value}
        return point, [*command, f"--omega0={point['omega0']}", f"--gamma={point['gamma']}", f"--J={self.J}",
                       f"--omega1={self.OMEGA1}", "--format", "json"]

    @pytest.mark.parametrize("field", ["omega0", "gamma"])
    @pytest.mark.parametrize("value", [1e154, 1e200, 1e300])
    @pytest.mark.parametrize("command, shifted, n", EVOLVE)
    def test_eigenstates_match_the_scaled_diagonalization(self, capsys, command, shifted, n, field, value):
        point, argv = self._argv(command, field, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        state = np.array([complex(re, im) for _, re, im, _ in json.loads(out)["rows"]])
        detuning = point["omega0"] - self.OMEGA1 if shifted else point["omega0"]
        k = math.frexp(max(abs(detuning), abs(point["gamma"])))[1]
        scaled = (math.ldexp(v, -k) for v in (detuning, point["gamma"], self.J))
        vectors = np.linalg.eigh(kron_hamiltonian(*scaled))[1]
        rank = 3 if n == 1 else 0  # label 1 is the top energy, label 2 the bottom one
        assert abs(np.vdot(vectors[:, rank], state)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field", ["omega0", "gamma"])
    @pytest.mark.parametrize("value", [1e154, 1e200, 1e300])
    @pytest.mark.parametrize("command", TWOCYCLE)
    def test_two_cycles_refuse_the_propagator_phase(self, capsys, command, field, value):
        argv = self._argv(command, field, value)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(argv, capsys)
        assert (code, out) == (4, "")
        assert re.fullmatch(r"propagator phase \S+ rad is too large to resolve \(limit 2\*\*52\)",
                            json.loads(err)["error"])

    @pytest.mark.parametrize("field", ["omega0", "gamma"])
    @pytest.mark.parametrize("value", [1e154, 1e200, 1e300])
    def test_spectrum_matches_the_scaled_diagonalization(self, capsys, field, value):
        point = {"omega0": 0.0, "gamma": 0.0, field: value}
        code, out, err = run_main(["spectrum", f"--{field}={value}", f"--J={self.J}"], capsys)
        assert (code, err) == (0, "")
        energies = np.sort([float(row[1]) for row in parse_csv(out)[1]])
        direct = scaled_spectrum_oracle(point["omega0"], point["gamma"], self.J)
        assert np.abs(energies - direct).max() <= 16.0 * EPS * value + 1e-12 * value

    @pytest.mark.parametrize("command", [*(command for command, _, _ in EVOLVE), *TWOCYCLE])
    def test_an_energy_beyond_the_float_range_is_refused(self, capsys, command):
        argv = [*command, "--omega0=1e308", "--gamma=1.7e308", f"--J={self.J}", "--omega1=1"]
        message = json.dumps({"error": "closed-form energy inf is not finite", "exit_code": 4}) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(argv, capsys) == (4, "", message)


class TestCrossingsAndScales:
    """Points the arccos root formula got wrong or refused, each against a direct diagonalization: near the
    level crossings omega0 = +-J, and at couplings whose cube (p/3)^3 was subnormal or overflowed."""

    def test_berry_phases_at_a_crossing(self, capsys):
        # omega0 = -J with gamma = 1.8e-8: the arccos form printed 4.5037 for labels 1 and 3 (60-digit
        # values: 3.14159264345 and 3.14159266372); the error left is the eps/gamma of the 3x3 problem.
        omega0, gamma, J = 1.0, 1.8249109341204752e-08, -1.0
        argv = ["phases", "--mode", "berry", "--omega0", "1", "--gamma", repr(gamma), "--J", "-1", "--omega1", "0.1"]
        code, out, err = run_main(argv, capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        geometric = [float(row[header.index("geometric_raw")]) for row in rows]
        assert abs(geometric[0] - math.pi) <= 1e-6 and abs(geometric[2] - math.pi) <= 1e-6
        assert np.abs(np.array(geometric[:3]) - triplet_block_oracle(omega0, gamma, J)[1]).max() <= 1e-6

    def test_adiabatic_two_cycle_at_a_crossing(self, capsys):
        # omega0 = J: the arccos form's eigenvectors failed the gate's unitarity check (defect 1.2e-12).
        point = ["--omega0", "1.365269118449533", "--gamma", "0.0165744106105139", "--J", "1.365269118449533"]
        code, out, err = run_main(["twocycle", "--scheme", "adiabatic", *point, "--omega1", "0.1"], capsys)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        targets = [float(row[header.index("target")]) for row in rows[:3]]
        berry = triplet_block_oracle(1.365269118449533, 0.0165744106105139, 1.365269118449533)[1]
        assert np.abs(np.array(targets) - 2.0 * berry).max() <= 1e-10

    # 6e-54 was refused (arccos argument -1.0000239017328967 beyond tolerance), 5e-54 printed 2.534e-54,
    # 1e200 was refused (J**3 overflows) and 1e-60 too (float division by zero).
    @pytest.mark.parametrize("J", ["6e-54", "5e-54", "1e200", "1e-60"])
    def test_spectrum_prints_half_the_coupling(self, capsys, J):
        code, out, err = run_main(["spectrum", "--J", J], capsys)
        assert (code, err) == (0, "")
        energies = [float(row[1]) for row in parse_csv(out)[1]]
        assert energies == [float(J) / 2.0, -float(J) / 2.0, float(J) / 2.0, -float(J) / 2.0]
        assert sorted(energies) == pytest.approx(scaled_spectrum_oracle(0.0, 0.0, float(J)).tolist(), rel=1e-12)


class TestWriter:
    def test_json_numbers_are_the_csv_text_read_back(self, capsys):
        args = ["phases", "--mode", "aa", "--omega0", "1", "--gamma", "0.8", "--J", "0.6", "--omega1", "-0.3"]
        _, csv_rows = parse_csv(run_main(args, capsys)[1])
        doc = json.loads(run_main(args + ["--format", "json"], capsys)[1])
        assert csv_rows == [
            [str(row[0])] + [f"{v:.12e}" for v in row[1:]] for row in doc["rows"]
        ]
        assert all(isinstance(row[0], int) for row in doc["rows"])


class TestDeterminism:
    def test_repeated_sweeps_byte_identical(self, tmp_path):
        args = [
            sys.executable,
            "-m",
            "twospin",
            "sweep",
            "--axis",
            "J=-1:1:3",
            "--axis",
            "omega0=0.5:1.5:2",
            "--quantity",
            "berry",
            "--omega0",
            "1",
            "--gamma",
            "1",
            "--omega1",
            "0.1",
        ]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            res = subprocess.run(args + ["--out", str(path)], capture_output=True)
            assert res.returncode == 0, res.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
