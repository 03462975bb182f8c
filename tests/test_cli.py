import json
import math
import subprocess
import sys

import numpy as np
import pytest

from twospin import cli, twocycle
from twospin.spectral import InternalConsistencyError


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

    def test_missing_time_without_cycle(self, capsys):
        code, _, err = run_main(["evolve", "--omega0", "1"], capsys)
        assert code == 2


class TestTwocycleCommand:
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

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_aa_builds_one_propagator_pair(self, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch, twocycle, "exact_propagator")
        code, _, _ = run_main(
            ["twocycle", "--scheme", "aa", "--omega0", "1", "--gamma", "0.8", "--J", "0.6", "--omega1", "0.3"],
            capsys,
        )
        assert code == 0
        assert len(calls) == 2

    def test_adiabatic_sweep_builds_one_pair_per_omega1(self, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch, twocycle, "evolve_stepped")
        code, out, _ = run_main(
            ["twocycle", "--scheme", "adiabatic", "--omega1-sweep", "0.4,0.3", "--steps", "200",
             "--omega0", "1", "--gamma", "0.8", "--J", "0.6", "--omega1", "0.3"],
            capsys,
        )
        assert code == 0
        assert len(parse_csv(out)[1]) == 8
        assert len(calls) == 4  # two cycles for each omega1 value


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

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("velocity = 3\n")
        code, _, err = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, _ = run_main(["spectrum", "--config", "/no/such/file.cfg"], capsys)
        assert code == 2


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
        monkeypatch.setattr(cli, "triplet_energies", lambda *a: (float("nan"), 0.0, 0.0))
        code, out, err = run_main(["spectrum", "--omega0", "1", "--gamma", "1"], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err)["exit_code"] == 4

    def test_overflow_exits_4(self, capsys):
        code, out, err = run_main(["spectrum", "--J", "1e200"], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err)["exit_code"] == 4

    def test_lost_phases_exit_4(self, capsys):
        code, out, err = run_main(["evolve", "--J", "1e200", "--omega1", "0.1"], capsys)
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["exit_code"] == 4 and "2**52" in error["error"]

    @pytest.mark.parametrize(
        "failure",
        [np.linalg.LinAlgError("Eigenvalues did not converge"), InternalConsistencyError("arccos argument")],
    )
    def test_numeric_exceptions_exit_4(self, capsys, monkeypatch, failure):
        def fail(*args):
            raise failure

        monkeypatch.setattr(cli, "triplet_energies", fail)
        code, out, err = run_main(["spectrum", "--omega0", "1", "--gamma", "1"], capsys)
        assert code == 4
        assert out == ""
        assert json.loads(err) == {"error": str(failure), "exit_code": 4}


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
