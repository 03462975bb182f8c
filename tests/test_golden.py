"""Golden CLI outputs, compared byte for byte.

Each file under tests/golden/ records one `twospin` invocation from CASES: the
argument list, the exit code, and everything written to stdout and stderr by
`twospin.cli.main` run in-process. Together the cases cover every subcommand
in CSV and JSON, rows on the degenerate fallback branch, unequal couplings and
the JSON error exits.

The sweep_*_signs cases cover both rotation senses and the gamma = 0
fallback column; sweep_aa_resonant_csv crosses omega0 = omega1 in both
senses, where the shifted detuning vanishes and the AA phase takes the
fallback. phases_berry_crossing_csv sits next to the level crossing
omega0 = -J at gamma = 1.8e-8, where labels 1 and 3 carry Berry phases
within 1e-7 of pi (test_cli's TestCrossingsAndScales checks the same point
against a direct diagonalization). The twocycle cases add omega1 lists in
both rotation senses, exact and stepped, a single backwards rotation, exact
and stepped, the gamma = 0 fallback with a backwards rotation, the AA
scheme at omega1 < 0 and its refusal of RK4 steps, and a list that reaches
omega1 = 0. Regenerate the files, when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.

tests/corpus.jsonl is the byte-identity corpus: one line per argument list of
support.corpus_argvs (a seeded generator, about 860 cases), holding the argv,
the exit code and the sha256 of stdout and of stderr. It checks many more
invocations than the goldens, but shows only that an output moved, not how.
Regenerate it with

    PYTHONPATH=src python tests/test_golden.py --corpus

in its own commit, and list each moved argv in CHANGES.md. Both commands, like
pytest, run under conftest.BLAS_KERNEL, the OpenBLAS kernel the files were
written under: a few outputs are rounding-level results of LAPACK's eigh,
whose last bits differ between kernels.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

import conftest  # noqa: F401  (BLAS_KERNEL, set before support loads NumPy; pytest has loaded it already)
from support import corpus_argvs

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CORPUS = os.path.join(os.path.dirname(GOLDEN_DIR), "corpus.jsonl")

P = ["--omega0", "1", "--gamma", "0.8", "--J", "0.6"]
NO_FIELD = ["--omega0", "1", "--gamma", "0", "--J", "0.6"]
RESONANT = ["--omega0", "0.4", "--gamma", "1.2", "--J", "0.9", "--omega1", "0.4"]
UNEQUAL = ["--omega-a0", "1.3", "--omega-b0", "0.4", "--gamma-a", "0.8", "--gamma-b", "1.1",
           "--J", "-0.6", "--omega1", "0.7"]
JSON = ["--format", "json"]


def _both_formats(name, argv):
    return {f"{name}_csv": argv, f"{name}_json": argv + JSON}


CASES = {
    **_both_formats("spectrum", ["spectrum", *P]),
    "spectrum_no_field_csv": ["spectrum", *NO_FIELD],
    **_both_formats("phases_berry", ["phases", "--mode", "berry", *P, "--omega1", "0.1"]),
    **_both_formats("phases_aa", ["phases", "--mode", "aa", *P, "--omega1", "0.3"]),
    "phases_berry_no_field_csv": ["phases", "--mode", "berry", *NO_FIELD, "--omega1", "0.1"],
    "phases_aa_no_field_csv": ["phases", "--mode", "aa", *NO_FIELD, "--omega1", "0.3"],
    "phases_aa_resonant_csv": ["phases", "--mode", "aa", *RESONANT],
    "phases_berry_crossing_csv": [
        "phases", "--mode", "berry", "--omega0", "1", "--gamma", "1.8249109341204752e-08", "--J", "-1",
        "--omega1", "0.1",
    ],
    **_both_formats("evolve_exact", ["evolve", "--initial", "uu", *P, "--omega1", "0.3", "--steps", "0"]),
    **_both_formats(
        "evolve_stepped",
        ["evolve", "--initial", "1,0,1,0,0,0,0,0", *P, "--omega1", "0.5", "--time", "2", "--steps", "200"],
    ),
    **_both_formats("evolve_unequal", ["evolve", "--initial", "du", *UNEQUAL, "--steps", "0"]),
    "evolve_unequal_stepped_json": [
        "evolve", "--initial", "ud", *UNEQUAL, "--time", "1.5", "--steps", "300", *JSON,
    ],
    "evolve_tilde1_no_field_csv": ["evolve", "--initial", "tilde1", *NO_FIELD, "--omega1", "0.3"],
    "evolve_eigen1_no_field_csv": ["evolve", "--initial", "eigen1", *NO_FIELD, "--omega1", "0.3"],
    "evolve_tilde2_resonant_json": ["evolve", "--initial", "tilde2", *RESONANT, *JSON],
    "evolve_tilde3_resonant_csv": ["evolve", "--initial", "tilde3", *P, "--omega1", "1"],
    "evolve_eigen3_zero_detuning_csv": [
        "evolve", "--initial", "eigen3", "--omega0", "0", "--gamma", "1", "--J", "0.6", "--omega1", "0.2",
    ],
    **_both_formats("twocycle_aa", ["twocycle", "--scheme", "aa", *P, "--omega1", "0.3"]),
    "twocycle_aa_resonant_csv": ["twocycle", "--scheme", "aa", *RESONANT],
    **_both_formats("twocycle_adiabatic", ["twocycle", "--scheme", "adiabatic", *P, "--omega1", "0.05"]),
    **_both_formats(
        "twocycle_adiabatic_sweep",
        ["twocycle", "--scheme", "adiabatic", "--omega1-sweep", "0.1,0.05,0.025", *P, "--omega1", "0.1"],
    ),
    "twocycle_adiabatic_stepped_csv": [
        "twocycle", "--scheme", "adiabatic", *P, "--omega1", "0.5", "--steps", "400",
    ],
    "twocycle_adiabatic_sweep_signs_csv": ["twocycle", "--scheme", "adiabatic", "--omega1-sweep=-0.1,0.05", *P],
    "twocycle_adiabatic_sweep_signs_stepped_csv": [
        "twocycle", "--scheme", "adiabatic", "--omega1-sweep=-0.1,0.05", *P, "--steps", "300",
    ],
    "twocycle_adiabatic_no_field_csv": ["twocycle", "--scheme", "adiabatic", *NO_FIELD, "--omega1=-0.05"],
    "twocycle_adiabatic_negative_csv": ["twocycle", "--scheme", "adiabatic", *P, "--omega1=-0.05"],
    "twocycle_adiabatic_negative_stepped_json": [
        "twocycle", "--scheme", "adiabatic", *P, "--omega1=-0.05", "--steps", "400", *JSON,
    ],
    "twocycle_aa_negative_csv": ["twocycle", "--scheme", "aa", *P, "--omega1=-0.3"],
    **_both_formats(
        "sweep_spectrum",
        ["sweep", "--axis", "gamma=0:1:3", "--axis", "J=-1:1:3", "--quantity", "spectrum", "--omega0", "1"],
    ),
    **_both_formats(
        "sweep_berry",
        ["sweep", "--axis", "gamma=0:1:3", "--quantity", "berry",
         "--omega0", "1", "--J", "0.6", "--omega1", "0.1"],
    ),
    **_both_formats(
        "sweep_aa",
        ["sweep", "--axis", "omega0=0:0.8:3", "--axis", "gamma=0:1.2:2", "--quantity", "aa",
         "--J", "0.9", "--omega1", "0.4"],
    ),
    **_both_formats(
        "sweep_berry_signs",
        ["sweep", "--axis", "omega1=-0.9:0.9:4", "--axis", "gamma=0:1:3", "--quantity", "berry",
         "--omega0", "1", "--J", "0.6"],
    ),
    **_both_formats(
        "sweep_aa_signs",
        ["sweep", "--axis", "omega1=-0.9:0.9:4", "--axis", "gamma=0:1:3", "--quantity", "aa",
         "--omega0", "1", "--J", "0.6"],
    ),
    "sweep_aa_resonant_csv": [
        "sweep", "--axis", "omega0=-0.4:0.4:3", "--axis", "omega1=-0.4:0.4:2", "--quantity", "aa",
        "--gamma", "1.2", "--J", "0.9",
    ],
    **_both_formats(
        "sweep_defect",
        ["sweep", "--axis", "omega0=0.5:2:2", "--axis", "J=-1:1:3", "--quantity", "twocycle-defect",
         "--gamma", "1", "--omega1", "0.1"],
    ),
    "sweep_defect_unequal_csv": [
        "sweep", "--axis", "omega_a0=0.2:1.2:3", "--quantity", "twocycle-defect", *UNEQUAL,
    ],
    **_both_formats(
        "sweep_defect_signs",
        ["sweep", "--quantity", "twocycle-defect", "--axis", "omega1=-0.9:0.9:4", "--axis", "J=-1:1:3",
         *UNEQUAL],
    ),
    "error_phases_no_rotation": ["phases", *P],
    "error_twocycle_aa_no_rotation": ["twocycle", "--scheme", "aa", *P],
    "error_twocycle_aa_steps": ["twocycle", "--scheme", "aa", *P, "--omega1", "0.3", "--steps", "400"],
    "error_twocycle_adiabatic_no_rotation": ["twocycle", "--scheme", "adiabatic", *P],
    "error_twocycle_sweep_no_rotation": ["twocycle", "--scheme", "adiabatic", "--omega1-sweep=0.1,0,0.2", *P],
    "error_evolve_no_rotation": ["evolve", *P],
    "error_sweep_axis_syntax": ["sweep", "--axis", "J=0:2", "--quantity", "berry", *P, "--omega1", "0.1"],
    "error_sweep_axis_field": ["sweep", "--axis", "tau=0:1:2", "--quantity", "berry", *P, "--omega1", "0.1"],
    "error_spectrum_unequal": ["spectrum", *UNEQUAL],
}


def _run(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `twospin.cli.main(argv)` run in-process."""
    from twospin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_case(argv) -> bytes:
    code, out, err = _run(argv)
    header = f"$ twospin {' '.join(argv)}\nexit {code}\n"
    return f"{header}--- stdout\n{out}--- stderr\n{err}".encode("utf-8")


def corpus_line(argv) -> str:
    """One line of tests/corpus.jsonl: argv, the exit code and the sha256 of stdout and of stderr."""
    code, out, err = _run(argv)
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err)]
    return json.dumps({"argv": argv, "exit": code, "stdout": digests[0], "stderr": digests[1]})


def _path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    with open(_path(name), "rb") as fh:
        expected = fh.read()
    assert run_case(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(os.listdir(GOLDEN_DIR)) == sorted(f"{name}.txt" for name in CASES)


def test_corpus_holds_the_generated_cases():
    with open(CORPUS, encoding="utf-8") as fh:
        assert [json.loads(line)["argv"] for line in fh] == corpus_argvs()


def test_every_corpus_line_is_reproduced():
    with open(CORPUS, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    moved = [line for line in expected if corpus_line(json.loads(line)["argv"]) != line]
    assert moved == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--corpus"]:
        lines = [corpus_line(argv) + "\n" for argv in corpus_argvs()]
        with open(CORPUS, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
        print(f"wrote {len(lines)} cases to {CORPUS}")
    else:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for stale in set(os.listdir(GOLDEN_DIR)) - {f"{name}.txt" for name in CASES}:
            os.remove(os.path.join(GOLDEN_DIR, stale))
        for name, argv in CASES.items():
            with open(_path(name), "wb") as fh:
                fh.write(run_case(argv))
        print(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}")
