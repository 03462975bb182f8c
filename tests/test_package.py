"""The lazy package namespace and the `twospin` launcher.

`import twospin` loads submodules (and NumPy) on first use only. `python -m
twospin` and the installed script run `twospin.__main__.main`, which pins
NumPy's BLAS to one thread before NumPy loads; the golden suite calls
`twospin.cli.main` in-process and never takes that path, so a few goldens run
here again through a child process.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

import twospin
from twospin import __main__ as launcher
from twospin import cli

from test_golden import CASES, GOLDEN_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _child_env(**extra) -> dict:
    """This process's environment without OPENBLAS_NUM_THREADS, with src first on PYTHONPATH."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _python(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=_child_env(), cwd=ROOT, capture_output=True, timeout=120)


class TestLazyNamespace:
    def test_import_loads_no_numpy(self):
        probe = "import sys, twospin; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('twospin')))"
        run = _python("-c", probe)
        assert run.returncode == 0, run.stderr
        assert run.stdout == b"['twospin']\n"

    def test_library_import_changes_no_process_setting(self):
        probe = "import os, twospin, twospin.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        run = _python("-c", probe)
        assert run.returncode == 0, run.stderr
        assert run.stdout == b"None\n"

    def test_every_name_is_its_defining_module_object(self):
        for name in twospin.__all__:
            module = importlib.import_module(f"twospin.{twospin._SUBMODULE_OF[name]}")
            assert getattr(twospin, name) is getattr(module, name)
            assert name in module.__all__

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from twospin import *", namespace)
        assert set(twospin.__all__) <= set(namespace)
        assert set(twospin.__all__) <= set(dir(twospin))

    def test_submodules_resolve_as_attributes(self):
        for module in twospin._EXPORTS:
            assert getattr(twospin, module) is importlib.import_module(f"twospin.{module}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'twospin' has no attribute 'no_such_name'"):
            twospin.no_such_name  # noqa: B018
        assert not hasattr(twospin, "cubic_coefficients")
        # retired with the arccos root formula
        assert not {"ARCCOS_EXCESS_TOL", "InternalConsistencyError", "_power"} & set(dir(twospin.spectral))

    def test_readme_quick_start_runs(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        quick_start = readme.split("## Library quick start", 1)[1]
        code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
        assert "from twospin import" in code
        exec(compile(code, "README.md", "exec"), {})


class TestBenchmarkTracer:
    """bench/run.py --trace 1 resolves bench/tracing.TRACED by name, so a retired name would break it."""

    def test_every_traced_name_resolves(self):
        spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, names in tracing.TRACED.items():
            submodule = importlib.import_module(f"twospin.{module}")
            for name in names:
                assert hasattr(submodule, name), f"twospin.{module}.{name}"
                target = getattr(submodule, name)
                # The tracer wraps a class's validation step.
                assert not isinstance(target, type) or "__post_init__" in vars(target), f"twospin.{module}.{name}"


# One golden per subcommand, and one JSON error exit.
LAUNCHER_CASES = [
    "spectrum_csv", "phases_aa_json", "evolve_stepped_csv", "twocycle_aa_json", "sweep_berry_csv",
    "error_spectrum_unequal",
]


class TestLauncher:
    @pytest.mark.parametrize("name", LAUNCHER_CASES)
    def test_python_m_twospin_matches_golden(self, name):
        argv = CASES[name]
        run = _python("-m", "twospin", *argv)
        header = f"$ twospin {' '.join(argv)}\nexit {run.returncode}\n"
        produced = header.encode() + b"--- stdout\n" + run.stdout + b"--- stderr\n" + run.stderr
        with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "rb") as fh:
            assert produced == fh.read()

    def _run_main(self, monkeypatch) -> list:
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
        with pytest.raises(SystemExit) as exc:
            launcher.main()
        assert exc.value.code == 0  # main's return value is the exit status
        return seen

    def test_main_pins_one_blas_thread_when_unset(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert self._run_main(monkeypatch) == ["1"]

    def test_main_keeps_the_callers_setting(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert self._run_main(monkeypatch) == ["3"]

    def test_the_cli_module_is_not_a_launcher(self):
        # It would run without the BLAS setting, so it refuses: one JSON error line, exit 2, no stdout.
        run = _python("-m", "twospin.cli", "spectrum", "--J", "1")
        message = "twospin.cli is a library module; run the command as python -m twospin or twospin"
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr == (json.dumps({"error": message, "exit_code": 2}) + "\n").encode()
