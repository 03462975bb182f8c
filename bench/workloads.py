"""Seeded workloads of the twospin benchmark and the oracles that check them.

A workload is a fixed list of `twospin` CLI invocations whose parameters are
drawn from a seed, so the same seed always gives the same inputs. Every
invocation writes its result to a file; `Workload.check` reads those files and
returns, per invocation, the checks that failed. The oracles do not go through
the code path under test: spectra and phases are compared with eigenpairs of
Hamiltonians built here from Kronecker products, and the RK4 outputs with the
exact (`--steps 0`) outputs of the same invocation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative threshold below which the package replaces its closed-form
# eigenvectors by a numerical diagonalization; used only to report the share
# of evaluations that take that fallback.
FALLBACK_RTOL = 1e-8

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I = np.eye(2, dtype=complex)
_SZ_A, _SZ_B = np.kron(_Z, _I), np.kron(_I, _Z)
_SX_A, _SX_B = np.kron(_X, _I), np.kron(_I, _X)
_ZZ = _SZ_A @ _SZ_B


def hamiltonian_t0(omega_a0, omega_b0, gamma_a, gamma_b, J) -> np.ndarray:
    """Stack of lab-frame H(0) matrices; arguments broadcast to shape (N,)."""
    a = [np.asarray(v, dtype=float).reshape(-1, 1, 1) for v in (omega_a0, omega_b0, gamma_a, gamma_b, J)]
    return 0.5 * (a[0] * _SZ_A + a[1] * _SZ_B + a[4] * _ZZ + a[2] * _SX_A + a[3] * _SX_B)


def triplet_sector_energies(omega0, gamma, J) -> np.ndarray:
    """Sorted triplet-sector energies, shape (N, 3), for equal couplings."""
    omega0, gamma, J = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (omega0, gamma, J)))
    h = np.zeros(omega0.shape + (3, 3))
    off = gamma / math.sqrt(2.0)
    h[..., 0, 0] = omega0 + J / 2.0
    h[..., 1, 1] = -J / 2.0
    h[..., 2, 2] = -omega0 + J / 2.0
    h[..., 0, 1] = h[..., 1, 0] = h[..., 1, 2] = h[..., 2, 1] = off
    return np.linalg.eigvalsh(h).reshape(-1, 3)


def fallback_share(omega0, gamma, J) -> float:
    """Share of triplet evaluations whose eigenvector denominators vanish.

    This is the input property that sends the package's closed forms to their
    numerical fallback: min |+-2 omega0 + J - 2 E_n| below 1e-8 of the scale.
    """
    omega0, gamma, J = (np.asarray(v, dtype=float).reshape(-1, 1) for v in np.broadcast_arrays(omega0, gamma, J))
    energies = triplet_sector_energies(omega0, gamma, J)
    scale = np.maximum.reduce([np.abs(omega0), np.abs(gamma), np.abs(J), np.ones_like(J)])
    d_min = np.minimum(np.abs(2 * omega0 + J - 2 * energies), np.abs(-2 * omega0 + J - 2 * energies))
    return float(np.mean(d_min < FALLBACK_RTOL * scale))


@dataclass(frozen=True)
class Invocation:
    """One `twospin` call; `name` is also the stem of its output file."""

    name: str
    args: tuple[str, ...]
    fmt: str

    def output(self, out_dir: str) -> str:
        return os.path.join(out_dir, f"{self.name}.{self.fmt}")

    def argv(self, out_dir: str) -> list[str]:
        return [*self.args, "--format", self.fmt, "--out", self.output(out_dir)]


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    # Parameter points (omega_a0, omega_b0, gamma_a, gamma_b) of the inputs.
    points: np.ndarray
    # Closed-form input share that takes the numerical fallback; None where
    # the workload evaluates no closed-form eigensystem.
    fallback_share: float | None
    rk4_steps: int
    # check(outputs, references) -> {invocation name: [failure, ...]}
    check: Callable[[dict, dict], dict]
    # Run once before timing; their outputs are the references of `check`.
    references: list[Invocation] = field(default_factory=list)

    def properties(self) -> dict:
        unequal = (self.points[:, 0] != self.points[:, 1]) | (self.points[:, 2] != self.points[:, 3])
        return {
            "points": int(len(self.points)),
            "unequal_coupling_share": float(np.mean(unequal)),
            "fallback_share": self.fallback_share,
            "rk4_steps": self.rk4_steps,
        }


# ---------------------------------------------------------------------------
# output readers


class OutputError(Exception):
    pass


def read_csv(path: str, columns: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != columns:
            raise OutputError(f"columns {header} != {columns}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise OutputError(f"rows have {data.shape[1]} cells, expected {len(columns)}")
    return data


def read_json(path: str, command: str, columns: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("command") != command or doc.get("columns") != columns:
        raise OutputError(f"unexpected command {doc.get('command')!r} or columns {doc.get('columns')}")
    return np.array(doc["rows"], dtype=float).reshape(-1, len(columns))


def count_rows(path: str) -> int:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return len(json.load(fh)["rows"])
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _bad(mask: np.ndarray, what: str) -> list[str]:
    count = int(np.count_nonzero(mask))
    if count == 0:
        return []
    first = int(np.flatnonzero(mask.reshape(-1))[0])
    return [f"{what}: {count} rows, first at row {first}"]


def _circular(delta: np.ndarray) -> np.ndarray:
    """|delta| wrapped to [0, pi]."""
    return np.abs(np.remainder(delta + math.pi, TWO_PI) - math.pi)


def _check_grid(coords: np.ndarray, axes: list[np.ndarray], rows_per_point: int) -> list[str]:
    """Rows must list the grid in lexicographic order, rows_per_point rows each."""
    expected = np.repeat(np.array(list(product(*axes))), rows_per_point, axis=0)
    if coords.shape != expected.shape:
        return [f"{len(coords)} rows, expected {len(expected)}"]
    tol = 1e-12 * np.maximum(np.abs(expected), 1e-3)
    return _bad(np.any(np.abs(coords - expected) > tol, axis=1), "grid coordinates out of order")


# ---------------------------------------------------------------------------
# oracles


def _check_spectrum(data: np.ndarray, omega0: float, J: np.ndarray, gamma: np.ndarray) -> list[str]:
    """Energies against numpy.linalg.eigvalsh of H(0), within 1e-10 of the scale."""
    labels = data[:, 2].reshape(-1, 4)
    errors = _bad(np.any(labels != [1, 2, 3, 4], axis=1), "labels are not 1..4")
    energies = np.sort(data[:, 3].reshape(-1, 4), axis=1)
    exact = np.linalg.eigvalsh(hamiltonian_t0(omega0, omega0, gamma, gamma, J))
    scale = np.maximum.reduce([np.full_like(J, abs(omega0)), np.abs(gamma), np.abs(J), np.ones_like(J)])
    return errors + _bad(np.abs(energies - exact).max(axis=1) > 1e-10 * scale, "energy differs from eigvalsh")


def _check_phases(data: np.ndarray, detuning: float, omega1: float, J: np.ndarray, gamma: np.ndarray, energy_column: int) -> list[str]:
    """Phase rows (n, total, dynamical, geometric and their principal values).

    The raw split must add up to rounding; each principal value must lie in
    (-pi, pi] and equal its raw value mod 2*pi; the cycle energy read from
    `energy_column` (total or dynamical) must be an eigenvalue of the
    Hamiltonian at `detuning`; and the geometric phase must equal the
    amplitude form 2*pi*(|x|^2 - |w|^2) of that eigenvector within 1e-6.
    Rows whose eigenvalue is degenerate have no unique eigenvector and skip
    only the amplitude check.
    """
    n = data[:, 0].astype(int)
    total, dyn, geo = data[:, 1], data[:, 2], data[:, 3]
    raw, principal = data[:, 1:4], data[:, 4:7]
    errors = _bad(np.abs(total - (dyn + geo)) > 1e-12 * (np.abs(total) + np.abs(dyn) + np.abs(geo)), "total != dynamical + geometric")
    wrapped = _circular(raw - principal)
    errors += _bad(np.any(np.abs(principal) > math.pi * (1 + 1e-12), axis=1), "principal value outside (-pi, pi]")
    errors += _bad(np.any(wrapped > 2e-12 * (np.abs(raw) + math.pi), axis=1), "principal value != raw mod 2 pi")
    errors += _bad((n == 4) & (geo != 0.0), "singlet geometric phase is not 0")

    J_rows, gamma_rows = np.repeat(J, 4), np.repeat(gamma, 4)
    vals, vecs = np.linalg.eigh(hamiltonian_t0(detuning, detuning, gamma_rows, gamma_rows, J_rows))
    energy = -data[:, energy_column] * abs(omega1) / TWO_PI
    k = np.argmin(np.abs(vals - energy[:, None]), axis=1)
    rows = np.arange(len(data))
    scale = np.maximum.reduce([np.full_like(J_rows, abs(detuning)), np.abs(gamma_rows), np.abs(J_rows), np.ones_like(J_rows)])
    errors += _bad(np.abs(vals[rows, k] - energy) > 1e-9 * scale, "cycle energy is not an eigenvalue")
    gaps = np.abs(vals - vals[rows, k][:, None])
    gaps[rows, k] = np.inf
    unique = gaps.min(axis=1) > 1e-6 * scale
    vec = vecs[rows, :, k]
    amplitude_form = TWO_PI * (np.abs(vec[:, 0]) ** 2 - np.abs(vec[:, 3]) ** 2)
    return errors + _bad(unique & (np.abs(geo - amplitude_form) > 1e-6), "geometric phase != amplitude form")


def _run_checks(checks: dict) -> dict:
    """Run each invocation's check; unreadable output is a failure too."""
    failures = {}
    for name, check in checks.items():
        try:
            failures[name] = check()
        except (OSError, ValueError, KeyError, OutputError) as exc:
            failures[name] = [f"unreadable output: {exc}"]
    return failures


# ---------------------------------------------------------------------------
# workloads


def _num(value: float) -> str:
    return repr(float(value))


def _axis(field_name: str, values: np.ndarray) -> str:
    return f"{field_name}={_num(values[0])}:{_num(values[-1])}:{len(values)}"


def sweep_closed_form(seed: int, small: bool = False) -> Workload:
    """Three closed-form sweeps over one J x gamma grid (about 20k points).

    The gamma axis is symmetric with an odd count, so its middle column sits at
    gamma = 0 and takes the numerical fallback; omega1 is positive.
    """
    rng = np.random.default_rng([seed, 1])
    omega0, omega1 = rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.2)
    j_max, g_max = rng.uniform(1.5, 2.5), rng.uniform(1.0, 2.0)
    n_j, n_g = (9, 7) if small else (141, 141)
    J_axis, g_axis = np.linspace(-j_max, j_max, n_j), np.linspace(-g_max, g_max, n_g)
    grid = np.array(list(product(J_axis, g_axis)))
    J, gamma = grid[:, 0], grid[:, 1]
    common = ("sweep", "--axis", _axis("J", J_axis), "--axis", _axis("gamma", g_axis),
              f"--omega0={_num(omega0)}", f"--omega1={_num(omega1)}", "--quantity")
    invocations = [
        Invocation("spectrum", common + ("spectrum",), "csv"),
        Invocation("berry", common + ("berry",), "csv"),
        Invocation("aa", common + ("aa",), "json"),
    ]
    phase_columns = ["J", "gamma", "n", "total_raw", "dynamical_raw", "geometric_raw",
                     "total_principal", "dynamical_principal", "geometric_principal"]

    def check_spectrum(path):
        data = read_csv(path, ["J", "gamma", "n", "energy"])
        return _check_grid(data[:, :2], [J_axis, g_axis], 4) or _check_spectrum(data, omega0, J, gamma)

    def check_berry(path):
        data = read_csv(path, phase_columns)
        return _check_grid(data[:, :2], [J_axis, g_axis], 4) or _check_phases(data[:, 2:], omega0, omega1, J, gamma, 2)

    def check_aa(path):
        data = read_json(path, "sweep", phase_columns)
        return _check_grid(data[:, :2], [J_axis, g_axis], 4) or _check_phases(data[:, 2:], omega0 - omega1, omega1, J, gamma, 1)

    def check(outputs, references):
        return _run_checks({
            "spectrum": lambda: check_spectrum(outputs["spectrum"]),
            "berry": lambda: check_berry(outputs["berry"]),
            "aa": lambda: check_aa(outputs["aa"]),
        })

    points = np.column_stack([np.full(len(grid), omega0), np.full(len(grid), omega0), gamma, gamma])
    return Workload("sweep_closed_form", seed, invocations, points, fallback_share(omega0, gamma, J), 0, check)


def sweep_propagator(seed: int, small: bool = False) -> Workload:
    """Two twocycle-defect sweeps of about 10k points each.

    One grid is J x omega1 with equal couplings; the other is omega_a0 x omega1
    with gamma_a != gamma_b, so every one of its points is unequal. omega1 is
    positive and bounded away from 0 on both.
    """
    rng = np.random.default_rng([seed, 2])
    omega0, gamma = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    j_max = rng.uniform(1.0, 2.0)
    w1_lo, w1_hi = rng.uniform(0.1, 0.2), rng.uniform(0.8, 1.2)
    omega_b0, gamma_a, gamma_b, J = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.0), rng.uniform(1.0, 1.5), rng.uniform(-1.5, 1.5)
    wa_lo, wa_hi = rng.uniform(-2.0, -1.0), rng.uniform(1.0, 2.0)
    n_a, n_w = (6, 5) if small else (101, 99)
    J_axis, w1_axis, wa_axis = np.linspace(-j_max, j_max, n_a), np.linspace(w1_lo, w1_hi, n_w), np.linspace(wa_lo, wa_hi, n_a)
    invocations = [
        Invocation("defect_equal", ("sweep", "--quantity", "twocycle-defect",
                                    "--axis", _axis("J", J_axis), "--axis", _axis("omega1", w1_axis),
                                    f"--omega0={_num(omega0)}", f"--gamma={_num(gamma)}"), "csv"),
        Invocation("defect_unequal", ("sweep", "--quantity", "twocycle-defect",
                                      "--axis", _axis("omega_a0", wa_axis), "--axis", _axis("omega1", w1_axis),
                                      f"--omega-b0={_num(omega_b0)}", f"--gamma-a={_num(gamma_a)}",
                                      f"--gamma-b={_num(gamma_b)}", f"--J={_num(J)}"), "csv"),
    ]

    def check_defect(path, field_name, axes):
        data = read_csv(path, [field_name, "omega1", "identity_defect"])
        defect = data[:, 2]
        return _check_grid(data[:, :2], axes, 1) or _bad(~((defect >= 0.0) & (defect <= 1e-12)), "identity_defect above 1e-12")

    def check(outputs, references):
        return _run_checks({
            "defect_equal": lambda: check_defect(outputs["defect_equal"], "J", [J_axis, w1_axis]),
            "defect_unequal": lambda: check_defect(outputs["defect_unequal"], "omega_a0", [wa_axis, w1_axis]),
        })

    n = n_a * n_w
    points = np.vstack([
        np.tile([omega0, omega0, gamma, gamma], (n, 1)),
        np.column_stack([np.repeat(wa_axis, n_w), np.full(n, omega_b0), np.full(n, gamma_a), np.full(n, gamma_b)]),
    ])
    return Workload("sweep_propagator", seed, invocations, points, None, 0, check)


def rk4_oracle(seed: int, small: bool = False) -> Workload:
    """The RK4 integrator through the adiabatic two-cycle and a long evolve.

    `twocycle --scheme adiabatic --steps 2000` over four omega1 values (64,000
    RK4 steps) and `evolve --steps 20000` over ten periods with unequal
    couplings and a seeded initial state. The small size keeps the step length
    and therefore the accuracy: one omega1 value and one period.
    """
    rng = np.random.default_rng([seed, 3])
    omega0, gamma, J = rng.uniform(0.8, 1.2, size=3)
    sweep = (0.2,) if small else (0.2, 0.1, 0.05, 0.025)
    cycle_steps = 2000
    wa, wb, ga, gb = rng.uniform(0.6, 1.4, size=4)
    J_ev, w1_ev = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    periods = 1 if small else 10
    evolve_steps = 2000 * periods
    initial = rng.normal(size=8)
    twocycle = ("twocycle", "--scheme", "adiabatic", f"--omega1-sweep={','.join(_num(w) for w in sweep)}",
                f"--omega0={_num(omega0)}", f"--gamma={_num(gamma)}", f"--J={_num(J)}")
    evolve = ("evolve", f"--initial={','.join(_num(v) for v in initial)}",
              f"--omega-a0={_num(wa)}", f"--omega-b0={_num(wb)}", f"--gamma-a={_num(ga)}", f"--gamma-b={_num(gb)}",
              f"--J={_num(J_ev)}", f"--omega1={_num(w1_ev)}", f"--time={_num(periods * TWO_PI / w1_ev)}")
    invocations = [
        Invocation("twocycle_rk4", twocycle + ("--steps", str(cycle_steps)), "csv"),
        Invocation("evolve_rk4", evolve + ("--steps", str(evolve_steps)), "json"),
    ]
    references = [
        Invocation("twocycle_exact", twocycle + ("--steps", "0"), "csv"),
        Invocation("evolve_exact", evolve + ("--steps", "0"), "json"),
    ]
    cycle_columns = ["omega1", "n", "phase", "target", "circular_deviation"]
    evolve_columns = ["component", "re", "im", "probability"]

    def check_twocycle(path, ref_path):
        data, ref = read_csv(path, cycle_columns), read_csv(ref_path, cycle_columns)
        if data.shape != ref.shape or np.any(data[:, :2] != ref[:, :2]):
            return ["rows differ from the exact run"]
        phase_error = _circular(data[:, 2] - ref[:, 2])
        deviation_error = np.abs(data[:, 4] - _circular(data[:, 2] - data[:, 3]))
        return (_bad(phase_error > 1e-5, "RK4 phase differs from exact by more than 1e-5")
                + _bad(data[:, 3] != ref[:, 3], "target differs from the exact run")
                + _bad(deviation_error > 1e-11, "circular_deviation != |phase - target| mod 2 pi"))

    def evolve_rows(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("columns") != evolve_columns:
            raise OutputError(f"unexpected columns {doc.get('columns')}")
        return np.array([row[1:] for row in doc["rows"]], dtype=float), doc

    def check_evolve(path, ref_path):
        (data, doc), (ref, _) = evolve_rows(path), evolve_rows(ref_path)
        errors = [] if doc.get("method") == "stepped" and doc.get("step_count") == evolve_steps else ["not a stepped run"]
        if data.shape != ref.shape:
            return errors + ["rows differ from the exact run"]
        return errors + _bad(np.abs(data - ref) > 1e-7, "RK4 amplitude differs from exact by more than 1e-7")

    def check(outputs, references):
        return _run_checks({
            "twocycle_rk4": lambda: check_twocycle(outputs["twocycle_rk4"], references["twocycle_exact"]),
            "evolve_rk4": lambda: check_evolve(outputs["evolve_rk4"], references["evolve_exact"]),
        })

    points = np.array([[omega0, omega0, gamma, gamma]] * len(sweep) + [[wa, wb, ga, gb]])
    rk4_steps = len(sweep) * 4 * 2 * cycle_steps + evolve_steps
    return Workload("rk4_oracle", seed, invocations, points, fallback_share(omega0, gamma, J), rk4_steps, check, references)


WORKLOADS = {w.__name__: w for w in (sweep_closed_form, sweep_propagator, rk4_oracle)}
