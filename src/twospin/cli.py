"""Command-line front end.

Subcommands: spectrum, phases, evolve, twocycle, sweep. Parameters come from
flags, then a flat key=value config file, then zero defaults. Output is CSV or
JSON with fixed %.12e float formatting so repeated runs are byte-identical.

Exit codes: 0 success, 2 usage or parameter error, 3 output I/O error,
4 numeric failure (non-finite result, overflow, failed diagonalization).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .core import SpinParams, TwoSpinState
from .evolution import evolve_exact, evolve_stepped
from .phases import _rotation_sense, aa_breakdown, adiabatic_phases, principal_value
from .spectral import (
    InternalConsistencyError,
    eigensystem,
    singlet_energy,
    tilde_eigensystem,
    triplet_energies,
)
from .twocycle import berry_gate, run_aa_two_cycle, run_adiabatic_two_cycle

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "cmd_evolve",
    "cmd_phases",
    "cmd_spectrum",
    "cmd_sweep",
    "cmd_twocycle",
    "entrypoint",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1

_PARAM_KEYS = ("omega0", "omega_a0", "omega_b0", "gamma", "gamma_a", "gamma_b", "J", "omega1")
# Sweep axes: the six parameter fields plus the equal-coupling pair aliases.
_AXIS_FIELDS = ("omega_a0", "omega_b0", "gamma_a", "gamma_b", "J", "omega1", "omega0", "gamma")

_NAMED_STATES = ("uu", "ud", "du", "dd", "singlet")


class UsageError(Exception):
    pass


class NumericFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# parameter resolution


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key not in _PARAM_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
    return values


def _resolve_params(args, config: dict) -> SpinParams:
    def pick(specific: str, shared: str | None = None) -> float:
        for source in (vars(args), config):
            for key in ([specific, shared] if shared else [specific]):
                if key is not None and source.get(key) is not None:
                    return float(source[key])
        return 0.0

    try:
        return SpinParams(
            omega_a0=pick("omega_a0", "omega0"),
            omega_b0=pick("omega_b0", "omega0"),
            gamma_a=pick("gamma_a", "gamma"),
            gamma_b=pick("gamma_b", "gamma"),
            J=pick("J"),
            omega1=pick("omega1"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_initial(spec: str, params: SpinParams) -> TwoSpinState:
    name = spec.strip().lower()
    if name in _NAMED_STATES:
        return TwoSpinState.singlet() if name == "singlet" else TwoSpinState.basis_state(name)
    for prefix in ("eigen", "tilde"):
        if name.startswith(prefix) and name[len(prefix):] in ("1", "2", "3", "4"):
            try:
                system = eigensystem(params, 0.0) if prefix == "eigen" else tilde_eigensystem(params)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            return system.state(int(name[len(prefix):]))
    parts = spec.split(",")
    if len(parts) == 8:
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise UsageError(f"bad amplitude list {spec!r}") from exc
        vec = [complex(nums[2 * i], nums[2 * i + 1]) for i in range(4)]
        try:
            return TwoSpinState.normalized(vec)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown initial state {spec!r}; use uu/ud/du/dd/singlet, eigenN, tildeN "
        "or 8 comma-separated re,im values"
    )


# ---------------------------------------------------------------------------
# quantities: the per-parameter-point tables shared by the commands and sweeps


def _spectrum_rows(params: SpinParams):
    energies = triplet_energies(params.omega0, params.gamma, params.J) + (
        singlet_energy(params.J),
    )
    return [[n, energies[n - 1]] for n in (1, 2, 3, 4)]


_PHASE_COLUMNS = [
    "n",
    "total_raw",
    "dynamical_raw",
    "geometric_raw",
    "total_principal",
    "dynamical_principal",
    "geometric_principal",
]


def _phase_rows(params: SpinParams, breakdown):
    rows = []
    for n in (1, 2, 3, 4):
        raw = breakdown(params, n)
        pv = raw.principal()
        rows.append([n, raw.total, raw.dynamical, raw.geometric, pv.total, pv.dynamical, pv.geometric])
    return rows


def _defect_rows(params: SpinParams):
    return [[run_aa_two_cycle(params, TwoSpinState.basis_state("uu")).identity_defect]]


# quantity -> (columns, rows function of the parameters). The row functions
# look the library functions up at call time, so they can be traced or patched.
_QUANTITIES = {
    "spectrum": (["n", "energy"], _spectrum_rows),
    "berry": (_PHASE_COLUMNS, lambda params: _phase_rows(params, adiabatic_phases)),
    "aa": (_PHASE_COLUMNS, lambda params: _phase_rows(params, aa_breakdown)),
    "twocycle-defect": (["identity_defect"], _defect_rows),
}


# ---------------------------------------------------------------------------
# commands (each returns columns, rows, extras)


def cmd_spectrum(params: SpinParams):
    columns, rows = _QUANTITIES["spectrum"]
    return columns, rows(params), {}


def cmd_phases(params: SpinParams, mode: str):
    if mode not in ("berry", "aa"):
        raise UsageError(f"mode must be berry or aa, got {mode!r}")
    columns, rows = _QUANTITIES[mode]
    return columns, rows(params), {}


def cmd_evolve(params: SpinParams, initial: TwoSpinState, t: float, steps: int):
    if steps < 0:
        raise UsageError("steps must be >= 0")
    result = evolve_exact(params, initial, t) if steps == 0 else evolve_stepped(params, initial, t, steps)
    final = result.final_state
    overlap = initial.overlap(final)
    rows = [
        [label, final[i].real, final[i].imag, float(abs(final[i]) ** 2)]
        for i, label in enumerate(("uu", "ud", "du", "dd"))
    ]
    extras = {
        "method": result.method,
        "elapsed": t,
        "fidelity_vs_initial": abs(overlap),
        "phase_vs_initial": float(np.angle(overlap)),
    }
    if result.step_count is not None:
        extras["step_count"] = result.step_count
    return ["component", "re", "im", "probability"], rows, extras


def _adiabatic_cycle_rows(params: SpinParams, steps: int | None):
    gate = berry_gate(params.omega0, params.gamma, params.J)
    sense = _rotation_sense(params)
    system = eigensystem(params, 0.0)
    rows = []
    for n in (1, 2, 3, 4):
        start = system.state(n)
        run = run_adiabatic_two_cycle(params, start, steps)
        overlap = start.overlap(run.final_state)
        phase = float(np.angle(overlap))
        target = 2.0 * sense * gate.phases[n - 1]
        rows.append(
            [n, phase, target, abs(principal_value(phase - target)), abs(overlap), run.deviation]
        )
    return rows


def cmd_twocycle(params: SpinParams, scheme: str, steps: int = 0, omega1_values=None):
    if scheme not in ("adiabatic", "aa"):
        raise UsageError(f"scheme must be adiabatic or aa, got {scheme!r}")
    if omega1_values and scheme != "adiabatic":
        raise UsageError("--omega1-sweep applies to the adiabatic scheme only")
    stepped = steps if steps > 0 else None
    if scheme == "adiabatic":
        if omega1_values:
            columns = ["omega1", "n", "phase", "target", "circular_deviation"]
            rows = []
            for w1 in omega1_values:
                sub_rows = _adiabatic_cycle_rows(params.replace(omega1=w1), stepped)
                rows.extend([[w1] + r[:4] for r in sub_rows])
            return columns, rows, {}
        columns = ["n", "phase", "target", "circular_deviation", "fidelity", "gate_deviation"]
        return columns, _adiabatic_cycle_rows(params, stepped), {}

    run = run_aa_two_cycle(params, TwoSpinState.basis_state("uu"))
    system = tilde_eigensystem(params)
    rows = []
    for n in (1, 2, 3, 4):
        breakdown = aa_breakdown(params, n)
        path = run_aa_two_cycle(params, system.state(n))
        phase = float(np.angle(system.state(n).overlap(path.final_state)))
        rows.append(
            [n, breakdown.total, principal_value(breakdown.total), phase, run.identity_defect]
        )
    columns = ["n", "one_cycle_total_raw", "one_cycle_total_principal", "two_cycle_phase", "identity_defect"]
    return columns, rows, {"identity_defect": run.identity_defect}


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepAxis:
    field: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.field not in _AXIS_FIELDS:
            raise UsageError(f"unknown sweep field {self.field!r}")
        if self.count < 1:
            raise UsageError("axis count must be >= 1")
        if not (self.start <= self.stop):
            raise UsageError("axis start must be <= stop")

    def values(self):
        if self.count == 1:
            return [self.start]
        return list(np.linspace(self.start, self.stop, self.count))


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[SweepAxis, ...]
    quantity: str

    def __post_init__(self):
        if not self.axes:
            raise UsageError("at least one sweep axis is required")
        if self.quantity not in _QUANTITIES:
            raise UsageError(f"unknown quantity {self.quantity!r}")


def _apply_axis(params: SpinParams, field: str, value: float) -> SpinParams:
    if field == "omega0":
        return params.replace(omega_a0=value, omega_b0=value)
    if field == "gamma":
        return params.replace(gamma_a=value, gamma_b=value)
    return params.replace(**{field: value})


def cmd_sweep(spec: SweepSpec, base: SpinParams):
    """Evaluate the quantity over the grid; rows in lexicographic grid order."""
    columns, quantity_rows = _QUANTITIES[spec.quantity]
    rows = []
    for point in product(*(axis.values() for axis in spec.axes)):
        params = base
        for axis, value in zip(spec.axes, point):
            params = _apply_axis(params, axis.field, value)
        rows.extend(list(point) + row for row in quantity_rows(params))
    return [axis.field for axis in spec.axes] + columns, rows, {}


# ---------------------------------------------------------------------------
# rendering


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value) + 0.0:.12e}"  # +0.0 drops negative zero
    return str(value)


def _json_value(value):
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value) + 0.0:.12e}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _render(fmt: str, command: str, params: SpinParams, columns, rows, extras) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": {f.name: _json_value(getattr(params, f.name)) for f in fields(params)},
        "columns": list(columns),
        "rows": [[_json_value(v) for v in row] for row in rows],
    }
    for key, value in extras.items():
        document[key] = _json_value(value)
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _require_finite(rows, extras):
    for row in rows:
        for value in row:
            if isinstance(value, (float, np.floating)) and not math.isfinite(float(value)):
                raise NumericFailure(f"non-finite value {value!r} in output row")
    for key, value in extras.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(float(value)):
            raise NumericFailure(f"non-finite value {value!r} in {key}")


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _error_object(code: int, message: str):
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    group = params.add_argument_group("model parameters")
    group.add_argument("--omega0", type=float, default=None, help="static detuning for both spins")
    group.add_argument("--omega-a0", dest="omega_a0", type=float, default=None)
    group.add_argument("--omega-b0", dest="omega_b0", type=float, default=None)
    group.add_argument("--gamma", type=float, default=None, help="rotating-field coupling for both spins")
    group.add_argument("--gamma-a", dest="gamma_a", type=float, default=None)
    group.add_argument("--gamma-b", dest="gamma_b", type=float, default=None)
    group.add_argument("--J", dest="J", type=float, default=None, help="Ising constant")
    group.add_argument("--omega1", type=float, default=None, help="field rotation rate")
    group.add_argument("--config", default=None, help="flat key=value parameter file")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None, help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="twospin",
        description="Exact dynamics and geometric phases of two Ising-coupled spins in a rotating field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", parents=[params, output], help="four energy levels")

    phases_p = sub.add_parser("phases", parents=[params, output], help="cycle phase breakdowns")
    phases_p.add_argument("--mode", choices=("berry", "aa"), default="berry")

    evolve_p = sub.add_parser("evolve", parents=[params, output], help="propagate an initial state")
    evolve_p.add_argument("--initial", default="uu")
    evolve_p.add_argument("--time", type=float, default=None, help="evolution time (default: one period)")
    evolve_p.add_argument("--steps", type=int, default=0, help="RK4 steps; 0 uses the exact propagator")

    twocycle_p = sub.add_parser("twocycle", parents=[params, output], help="sign-reversal protocols")
    twocycle_p.add_argument("--scheme", choices=("adiabatic", "aa"), required=True)
    twocycle_p.add_argument("--steps", type=int, default=0, help="RK4 steps per cycle; 0 is exact")
    twocycle_p.add_argument(
        "--omega1-sweep",
        dest="omega1_sweep",
        default=None,
        help="comma-separated omega1 values for a convergence table (adiabatic scheme)",
    )

    sweep_p = sub.add_parser("sweep", parents=[params, output], help="grid sweep to a file")
    sweep_p.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="FIELD=START:STOP:COUNT",
        help="sweep axis; repeatable",
    )
    sweep_p.add_argument("--quantity", choices=tuple(_QUANTITIES), required=True)
    return parser


def _parse_axis(text: str) -> SweepAxis:
    field, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or len(parts) != 3:
        raise UsageError(f"bad axis {text!r}; expected FIELD=START:STOP:COUNT")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad axis numbers in {text!r}") from exc
    return SweepAxis(field=field.strip().replace("-", "_"), start=start, stop=stop, count=count)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config) if args.config else {}
        params = _resolve_params(args, config)

        if args.command == "spectrum":
            columns, rows, extras = cmd_spectrum(params)
        elif args.command == "phases":
            columns, rows, extras = cmd_phases(params, args.mode)
        elif args.command == "evolve":
            initial = _parse_initial(args.initial, params)
            t = args.time if args.time is not None else params.period
            columns, rows, extras = cmd_evolve(params, initial, t, args.steps)
        elif args.command == "twocycle":
            omega1_values = None
            if args.omega1_sweep:
                try:
                    omega1_values = [float(v) for v in args.omega1_sweep.split(",") if v.strip()]
                except ValueError as exc:
                    raise UsageError(f"bad --omega1-sweep list {args.omega1_sweep!r}") from exc
            columns, rows, extras = cmd_twocycle(params, args.scheme, args.steps, omega1_values)
        else:
            axes = tuple(_parse_axis(a) for a in args.axis)
            spec = SweepSpec(axes=axes, quantity=args.quantity)
            columns, rows, extras = cmd_sweep(spec, params)

        _require_finite(rows, extras)
        text = _render(args.format, args.command, params, columns, rows, extras)
    # LinAlgError is a ValueError, so the numeric clause must come first.
    except (NumericFailure, ArithmeticError, np.linalg.LinAlgError, InternalConsistencyError) as exc:
        _error_object(EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except (UsageError, ValueError) as exc:
        _error_object(EXIT_USAGE, str(exc))
        return EXIT_USAGE

    try:
        _emit(text, args.out)
    except OSError as exc:
        _error_object(EXIT_IO, f"cannot write output: {exc}")
        return EXIT_IO
    return EXIT_OK


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
