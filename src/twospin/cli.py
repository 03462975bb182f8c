"""Command-line front end.

Subcommands: spectrum, phases, evolve, twocycle, sweep. Parameter names are
the keys of core.PARAM_GROUPS: the six SpinParams fields plus the omega0/gamma
aliases that set both spins. The same names serve as flags, config-file keys
and sweep axes. Each field takes the first value found in this order: per-spin
flag, pair flag, per-spin config key, pair config key, then 0. Output is CSV
or JSON with fixed %.12e float formatting so repeated runs are byte-identical.

Exit codes: 0 success, 2 usage or parameter error (including a sweep grid of
more than MAX_GRID_POINTS points), 3 output I/O error, 4 numeric failure
(non-finite result, overflow, lost propagator phases, failed diagonalization).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from itertools import product

import numpy as np

from .core import PARAM_GROUPS, SpinParams, TwoSpinState
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
    "cmd_evolve",
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

# Largest sweep grid (product of the axis counts), checked before any axis
# values are built: every row is held in memory until the grid is done.
MAX_GRID_POINTS = 250_000

_NAMED_STATES = ("uu", "ud", "du", "dd", "singlet")


# ---------------------------------------------------------------------------
# parameter resolution


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
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
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip().replace("-", "_")
        if key not in PARAM_GROUPS:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
    return values


def _resolve_params(args, config: dict) -> SpinParams:
    # Later writes win: flags after config, per-spin names after their pair.
    values = dict.fromkeys((f.name for f in fields(SpinParams)), 0.0)
    for source in (config, vars(args)):
        for name, targets in PARAM_GROUPS.items():
            if source.get(name) is not None:
                values.update(dict.fromkeys(targets, float(source[name])))
    return SpinParams(**values)


def _parse_initial(spec: str, params: SpinParams) -> TwoSpinState:
    name = spec.strip().lower()
    if name in _NAMED_STATES:
        return TwoSpinState.singlet() if name == "singlet" else TwoSpinState.basis_state(name)
    for prefix in ("eigen", "tilde"):
        if name.startswith(prefix) and name[len(prefix):] in ("1", "2", "3", "4"):
            system = eigensystem(params, 0.0) if prefix == "eigen" else tilde_eigensystem(params)
            return system.state(int(name[len(prefix):]))
    parts = spec.split(",")
    if len(parts) == 8:
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad amplitude list {spec!r}") from exc
        vec = [complex(nums[2 * i], nums[2 * i + 1]) for i in range(4)]
        return TwoSpinState.normalized(vec)
    raise ValueError(
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


def cmd_evolve(params: SpinParams, initial: TwoSpinState, t: float, steps: int):
    if steps < 0:
        raise ValueError("steps must be >= 0")
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
    starts = [system.state(n) for n in (1, 2, 3, 4)]
    rows = []
    for n, start, run in zip((1, 2, 3, 4), starts, run_adiabatic_two_cycle(params, starts, steps)):
        overlap = start.overlap(run.final_state)
        phase = float(np.angle(overlap))
        target = 2.0 * sense * gate.phases[n - 1]
        rows.append(
            [n, phase, target, abs(principal_value(phase - target)), abs(overlap), run.deviation]
        )
    return rows


def cmd_twocycle(params: SpinParams, scheme: str, steps: int = 0, omega1_values=None):
    if scheme not in ("adiabatic", "aa"):
        raise ValueError(f"scheme must be adiabatic or aa, got {scheme!r}")
    if omega1_values and scheme != "adiabatic":
        raise ValueError("--omega1-sweep applies to the adiabatic scheme only")
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

    if params.omega1 == 0.0:  # the protocol's refusal comes before the spectrum's
        raise ValueError("cycle protocols need omega1 != 0")
    system = tilde_eigensystem(params)
    starts = [system.state(n) for n in (1, 2, 3, 4)]
    run, *paths = run_aa_two_cycle(params, [TwoSpinState.basis_state("uu"), *starts])
    rows = []
    for n, start, path in zip((1, 2, 3, 4), starts, paths):
        breakdown = aa_breakdown(params, n)
        phase = float(np.angle(start.overlap(path.final_state)))
        rows.append(
            [n, breakdown.total, principal_value(breakdown.total), phase, run.identity_defect]
        )
    columns = ["n", "one_cycle_total_raw", "one_cycle_total_principal", "two_cycle_phase", "identity_defect"]
    return columns, rows, {"identity_defect": run.identity_defect}


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(axes, quantity: str, base: SpinParams):
    """Evaluate the quantity over the grid of (name, values) axes; rows in lexicographic grid order."""
    columns, quantity_rows = _QUANTITIES[quantity]
    names = [name for name, _ in axes]
    rows = []
    for point in product(*(values for _, values in axes)):
        updates = {}
        for name, value in zip(names, point):
            updates.update(dict.fromkeys(PARAM_GROUPS[name], value))
        rows.extend(list(point) + row for row in quantity_rows(base.replace(**updates)))
    return names + columns, rows, {}


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
                raise ArithmeticError(f"non-finite value {value!r} in output row")
    for key, value in extras.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(float(value)):
            raise ArithmeticError(f"non-finite value {value!r} in {key}")


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


def _parse_axes(texts) -> list[tuple[str, list]]:
    """FIELD=START:STOP:COUNT texts -> (name, values); the grid size is capped before values are built."""
    specs = []
    for text in texts:
        name, sep, rest = text.partition("=")
        parts = rest.split(":")
        if not sep or len(parts) != 3:
            raise ValueError(f"bad axis {text!r}; expected FIELD=START:STOP:COUNT")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad axis numbers in {text!r}") from exc
        name = name.strip().replace("-", "_")
        if name not in PARAM_GROUPS:
            raise ValueError(f"unknown sweep field {name!r}")
        if count < 1:
            raise ValueError("axis count must be >= 1")
        if not (start <= stop):
            raise ValueError("axis start must be <= stop")
        specs.append((name, start, stop, count))
    points = math.prod(count for *_, count in specs)
    if points > MAX_GRID_POINTS:
        raise ValueError(f"sweep grid has {points} points; the limit is {MAX_GRID_POINTS}")
    return [
        (name, [start] if count == 1 else list(np.linspace(start, stop, count)))
        for name, start, stop, count in specs
    ]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config) if args.config else {}
        params = _resolve_params(args, config)

        if args.command in ("spectrum", "phases"):
            columns, quantity_rows = _QUANTITIES[args.mode if args.command == "phases" else "spectrum"]
            rows, extras = quantity_rows(params), {}
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
                    raise ValueError(f"bad --omega1-sweep list {args.omega1_sweep!r}") from exc
            columns, rows, extras = cmd_twocycle(params, args.scheme, args.steps, omega1_values)
        else:
            columns, rows, extras = cmd_sweep(_parse_axes(args.axis), args.quantity, params)

        _require_finite(rows, extras)
        text = _render(args.format, args.command, params, columns, rows, extras)
    # LinAlgError is a ValueError, so the numeric clause must come first.
    except (ArithmeticError, np.linalg.LinAlgError, InternalConsistencyError) as exc:
        _error_object(EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except ValueError as exc:
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
