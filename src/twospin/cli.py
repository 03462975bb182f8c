"""Command-line front end.

Subcommands: spectrum, phases, evolve, twocycle, sweep. The model flags,
config-file keys and sweep axes are the keys of core.PARAM_GROUPS (flags spell
`_` as `-`): the six SpinParams fields plus the omega0/gamma aliases that set
both spins. Each field takes the first value found in this order: per-spin
flag, pair flag, per-spin config key, pair config key, then 0.

Output is CSV or JSON. Every value passes once through _cell: a float becomes
%.12e text (a JSON float is that text read back), so repeated runs are
byte-identical, and a non-finite float, printed or not, is a numeric failure.

Sweeps walk the grid in lexicographic order in blocks of SWEEP_BLOCK points,
one kernel call per block: the closed-form kernel for spectrum, berry and aa
(the spectrum and phases commands are its N = 1 case), the stacked propagator
kernel for twocycle-defect and the twocycle tables, whose --omega1-sweep list
is walked as a one-axis grid. A failing block is run again point by point, so
errors are those of the first failing grid point.

Exit codes: 0 success, 2 usage or parameter error (including a sweep grid of
more than MAX_GRID_POINTS points, an axis with a non-finite bound or span, a
non-finite evolution time, an omega1 whose period overflows), 3 output I/O
error, 4 numeric failure (non-finite result or phase, overflow, lost
propagator phases, failed diagonalization).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from itertools import islice, product

import numpy as np

from .core import PARAM_GROUPS, SpinParams, TwoSpinState, _columns, _equal_coupling_fields, _points
from .evolution import evolve_exact, evolve_stepped
from .phases import _cycle_phases, _principal_values, principal_value
from .spectral import InternalConsistencyError, _closed_form, eigensystem, singlet_energy, tilde_eigensystem
from .twocycle import _aa_two_cycles, _adiabatic_two_cycles, _require_rotation

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

# Grid points per call of a quantity's block function. Blocks amortise the
# per-call cost of the stacked propagator kernel while bounding its (N, 4, 4)
# temporaries: one block of the whole 10k-point grid raised peak memory by
# about 20 MB.
SWEEP_BLOCK = 512

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
# quantities: the per-parameter-point tables shared by the commands and sweeps.
# A block function takes field columns (SpinParams field name -> (N,) array,
# see core._columns) and returns one list of rows per point, in column order.


def _spectrum_rows(columns):
    omega0, gamma, J = _equal_coupling_fields(columns)
    energies = np.column_stack([_closed_form(omega0, gamma, J).energies, singlet_energy(J)])
    return [[[n, energy] for n, energy in enumerate(point, start=1)] for point in energies.tolist()]


_PHASE_COLUMNS = ["n"] + [
    f"{part}_{view}" for view in ("raw", "principal") for part in ("total", "dynamical", "geometric")
]


def _phase_rows(columns, shifted: bool):
    """Raw total/dynamical/geometric per label, then each wrapped into (-pi, pi] for display."""
    raw = np.stack(_cycle_phases(columns, shifted), axis=-1)
    table = np.concatenate([raw, _principal_values(raw)], axis=-1).tolist()
    return [[[n, *values] for n, values in enumerate(point, start=1)] for point in table]


def _adiabatic_rows(columns, steps: int):
    """Per t=0 eigenstate n: the phase of <n|U2 U1|n>, its target, their circular deviation, the
    fidelity |<n|U2 U1|n>| and the distance of U2 U1 |n> from the ideal gate's output.
    """
    systems, u_first, u_second, gates, targets = _adiabatic_two_cycles(columns, steps or None)
    table = []
    for system, u1, u2, gate, point_targets in zip(systems, u_first, u_second, gates, targets.tolist()):
        rows = []
        for n, target in enumerate(point_targets, start=1):
            start = system.state(n).amplitudes
            final = u2 @ (u1 @ start)
            overlap = complex(np.vdot(start, final))
            phase = float(np.angle(overlap))
            deviation = float(np.linalg.norm(final - gate @ start))
            rows.append([n, phase, target, abs(principal_value(phase - target)), abs(overlap), deviation])
        table.append(rows)
    return table


def _aa_rows(columns):
    """Per rotating-frame eigenstate n: the one-cycle total phase, raw and principal, the phase of
    <n|U2 U1|n> and the identity defect max|U2 U1 - I|.
    """
    _require_rotation(columns["omega1"])  # the protocol's refusal comes before the spectrum's
    systems = [tilde_eigensystem(point) for point in _points(columns)]
    composed, defects = _aa_two_cycles(columns)
    total = _cycle_phases(columns, shifted=True)[0]
    table = []
    for system, u, raws, principals, defect in zip(
        systems, composed, total.tolist(), _principal_values(total).tolist(), defects.tolist()
    ):
        starts = [system.state(n).amplitudes for n in (1, 2, 3, 4)]
        phases = [float(np.angle(np.vdot(start, u @ start))) for start in starts]
        table.append([[n, *values, defect] for n, values in enumerate(zip(raws, principals, phases), start=1)])
    return table


def _defect_rows(columns):
    """One stacked evaluation of the AA two-cycle identity defect for all points."""
    return [[[defect]] for defect in _aa_two_cycles(columns)[1].tolist()]


# quantity -> (columns, block function). The block functions look the library
# functions up at call time, so they can be traced or patched.
_QUANTITIES = {
    "spectrum": (["n", "energy"], _spectrum_rows),
    "berry": (_PHASE_COLUMNS, lambda columns: _phase_rows(columns, shifted=False)),
    "aa": (_PHASE_COLUMNS, lambda columns: _phase_rows(columns, shifted=True)),
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


def cmd_twocycle(params: SpinParams, scheme: str, steps: int = 0, omega1_values=None):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if scheme not in ("adiabatic", "aa"):
        raise ValueError(f"scheme must be adiabatic or aa, got {scheme!r}")
    if omega1_values is not None and scheme != "adiabatic":
        raise ValueError("--omega1-sweep applies to the adiabatic scheme only")
    if steps and scheme != "adiabatic":
        raise ValueError("--steps applies to the adiabatic scheme only; the aa scheme is exact")
    if scheme == "aa":
        rows = _aa_rows(_columns(params, 1))[0]
        columns = ["n", "one_cycle_total_raw", "one_cycle_total_principal", "two_cycle_phase", "identity_defect"]
        return columns, rows, {"identity_defect": rows[0][-1]}
    columns = ["n", "phase", "target", "circular_deviation", "fidelity", "gate_deviation"]
    if omega1_values is None:
        return columns, _adiabatic_rows(_columns(params, 1), steps)[0], {}
    if not omega1_values:
        raise ValueError("--omega1-sweep needs at least one omega1 value")
    table = lambda block: [[row[:4] for row in rows] for rows in _adiabatic_rows(block, steps)]
    return ["omega1"] + columns[:4], _walk([("omega1", omega1_values)], table, params), {}


# ---------------------------------------------------------------------------
# sweep


def _walk(axes, block_rows, base: SpinParams):
    """Rows of block_rows over the grid of (name, values) axes, each led by its axis values.

    The grid is walked in lexicographic order in blocks of SWEEP_BLOCK points,
    the other fields from base. A failing block is run again point by point, so
    the first failing point in grid order raises its own error.
    """
    names = [name for name, _ in axes]
    points = product(*(values for _, values in axes))
    rows = []
    while block := list(islice(points, SWEEP_BLOCK)):
        axis_columns = np.array(block, dtype=float).T.copy()
        block_columns = _columns(base, len(block))
        for name, values in zip(names, axis_columns):  # a later axis overrides an earlier one
            block_columns.update(dict.fromkeys(PARAM_GROUPS[name], values))
        try:
            point_rows = block_rows(block_columns)
        except (ArithmeticError, ValueError, InternalConsistencyError):
            point_rows = [
                block_rows({field: column[i : i + 1] for field, column in block_columns.items()})[0]
                for i in range(len(block))
            ]
        for point, prows in zip(block, point_rows):
            rows.extend(list(point) + row for row in prows)
    return rows


def cmd_sweep(axes, quantity: str, base: SpinParams):
    """Evaluate the quantity over the grid of (name, values) axes; rows in lexicographic grid order."""
    columns, block_rows = _QUANTITIES[quantity]
    return [name for name, _ in axes] + columns, _walk(axes, block_rows, base), {}


# ---------------------------------------------------------------------------
# rendering


def _cell(value) -> str:
    """The one text form of an output value; a non-finite float is a numeric failure."""
    if isinstance(value, float):  # numpy float64 included
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite value {value!r} in output")
        return f"{value + 0.0:.12e}"  # +0.0 drops negative zero
    return str(value)


def _render(fmt: str, command: str, params: SpinParams, columns, rows, extras) -> str:
    if fmt == "csv":
        for value in extras.values():  # not printed, but checked like the rows
            _cell(value)
        lines = [",".join(columns)]
        lines.extend(",".join(map(_cell, row)) for row in rows)
        return "\n".join(lines) + "\n"

    def as_json(v):  # a JSON float is its CSV text read back
        return float(_cell(v)) if isinstance(v, float) else v

    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": {f.name: as_json(getattr(params, f.name)) for f in fields(params)},
        "columns": list(columns),
        "rows": [list(map(as_json, row)) for row in rows],
    }
    document.update((key, as_json(v)) for key, v in extras.items())
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _error_object(code: int, message: str):
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    group = params.add_argument_group("model parameters")
    for name, targets in PARAM_GROUPS.items():  # --omega-a0 sets args.omega_a0
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, dest=name, type=float, default=None, help="sets " + " and ".join(targets))
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
    # argparse takes only -N and -N.N for negative numbers, so --J -1e-3 would read
    # as an unknown flag; here any token starting with - and a digit or . is a value.
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"-[\d.]")
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
        if not math.isfinite(stop - start):  # also catches a span that overflows
            raise ValueError(f"axis bounds and their span must be finite, got {text!r}")
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
            columns, block_rows = _QUANTITIES[args.mode if args.command == "phases" else "spectrum"]
            rows, extras = block_rows(_columns(params, 1))[0], {}
        elif args.command == "evolve":
            if args.time is not None and not math.isfinite(args.time):
                raise ValueError(f"time must be finite, got {args.time!r}")
            initial = _parse_initial(args.initial, params)
            t = args.time if args.time is not None else params.period
            columns, rows, extras = cmd_evolve(params, initial, t, args.steps)
        elif args.command == "twocycle":
            omega1_values = None
            if args.omega1_sweep is not None:
                try:
                    omega1_values = [float(v) for v in args.omega1_sweep.split(",") if v.strip()]
                except ValueError as exc:
                    raise ValueError(f"bad --omega1-sweep list {args.omega1_sweep!r}") from exc
            columns, rows, extras = cmd_twocycle(params, args.scheme, args.steps, omega1_values)
        else:
            columns, rows, extras = cmd_sweep(_parse_axes(args.axis), args.quantity, params)

        text = _render(args.format, args.command, params, columns, rows, extras)
    # LinAlgError is a ValueError, so the numeric clause must come first.
    except (ArithmeticError, np.linalg.LinAlgError, InternalConsistencyError) as exc:
        _error_object(EXIT_NUMERIC, str(exc))
        return EXIT_NUMERIC
    except ValueError as exc:
        _error_object(EXIT_USAGE, str(exc))
        return EXIT_USAGE

    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        _error_object(EXIT_IO, f"cannot write output: {exc}")
        return EXIT_IO
    return EXIT_OK


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
