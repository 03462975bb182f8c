"""Command-line front end.

Subcommands: spectrum, phases, evolve, twocycle, sweep. The model flags,
config-file keys and sweep axes are the keys of core.PARAM_GROUPS (flags spell
`_` as `-`): the six SpinParams fields plus the omega0/gamma aliases that set
both spins. Each field takes the first value found in this order: per-spin
flag, pair flag, per-spin config key, pair config key, then 0.

Output is CSV or JSON, rendered by _render from an (R, C) float table: one
finiteness check (a non-finite value, printed or not, is a numeric failure),
then one % operation per RENDER_CHUNK rows, in which each distinct float is
formatted once as %.12e; a JSON float is that text read back, written with %r.

Sweeps walk the grid in lexicographic order in blocks of SWEEP_BLOCK points,
one kernel call per block: the closed-form kernel for spectrum, berry and aa
(the spectrum and phases commands are its N = 1 case), the stacked propagator
kernel for twocycle-defect and the twocycle tables, whose --omega1-sweep list
is walked as a one-axis grid. A failing block is run again point by point, so
errors are those of the first failing grid point.

Exit codes: 0 success, 2 usage or parameter error (including a sweep grid of
more than MAX_GRID_POINTS points, an axis with a non-finite bound or span, a
non-finite evolution time, an omega1 whose period overflows, an RK4 run of
more than MAX_RK4_STEPS steps times problems), 3 output I/O error, 4 numeric
failure (non-finite result or phase, overflow, lost propagator phases, failed
diagonalization).
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

from .core import BASIS_LABELS, PARAM_GROUPS, SpinParams, TwoSpinState, _columns, _equal_coupling_fields, _points
from .evolution import evolve_exact, evolve_stepped
from .phases import _cycle_phases, _principal_values
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

# Largest RK4 run in steps x problems (evolve: 1, adiabatic twocycle: 2 per omega1 value), checked up front.
MAX_RK4_STEPS = 10_000_000

# Grid points per call of a quantity's block function. Blocks amortise the
# per-call cost of the stacked propagator kernel while bounding its (N, 4, 4)
# temporaries: one block of the whole 10k-point grid raised peak memory by
# about 20 MB.
SWEEP_BLOCK = 512

# Table rows per % operation of _render. Rendering the benchmark's 79,524-row
# aa JSON sweep in one piece raised its peak memory from 63 to 131 MB.
RENDER_CHUNK = 1024

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
# see core._columns) and returns k rows per point as an (N, k, C) float array.


def _numbered(values: np.ndarray) -> np.ndarray:
    """(N, 4, C) values -> (N, 4, 1 + C): each point's rows led by their label n = 1..4."""
    labels = np.broadcast_to(np.arange(1.0, 5.0)[:, None], (len(values), 4, 1))
    return np.concatenate([labels, values], axis=-1)


def _spectrum_rows(columns):
    omega0, gamma, J = _equal_coupling_fields(columns)
    return _numbered(np.column_stack([_closed_form(omega0, gamma, J).energies, singlet_energy(J)])[..., None])


_PHASE_COLUMNS = ["n"] + [
    f"{part}_{view}" for view in ("raw", "principal") for part in ("total", "dynamical", "geometric")
]


def _phase_rows(columns, shifted: bool):
    """Raw total/dynamical/geometric per label, then each wrapped into (-pi, pi] for display."""
    raw = np.stack(_cycle_phases(columns, shifted), axis=-1)
    return _numbered(np.concatenate([raw, _principal_values(raw)], axis=-1))


def _adiabatic_rows(columns, steps: int):
    """Per t=0 eigenstate n: the phase of <n|U2 U1|n>, its target, their circular deviation, the
    fidelity |<n|U2 U1|n>| and the distance of U2 U1 |n> from the ideal gate's output.
    """
    systems, u_first, u_second, gates, targets = _adiabatic_two_cycles(columns, steps or None)
    table = np.empty((len(systems), 4, 5))
    for system, u1, u2, gate, rows in zip(systems, u_first, u_second, gates, table):
        for n, row in enumerate(rows, start=1):
            start = system.state(n).amplitudes
            final = u2 @ (u1 @ start)
            overlap = complex(np.vdot(start, final))
            row[[0, 3, 4]] = np.angle(overlap), abs(overlap), np.linalg.norm(final - gate @ start)
    table[..., 1] = targets
    table[..., 2] = np.abs(_principal_values(table[..., 0] - targets))
    return _numbered(table)


def _aa_rows(columns):
    """Per rotating-frame eigenstate n: the one-cycle total phase, raw and principal, the phase of
    <n|U2 U1|n> and the identity defect max|U2 U1 - I|.
    """
    _require_rotation(columns["omega1"])  # the protocol's refusal comes before the spectrum's
    systems = [tilde_eigensystem(point) for point in _points(columns)]
    composed, defects = _aa_two_cycles(columns)
    total = _cycle_phases(columns, shifted=True)[0]
    principal = _principal_values(total)
    starts = [[system.state(n).amplitudes for n in (1, 2, 3, 4)] for system in systems]
    phases = [[np.angle(np.vdot(start, u @ start)) for start in point] for point, u in zip(starts, composed)]
    return _numbered(np.stack([total, principal, np.array(phases), np.repeat(defects[:, None], 4, axis=1)], axis=-1))


def _defect_rows(columns):
    """One stacked evaluation of the AA two-cycle identity defect for all points."""
    return _aa_two_cycles(columns)[1][:, None, None]


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


def _check_rk4_work(steps: int, problems: int) -> None:
    if steps * problems > MAX_RK4_STEPS:
        raise ValueError(f"RK4 run of {steps} steps x {problems} problems; the limit is {MAX_RK4_STEPS} steps")


def cmd_evolve(params: SpinParams, initial: TwoSpinState, t: float, steps: int):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_rk4_work(steps, 1)
    result = evolve_exact(params, initial, t) if steps == 0 else evolve_stepped(params, initial, t, steps)
    final = result.final_state
    overlap = initial.overlap(final)
    rows = np.array([[i, final[i].real, final[i].imag, abs(final[i]) ** 2] for i in range(4)])
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
        return columns, rows, {"identity_defect": float(rows[0, -1])}
    if omega1_values is not None and not omega1_values:
        raise ValueError("--omega1-sweep needs at least one omega1 value")
    _check_rk4_work(steps, 2 if omega1_values is None else 2 * len(omega1_values))
    columns = ["n", "phase", "target", "circular_deviation", "fidelity", "gate_deviation"]
    if omega1_values is None:
        return columns, _adiabatic_rows(_columns(params, 1), steps)[0], {}
    table = lambda block: _adiabatic_rows(block, steps)[..., :4]
    return ["omega1"] + columns[:4], _walk([("omega1", omega1_values)], table, params), {}


# ---------------------------------------------------------------------------
# sweep


def _walk(axes, block_rows, base: SpinParams) -> np.ndarray:
    """The (R, C) table of block_rows over the grid of (name, values) axes, each row led by its axis values.

    The grid is walked in lexicographic order in blocks of SWEEP_BLOCK points,
    the other fields from base. A failing block is run again point by point, so
    the first failing point in grid order raises its own error.
    """
    names = [name for name, _ in axes]
    points = product(*(values for _, values in axes))
    tables = []
    while block := list(islice(points, SWEEP_BLOCK)):
        axis_values = np.array(block, dtype=float)
        block_columns = _columns(base, len(block))
        for name, values in zip(names, axis_values.T.copy()):  # a later axis overrides an earlier one
            block_columns.update(dict.fromkeys(PARAM_GROUPS[name], values))
        try:
            table = block_rows(block_columns)
        except (ArithmeticError, ValueError, InternalConsistencyError):
            singles = ({field: column[i : i + 1] for field, column in block_columns.items()} for i in range(len(block)))
            table = np.concatenate(list(map(block_rows, singles)))
        tables.append(np.hstack([np.repeat(axis_values, table.shape[1], axis=0), table.reshape(-1, table.shape[2])]))
    return np.concatenate(tables)


def cmd_sweep(axes, quantity: str, base: SpinParams):
    """Evaluate the quantity over the grid of (name, values) axes; rows in lexicographic grid order."""
    columns, block_rows = _QUANTITIES[quantity]
    return [name for name, _ in axes] + columns, _walk(axes, block_rows, base), {}


# ---------------------------------------------------------------------------
# rendering


# Row-format field of each column per format: n is an integer, component an
# index into BASIS_LABELS (_CELLS makes their cells), any other column a float,
# whose text _float_texts makes.
_FIELDS = {"csv": {"n": "%d", "component": "%s"}, "json": {"n": "%d", "component": '"%s"'}}
_CELLS = {"n": int, "component": lambda index: BASIS_LABELS[int(index)]}


def _finite(values) -> np.ndarray:
    """values as a float array (a float array is not copied); the first non-finite entry in row-major order raises."""
    values = np.asarray(values, dtype=float)
    lost = ~np.isfinite(values)
    if lost.any():
        raise ArithmeticError(f"non-finite value {float(values[lost][0])!r} in output")
    return values


def _float_texts(fmt: str, values: np.ndarray) -> list[str]:
    """Each entry's text, row-major: %.12e of entry + 0.0 (never -0.0); JSON reads it back, writes it with %r."""
    texts = ("\n".join(["%.12e"] * values.size) % tuple((values + 0.0).ravel().tolist())).split("\n")
    return texts if fmt == "csv" else list(map(repr, map(float, texts)))


def _table_text(fmt: str, columns, rows: np.ndarray) -> str:
    """The CSV lines or the comma-separated JSON arrays of a finite table, one % per RENDER_CHUNK rows."""
    row = ",".join(_FIELDS[fmt].get(name, "%s") for name in columns)
    row, separator = (row + "\n", "") if fmt == "csv" else ("[" + row + "]", ",")
    exact = [(j, _CELLS[name]) for j, name in enumerate(columns) if name in _CELLS]
    texts = []
    for start in range(0, len(rows), RENDER_CHUNK):
        chunk = rows[start : start + RENDER_CHUNK]
        # Each distinct value once: equal doubles have equal bits and text (0.0 and -0.0 print alike; no nan).
        values, inverse = np.unique(chunk, return_inverse=True)  # inverse: flat in NumPy 1.x, chunk-shaped in 2.x
        cells = np.array(_float_texts(fmt, values), dtype=object)[inverse.reshape(-1)].tolist()
        for j, cell in exact:
            cells[j :: len(columns)] = map(cell, chunk[:, j].tolist())
        texts.append(separator.join([row] * len(chunk)) % tuple(cells))
    return separator.join(texts)


def _render(fmt: str, command: str, params: SpinParams, columns, rows: np.ndarray, extras) -> str:
    floats = [key for key, value in extras.items() if isinstance(value, float)]
    if fmt == "csv":
        _finite([extras[key] for key in floats])  # not printed, but checked like the rows
        return ",".join(columns) + "\n" + _table_text(fmt, columns, _finite(rows))
    table = _table_text(fmt, columns, _finite(rows))
    names = [f.name for f in fields(params)]
    texts = _float_texts(fmt, _finite([*(getattr(params, name) for name in names), *(extras[key] for key in floats)]))
    values = list(map(float, texts))  # json.dumps writes each one as its text
    document = {"schema_version": SCHEMA_VERSION, "command": command, "params": dict(zip(names, values)),
                "columns": list(columns), "rows": None, **extras, **dict(zip(floats, values[len(names) :]))}
    head, _, tail = json.dumps(document, sort_keys=True, separators=(",", ":")).partition('"rows":null')
    return f'{head}"rows":[{table}]{tail}\n'


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
