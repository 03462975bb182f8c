"""Command-line front end, run by `python -m twospin` or the installed `twospin` script (see __main__).

Subcommands: spectrum, phases, evolve, twocycle, sweep. The model flags,
config-file keys and sweep axes are the keys of core.PARAM_GROUPS (flags spell
`_` as `-`): the six SpinParams fields plus the omega0/gamma aliases that set
both spins. Each field takes the first value found in this order: per-spin
flag, pair flag, per-spin config key, pair config key, then 0.

Output is CSV or JSON, rendered by _render from an (R, C) float table: one
finiteness check (a non-finite value, printed or not, is a numeric failure),
then one NumPy text kernel per RENDER_CHUNK rows, which lays every cell out as
bytes: %.12e in CSV; in JSON, that text read back and written as repr writes it.
_decimal gives each float its 13 digits and exponent with array arithmetic; the
few values too close to a rounding tie for that take the text Python writes, as
n cells take %d and component cells their basis label, once per distinct value.

Sweeps walk the grid in lexicographic order in blocks of SWEEP_BLOCK points,
one kernel call per block: the closed-form kernel for spectrum, berry and aa
(the spectrum and phases commands are its N = 1 case), the stacked propagator
kernel for twocycle-defect and the twocycle tables, whose --omega1-sweep list
is walked as a one-axis grid. A failing block is run again in halves, first
half first, down to one point, so errors are those of the first failing point.

Exit codes: 0 success, 2 usage or parameter error (including a sweep grid of
more than MAX_GRID_POINTS points, an axis with a non-finite bound or span, two
axes that set one field, a non-finite evolution time, an omega1 whose period
overflows, an RK4 run of more than MAX_RK4_STEPS steps times problems), 3
output I/O error, 4 numeric failure (non-finite result or phase, overflow, lost
propagator phases, failed diagonalization).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from itertools import combinations

import numpy as np

from .core import BASIS_LABELS, PARAM_GROUPS, SpinParams, TwoSpinState, _checked_float, _columns, _equal_coupling_fields
from .core import _refuse
from .evolution import evolve_exact, evolve_stepped
from .phases import _cycle_phases, _principal_values
from .spectral import _closed_form, _eigenbases, eigensystem, singlet_energy, tilde_eigensystem
from .twocycle import _aa_two_cycles, _adiabatic_two_cycles, _require_rotation

__all__ = [
    "cmd_evolve",
    "cmd_sweep",
    "cmd_twocycle",
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

# Table rows per call of _render's text kernel. Rendering the benchmark's
# 79,524-row aa JSON sweep in one piece raised its peak memory from 69 to 147 MB.
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
    """Per t=0 eigenstate n, from one _adiabatic_two_cycles call: the phase of <n|U2 U1|n>, its target, their
    circular deviation, the fidelity |<n|U2 U1|n>| and the distance of U2 U1 |n> from the ideal gate's output.
    """
    starts, targets, finals, _, deviations = _adiabatic_two_cycles(columns, steps_per_cycle=steps or None)
    overlaps = (starts.conj().swapaxes(-1, -2) @ finals)[..., 0, 0]  # each equal to np.vdot(start, final)
    phases, fidelities = np.angle(overlaps), np.hypot(overlaps.real, overlaps.imag)  # hypot: a complex's abs
    table = [phases, targets, np.abs(_principal_values(phases - targets)), fidelities, deviations]
    return _numbered(np.stack(table, axis=-1))


def _aa_rows(columns):
    """Per rotating-frame eigenstate n: the one-cycle total phase, raw and principal, the phase of
    <n|U2 U1|n> and the identity defect max|U2 U1 - I|.
    """
    _require_rotation(columns["omega1"])  # the protocol's refusal comes before the spectrum's
    closed, bases = _eigenbases(columns, rotating=True)
    starts = bases.swapaxes(1, 2).copy()[..., None]  # (N, 4, 4, 1), by label
    composed, defects = _aa_two_cycles(columns)
    total = _cycle_phases(columns, shifted=True, closed=closed)[0]  # each of its refusals came above
    principal = _principal_values(total)
    # <n|U2 U1|n> as matrix-vector and vector-vector products, each equal to np.vdot(start, u @ start)
    overlaps = (starts.conj().swapaxes(-1, -2) @ (composed[:, None] @ starts))[..., 0, 0]
    return _numbered(np.stack([total, principal, np.angle(overlaps), np.repeat(defects[:, None], 4, axis=1)], axis=-1))


# quantity -> (columns, block function). The block functions look the library
# functions up at call time, so they can be traced or patched.
_QUANTITIES = {
    "spectrum": (["n", "energy"], _spectrum_rows),
    "berry": (_PHASE_COLUMNS, lambda columns: _phase_rows(columns, shifted=False)),
    "aa": (_PHASE_COLUMNS, lambda columns: _phase_rows(columns, shifted=True)),
    "twocycle-defect": (["identity_defect"], lambda columns: _aa_two_cycles(columns)[1][:, None, None]),
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
    def table(block):  # the kernels do not check finiteness, so refuse as SpinParams words it
        _refuse(~np.isfinite(block["omega1"]), block["omega1"], ValueError, "omega1 must be finite, got {!r}")
        return _adiabatic_rows(block, steps)[..., :4]
    return ["omega1"] + columns[:4], _walk([("omega1", omega1_values)], table, params), {}


# ---------------------------------------------------------------------------
# sweep


def _walk(axes, block_rows, base: SpinParams) -> np.ndarray:
    """The (R, C) table of block_rows over the grid of (name, values) axes, each row led by its axis values.

    The grid is walked in lexicographic order in blocks of SWEEP_BLOCK points,
    the other fields from base. A failing block goes to _halving, so the first
    failing point in grid order raises its own error after O(log n) calls.
    """
    names = [name for name, _ in axes]
    grids = np.meshgrid(*(np.array(values, dtype=float) for _, values in axes), indexing="ij")
    points = np.column_stack([grid.ravel() for grid in grids])
    tables = []
    for start in range(0, len(points), SWEEP_BLOCK):
        block = points[start : start + SWEEP_BLOCK]
        block_columns = _columns(base, len(block))
        for name, values in zip(names, block.T.copy()):
            block_columns.update(dict.fromkeys(PARAM_GROUPS[name], values))
        table = _halving(block_rows, block_columns)
        tables.append(np.hstack([np.repeat(block, table.shape[1], axis=0), table.reshape(-1, table.shape[2])]))
    return np.concatenate(tables)


def _halving(block_rows, columns) -> np.ndarray:
    """block_rows(columns), or where it fails, each half's table by _halving, first half first, so a lone failing
    point raises its own error; passing halves give the same bits, as every kernel's point i equals its N = 1 call."""
    try:
        return block_rows(columns)
    except (ArithmeticError, ValueError):
        if len(columns["J"]) == 1:
            raise
    half = len(columns["J"]) // 2
    parts = (slice(half), slice(half, None))
    return np.concatenate([_halving(block_rows, {f: c[part] for f, c in columns.items()}) for part in parts])


def cmd_sweep(axes, quantity: str, base: SpinParams):
    """Evaluate the quantity over the grid of (name, values) axes; rows in lexicographic grid order."""
    columns, block_rows = _QUANTITIES[quantity]
    return [name for name, _ in axes] + columns, _walk(axes, block_rows, base), {}


# ---------------------------------------------------------------------------
# rendering


# The text kernel. Each cell of a RENDER_CHUNK-row chunk is _CELL ASCII bytes
# (little-endian uint32 words): 20 of text, the longest being
# -1.234567890123e-308, then 4 of separator, with 0 for "no byte"; one
# bytes.translate per chunk drops the 0 bytes. A float's text is laid out from
# its 13 significant digits M and decimal exponent k (_decimal): CSV writes
# %.12e, JSON repr(float(%.12e)), that is M without trailing zeros, positional
# for -4 <= k < 16 and d.ddde+XX elsewhere.

_CELL = 24

# "0000".."9999" as uint32 words, then the same without trailing zeros ("1200" as "12", "0000" as no byte)
_QUADS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()  # the digits of 0..9999
_QUADS = np.concatenate([
    _QUADS + np.uint8(48),
    (_QUADS + np.uint8(48)) * ~np.logical_and.accumulate(_QUADS[:, ::-1] == 0, axis=1)[:, ::-1],
]).view("<u4").ravel()
# exponent k in [-330, 330] after the e: a sign, the hundreds digit or no byte, two digits ("+05" as "+", "", "05")
_EXPONENTS = np.arange(-330, 331)
_EXPONENTS = (np.where(_EXPONENTS < 0, 45, 43) + np.where(abs(_EXPONENTS) >= 100, (48 + abs(_EXPONENTS) // 100) << 8, 0)
              + (_QUADS[abs(_EXPONENTS) % 100] & 0xFFFF0000)).astype("<u4")
# 10**j for j in [-308, 308], correctly rounded
_POWERS_OF_TEN = np.array([float(f"1e{j}") for j in range(-308, 309)])


def _decimal(values: np.ndarray):
    """(M, k, exact) per value x: |x| is M * 10**(k - 12) rounded to the 13 digits of %.12e; M = k = 0 at 0.

    s = |x| * 10**(12 - k) for k = floor(log10|x|), with a correctly rounded power: two roundings, so s is
    within 1e13 * 2**-52 < 0.00223 of the exact product. M = round(s) is then %.12e's digits wherever that
    error cannot change them: 1e12 - 0.04 <= s < 1e13 (a log10 one too high leaves s just below 1e12, where
    %.12e rounds up to 1.000000000000 at k) and s more than 0.0025 from a half-integer. M = 1e13 carries
    into k. Below about 1e-296 (subnormals included) the power is out of range and s below 1e12. Where
    exact is False, M < 1e13 and -330 <= k <= 330 still hold, but their text must come from elsewhere.
    """
    magnitude = np.abs(values)
    nonzero = magnitude > 0.0
    k = np.floor(np.log10(magnitude, out=np.zeros_like(magnitude), where=nonzero))
    scaled = magnitude * _POWERS_OF_TEN[np.clip(320.0 - k, 0.0, 616.0).astype(np.intp)]
    digits = np.rint(scaled)
    exact = (scaled >= 1e12 - 0.04) & (scaled < 1e13) & (np.abs(scaled - digits) < 0.4975) | ~nonzero
    carry = digits == 1e13
    return (digits - 9e12 * carry).astype(np.int64), (k + carry).astype(np.int64), exact


def _csv_text(negative, digits, k, out: np.ndarray) -> None:
    """%.12e into out, (N, 20) bytes: one word each for "-d.d", the next 4 digits, the next 4, the last 3
    and "e", and the exponent."""
    words = out.view("<u4")
    first = digits // 10**12
    rest = digits - first * 10**12
    second = rest // 10**11
    rest -= second * 10**11
    middle = rest // 10**7
    rest -= middle * 10**7
    quad = rest // 10**3
    words[:, 0] = 0x302E3000 + 45 * negative + (first << 8) + (second << 24)
    words[:, 1] = _QUADS[middle]
    words[:, 2] = _QUADS[quad]
    words[:, 3] = _QUADS[10 * (rest - quad * 10**3)] + 0x35000000  # the last "0" becomes "e"
    words[:, 4] = _EXPONENTS[k + 330]


def _json_text(negative, digits, k, out: np.ndarray) -> None:
    """repr(float(%.12e)): M without trailing zeros, positional for -4 <= k < 16, else d.ddde+XX.

    The cells are sorted by layout, one group per positional k and one for the rest, and each group is
    written with static slices of the bytes "0000" M "0000": bare with M's trailing zeros as no byte, full
    with them as "0".
    """
    head = digits // 10
    high = head // 10**8
    low = head - high * 10**8
    middle = low // 10**4
    low -= middle * 10**4
    bare = np.zeros((len(digits), 6), "<u4")
    bare[:, 0] = _QUADS[0]
    bare[:, 4] = _QUADS[10_000 + 1000 * (digits - 10 * head)]  # the last digit, no byte if 0
    trailing = bare[:, 4] == 0
    for word, limb in ((3, low), (2, middle), (1, high)):
        bare[:, word] = _QUADS[limb + 10_000 * trailing]
        trailing &= limb == 0
    key = np.where((k >= -4) & (k < 16), k + 4, 20).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(key, minlength=21)).tolist()]
    bare = np.take(bare, order, axis=0)
    bare, full = bare.view(np.uint8), (bare | _QUADS[0]).view(np.uint8)  # "0" | 0x30 is "0", a digit stays
    text = np.zeros((len(digits), 20), np.uint8)
    for group, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if lo == hi:
            continue
        cell, b, f = text[lo:hi], bare[lo:hi], full[lo:hi]
        if group == 20:  # d.dddddddddddde+XX, the "." only before a digit
            cell[:, 1] = f[:, 4]
            cell[:, 2] = np.where(b[:, 5] != 0, 46, 0)
            _copy(cell[:, 3:15], b[:, 5:17])
            cell[:, 15] = 101
            cell.view("<u4")[:, 4] = _EXPONENTS[k[order[lo:hi]] + 330]
        else:  # the integer digits (one "0" before M, or "0"s after it), ".", the fraction (at least one digit)
            power = group - 4
            whole = max(power, 0) + 1
            _copy(cell[:, 1 : 1 + whole], f[:, 5 + power - whole : 5 + power])
            cell[:, 1 + whole] = 46
            cell[:, 2 + whole] = f[:, 5 + power]
            _copy(cell[:, 3 + whole : 14 + whole - power], b[:, 6 + power : 17])
    out.view("V20")[order, 0] = text.view("V20")[:, 0]  # one 20-byte item per cell
    out[:, 0] = 45 * negative


def _copy(target: np.ndarray, source: np.ndarray) -> None:
    """target[...] = source for (n, w) byte arrays with contiguous rows, as n items of w bytes each (NumPy
    copies a 2-D byte array row by row, byte by byte)."""
    if target.shape[1]:
        target.view(f"V{target.shape[1]}")[...] = source.view(f"V{source.shape[1]}")


def _float_text(fmt: str, values: np.ndarray, out: np.ndarray) -> None:
    """Write each value's text into out, (N, 20) bytes with contiguous rows: CSV %.12e of value + 0.0, JSON
    repr(float(%.12e)). A value _decimal leaves inexact gets the text Python writes, once per distinct value."""
    digits, k, exact = _decimal(values)
    (_csv_text if fmt == "csv" else _json_text)(values < 0.0, digits, k, out)
    inexact = np.flatnonzero(~exact)
    if len(inexact):
        python_text = (lambda x: "%.12e" % x) if fmt == "csv" else (lambda x: repr(float("%.12e" % x)))
        out[inexact] = _distinct_text(values[inexact], python_text)


def _distinct_text(values: np.ndarray, text) -> np.ndarray:
    """(N, 20) bytes, row i the text(v) of values[i], text called once per distinct value."""
    unique, inverse = np.unique(values, return_inverse=True)
    texts = np.array([text(v) for v in unique.tolist()], dtype="S20").view(np.uint8).reshape(-1, 20)
    return texts[inverse.reshape(-1)]


def _table_text(fmt: str, columns, rows: np.ndarray, head: str = "", tail: str = "") -> str:
    """head, the CSV lines or the comma-separated JSON arrays of a finite table, then tail.

    The table is rendered RENDER_CHUNK rows at a time: every cell as a float, then the n cells as %d
    and the component cells as the BASIS_LABELS they index, once per distinct value in the chunk.
    """
    labels = [label if fmt == "csv" else f'"{label}"' for label in BASIS_LABELS]
    text_of = {"n": lambda v: "%d" % v, "component": lambda v: labels[int(v)]}
    last = "\n" if fmt == "csv" else "],["  # JSON: each row's "]", and the "[" of the next
    separators = np.array([","] * (len(columns) - 1) + [last], dtype="S4").view("<u4")
    pieces = [head + ("[" if fmt == "json" and len(rows) else "")]
    for start in range(0, len(rows), RENDER_CHUNK):
        chunk = rows[start : start + RENDER_CHUNK]
        cells = np.empty((len(chunk), len(columns), _CELL), np.uint8)
        cells.view("<u4")[:, :, 5] = separators
        _float_text(fmt, chunk.ravel(), cells.reshape(-1, _CELL)[:, :20])
        for j, name in enumerate(columns):
            if name in text_of:
                cells[:, j, :20] = _distinct_text(chunk[:, j], text_of[name])
        pieces.append(cells.tobytes().translate(None, b"\0").decode("ascii"))
    if fmt == "json" and len(rows):
        pieces[-1] = pieces[-1][:-2]  # the last row's ",["
    pieces.append(tail)
    return "".join(pieces)


def _render(fmt: str, command: str, params: SpinParams, columns, rows: np.ndarray, extras) -> str:
    floats = [key for key, value in extras.items() if isinstance(value, float)]
    extra_values = np.array([extras[key] for key in floats], dtype=float)
    for values in (extra_values, rows) if fmt == "csv" else (rows, extra_values):  # CSV checks unprinted extras
        _refuse(~np.isfinite(values), values, ArithmeticError, "non-finite value {!r} in output")
    if fmt == "csv":
        return _table_text(fmt, columns, rows, ",".join(columns) + "\n")
    names = [f.name for f in fields(params)]
    # %.12e read back, which json.dumps writes as repr: _float_text's JSON rule for a header float
    values = [float("%.12e" % (v + 0.0)) for v in [*(getattr(params, name) for name in names), *extra_values]]
    document = {"schema_version": SCHEMA_VERSION, "command": command, "params": dict(zip(names, values)),
                "columns": list(columns), "rows": None, **extras, **dict(zip(floats, values[len(names) :]))}
    head, _, tail = json.dumps(document, sort_keys=True, separators=(",", ":")).partition('"rows":null')
    return _table_text(fmt, columns, rows, head + '"rows":[', "]" + tail + "\n")


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
    """FIELD=START:STOP:COUNT texts -> (name, values). Two axes may not set one field (omega0 sets
    omega_a0 and omega_b0); the grid size is capped after that, before values are built."""
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
    for (first, *_), (second, *_) in combinations(specs, 2):
        shared = [field for field in PARAM_GROUPS[first] if field in PARAM_GROUPS[second]]
        if shared:
            raise ValueError(f"sweep axes {first!r} and {second!r} both set {shared[0]}")
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
            if args.time is not None:
                _checked_float("time", args.time)
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
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
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


if __name__ == "__main__":  # a second launcher would skip the BLAS setting of twospin.__main__
    _error_object(EXIT_USAGE, "twospin.cli is a library module; run the command as python -m twospin or twospin")
    sys.exit(EXIT_USAGE)
