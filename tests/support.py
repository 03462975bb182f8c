"""Shared helpers and independent oracles for the test suite."""

import json
import math
import random
from collections import namedtuple
from dataclasses import fields
from itertools import permutations

import numpy as np

from twospin import (
    BASIS_LABELS,
    PARAM_GROUPS,
    SpinParams,
    TwoSpinState,
    eigensystem,
    evolve_exact,
    evolve_stepped,
    h_rotating_frame,
    h_total,
)
from twospin import cli
from twospin.core import _check_stack
from twospin.phases import _rotation_sense
from twospin.spectral import _closed_form, _eigenbases, _solve
from twospin.twocycle import ADIABATIC_FLIP_SET, _berry_gates, _cycle_propagators

TWO_PI = 2.0 * math.pi


def wrap(angle):
    """Principal branch (-pi, pi]."""
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def circ_dist(a, b):
    return abs(wrap(a - b))


def random_symmetric(rng, omega1_low=0.0, omega1_high=0.0):
    omega0, gamma, J = rng.uniform(-3.0, 3.0, 3)
    omega1 = float(rng.uniform(omega1_low, omega1_high)) if omega1_high > 0 else 0.0
    return SpinParams.symmetric(float(omega0), float(gamma), float(J), omega1)


def random_general(rng, omega1_low=0.8, omega1_high=2.0):
    wa, wb, ga, gb, J = (float(v) for v in rng.uniform(-3.0, 3.0, 5))
    return SpinParams(wa, wb, ga, gb, J, float(rng.uniform(omega1_low, omega1_high)))


def flip_params(params, names):
    """Negate the named parameter groups (omega0 and gamma act on both spins): the second
    cycle of a two-cycle protocol, built point by point as an oracle for the stacked flip."""
    updates = {}
    for name in names:
        if name not in PARAM_GROUPS:
            raise ValueError(f"unknown flip group {name!r}")
        for field in PARAM_GROUPS[name]:
            updates[field] = -getattr(params, field)
    return params.replace(**updates)


def random_state(rng):
    from twospin import TwoSpinState

    return TwoSpinState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))


def closed_form_reference(omega0, gamma, J):
    """The triplet energies and Berry phases of one point by the scalar formulas
    of the spectral and phases docstrings, in float arithmetic, on the
    parameters divided by the power of two of the largest one; the energies
    are multiplied back.

    A Berry phase is None where min|d+-| < 1e-8 * scale (the fallback branch).
    """
    k = math.frexp(max(abs(omega0), abs(gamma), abs(J)))[1]
    o, g, j = (math.ldexp(value, -k) for value in (omega0, gamma, J))
    o2, g2, j2, crossing = o * o, g * g, j * j, (j - o) * (j + o)
    p = -(4.0 * j2 / 3.0 + 4.0 * o2 + 4.0 * g2)
    q = 16.0 / 27.0 * (j2 * j) + (8.0 * g2 - 16.0 * o2) * j / 3.0
    terms = 4.0 * o2 * crossing * crossing + g2 * (20.0 * j2 * o2 + 12.0 * o2 * o2) + g2 * g2 * (j2 + 12.0 * o2)
    discriminant = 64.0 / 27.0 * (terms + 4.0 * g2 * g2 * g2)
    phi = math.atan2(math.sqrt(discriminant), -q) / 3.0
    amp = math.sqrt(-p / 3.0)
    energies = [amp * math.cos(phi + s) + j / 6.0 for s in (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)]
    threshold = math.ldexp(1e-8 * max(abs(omega0), abs(gamma), abs(J), 1.0), -k)
    phases = []
    for energy in energies:
        d_plus = 2.0 * o + j - 2.0 * energy
        d_minus = -2.0 * o + j - 2.0 * energy
        if min(abs(d_plus), abs(d_minus)) < threshold:
            phases.append(None)
            continue
        norm_sq = 2.0 + 4.0 * g2 / (d_plus * d_plus) + 4.0 * g2 / (d_minus * d_minus)
        product = d_plus * d_minus
        phases.append(TWO_PI * 32.0 * g * g * o * (2.0 * energy - j) / (norm_sq * product * product))
    return tuple(math.ldexp(energy, k) for energy in energies), tuple(phases)


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.diag([1.0, -1.0])
_I2 = np.eye(2)


def kron_hamiltonian(omega0, gamma, J):
    """H(0) = (1/2)[omega0 (s_az + s_bz) + J s_az s_bz + gamma (s_ax + s_bx)], from Kronecker products."""
    return 0.5 * (
        omega0 * (np.kron(_Z, _I2) + np.kron(_I2, _Z))
        + J * np.kron(_Z, _Z)
        + gamma * (np.kron(_X, _I2) + np.kron(_I2, _X))
    )


def kron_transverse_parts(params):
    """The cos and sin parts (1/2) sum gamma s_x and (1/2) sum gamma s_y of H(t)'s transverse field, from
    Kronecker products."""
    cos_part = 0.5 * (params.gamma_a * np.kron(_X, _I2) + params.gamma_b * np.kron(_I2, _X))
    sin_part = 0.5 * (params.gamma_a * np.kron(_Y, _I2) + params.gamma_b * np.kron(_I2, _Y))
    return cos_part, sin_part


def kron_h(params, angle, rotating=False):
    """H at field angle omega1 t for any couplings, from Kronecker products and math.cos/sin, or (rotating)
    H(0) - (omega1/2)(s_az + s_bz) at angle 0."""
    z_a, z_b = np.kron(_Z, _I2), np.kron(_I2, _Z)
    static = 0.5 * (params.omega_a0 * z_a + params.omega_b0 * z_b + params.J * np.kron(_Z, _Z))
    cos_part, sin_part = kron_transverse_parts(params)
    if rotating:
        return static + cos_part - 0.5 * params.omega1 * (z_a + z_b)
    return static + math.cos(angle) * cos_part + math.sin(angle) * sin_part


def scaled_spectrum_oracle(omega0, gamma, J):
    """Ascending eigenvalues of the Kronecker H(0) at the parameters divided by the power of two of the
    largest one, multiplied back: direct diagonalization at any finite scale."""
    k = math.frexp(max(abs(omega0), abs(gamma), abs(J)))[1]
    scaled = (math.ldexp(value, -k) for value in (omega0, gamma, J))
    return np.ldexp(np.linalg.eigvalsh(kron_hamiltonian(*scaled)), k)


def triplet_block_oracle(omega0, gamma, J):
    """Energies and positive-sense Berry phases 2 pi (|x|^2 - |w|^2) of labels 1, 2, 3 by eigh of the triplet
    block [[omega0 + J/2, g, 0], [g, -J/2, g], [0, g, -omega0 + J/2]], g = gamma/sqrt2, in the basis
    {uu, (ud + du)/sqrt2, dd}, at the parameters divided by the power of two of the largest one: label 1 is
    the top energy, label 3 the middle one and label 2 the bottom one."""
    k = math.frexp(max(abs(omega0), abs(gamma), abs(J)))[1]
    o, g, j = (math.ldexp(value, -k) for value in (omega0, gamma, J))
    coupling = g / math.sqrt(2.0)
    block = np.array([[o + j / 2.0, coupling, 0.0], [coupling, -j / 2.0, coupling], [0.0, coupling, -o + j / 2.0]])
    values, vectors = np.linalg.eigh(block)
    ranks = [2, 0, 1]
    berry = TWO_PI * (vectors[0, ranks] ** 2 - vectors[2, ranks] ** 2)
    return np.ldexp(values[ranks], k), berry


def sorted_spectrum_oracle(matrix):
    """Direct diagonalization oracle: ascending eigenvalues of a 4x4 hermitian."""
    return np.linalg.eigvalsh(matrix)


def berry_line_integral(omega0, gamma, J, n, intervals=20000):
    """Numeric loop integral i * closed-integral <xi|d xi/d theta> d theta of triplet label n.

    The amplitudes are the closed-form gauge at field angle theta, built here
    from _closed_form's t = 0 ratios x0 = -2 gamma/d+ and w0 = -2 gamma/d-:
    x = x0 e^{-i theta}, y = z = 1, w = w0 e^{i theta}, then
    normalized. Off the fallback mask only: there a d+- is near 0. The
    derivative is a periodic central difference and the quadrature is the
    trapezoid rule on the closed uniform grid.
    """
    closed = _closed_form(*(np.array([value], dtype=float) for value in (omega0, gamma, J)))
    theta = np.linspace(0.0, TWO_PI, intervals, endpoint=False)
    one = np.ones(intervals)
    x, w = closed.x[0, n - 1] * np.exp(-1j * theta), closed.w[0, n - 1] * np.exp(1j * theta)
    xi = np.vstack([x, one, one, w])
    xi /= np.linalg.norm(xi, axis=0)
    dtheta = TWO_PI / intervals
    dxi = (np.roll(xi, -1, axis=1) - np.roll(xi, 1, axis=1)) / (2.0 * dtheta)
    integrand = (1j * np.sum(xi.conj() * dxi, axis=0)).real
    return float(dtheta * integrand.sum())


CycleRun = namedtuple("CycleRun", "final_state total_phase fidelity")


def adiabatic_cycle(params, n, steps=None):
    """Drive eigenpath n through one field period, from public calls: a CycleRun.

    Starts in the t = 0 eigenstate, evolves for one period (exactly, or by RK4
    when steps is given) and returns the final state with the argument and the
    modulus of its overlap with the start. The modulus is the adiabaticity
    diagnostic: it approaches 1 as omega1 -> 0.
    """
    start = eigensystem(params, 0.0).state(n)
    tau = params.period
    final = (evolve_exact(params, start, tau) if steps is None else evolve_stepped(params, start, tau, steps)).final_state
    overlap = start.overlap(final)
    return CycleRun(final, float(np.angle(overlap)), abs(overlap))


def stepped_propagator_stage_loop(params, t, steps):
    """The RK4 propagator of i dU/dt = H(t) U in stage form, the four slopes of each step applied to U
    itself, one step at a time: the numeric oracle of evolution._stepped_propagators, equal to it up to rounding."""
    h = t / steps
    propagator = np.eye(4, dtype=complex)
    for k in range(steps):
        t0 = k * h
        h_0 = h_total(params, t0).matrix
        h_mid = h_total(params, t0 + 0.5 * h).matrix
        h_1 = h_total(params, t0 + h).matrix
        k1 = -1j * (h_0 @ propagator)
        k2 = -1j * (h_mid @ (propagator + 0.5 * h * k1))
        k3 = -1j * (h_mid @ (propagator + 0.5 * h * k2))
        k4 = -1j * (h_1 @ (propagator + h * k3))
        propagator = propagator + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return propagator


def check_steps_loop(params, t, steps):
    """The RK4 step budget of one problem as a scalar rule: the oracle of evolution._check_steps.
    Its count goes through math.ceil, so a count beyond the float range raises OverflowError."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if t == 0.0:
        return
    h_norm = float(np.abs(np.linalg.eigvalsh(h_total(params, 0.0).matrix)).max())
    # A zero rate sets no bound, nor does a rotation too slow for a finite period.
    shortest = min((TWO_PI / rate for rate in (abs(params.omega1), h_norm) if rate > 0.0), default=math.inf)
    if math.isfinite(shortest) and abs(t) / steps > shortest / 8:
        needed = math.ceil(abs(t) * 8 / shortest)
        raise ValueError(f"step budget too small: need at least {needed} steps for t={t!r}")


def berry_gates_two_pass(columns):
    """_berry_gates as two passes: the phases from a _solve pass, the bases from a separate _eigenbases
    call and the same Newton-Schulz step; the gates are built from them as _berry_gates builds its own."""
    phases = _solve(columns)[0].berry
    bases = _eigenbases(columns)[1]
    bases = bases @ (3.0 * np.eye(4) - bases.conj().swapaxes(-1, -2) @ bases) / 2.0
    diagonal = np.zeros((len(bases), 4, 4), dtype=complex)
    diagonal[:, range(4), range(4)] = np.exp(2j * phases)
    computational = bases @ diagonal @ bases.conj().swapaxes(-1, -2)
    _check_stack(computational, "unitary")
    return phases, bases, diagonal, computational


def adiabatic_two_cycles_loop(columns, starts=None, steps=None):
    """The adiabatic two-cycle point by point and start by start, as the twocycle table once looped: the
    oracle of twocycle._adiabatic_two_cycles. starts is (N, K, 4), by default the t=0 eigenbases by label;
    returns the (N, 4) targets, the (N, K, 4) outputs u2 @ (u1 @ s) and gate @ s (the conj-transposed
    gate for omega1 < 0), and the (N, K) overlaps np.vdot(s, final) and distances np.linalg.norm."""
    phases, bases, _, gates = _berry_gates(columns)
    u_first, u_second = _cycle_propagators(columns, ADIABATIC_FLIP_SET, steps)
    sense = _rotation_sense(columns["omega1"])
    starts = bases.swapaxes(1, 2).copy() if starts is None else starts
    finals, ideals = np.empty(starts.shape, dtype=complex), np.empty(starts.shape, dtype=complex)
    overlaps, distances = np.empty(starts.shape[:2], dtype=complex), np.empty(starts.shape[:2])
    for i, (u1, u2, gate, s) in enumerate(zip(u_first, u_second, gates, sense.tolist())):
        gate = gate.conj().T if s < 0.0 else gate
        for k, start in enumerate(starts[i]):
            final, ideal = u2 @ (u1 @ start), gate @ start
            finals[i, k], ideals[i, k] = final, ideal
            overlaps[i, k] = complex(np.vdot(start, final))
            distances[i, k] = np.linalg.norm(final - ideal)
    return 2.0 * sense[:, None] * phases, finals, ideals, overlaps, distances


def adiabatic_rows_loop(columns, steps=None):
    """The twocycle table of cli._adiabatic_rows, without its label column, one scalar row at a time."""
    targets, _, _, overlaps, distances = adiabatic_two_cycles_loop(columns, steps=steps)
    rows = np.empty(targets.shape + (5,))
    for row, target, overlap, distance in zip(rows.reshape(-1, 5), targets.ravel(), overlaps.ravel(),
                                              distances.ravel()):
        phase = float(np.angle(overlap))
        row[:] = phase, target, abs(wrap(phase - target)), abs(overlap), distance
    return rows


def cell(value) -> str:
    """The text of one output value, cell by cell: a float becomes %.12e text without negative zero
    and a non-finite float is a numeric failure; anything else is its str()."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite value {value!r} in output")
        return f"{value + 0.0:.12e}"
    return str(value)


def render_oracle(fmt, command, params, columns, table, extras):
    """The CLI output of a table, every value once through cell: the oracle of cli._render.

    table is the (R, C) float array of cli._render; its rows become lists in
    which n is an int and component its BASIS_LABELS label. CSV checks the
    extras before the rows; a JSON float is its CSV text read back.
    """
    exact = {"n": int, "component": lambda index: BASIS_LABELS[int(index)]}
    rows = [[exact.get(name, float)(v) for name, v in zip(columns, row)] for row in np.asarray(table).tolist()]
    if fmt == "csv":
        for value in extras.values():
            cell(value)
        lines = [",".join(columns)]
        lines.extend(",".join(map(cell, row)) for row in rows)
        return "\n".join(lines) + "\n"

    def as_json(v):
        return float(cell(v)) if isinstance(v, float) else v

    document = {
        "schema_version": 1,
        "command": command,
        "params": {f.name: as_json(getattr(params, f.name)) for f in fields(params)},
        "columns": list(columns),
        "rows": [list(map(as_json, row)) for row in rows],
    }
    document.update((key, as_json(v)) for key, v in extras.items())
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def float_texts(fmt, values):
    """Each value's text, as cli._float_text writes it into the first 20 bytes of a table cell."""
    cells = np.zeros((len(values), cli._CELL), np.uint8)
    cells[:, 20] = ord("\n")
    cli._float_text(fmt, values, cells[:, :20])
    return cells.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def numeric_dynamical_phase(params, initial, t, steps):
    """Trapezoidal estimate of -integral of <psi(s)|H(s)|psi(s)> ds.

    The trajectory is the exact one; only the quadrature is numerical. The
    instantaneous energy is evaluated literally in the lab frame at each node,
    splitting H(s) into its static part plus cos/sin transverse components.
    """
    if steps < 100:
        raise ValueError("need at least 100 quadrature steps")
    times = np.linspace(0.0, t, steps + 1)

    vals, vecs = np.linalg.eigh(h_rotating_frame(params).matrix)
    tilde0 = vecs.conj().T @ initial.amplitudes
    tilde_traj = vecs @ (np.exp(-1j * np.outer(vals, times)) * tilde0[:, None])
    traj = tilde_traj.copy()
    traj[0, :] *= np.exp(-1j * params.omega1 * times)
    traj[3, :] *= np.exp(1j * params.omega1 * times)

    static = kron_h(params.replace(gamma_a=0.0, gamma_b=0.0), 0.0)
    cos_part, sin_part = kron_transverse_parts(params)

    def quad_form(op):
        return np.einsum("ik,ij,jk->k", traj.conj(), op, traj).real

    energies = (
        quad_form(static)
        + np.cos(params.omega1 * times) * quad_form(cos_part)
        + np.sin(params.omega1 * times) * quad_form(sin_part)
    )
    dt = t / steps
    integral = dt * (energies.sum() - 0.5 * (energies[0] + energies[-1]))
    return -float(integral)


# The per-point eigensystem: the oracle of spectral._eigenbases, one point and one label at a time.

_SYM_PROJECTOR = np.array(
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0], [0.0, 0.0, 0.0, 1.0]],
    dtype=complex,
)


def _fix_phase(vec):
    mags = np.abs(vec)
    k = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))[-1])
    c = vec[k]
    return vec * (np.conj(c) / abs(c))


def _fallback_triplet_states(hamiltonian, labels_energies):
    """Diagonalize the symmetric sector and order states by label energies."""
    block = _SYM_PROJECTOR @ hamiltonian @ _SYM_PROJECTOR.conj().T
    vals, vecs = np.linalg.eigh(block)
    with np.errstate(over="ignore"):  # near the float range a wrong permutation's distance may read inf
        best = min(
            permutations(range(3)),
            key=lambda perm: sum(abs(labels_energies[i] - vals[perm[i]]) for i in range(3)),
        )
    return [_fix_phase(_SYM_PROJECTOR.conj().T @ vecs[:, best[i]]) for i in range(3)]


def scalar_amplitudes(x0, w0, energy, theta):
    """The closed-form amplitudes (x, y, z, w) of one label in Python floats."""
    if not math.isfinite(energy):
        raise ArithmeticError(f"closed-form energy {energy!r} is not finite")
    norm = math.sqrt(2.0 + x0 * x0 + w0 * w0)
    phase = np.exp(-1j * np.asarray(theta, dtype=float))
    one = np.ones_like(phase) / norm
    return (x0 * phase / norm, one, one, w0 * np.conj(phase) / norm)


def eigenbasis_loop(omega0, gamma, J, theta, hamiltonian):
    """(basis, used_fallback) of one point: label columns built one at a time, the fallback from
    hamiltonian(), a validated 4x4 matrix built only on that branch."""
    point = [np.array([value], dtype=float) for value in (omega0, gamma, J)]
    closed = _closed_form(*point)
    energies = tuple(closed.energies[0].tolist())
    used_fallback = bool(closed.fallback.any())
    if used_fallback:
        states = _fallback_triplet_states(hamiltonian(), energies)
    else:
        labels = zip(closed.x[0].tolist(), closed.w[0].tolist(), energies)
        states = [np.array(scalar_amplitudes(*label, theta), dtype=complex) for label in labels]
    states = [TwoSpinState(state).amplitudes for state in states] + [TwoSpinState.singlet().amplitudes]
    return np.column_stack(states), used_fallback


def eigensystem_loop(params, t=0.0):
    """eigenbasis_loop of H(t), the fallback diagonalizing h_total."""
    theta = params.omega1 * t
    return eigenbasis_loop(params.omega0, params.gamma, params.J, theta, lambda: h_total(params, t).matrix)


def tilde_eigensystem_loop(params):
    """eigenbasis_loop of the rotating-frame generator, the fallback diagonalizing h_rotating_frame."""
    omega0 = params.omega0 - params.omega1
    return eigenbasis_loop(omega0, params.gamma, params.J, 0.0, lambda: h_rotating_frame(params).matrix)


# ---------------------------------------------------------------------------
# the byte-identity corpus (tests/corpus.jsonl)

CORPUS_SEED = 23
# Parameter values far outside the physical range: huge, a crossing scale, the smallest subnormal, non-finite.
HOSTILE = ("1e200", "-1e200", "6e-54", "5e-324", "inf", "-inf", "nan")


def corpus_argvs(seed=CORPUS_SEED):
    """The seeded `twospin` argument lists of tests/corpus.jsonl, in order.

    Every subcommand in both formats (each case is written once as CSV and once as JSON), both rotation
    senses, fallback points (gamma = 0), resonance points (omega0 = omega1), level crossings (omega0 = +-J)
    with gamma down to 2e-8, unequal couplings, sweeps of up to 40 points, one per quantity across a
    SWEEP_BLOCK boundary, RK4 runs, hostile values (HOSTILE) and error exits. Values are written as
    --flag=value, so a negative or non-finite one needs no quoting. Cases that argparse itself refuses
    are left out: its messages differ between Python versions.
    """
    rng = random.Random(seed)

    def number():
        return f"{rng.uniform(-3.0, 3.0):.6g}"

    def rate():  # a nonzero omega1 of either sense
        return f"{rng.choice((-1, 1)) * rng.uniform(0.05, 2.0):.6g}"

    def model(rotating=True, equal=True):
        """Model flags: equal couplings (unless not equal) with some fallback, resonant and hostile points."""
        values = {"omega0": number(), "gamma": number(), "J": number()}
        if rotating:
            values["omega1"] = rate()
        kind = rng.random()
        if kind < 0.15:
            values["gamma"] = rng.choice(("0", "-0.0"))
        elif kind < 0.25 and rotating:
            values["omega0"] = values["omega1"]
        elif kind < 0.32:  # a level crossing, some near enough to take the fallback
            values["omega0"] = values["J"] if rng.random() < 0.5 else f"{-float(values['J']):.6g}"
            values["gamma"] = rng.choice((values["gamma"], "2e-8", "-5e-7"))
        elif kind < 0.42:
            values[rng.choice(sorted(values))] = rng.choice(HOSTILE)
        if not equal:
            values.update({"omega-a0": number(), "gamma-b": number()})
        return [f"--{flag}={value}" for flag, value in values.items()]

    def axis(per_spin):  # per-spin axes make the couplings unequal, which only twocycle-defect admits
        name = rng.choice(("omega0", "gamma", "J", "omega1") + per_spin * ("omega_a0", "omega_b0", "gamma_a"))
        start = float(number())
        stop = start + rng.choice((0.0, rng.uniform(0.0, 3.0)))
        return name, start, stop

    def sweep(quantity):
        counts = [rng.randint(1, 40)] if rng.random() < 0.4 else [rng.randint(1, 6), rng.randint(1, 6)]
        axes, fields_set = [], set()
        for count in counts:
            name, start, stop = axis(quantity == "twocycle-defect")
            while fields_set & set(PARAM_GROUPS[name]):  # no two axes that set one field
                name, start, stop = axis(quantity == "twocycle-defect")
            fields_set.update(PARAM_GROUPS[name])
            if rng.random() < 0.1:
                start = float(rng.choice(HOSTILE[:4]))
            axes.append(f"--axis={name}={start!r}:{max(start, stop)!r}:{count}")
        return ["sweep", *axes, f"--quantity={quantity}"]

    def initial():
        kind = rng.random()
        if kind < 0.4:
            return rng.choice(("uu", "ud", "du", "dd", "singlet"))
        if kind < 0.8:
            return f"{rng.choice(('eigen', 'tilde'))}{rng.randint(1, 4)}"
        return ",".join(f"{rng.uniform(-1.0, 1.0):.4g}" for _ in range(8))

    cases = []
    for _ in range(40):
        cases.append(["spectrum", *model(rotating=rng.random() < 0.3, equal=rng.random() < 0.85)])
        mode = rng.choice(("berry", "aa"))
        cases.append(["phases", f"--mode={mode}", *model(equal=rng.random() < 0.85)])
        steps = rng.choice((0, 0, rng.randint(1, 60), rng.randint(60, 400)))
        time = [] if rng.random() < 0.3 else [f"--time={rng.uniform(-3.0, 6.0):.6g}"]
        cases.append(["evolve", f"--initial={initial()}", *model(equal=rng.random() < 0.7), *time,
                      f"--steps={steps}"])
        cases.append(["twocycle", "--scheme=aa", *model(equal=rng.random() < 0.85)])
        steps = rng.choice((0, 0, rng.randint(1, 30), rng.randint(30, 200)))
        cases.append(["twocycle", "--scheme=adiabatic", *model(equal=rng.random() < 0.85), f"--steps={steps}"])
        rates = ",".join(rate() for _ in range(rng.randint(1, 4)))
        cases.append(["twocycle", "--scheme=adiabatic", f"--omega1-sweep={rates}", *model(rotating=False),
                      f"--steps={rng.choice((0, 0, rng.randint(20, 80)))}"])
        for quantity in ("spectrum", "berry", "aa", "twocycle-defect"):
            cases.append([*sweep(quantity), *model(equal=rng.random() < 0.85 or quantity == "twocycle-defect")])
    # One sweep per quantity across the first SWEEP_BLOCK boundary (512 points), with the fallback column
    # gamma = 0 in both blocks; the aa sweep reaches omega1 = 0 in its second block only (rows 512-543), so
    # its error comes from the point-by-point rerun of that block.
    for quantity, omega1 in (("spectrum", "0.3"), ("berry", "-0.2"), ("aa", "0"), ("twocycle-defect", "0.4")):
        cases.append(["sweep", f"--axis=omega1=-1.1:{omega1}:17", "--axis=gamma=0:1.1:32",
                      f"--quantity={quantity}", "--omega0=0.7", "--J=-0.4"])
    cases += [  # errors of the command layer, each its own exit line
        ["spectrum", "--omega-a0=1", "--omega-b0=2", "--gamma=0.5", "--J=0.3"],
        ["phases", "--mode=aa", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--time=inf"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--steps=-1"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--initial=eigen5"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--initial=1,0,0,0,0,0,0,x"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--initial=0,0,0,0,0,0,0,0"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=1e-320", "--steps=10"],
        ["evolve", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--time=1", "--steps=20000000"],
        ["twocycle", "--scheme=aa", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--steps=5"],
        ["twocycle", "--scheme=aa", "--omega1-sweep=0.1", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["twocycle", "--scheme=adiabatic", "--omega1-sweep=,", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["twocycle", "--scheme=adiabatic", "--omega1-sweep=0.1,x", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["twocycle", "--scheme=adiabatic", "--omega1-sweep=0.1,inf", "--omega0=1", "--gamma=0.5", "--J=0.3"],
        ["twocycle", "--scheme=adiabatic", "--omega0=1", "--gamma=0.5", "--J=0.3", "--omega1=0.2", "--steps=-2"],
        ["sweep", "--axis=J=0:1", "--quantity=berry", "--omega1=0.1"],
        ["sweep", "--axis=J=0:x:3", "--quantity=berry", "--omega1=0.1"],
        ["sweep", "--axis=tau=0:1:3", "--quantity=berry", "--omega1=0.1"],
        ["sweep", "--axis=J=0:1:0", "--quantity=berry", "--omega1=0.1"],
        ["sweep", "--axis=J=1:0:3", "--quantity=berry", "--omega1=0.1"],
        ["sweep", "--axis=J=-1e308:1e308:3", "--quantity=spectrum"],
        ["sweep", "--axis=J=0:nan:3", "--quantity=spectrum"],
        ["sweep", "--axis=omega0=0:1:3", "--axis=omega_a0=0:1:3", "--quantity=spectrum"],
        ["sweep", "--axis=J=0:1:600", "--axis=gamma=0:1:600", "--quantity=spectrum"],
    ]
    return [argv + variant for argv in cases for variant in ([], ["--format=json"])]
