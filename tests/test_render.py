"""The table renderer cli._render against its cell-by-cell oracle.

cli._render formats a whole (R, C) float table, cli.RENDER_CHUNK rows per %
operation, each distinct value of a chunk once. support.render_oracle passes
every value once through the per-cell text form instead. The two must give the
same bytes in CSV and JSON for any finite table, and refuse a non-finite one with the same error: the first
non-finite value in row-major order, the extras first in CSV.
"""

import json
import math
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin import SpinParams, cli

from support import render_oracle

# Signed zeros, subnormals, the ends of the float range and values whose
# %.12e text rounds up into the next decade; then the points where the JSON
# text's %.13g and repr forms differ in form (integral values, exponent from
# 1e13 in %g, from 1e16 in repr, fixed below 1e-4 in neither) and where it
# switches to repr (1e12 and 1e-300).
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, 9.9999999999995e-1, -9.9999999999995e-1, 9.99999999999995e-1, 9.9999999999999e99,
    *(f(1e12) for f in (lambda x: math.nextafter(x, 0.0), float, lambda x: math.nextafter(x, math.inf))),
    9.9999999999995e12, 1e13, 1e15, 9.9999999999999e15, 1e16, 1e-4, 9.99999999999995e-05, 1e-5, 123.0, -5.0,
    2.0**53, *(f(1e-300) for f in (lambda x: math.nextafter(x, 0.0), float, lambda x: math.nextafter(x, 1.0))),
    1e-311, 2.2250738585072014e-308,
]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
CELLS = {
    "n": st.integers(-(2**53), 2**53).map(float),
    "component": st.integers(0, 3).map(float),
    "float": floats,
}
PARAMS = SpinParams(1.0, -0.0, 5e-324, 0.8, -1e308, 0.3)


EXTRAS = st.fixed_dictionaries(
    {}, optional={"method": st.sampled_from(["exact", "rk4"]), "elapsed": floats, "step_count": st.integers(0, 10**6)}
)


# Keys that one chunk's dictionary may map wrongly: 0.0 and -0.0 are equal with
# different bits and both print as 0.0; each other pair is two distinct doubles
# with one %.12e text.
PAIRS = [(0.0, -0.0)] + [
    (v, float(np.nextafter(v, 0.0))) for v in (1.0, -2.5, 1e308, 1.7976931348623157e308)
]


@st.composite
def pools(draw):
    """2 to 6 values for the float cells of one table: one of PAIRS and up to four more."""
    return [*draw(st.sampled_from(PAIRS)), *draw(st.lists(floats, max_size=4))]


@st.composite
def cases(draw, pooled=False):
    """A small RENDER_CHUNK and a table of 0 to past three chunks of rows, so that tables end on both sides
    of a chunk boundary; n, component and float columns in any order; extras. Pooled tables draw their
    float cells from a small per-table pool, so values repeat within a chunk and across chunks."""
    chunk = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 3 * chunk + 1))
    kinds = draw(st.lists(st.sampled_from(list(CELLS)), min_size=1, max_size=6))
    columns = [kind if kind != "float" else f"v{j}" for j, kind in enumerate(kinds)]
    cells = {**CELLS, "float": st.sampled_from(draw(pools()))} if pooled else CELLS
    table = np.array([[draw(cells[kind]) for kind in kinds] for _ in range(rows)], dtype=float)
    return chunk, columns, table.reshape(rows, len(columns)), draw(EXTRAS)


def outcome(render, *args):
    """The text render returns, or the type and message of the numeric failure it raises."""
    try:
        return render(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def first_difference(rendered, expected):
    """The first pair of differing lines (JSON split into rows), or None: for long texts, the report of a
    failing rendered == expected takes pytest minutes to build."""
    lines = [text.replace("],[", "],\n[").splitlines() for text in (rendered, expected)]
    return next((pair for pair in zip_longest(*lines) if pair[0] != pair[1]), None)


def both_formats(columns, table, extras):
    """(renderer, oracle) outcomes in CSV and in JSON."""
    return [
        tuple(outcome(render, fmt, "sweep", PARAMS, columns, table, extras) for render in (cli._render, render_oracle))
        for fmt in ("csv", "json")
    ]


@settings(deadline=None, max_examples=300)
@given(cases())
def test_renderer_matches_the_cell_oracle(case):
    chunk, columns, table, extras = case
    with mock.patch.object(cli, "RENDER_CHUNK", chunk):
        for rendered, expected in both_formats(columns, table, extras):
            assert rendered == expected


@settings(deadline=None, max_examples=300)
@given(cases(pooled=True))
def test_repeated_values_match_the_cell_oracle(case):
    """Each chunk formats its distinct values once; every cell must still get its own value's text."""
    chunk, columns, table, extras = case
    with mock.patch.object(cli, "RENDER_CHUNK", chunk):
        for rendered, expected in both_formats(columns, table, extras):
            assert rendered == expected


@settings(deadline=None, max_examples=100)
@given(cases(), st.data())
def test_non_finite_values_fail_as_in_the_cell_oracle(case, data):
    """One to three non-finite values in the float columns of the table and in the float extras."""
    chunk, columns, table, extras = case
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    floats = [j for j, name in enumerate(columns) if name.startswith("v")]
    for _ in range(data.draw(st.integers(1, 3))):
        if len(table) and floats and data.draw(st.booleans()):
            table[data.draw(st.integers(0, len(table) - 1)), data.draw(st.sampled_from(floats))] = data.draw(bad)
        else:
            extras[data.draw(st.sampled_from(["elapsed", "phase_vs_initial"]))] = data.draw(bad)
    with mock.patch.object(cli, "RENDER_CHUNK", chunk):
        for rendered, expected in both_formats(columns, table, extras):
            assert rendered == expected


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tables_around_the_chunk_size_match_the_cell_oracle(offset):
    rng = np.random.default_rng(offset + 1)
    rows = cli.RENDER_CHUNK + offset
    n = np.tile(np.arange(1.0, 5.0), rows)[:rows]
    values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
    values.flat[rng.integers(0, values.size, 20)] = rng.choice(SPECIAL, 20)
    table = np.column_stack([values[:, :1], n, values[:, 1:]])
    for rendered, expected in both_formats(["J", "n", "energy", "phase"], table, {"identity_defect": -0.0}):
        assert rendered == expected


@pytest.mark.parametrize("quantity", ["aa", "spectrum"])
def test_real_sweep_over_a_symmetric_grid_matches_the_cell_oracle(quantity):
    """A 19 x 15 grid, 1,140 rows: J repeats over 60 rows, gamma every 4, and gamma and -gamma give the same
    energies and phases, the repetition that rendering each distinct value once relies on."""
    axes = cli._parse_axes(["J=-1.5:1.5:19", "gamma=-1.2:1.2:15"])
    columns, table, extras = cli.cmd_sweep(axes, quantity, SpinParams.symmetric(1.0, 0.0, 0.0, 0.15))
    assert len(table) > cli.RENDER_CHUNK
    assert 3 * len(np.unique(table)) < table.size
    for rendered, expected in both_formats(columns, table, extras):
        assert first_difference(rendered, expected) is None


@pytest.mark.parametrize("values", [SPECIAL, [-x for x in SPECIAL]], ids=["special", "negated"])
def test_json_text_of_special_values_is_repr_of_the_csv_text(values):
    assert cli._float_texts("json", np.array(values)) == [repr(float("%.12e" % (x + 0.0))) for x in values]


def test_json_text_over_random_bit_patterns_is_repr_of_the_csv_text():
    """100,000 random doubles of every exponent, finite ones in both signs."""
    bits = np.random.default_rng(12).integers(0, 2**64 - 1, size=100_000, dtype=np.uint64, endpoint=True)
    values = bits.view(float)
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    assert cli._float_texts("json", values) == [repr(float("%.12e" % x)) for x in values.tolist()]


def test_component_indices_render_as_labels():
    table = np.array([[i, 0.5 * i, -0.0, 0.25] for i in range(4)])
    columns = ["component", "re", "im", "probability"]
    assert cli._render("csv", "evolve", PARAMS, columns, table, {}).splitlines()[1:] == [
        f"{label},{0.5 * i:.12e},0.000000000000e+00,2.500000000000e-01"
        for i, label in enumerate(["uu", "ud", "du", "dd"])
    ]
    assert json.loads(cli._render("json", "evolve", PARAMS, columns, table, {}))["rows"][1] == ["ud", 0.5, 0.0, 0.25]


class TestNonFiniteRefusal:
    """Exit 4 and one JSON line naming the first non-finite value in row-major order, in both formats."""

    COLUMNS = ["J", "n", "energy"]

    def _run(self, capsys, monkeypatch, table, extras, fmt):
        monkeypatch.setattr(cli, "cmd_sweep", lambda axes, quantity, base: (self.COLUMNS, table, extras))
        code = cli.main(["sweep", "--quantity", "spectrum", "--axis", "J=0:1:2", "--format", fmt])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    @pytest.mark.parametrize("where", ["first", "middle", "after the chunk boundary"])
    def test_first_non_finite_value_is_named(self, capsys, monkeypatch, fmt, bad, text, where):
        row = {"first": 0, "middle": cli.RENDER_CHUNK // 2, "after the chunk boundary": cli.RENDER_CHUNK + 1}[where]
        rows = 2 * cli.RENDER_CHUNK + 3
        table = np.column_stack([np.linspace(-1.0, 1.0, rows), np.ones(rows), np.full(rows, -0.0)])
        table[row, 2] = bad
        # later in row-major order: the next row's first column, and a different value
        table[row + 1, 0] = math.nan if bad != bad else math.inf
        message = json.dumps({"error": f"non-finite value {text} in output", "exit_code": 4}) + "\n"
        assert self._run(capsys, monkeypatch, table, {}, fmt) == (4, "", message)

    @pytest.mark.parametrize("fmt, text", [("csv", "-inf"), ("json", "nan")])
    def test_csv_checks_the_extras_before_the_rows(self, capsys, monkeypatch, fmt, text):
        table = np.array([[0.0, 1.0, math.nan]])
        extras = {"method": "exact", "elapsed": 1.0, "phase_vs_initial": -math.inf}
        message = json.dumps({"error": f"non-finite value {text} in output", "exit_code": 4}) + "\n"
        assert self._run(capsys, monkeypatch, table, extras, fmt) == (4, "", message)
