"""Benchmark of the `twospin` command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload sweep_closed_form --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, tracing off

With `--trace 0` one iteration of a workload runs its `twospin` invocations as
subprocesses (`python -m twospin`, with PYTHONPATH pointing at this checkout's
`src`), one after another: a closed loop with one client. Iterations repeat
for `--seconds` (at least three), and the end-to-end metrics are medians over
them. With `--trace 1` the same invocations run in-process through
`twospin.cli.main`, alternating an untraced and a traced pass for `--seconds`
(at least one of each); the per-layer metrics come from the traced passes, and
the untraced passes give the tracing overhead.

Every output is checked against the oracles in `workloads.py` once, and by
digest on later iterations, since the CLI promises byte-identical output. An
invocation fails on a non-zero exit or a failed check. The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; a
result file with the samples, the input properties and machine facts goes to
`bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

MIN_ITERATIONS = 3
# Set-up is timed before the loop and again after every iteration, so that its
# median covers the whole run rather than one moment of a shared machine.
SETUP_SAMPLES = 9
SETUP_SAMPLES_PER_ITERATION = 3
IMPORT_SAMPLES = 7
SETUP_ARGV = [sys.executable, "-c", "import twospin.cli"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "cli.cmd_sweep.wait_s": "s",
        "evolution.evolve_stepped.step_us": "us",
        "spectral.eigensystem.fallback_ratio": "ratio",
        "phases.berry_phase.fallback_ratio": "ratio",
        "cli.rows": "count",
        "cli.out_bytes": "B",
        "setup.import.numpy_s": "s",
        "setup.import.twospin_s": "s",
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# running the CLI


def run_cli(argv: list[str]) -> tuple[int, float, int, str]:
    """Run `python -m twospin argv`; return exit code, CPU seconds, max RSS (KiB), stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "twospin", *argv],
        env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    with proc.stderr:
        err = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, err


def run_in_process(main, argv: list[str]) -> tuple[int, str]:
    """Call twospin.cli.main(argv); a usage exit or an escaped exception is a failure."""
    try:
        return main(argv), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), "argparse exit"
    except Exception:  # the benchmark reports the crash and keeps measuring
        return -1, traceback.format_exc(limit=3)


def time_setup(count: int) -> list[float]:
    """Wall times of fresh interpreters that import twospin.cli and exit."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(SETUP_ARGV, env=child_env(), cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def import_split() -> tuple[float, float]:
    """numpy's and twospin's own share of `import twospin.cli`, from -X importtime."""
    numpy_s, twospin_s = [], []
    for _ in range(IMPORT_SAMPLES):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twospin.cli"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        ).stderr
        numpy_us, top_us = None, 0
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, name = int(fields[1]), fields[2][1:]
            if numpy_us is None and name.strip() == "numpy":
                numpy_us = cumulative
            if name.split(".")[0] == "twospin":  # unindented: imported by the -c line
                top_us += cumulative
        numpy_s.append((numpy_us or 0) / 1e6)
        twospin_s.append((top_us - (numpy_us or 0)) / 1e6)
    return statistics.median(numpy_s), statistics.median(twospin_s)


# ---------------------------------------------------------------------------
# output checks


class Tally:
    """Attempted and failed invocations, with the first failure messages."""

    def __init__(self, workload: workloads.Workload, out_dir: str):
        self.workload = workload
        self.out_dir = out_dir
        self.references: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._digests: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def _fail(self, name: str, *reasons: str):
        self.failed += 1
        for why in reasons:
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {why}")

    def record(self, invocations, codes: dict[str, tuple[int, str]]):
        """Count one run of `invocations` and check their outputs.

        The oracles run on the first run's outputs; later outputs must match
        them byte for byte.
        """
        outputs = {inv.name: inv.output(self.out_dir) for inv in invocations}
        if not self._verdicts:
            self._verdicts = self.workload.check(outputs, self.references)
        for inv in invocations:
            self.attempted += 1
            code, err = codes[inv.name]
            if code != 0:
                self._fail(inv.name, f"exit {code}: {err.strip()[-300:]}")
                continue
            with open(outputs[inv.name], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            failures = self._verdicts.get(inv.name, [])
            if digest != self._digests.setdefault(inv.name, digest):
                failures = ["output differs from the first run"]
            if failures:
                self._fail(inv.name, *failures)

    def record_references(self, codes: dict[str, tuple[int, str]]):
        for inv in self.workload.references:
            self.attempted += 1
            code, err = codes[inv.name]
            if code != 0:
                self._fail(inv.name, f"exit {code}: {err.strip()[-300:]}")
            self.references[inv.name] = inv.output(self.out_dir)


def clear_outputs(invocations, out_dir: str):
    """Delete earlier outputs, outside the timed region.

    On ext4, truncating a file whose blocks are still delayed-allocated forces
    them to disk, so overwriting the previous iteration's file would time the
    disk rather than the program.
    """
    for inv in invocations:
        try:
            os.remove(inv.output(out_dir))
        except FileNotFoundError:
            pass


def output_totals(invocations, out_dir: str) -> tuple[int, int]:
    rows = bytes_ = 0
    for inv in invocations:
        path = inv.output(out_dir)
        if os.path.exists(path):
            rows += workloads.count_rows(path)
            bytes_ += os.path.getsize(path)
    return rows, bytes_


# ---------------------------------------------------------------------------
# the two modes


def run_end_to_end(workload: workloads.Workload, tally: Tally, seconds: float) -> tuple[dict, dict]:
    subprocess.run(SETUP_ARGV, env=child_env(), cwd=ROOT, check=True)  # writes bytecode caches
    setup = time_setup(SETUP_SAMPLES)
    codes = {}
    for inv in workload.references:
        code, _, _, err = run_cli(inv.argv(tally.out_dir))
        codes[inv.name] = (code, err)
    tally.record_references(codes)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    started = time.perf_counter()
    while len(samples["wall_s"]) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        clear_outputs(workload.invocations, tally.out_dir)
        codes, cpu, rss = {}, 0.0, 0
        t0 = time.perf_counter()
        for inv in workload.invocations:
            code, cpu_s, rss_kib, err = run_cli(inv.argv(tally.out_dir))
            codes[inv.name] = (code, err)
            cpu += cpu_s
            rss = max(rss, rss_kib)
        samples["wall_s"].append(time.perf_counter() - t0)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss / 1024.0)
        tally.record(workload.invocations, codes)
        setup += time_setup(SETUP_SAMPLES_PER_ITERATION)
    samples["setup_s"] = setup
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples


def _import_package():
    sys.path.insert(0, SRC)
    package = importlib.import_module("twospin")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SystemExit(f"twospin imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"twospin.{name}") for name in tracing.TRACED}
    return package, modules


def run_traced(workload: workloads.Workload, tally: Tally, seconds: float) -> tuple[dict, dict, np.ndarray, list]:
    numpy_s, twospin_s = import_split()
    package, modules = _import_package()
    cli = modules["cli"]

    def one_pass(invocations) -> tuple[float, dict]:
        clear_outputs(invocations, tally.out_dir)
        codes = {}
        t0 = time.perf_counter()
        for inv in invocations:
            codes[inv.name] = run_in_process(cli.main, inv.argv(tally.out_dir))
        return time.perf_counter() - t0, codes

    tally.record_references(one_pass(workload.references)[1])
    untraced, traced, summaries = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        elapsed, codes = one_pass(workload.invocations)
        untraced.append(elapsed)
        tally.record(workload.invocations, codes)

        tracer = tracing.Tracer(package, modules)
        tracer.install()
        try:
            elapsed, codes = one_pass(workload.invocations)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tally.record(workload.invocations, codes)
        summaries.append(tracer.summary())

    last = summaries[-1]
    per_pass = [_layer_times(s, workload.rk4_steps) for s in summaries]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for layer, calls in last["calls"].items():
        metrics[f"{layer}.calls"] = calls
    es_calls, bp_calls = last["calls"]["spectral.eigensystem"], last["calls"]["phases.berry_phase"]
    metrics.update({
        "spectral.eigensystem.fallback_ratio": last["eigensystem_fallbacks"] / es_calls if es_calls else 0.0,
        "phases.berry_phase.fallback_ratio": last["phases_eigensystem_calls"] / bp_calls if bp_calls else 0.0,
        "setup.import.numpy_s": numpy_s,
        "setup.import.twospin_s": twospin_s,
        "trace.untraced_s": statistics.median(untraced),
        "trace.traced_s": statistics.median(traced),
    })
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"]
    samples = {"untraced_s": untraced, "traced_s": traced, "spans": last["spans"]}
    return metrics, samples, tracer.spans(), tracer.bindings


def _layer_times(summary: dict, rk4_steps: int) -> dict:
    times = {f"{layer}.self_s": value for layer, value in summary["self_s"].items()}
    times["cli.cmd_sweep.wait_s"] = summary["pool_wait_s"]
    stepped = summary["self_s"]["evolution.evolve_stepped"]
    times["evolution.evolve_stepped.step_us"] = stepped / rk4_steps * 1e6 if rk4_steps else 0.0
    return times


# ---------------------------------------------------------------------------
# reporting


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    facts = machine_facts()
    workload = workloads.WORKLOADS[name](seed, small)
    out_dir = os.path.join(OUT_DIR, name)
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally(workload, out_dir)
    units = PER_LAYER if trace else END_TO_END
    extra = {}
    if trace:
        metrics, samples, spans, bindings = run_traced(workload, tally, seconds)
        spans_path = os.path.join(out_dir, "spans.npy")
        np.save(spans_path, spans)
        extra = {"spans_file": os.path.relpath(spans_path, ROOT), "span_fields": tracing.SPAN_FIELDS, "bindings": bindings}
    else:
        metrics, samples = run_end_to_end(workload, tally, seconds)
    rows, out_bytes = output_totals(workload.invocations, out_dir)
    metrics.update({"cli.rows": rows, "cli.out_bytes": out_bytes})
    properties = dict(workload.properties(), rows=rows, out_bytes=out_bytes)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace), small=small,
                  machine=facts, properties=properties, samples=samples, failures=tally.messages, **extra)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(record)
    return result


def _print_summary(record: dict):
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} invocations, {record['failed']} failed "
          f"(fail_ratio {record['failed'] / max(record['attempted'], 1):.4g})")
    samples = record["samples"]
    if record["trace"]:
        print(f"  {len(samples['traced_s'])} untraced and traced in-process passes; "
              "per-layer times are medians over the traced passes")
    for name, metric in record["metrics"].items():
        count = len(samples[name]) if isinstance(samples.get(name), list) else None
        note = f"  median of {count}" if count else ""
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}{note}")
    print("  properties: " + json.dumps(record["properties"]))
    for message in record["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twospin", "cli.py")):
        print(f"twospin sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.small) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
