"""Benchmark of the epigame engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eliminate-lp --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

The engine is imported from ``./src`` and driven in-process through
``epigame.cli.main(argv)``: one caller, a closed loop, no threads or child
processes. The workloads and their checks are in ``workloads.py``. A pass is
one run over a workload's fixed list of operations.

``--trace 0`` sets the inputs up several times, before and after the passes,
makes one untimed pass under ``tracemalloc`` (``peak_mem_mb``; it also warms
up), then times passes for ``--seconds`` (at least ``MIN_PASSES``). It
reports:

* ``setup_s``: median over the set-up repetitions of the seconds to import
  the engine, build the seeded inputs and write them, each repetition
  divided by the Fraction loop timed just before and just after it and
  multiplied by ``REFERENCE_LOOP_S``: set-up seconds on a machine where the
  loop takes 15 ms. The raw median is printed as ``setup_raw_s``;
* ``job_s``: median over passes of the seconds spent inside the operations;
* ``job_rel``: median over passes of the pass time in units of a fixed
  Fraction loop, timed before the pass and after each operation; each
  operation is divided by the median of the four timings nearest to it;
* ``op_p50_s`` and ``op_tail_s``: median and tail of all operation times.
  The tail is the highest whole percentile with ten samples beyond it at
  the fewest passes a run makes, so it names the same percentile whatever
  the speed;
* ``fail_ratio``: share of operations whose exit code or output is wrong.

All seven, and ``setup_raw_s``, are printed with their units; the result
line carries the ``GATED`` ones (see there), and ``failed``/``attempted``
give the fail ratio.

``--trace 1`` alternates untraced and traced passes and reports, per layer,
self time as a share of the traced pass (the seconds are printed too) and
work counts, which must repeat exactly between traced passes, plus the
tracing overhead (traced minus untraced pass seconds).

Every output is checked: per-operation checks, identical output in every
pass, and a digest captured by ``capture_golden.py`` when the seed has one.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Run records (Python version, CPU, nproc,
calibration times, inputs and why each was chosen) and spans are written to
``perfbench/out/``.

Left out on purpose: ``mwd`` on 16x16 and 32x32 games (seconds to minutes per
operation; one pass would outlast a run) and the Tier-1 test wall time (48 s
per run).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated at least this often and for at least SETUP_MIN_S, once
# before the passes and once after them, so its median spans the run
SETUP_REPEATS = 3
LATE_SETUP_REPEATS = 2
SETUP_MIN_S = 0.5
# seconds of the calibration loop on the reference machine; setup_s is in
# seconds at that speed
REFERENCE_LOOP_S = 0.015
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
GOLDEN = HERE / "golden.json"
# End-to-end metrics in the result line (and in BENCHMARK.json). The raw
# seconds and the per-operation percentiles are printed and recorded, but
# they follow the machine's speed swings (the calibration loop alone moves
# between about 12 and 26 ms on a 2-core VM), so only the drift-corrected
# job and set-up times and the memory peak are gated.
GATED = ("job_rel", "peak_mem_mb", "setup_s")


def calibrate() -> float:
    """Seconds for a fixed stdlib Fraction loop (bounded operand sizes), the
    yardstick ``job_rel`` divides by. It creates no cycles, so the collector
    stays off while it runs."""
    gc.disable()
    start = time.perf_counter()
    a, b, acc = Fraction(3, 7), Fraction(5, 11), 0
    for k in range(4000):
        acc += (a * b - Fraction(k % 13, 17)).numerator
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(p for p in range(50, 100) if samples * (100 - p) >= 1000)


def fresh_import():
    for name in [n for n in sys.modules if n == "epigame" or n.startswith("epigame.")]:
        del sys.modules[name]
    importlib.import_module("epigame")
    return importlib.import_module("epigame.cli")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs passes over one workload's operations and checks their outputs."""

    def __init__(self, workload, seed, built, cli):
        self.workload = workload
        self.ops = built.ops
        self.cli = cli
        self.caches = tracing.CacheStats(tracing.find_caches())
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = golden.get(workload.name, {}).get(str(seed))
        self.first_digests: list[str] | None = None
        self.attempted = 0
        self.failures: list[str] = []  # one per operation whose output is wrong
        self.errors: list[str] = []  # whole-run problems, such as counts that do not repeat

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def run_pass(self, tracer=None, harvest=False, calibrations=None):
        """One pass; returns (seconds summed over its operations, per-op
        seconds). With ``calibrations``, the calibration loop is also timed
        after every operation, so the yardstick covers the whole pass."""
        cli_mode = self.workload.semantics == "cli"
        outputs, durations = [], []
        self.caches.clear(harvest=False)  # what is left from an earlier pass is not this pass's work
        gc.collect()
        for k, op in enumerate(self.ops):
            if cli_mode and k:
                self.caches.clear(harvest)
            if tracer is not None:
                tracer.op_id = k
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = self.cli.main(op.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    code = -1
                    print(f"{type(exc).__name__}: {exc}")
            durations.append(time.perf_counter() - t0)
            outputs.append((code, out.getvalue()))
            if calibrations is not None:
                calibrations.append(calibrate())
        if harvest:
            self.caches.clear(True)
        self.check(outputs)
        return sum(durations), durations

    def check(self, outputs) -> None:
        digests = [digest(code, out) for code, out in outputs]
        if self.first_digests is None:
            self.first_digests = digests
        for k, (op, (code, out)) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            error = op.check(code, out)
            if error is None and digests[k] != self.first_digests[k]:
                error = "output differs from the first pass"
            if error is None and self.golden is not None and (
                len(self.golden) != len(self.ops) or digests[k] != self.golden[k]
            ):
                error = "output differs from the golden output"
            if error is not None:
                self.failures.append(f"{op.name}: {error}")


def setup(workload, seed: int, directory: Path, repeats: int = SETUP_REPEATS):
    """Import the engine, build the seeded inputs and write them; repeated at
    least ``repeats`` times and for at least ``SETUP_MIN_S``. Returns the
    engine's CLI module, the built workload, the seconds of each repetition
    and the calibration loop's seconds before the first and after each."""
    directory.mkdir(parents=True, exist_ok=True)
    times, loops = [], [calibrate()]
    start = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        cli = fresh_import()
        built = workload.build(seed, directory)
        times.append(time.perf_counter() - t0)
        loops.append(calibrate())
    return cli, built, times, loops


def setup_reference_s(times, loops) -> list[float]:
    """Each set-up time in seconds at the reference loop speed, against the
    mean of the loop timings just before and just after it."""
    return [t * 2 * REFERENCE_LOOP_S / (loops[k] + loops[k + 1]) for k, t in enumerate(times)]


def measure(runner, seconds: float, record: dict) -> dict:
    tracemalloc.start()
    runner.run_pass()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    walls, rels, op_times, calibrations = [], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        around = [calibrate()]
        wall, durations = runner.run_pass(calibrations=around)
        walls.append(wall)
        # each operation in units of the four loop timings nearest to it,
        # two before and two after (around[k] is timed just before op k)
        rels.append(sum(d / median(around[max(0, k - 1):k + 3])
                        for k, d in enumerate(durations)))
        op_times.extend(durations)
        calibrations.append(around)
    percentile = tail_percentile(len(runner.ops) * MIN_PASSES)
    tail = quantiles(op_times, n=100, method="inclusive")[percentile - 1]
    record.update(
        pass_seconds=walls,
        calibration_seconds=calibrations,
        op_seconds=op_times,
        tail=f"p{percentile} of {len(op_times)} operation samples over {len(walls)} passes",
    )
    return {
        "job_s": (median(walls), "s"),
        "job_rel": (median(rels), "ratio"),
        "op_p50_s": (median(op_times), "s"),
        "op_tail_s": (tail, "s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
        "fail_ratio": (runner.fail_ratio, "ratio"),
    }


def measure_traced(runner, seconds: float, record: dict, out_dir: Path) -> dict:
    """Alternate untraced and traced passes; per-layer times are medians over
    the traced passes, counts must repeat exactly from pass to pass."""
    untraced, traced, layer_times, layer_counts, calibrations = [], [], [], [], []
    spans = None
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES or not untraced
           or time.perf_counter() - start < seconds):
        around = [calibrate()]
        untraced.append(runner.run_pass(calibrations=around)[0])
        calibrations.append(around)
        tracer = tracing.Tracer(keep_spans=spans is None)
        runner.caches = tracing.CacheStats(runner.caches.caches)
        restore = tracing.install(tracer)
        try:
            traced.append(runner.run_pass(tracer, harvest=True)[0])
        finally:
            restore()
        times, counts = tracing.layer_metrics(tracer, runner.caches)
        layer_times.append(times)
        layer_counts.append(counts)
        if spans is None:
            spans = tracer.spans
    for k, counts in enumerate(layer_counts[1:], start=1):
        if counts != layer_counts[0]:
            diff = sorted(n for n in counts if counts[n] != layer_counts[0][n])
            runner.errors.append(f"work counts of traced pass {k} differ from pass 0: {diff}")
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    record.update(
        untraced_pass_seconds=untraced,
        traced_pass_seconds=traced,
        calibration_seconds=calibrations,
        layer_counts=layer_counts,
        layer_seconds={n: median([t[n] for t in layer_times]) for n in layer_times[0]},
    )
    # layer self times as shares of their traced pass: unlike raw seconds
    # they do not follow the machine's speed swings
    metrics = {
        name.removesuffix("_s") + "_share":
            (median([t[name] / wall for t, wall in zip(layer_times, traced)]), "ratio")
        for name in layer_times[0]
    }
    for name, value in layer_counts[0].items():
        metrics[name] = (value, "ratio" if name == "optimality.lp_per_holds" else "count")
    metrics["bench.trace_overhead_s"] = (median(traced) - median(untraced), "s")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: int):
    """Set up, measure and check one workload; returns (metrics, runner, record)."""
    src = Path.cwd() / "src"
    out_dir = HERE / "out" / f"{workload.name}-{seed}"
    cli, built, setup_times, setup_loops = setup(workload, seed, out_dir)
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported epigame from {cli.__file__}, not from {src}")
    runner = Runner(workload, seed, built, cli)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "machine": machine(),
        "semantics": workload.semantics,
        "operations": [{"name": op.name, "argv": op.argv} for op in built.ops],
        "inputs": built.inputs,
        "setup_seconds": setup_times,
        "setup_calibration_seconds": setup_loops,
        "golden": runner.golden is not None,
    }
    if trace:
        metrics = measure_traced(runner, seconds, record, out_dir)
    else:
        metrics = measure(runner, seconds, record)
        # set up again once the passes are done, so that the median spans
        # the run rather than one moment of the machine's speed
        late_times, late_loops = setup(workload, seed, out_dir, LATE_SETUP_REPEATS)[2:]
        record.update(late_setup_seconds=late_times, late_setup_calibration_seconds=late_loops)
        reference = (setup_reference_s(setup_times, setup_loops)
                     + setup_reference_s(late_times, late_loops))
        metrics["setup_s"] = (median(reference), "s")
        metrics["setup_raw_s"] = (median(setup_times + late_times), "s")
        record["metrics"] = metrics
    record.update(failures=runner.failures, errors=runner.errors,
                  attempted=runner.attempted, fail_ratio=runner.fail_ratio)
    (out_dir / f"record-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return metrics, runner, record


def report(workload, seed, trace, metrics, runner, record) -> None:
    m = record["machine"]
    print(f"workload {workload.name} seed {seed} trace {trace}: python {m['python']}, "
          f"{m['cpu']}, nproc {m['nproc']}, golden {'yes' if runner.golden else 'absent'}")
    for name, (value, unit) in metrics.items():
        gated = " (gated)" if not trace and name in GATED else ""
        print(f"  {name:34s} {value:14.6g} {unit}{gated}")
    if trace:
        for name, value in record["layer_seconds"].items():
            print(f"  {name:34s} {value:14.6g} s (self time, median over traced passes)")
    else:
        print(f"  op_tail_s is {record['tail']}")
    for problem in (runner.failures + runner.errors)[:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or 'all' for every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "epigame" / "__init__.py").is_file():
        print(f"error: no engine sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS.values() for t in (0, 1)]
    else:
        runs = [(WORKLOADS[args.workload], args.trace)]
    correct, attempted, failed, combined = True, 0, 0, {}
    for workload, trace in runs:
        metrics, runner, record = run_workload(workload, args.seed, args.seconds, trace)
        report(workload, args.seed, trace, metrics, runner, record)
        correct = correct and not runner.failures and not runner.errors
        attempted += runner.attempted
        failed += len(runner.failures)
        prefix = f"{workload.name}/" if len(runs) > 1 else ""
        combined.update({prefix + name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()
                         if trace or name in GATED})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
