"""csskit benchmark: one closed-loop caller per workload, one process each.

    python3 bench/run.py --workload plan-1000 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run builds its seeded inputs, sets the program up at least five times
and for four seconds or 500 set-ups (the median is ``setup_s``), then runs
operations one at a time in passes over the workload's fixed inputs until
their summed time reaches ``--seconds`` and the first pass has ended,
checking each output outside the timed region. Every exception or failed
check marks its input as failed and the run goes on; ``attempted`` and
``failed`` count inputs, so they depend on the seed alone. Times are
reported at a reference CPU speed measured by an interleaved calibration
loop (see ``Clock``); raw times are printed and saved beside them.
``ops_per_s``, ``p50_ms`` and ``p90_ms`` are taken over each input's median
latency, so every input weighs the same. With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` every other
operation runs with spans installed and the line carries the per-layer
metrics, per traced operation. Results (with Python version, git sha, nproc
and seed) and spans are written to ``bench/out/``. ``--workload all`` runs
each workload in its own process and prints every metric by name and unit.
``--smoke`` runs one pass over tiny inputs, for the test suite.

The ``correct`` field is false when any output broke a rule the program
promises; ``failed`` also counts outputs that were valid but missed the
benchmark's reference (a costlier award than the least exact cover).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5  # at least this many set-ups per run
SETUP_SECONDS = 4.0  # and more, up to MAX_SETUPS, until they sum to this
MAX_SETUPS = 500
MAX_LOOP_SECONDS = 140  # the first pass gives up here, so a run ends within 180 s
MAX_PROBLEMS = 5
CALIBRATION_LOOPS = 10_000
CALIBRATION_REFERENCE_MS = 1.0  # the reference speed times are reported at
PROBE_INTERVAL_S = 0.05  # at most one calibration probe per this interval
PROBE_WINDOW_S = 3.0  # an operation's speed: probes this close to its start

sys.path.insert(0, str(ROOT / "src"))
try:
    import csskit
except ImportError as exc:
    sys.exit(f"bench: cannot import csskit from {ROOT / 'src'}: {exc}")
if not Path(csskit.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: csskit was imported from {csskit.__file__}, not from src/")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def percentile_90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[8]


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs Python now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000


class Clock:
    """Wall and process CPU time of timed sections, plus calibration probes.

    The host's CPU speed swings by up to 2x in phases of 10-30 s, and a run
    is too short to average them out. Times are therefore reported at a
    reference speed, the one at which the calibration loop takes
    ``CALIBRATION_REFERENCE_MS``: the CPU time of a section (all threads,
    so in-process servers too, at most its wall time) is scaled by the
    reference over the median of the probes within ``PROBE_WINDOW_S`` of
    its start, and the rest of its wall time, spent waiting, is kept as
    measured. Raw times are reported too.
    """

    def __init__(self):
        self.times: list[float] = []  # probe start times, in time order
        self.probes: list[float] = []  # probe durations, ms

    def probe(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= PROBE_INTERVAL_S:
            self.times.append(now)
            self.probes.append(calibration_ms())

    @staticmethod
    def start() -> tuple[float, float]:
        return time.perf_counter(), time.process_time()

    @staticmethod
    def stop(started: tuple[float, float]) -> tuple[float, float, float]:
        """(start, wall, cpu) of the section begun at ``started``, in seconds."""
        wall = time.perf_counter() - started[0]
        return started[0], wall, min(time.process_time() - started[1], wall)

    def at_reference(self, section: tuple[float, float, float]) -> float:
        """Seconds of a (start, wall, cpu) section at the reference speed."""
        at, wall, cpu = section
        near = self.probes[bisect.bisect_left(self.times, at - PROBE_WINDOW_S):
                           bisect.bisect_right(self.times, at + PROBE_WINDOW_S)]
        factor = CALIBRATION_REFERENCE_MS / statistics.median(near or self.probes)
        return wall - cpu + cpu * factor


def per_input(latencies: dict[int, list[float]]) -> list[float]:
    """Each input's median latency: every input weighs the same, however
    many passes the run had time for."""
    return [statistics.median(samples) for samples in latencies.values()]


def schedule(workload, smoke: bool):
    """(pass, input number) in run order: passes over every input in turn."""
    for pass_number in itertools.count():
        for index in range(workload.n_inputs):
            yield pass_number, index
        if smoke:
            return


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload; returns the result and the tracer (None untraced)."""
    workload = WORKLOADS[name](seed, smoke)
    tracer = Tracer() if trace else None
    clock = Clock()

    setup_times = []
    while not setup_times or (not smoke and len(setup_times) < MAX_SETUPS and (
        len(setup_times) < SETUP_REPEATS
        or sum(wall for _, wall, _ in setup_times) < SETUP_SECONDS
    )):
        if setup_times:
            workload.teardown()
        clock.probe(force=True)
        gc.collect()  # each set-up starts from a collected heap
        if tracer:
            tracer.install()
        started = clock.start()
        try:
            workload.setup()
            setup_times.append(clock.stop(started))
        finally:
            if tracer:
                tracer.remove()

    traced_ms, untraced_ms = [], []
    op_times: dict[int, list[tuple[float, float, float]]] = {}
    failed_inputs = set()
    violations, misses, errors = [], [], []
    spent, passes = 0.0, 0
    wall_limit = time.monotonic() + min(3 * seconds + 30, MAX_LOOP_SECONDS)
    clock.probe(force=True)
    try:
        for op, (pass_number, index) in enumerate(schedule(workload, smoke)):
            # Later passes stop once --seconds of operations are timed; the
            # first runs to its end (barring the wall limit), so every input
            # runs at least once.
            if time.monotonic() > wall_limit or (pass_number > 0 and spent >= seconds):
                break
            passes = pass_number + 1
            item = workload.make_input(index)
            clock.probe()
            traced = tracer is not None and op % 2 == 1
            if traced:
                tracer.op = op
                tracer.install()
            started = clock.start()
            try:
                output, error = workload.run(item), None
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a failed run
                output, error = None, exc
            section = clock.stop(started)
            wall = section[1]
            if traced:
                tracer.remove()
            spent += wall
            op_times.setdefault(index, []).append(section)
            (traced_ms if traced else untraced_ms).append(wall * 1000)
            broken, missed = [], []
            if error is None:
                try:
                    broken, missed = workload.check(item, output)
                except Exception as exc:  # noqa: BLE001 - an output the checks cannot read
                    broken, missed = [f"check raised {exc!r}"], []
                violations += broken
                misses += missed
            else:
                errors.append(f"{type(error).__name__}: {error}")
            if error is not None or broken or missed:
                failed_inputs.add(index)
    finally:
        workload.teardown()

    # Failures are counted per input, not per operation: every input runs at
    # least once, so both counts depend only on the seed, not on how many
    # passes the run had time for.
    attempted, failed = len(op_times), len(failed_inputs)
    input_ms = per_input({
        index: [clock.at_reference(section) * 1000 for section in sections]
        for index, sections in op_times.items()
    })
    raw_ms = per_input({
        index: [wall * 1000 for _, wall, _ in sections]
        for index, sections in op_times.items()
    })
    raw = {
        "setup_s": statistics.median(wall for _, wall, _ in setup_times),
        "ops_per_s": len(raw_ms) * 1000 / sum(raw_ms),
        "p50_ms": statistics.median(raw_ms),
        "p90_ms": percentile_90(raw_ms),
    }
    if trace:
        metrics = tracer.layer_metrics(len(traced_ms), traced_ms, untraced_ms)
    else:
        metrics = {
            "setup_s": (statistics.median(
                clock.at_reference(section) for section in setup_times
            ), "s"),
            "ops_per_s": (len(input_ms) * 1000 / sum(input_ms), "1/s"),
            "p50_ms": (statistics.median(input_ms), "ms"),
            "p90_ms": (percentile_90(input_ms), "ms"),
            "success_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    return {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "seconds": seconds,
        "setup_runs_s": [wall for _, wall, _ in setup_times],
        "operations": sum(map(len, op_times.values())),
        "passes": passes,
        "calibration_ms": statistics.median(clock.probes),
        "probes": len(clock.probes),
        "raw": raw,
        "fail_ratio": failed / attempted,
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "problems": {
            "violations": violations[:MAX_PROBLEMS],
            "misses": misses[:MAX_PROBLEMS],
            "errors": errors[:MAX_PROBLEMS],
            "counts": [len(violations), len(misses), len(errors)],
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, tracer


def run_one(args) -> int:
    result, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if not args.smoke:
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if tracer is not None:
            tracer.write_spans(OUT / f"spans-{stem}.csv.gz")
    env = result["env"]
    raw = result["raw"]
    print(f"# {args.workload}: python {env['python']}, git {env['git_sha']}, "
          f"nproc {env['nproc']}, seed {env['seed']}, {result['operations']} operations "
          f"over {result['attempted']} inputs in {result['passes']} passes, "
          f"fail_ratio {result['fail_ratio']:.4f}")
    print(f"# calibration loop {result['calibration_ms']:.4f} ms (median of "
          f"{result['probes']} probes) against {CALIBRATION_REFERENCE_MS} ms at the "
          f"reference speed; raw: "
          + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()))
    for kind in ("violations", "misses", "errors"):
        for problem in result["problems"][kind]:
            print(f"# {kind}: {problem}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: exited {done.returncode} without a result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
              f"correct={result['correct']}")
        for line in lines[:-1]:
            print(f"   {line}")
        fail_ratio = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, entry in [*result["metrics"].items(), ("fail_ratio", fail_ratio)]:
            print(f"   {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass over them, no files written")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
