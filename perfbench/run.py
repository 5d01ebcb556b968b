"""Benchmark of the cr-noise-lab command line, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; the program is ``python -m
crnoise.cli`` with the checkout's ``src`` on PYTHONPATH, so the working tree
is what gets measured.  One benchmark process runs one command at a time (a
closed loop with one client) and repeats the workload's commands until
``--seconds`` have passed since measuring began; no command starts after
that.  Every command's outputs are checked; a non-zero exit code or a failed
check counts as a failed operation.

--trace 0 first times three fresh ``import crnoise.cli`` processes
(set-up), then loops over the commands.  It reports the median wall time of
each command process from spawn to exit, summed over the workload's
commands, and the median set-up time, both scaled by the CALIBRATION run
(below), and the peak RSS.  --trace 1 first runs
``python -X importtime`` three times, then spends half the remaining time on
untraced commands and half on commands run in process under
perfbench/traced_cmd.py.  It reports per-layer busy time, self time, call
counts and work counts, the import breakdown and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric by name with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
TRACED_CMD = Path(__file__).resolve().parent / "traced_cmd.py"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
# Reference work that touches no crnoise code: start an interpreter, import
# numpy and scipy.signal, then filter and sort 2^21 samples three times.  On
# the shared machine the bounds were set on, the commands and this work slow
# down together when the machine switches speed regime (about 25%, for
# minutes at a time), so the end-to-end times are scaled by
# CALIBRATION_REF_S / (this work's median wall in the same run).
CALIBRATION = """
import numpy as np
import scipy.signal
x = np.random.default_rng(0).standard_normal(1 << 21)
for _ in range(3):
    np.sort(scipy.signal.lfilter([1.0], [1.0, -0.9], x))
"""
CALIBRATION_REF_S = 1.5
COMMAND_LIMIT_S = 120.0
IMPORT_PACKAGES = ("numpy", "scipy", "crnoise")


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    trace: dict | None = None  # spans of a traced command that succeeded


@dataclass
class Context:
    env: dict[str, str]
    hashes: dict[tuple[int, str], str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    calibration: list[float] = field(default_factory=list)  # wall of each CALIBRATION run


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's src, threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def spawn(argv: list[str], env: dict[str, str], stdout: Path,
          stderr: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    ru_maxrss is in KiB on Linux; MB here is 10^6 bytes.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=WORK)
        watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def run_command(index: int, cmd: workloads.Command, ctx: Context, traced: bool) -> Outcome:
    out_dir = WORK / "out"
    spans_path = WORK / "spans.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    argv = [*cmd.argv, "--out", str(out_dir)]
    if traced:
        argv = [sys.executable, str(TRACED_CMD), str(spans_path), *argv]
    else:
        argv = [sys.executable, "-m", "crnoise.cli", *argv]
    try:
        wall, code, rss = spawn(argv, ctx.env, WORK / "stdout.txt", WORK / "stderr.txt")
        failures: list[str] = []
        trace = None
        if code != 0:
            tail = (WORK / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            failures.append(f"exit code {code}: {' | '.join(tail)}")
        else:
            failures += cmd.check(out_dir)
            failures += same_as_before(index, out_dir, ctx)
            if traced:
                trace = json.loads(spans_path.read_text())
                steps = sum((s[tracer.ATTRS] or {}).get("steps", 0) for s in trace["spans"]
                            if s[tracer.NAME] == "timesim.simulate")
                if steps != cmd.planned_steps:
                    failures.append(f"simulate took {steps} steps, planned {cmd.planned_steps}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
    ctx.attempted += 1
    ctx.failed += bool(failures)
    ctx.errors += [f"{cmd.metric}: {msg}" for msg in failures]
    return Outcome(wall, rss, None if failures else trace)


def same_as_before(index: int, out_dir: Path, ctx: Context) -> list[str]:
    """Every output file is byte-identical to the first run of this command."""
    failures = []
    for path in sorted(out_dir.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = ctx.hashes.setdefault((index, path.name), digest)
        if digest != first:
            failures.append(f"{path.name} differs from the first run of this command")
    return failures


def run_loop(workload: workloads.Workload, ctx: Context, deadline: float,
             traced: bool) -> list[list[Outcome]]:
    """Run the commands round-robin, one at a time, until the deadline.

    Every command runs at least once; after that no command starts past the
    deadline, so the last cycle may be partial.  The calibration work runs
    before each cycle.  Returns each command's outcomes, in workload order.
    """
    outcomes: list[list[Outcome]] = [[] for _ in workload.commands]
    while True:
        for i, cmd in enumerate(workload.commands):
            if outcomes[-1] and time.perf_counter() >= deadline:
                return outcomes
            if i == 0:
                calibrate(ctx)
            outcomes[i].append(run_command(i, cmd, ctx, traced))


def calibrate(ctx: Context) -> None:
    ctx.calibration += [wall for wall, _ in timed_child(
        [sys.executable, "-c", CALIBRATION], ctx, 1)]


def command_walls(workload: workloads.Workload, outcomes) -> dict[str, list[float]]:
    return {cmd.metric: [o.wall for o in runs] for cmd, runs in zip(workload.commands, outcomes)}


def cycle_wall(walls: dict[str, list[float]]) -> float:
    """Sum over the cycle's commands of each command's median wall time."""
    return sum(statistics.median(w) for w in walls.values())


def timed_child(argv: list[str], ctx: Context, samples: int) -> list[tuple[float, str]]:
    """(wall, stderr text) of `samples` fresh runs of a child process."""
    out = []
    for _ in range(samples):
        wall, code, _ = spawn(argv, ctx.env, WORK / "stdout.txt", WORK / "stderr.txt")
        err = (WORK / "stderr.txt").read_text(errors="replace")
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} exited with {code}: {err.strip()[-300:]}")
        out.append((wall, err))
    return out


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds of module-body execution per package from -X importtime output."""
    totals = {name: 0.0 for name in IMPORT_PACKAGES}
    everything = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the column header
        module = fields[2].strip()
        everything += self_us / 1e6
        root = module.split(".", 1)[0]
        if root in totals:
            totals[root] += self_us / 1e6
    out = {f"import.{name}_s": value for name, value in totals.items()}
    out["import.total_s"] = everything
    return out


def machine() -> str:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    caches = []
    for label, name in (("L1d", "SC_LEVEL1_DCACHE_SIZE"), ("L2", "SC_LEVEL2_CACHE_SIZE"),
                        ("L3", "SC_LEVEL3_CACHE_SIZE")):
        try:
            size = os.sysconf(name)
        except (ValueError, OSError):
            size = 0
        caches.append(f"{label}={size // 1024}KiB" if size > 0 else f"{label}=unknown")
    return (f"nproc={os.cpu_count()} {' '.join(caches)} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')}")


UNITS = (("calls_per_point", "calls/point"), ("msamp_s", "Msamp/s"), ("_mb", "MB"),
         (".bytes", "B"), (".calls", "count"), (".steps", "count"),
         (".segments", "count"), ("_s", "s"), (".s", "s"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def end_to_end(workload, ctx: Context, deadline: float, lines: list[str]) -> dict[str, float]:
    calibrate(ctx)
    setup = [wall for wall, _ in timed_child(
        [sys.executable, "-c", "import crnoise.cli"], ctx, SETUP_SAMPLES)]
    outcomes = run_loop(workload, ctx, deadline, traced=False)
    walls = command_walls(workload, outcomes)
    rss = [o.rss_mb for runs in outcomes for o in runs]
    calibration = statistics.median(ctx.calibration)
    scale = CALIBRATION_REF_S / calibration
    raw_cycle, raw_setup = cycle_wall(walls), statistics.median(setup)
    metrics = {
        "cycle_wall_s": raw_cycle * scale,
        "setup_s": raw_setup * scale,
        "peak_rss_mb": max(rss),
    }
    for name, values in walls.items():
        lines.append(summary_line(name, statistics.median(values), "s", len(values),
                                  f"median wall, spawn to exit (max {max(values):.4g})"))
    lines += [
        summary_line("calibration_s", calibration, "s", len(ctx.calibration),
                     f"median wall of the reference work; scale = {scale:.4f}"),
        summary_line("cycle_wall_s", metrics["cycle_wall_s"], "s", len(rss),
                     f"sum of the command medians above ({raw_cycle:.4f} s) x scale"),
        summary_line("setup_s", metrics["setup_s"], "s", len(setup),
                     f"median fresh `import crnoise.cli` ({raw_setup:.4f} s) x scale"),
        summary_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", len(rss),
                     "largest peak RSS of any command"),
    ]
    return metrics


def cycle_metrics(workload, cycle: list[Outcome]) -> dict[str, float]:
    """Layer metrics of one traced cycle, plus mode_analysis calls per sweep point."""
    metrics = tracer.layer_metrics(tracer.merge([o.trace for o in cycle]))
    points = sum(cmd.points for cmd in workload.commands)
    sweep_calls = sum(o.trace["calls"].get("sysmodel.mode_analysis", 0)
                      for cmd, o in zip(workload.commands, cycle) if cmd.points)
    metrics["sysmodel.mode_analysis.calls_per_point"] = sweep_calls / points if points else 0.0
    return metrics


def per_layer(workload, ctx: Context, deadline: float, lines: list[str]) -> dict[str, float]:
    runs = timed_child([sys.executable, "-X", "importtime", "-c", "import crnoise.cli"],
                       ctx, IMPORT_SAMPLES)
    imports = [import_breakdown(err) for _, err in runs]
    interp = timed_child([sys.executable, "-c", "pass"], ctx, IMPORT_SAMPLES)
    halfway = time.perf_counter() + (deadline - time.perf_counter()) / 2
    untraced = run_loop(workload, ctx, halfway, traced=False)
    traced = run_loop(workload, ctx, deadline, traced=True)

    # complete cycles in which every traced command succeeded
    cycles = [c for c in zip(*traced) if all(o.trace is not None for o in c)]
    per_cycle = ([cycle_metrics(workload, cycle) for cycle in cycles]
                 or [cycle_metrics(workload, [])])
    metrics = {name: statistics.median(m[name] for m in imports) for name in imports[0]}
    metrics["import.interpreter_s"] = statistics.median(wall for wall, _ in interp)
    for name in per_cycle[0]:
        metrics[name] = statistics.median(m[name] for m in per_cycle)
    metrics["trace.overhead_s"] = (cycle_wall(command_walls(workload, traced))
                                   - cycle_wall(command_walls(workload, untraced)))
    lines.append(f"  medians over {len(cycles)} traced cycles, "
                 f"{len(imports)} -X importtime runs and {len(interp)} bare interpreters; "
                 f"raw times (calibration work median {statistics.median(ctx.calibration):.4f} s)")
    for name, value in metrics.items():
        lines.append(summary_line(name, value, unit_of(name), None, ""))
    return metrics


def summary_line(name: str, value: float, unit: str, n: int | None, how: str) -> str:
    count = f"n={n} " if n is not None else ""
    return f"  {name:<42} {value:>14.6g} {unit:<11} {count}{how}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "crnoise" / "cli.py").is_file():
        print(f"perfbench: no crnoise source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "inputs").mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed % 2**31, WORK / "inputs")
        ctx = Context(env=child_env())
        lines = [f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
                 f"seconds={args.seconds} {machine()}"]
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, ctx, time.perf_counter() + args.seconds, lines)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    error_rate = ctx.failed / ctx.attempted
    lines.append(summary_line("error_rate", error_rate, "ratio", ctx.attempted,
                              f"{ctx.failed} failed of {ctx.attempted} commands"))
    print("\n".join(lines))
    for msg in ctx.errors[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
