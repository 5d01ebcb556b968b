"""Self-test of the benchmark's checks and span arithmetic.

    python3 perfbench/selftest.py

Runs each workload's commands once (seed 1) and shows that every check
accepts the real outputs and rejects a deliberately corrupted copy, that the
determinism check flags a changed file, and that the self-time and busy-time
arithmetic is right on a hand-built span tree.  Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads


def scale_csv_value(text: str, quantity: str, factor: float) -> str:
    """Multiply the value of one quantity,value,... row."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == quantity:
            fields[1] = repr(float(fields[1]) * factor)
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def scale_table_value(text: str, quantity: str, factor: float) -> str:
    """Multiply the value of one row of an aligned text table."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts and parts[0] == quantity:
            lines[i] = line.replace(parts[1], f"{float(parts[1]) * factor:.6g}", 1)
    return "\n".join(lines) + "\n"


def scale_sweep_field(text: str, column: str, row: int, factor: float) -> str:
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    fields = lines[header + 1 + row].split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[header + 1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def drop_last_line(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


# workload -> command metric -> (file, corruption) pairs its check must reject
CORRUPTIONS = {
    "cli-reference": {
        "modes_wall_s": [("modes.txt", lambda t: scale_table_value(t, "f1", 1.0001))],
        "budget_wall_s": [("budget.csv", lambda t: scale_csv_value(t, "i_rf", 1.05)),
                          ("budget.csv", lambda t: scale_csv_value(t, "x_avg_mode1", 0.95))],
        "resolution_wall_s": [
            ("resolution.csv", lambda t: scale_csv_value(t, "min_detectable_stiffness", 1.05))],
        "psd_wall_s": [("timeseries.csv", drop_last_line),
                       ("spectrum_x2.csv", drop_last_line)],
    },
    "compute-cycle": {
        "thermal_budget_wall_s": [("budget.csv", lambda t: scale_csv_value(t, "x_avg_mode1", 2.0)),
                                  ("budget.csv", lambda t: scale_csv_value(t, "x_avg_mode2", 0.5))],
        "harmonic_simulate_wall_s": [
            ("simulate_summary.txt", lambda t: scale_table_value(t, "steady_amp_x1", 1.05)),
            ("timeseries.csv", drop_last_line)],
        "sweep_wall_s": [("sweep.csv", drop_last_line),
                         ("sweep.csv", lambda t: scale_sweep_field(t, "f1_hz", 17, 1 + 1e-8)),
                         ("sweep.csv", lambda t: scale_sweep_field(t, "ar_sensitivity", 3, 1.001))],
    },
}


def check_oracles(failures: list[str]) -> None:
    env = run.child_env()
    for name, by_metric in CORRUPTIONS.items():
        inputs = run.WORK / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        workload = workloads.build(name, 1, inputs)
        for cmd in workload.commands:
            out = run.WORK / "out"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            proc = subprocess.run([sys.executable, "-m", "crnoise.cli", *cmd.argv,
                                   "--out", str(out)], env=env, cwd=run.WORK,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                failures.append(f"{name} {cmd.metric}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            real = cmd.check(out)
            if real:
                failures.append(f"{name} {cmd.metric}: check rejects real output: {real[:3]}")
            for filename, corrupt in by_metric.get(cmd.metric, []):
                path = out / filename
                original = path.read_text(encoding="utf-8")
                path.write_text(corrupt(original), encoding="utf-8")
                if not cmd.check(out):
                    failures.append(f"{name} {cmd.metric}: corrupted {filename} accepted")
                path.write_text(original, encoding="utf-8")
            print(f"checked {name} {cmd.metric}: real output accepted, "
                  f"{len(by_metric.get(cmd.metric, []))} corruptions tried")
        check_determinism(out, failures)


def check_determinism(out: Path, failures: list[str]) -> None:
    ctx = run.Context(env={})
    if run.same_as_before(0, out, ctx):
        failures.append("determinism: first sighting flagged")
    if run.same_as_before(0, out, ctx):
        failures.append("determinism: identical files flagged")
    victim = sorted(out.iterdir())[0]
    victim.write_bytes(victim.read_bytes() + b" ")
    if not run.same_as_before(0, out, ctx):
        failures.append("determinism: changed file accepted")


def check_span_arithmetic(failures: list[str]) -> None:
    spans = [
        ["cli.main", 0.0, 10.0, None, None],
        ["noisebudget.full_noise_budget", 1.0, 5.0, 0, None],
        ["sysmodel.mode_analysis", 2.0, 3.0, 1, None],
        ["reports.write_report", 6.0, 9.0, 0, {"bytes": 100}],
        ["reports.render_table", 7.0, 8.0, 3, None],
        ["reports.render_table", 9.5, 9.75, 0, None],
        ["timesim.simulate", 9.0, 9.5, 0, {"steps": 1000, "computed_bytes": 2e6}],
    ]
    trace = {"spans": spans, "calls": {"sysmodel.mode_analysis": 3}}
    want_self = [10.0 - 4.0 - 3.0 - 0.25 - 0.5, 3.0, 1.0, 2.0, 1.0, 0.25, 0.5]
    got_self = tracer.self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got_self, want_self)):
        failures.append(f"self times {got_self}, want {want_self}")
    metrics = tracer.layer_metrics(tracer.merge([trace, trace]))
    want = {
        "cli.main.self_s": 2 * 2.25, "cli.s": 20.0, "noisebudget.s": 8.0,
        "noisebudget.self_s": 6.0, "sysmodel.s": 2.0,
        "reports.s": 2 * 3.25, "reports.self_s": 2 * 3.25, "reports.calls": 6,
        "reports.write.s": 6.0, "reports.render_table.s": 2 * 1.25, "reports.bytes": 200,
        "sysmodel.mode_analysis.calls": 6,
        "timesim.simulate.steps": 2000, "timesim.simulate.msamp_s": 2000 / 1.0 / 1e6,
        "timesim.simulate.computed_mb": 4.0,
    }
    for name, value in want.items():
        if abs(metrics[name] - value) > 1e-9:
            failures.append(f"{name} = {metrics[name]}, want {value}")

    # mode_analysis calls per point count the sweep commands only
    pair = workloads.Workload("pair", (workloads.Command("a_wall_s", (), None),
                                       workloads.Command("b_wall_s", (), None, points=2)))
    per_point = run.cycle_metrics(pair, [run.Outcome(0.0, 0.0, trace)] * 2)[
        "sysmodel.mode_analysis.calls_per_point"]
    if per_point != 1.5:
        failures.append(f"calls_per_point = {per_point}, want 1.5")

    # a call inside its own layer bumps the counter but opens no span
    ticks = iter(range(100))
    recorder = tracer.Tracer(clock=lambda: float(next(ticks)))
    helper = recorder.wrap("reports.format_value", lambda: None)
    writer = recorder.wrap("reports.atomic_write", lambda: helper())
    entry = recorder.wrap("cli.main", lambda: (writer(), helper()))
    entry()
    names = [s[tracer.NAME] for s in recorder.spans]
    if names != ["cli.main", "reports.atomic_write", "reports.format_value"]:
        failures.append(f"recorded spans {names}")
    if recorder.calls != {"cli.main": 1, "reports.atomic_write": 1, "reports.format_value": 2}:
        failures.append(f"call counts {recorder.calls}")
    print("checked span arithmetic")


def main() -> int:
    failures: list[str] = []
    check_span_arithmetic(failures)
    if not (run.ROOT / "src" / "crnoise" / "cli.py").is_file():
        print("selftest: no crnoise source next to the benchmark", file=sys.stderr)
        return 2
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        check_oracles(failures)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for msg in failures:
        print(f"selftest FAILED: {msg}", file=sys.stderr)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
