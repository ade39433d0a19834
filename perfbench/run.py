"""Run one benchmark workload against the live cube and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload net_dashboard --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 0
    python3 perfbench/run.py --describe

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same workload and seed twice, each for half of
``--seconds``: untraced, then with timing proxies at every layer
boundary; it reports the per-layer metrics plus the tracing overhead
and writes the spans to ``.perfbench/traces/``. Inputs come only from
``--seed``. After the clock stops every answer is checked against a
per-version oracle; any failed operation makes the exit code non-zero.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402  (the path above must come first)
from harness import MIN_P99_SAMPLES, coverage_failure  # noqa: E402

WORKLOADS = ("net_dashboard", "cluster_mixed", "ingest_rolling")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print every metric's definition and exit")
    args = parser.parse_args(argv)
    if not args.describe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _measure(name: str, seed: int, seconds: float, trace: bool, spec):
    """Run one workload; returns ``(attempted, failed, metrics, lines)``."""
    module = importlib.import_module(name)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    lines = []
    try:
        if not trace:
            plain = module.run(seed, seconds, False, str(workdir))
            phases = [plain]
            values = {k: plain.metrics[k] for k in end_to_end}
            lines.extend(
                f"{k} = {plain.metrics[k]:.6g} {m.unit} (not bounded)"
                for k, m in metrics.REPORTED.items()
            )
        else:
            plain = module.run(seed, seconds / 2, False, str(workdir))
            traced = module.run(seed, seconds / 2, True, str(workdir))
            phases = [plain, traced]
            values = {}
            for key in per_layer:
                if key in traced.metrics:
                    values[key] = traced.metrics[key]
                elif key.startswith(module.BYPASSED):
                    values[key] = 0.0
            values["trace.overhead_ratio"] = (
                traced.metrics["read_p50_ms"] / plain.metrics["read_p50_ms"]
            )
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            path = traces / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(traced.spans))
            lines.append(f"spans: {len(traced.spans)} written to "
                         f"{path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        lines.extend(phase.notes)
        lines.extend(f"FAILED: {e}" for e in phase.errors)
    wanted = per_layer if trace else end_to_end
    missing = [k for k in wanted if k not in values]
    if missing:
        raise RuntimeError(f"{name} did not report {', '.join(missing)}")
    if not trace and plain.read_samples < MIN_P99_SAMPLES:
        failed += 1
        lines.append(f"FAILED: {plain.read_samples} read samples, a p99 "
                     f"needs {MIN_P99_SAMPLES}")
    if trace:
        gate = coverage_failure(name, values["trace.coverage_ratio"])
        if gate is not None:
            failed += 1
            lines.append(f"FAILED: {gate}")
    lines.append(f"error_rate = {failed / max(1, attempted):.6f} "
                 f"({failed} failed of {attempted} operations)")
    return attempted, failed, values, lines


def _run_all(args) -> int:
    """Every workload in its own process (``rss_mb`` is per process)."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT)
        print(f"== {name} (exit {done.returncode})")
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if lines else done.stderr)
        status = status or done.returncode or (0 if lines else 1)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    spec = metrics.load()
    if args.describe:
        print(metrics.describe(spec))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    attempted, failed, values, lines = _measure(
        args.workload, args.seed, args.seconds, bool(args.trace), spec
    )
    units = metrics.units(spec)
    for line in lines:
        print(line)
    for key, value in values.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
