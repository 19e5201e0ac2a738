"""bkcube benchmark: three workloads, answers checked against a reference.

    python3 perfbench/run.py --workload wide-cube --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere inside a checkout; the engine is imported from the
checkout's ``src``.  Each workload runs in a fresh worker interpreter
(worker.py).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a separate traced run prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every answer matched the reference, 1 when any did not, 2 on a usage or
environment error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("wide-cube", "long-script", "cli-mix")
# set-up-only workers started before and again after the timed one, so that
# the set-up samples of a run spread over its whole length
SETUP_SAMPLES_EACH_SIDE = 3
WORKER_TIMEOUT_S = 150

UNITS = {
    # end to end (--trace 0); error_rate is printed but not in the JSON line,
    # which carries the failed and attempted counts themselves
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "error_rate": "ratio",
    # per layer (--trace 1), per op unless named otherwise
    "core.degree_objects": "count",
    "core.profile_objects": "count",
    "rules.calls": "count",
    "rules.candidates": "count",
    "rules.busy_ms": "ms",
    "rules.share": "ratio",
    "pipeline.steps": "count",
    "pipeline.useful_step_ratio": "ratio",
    "pipeline.self_ms": "ms",
    "script.parse_ms": "ms",
    "script.execute_self_ms": "ms",
    "script.statements_run": "count",
    "tracedoc.document_ms": "ms",
    "tracedoc.render_json_ms": "ms",
    "tracedoc.render_markdown_ms": "ms",
    "tracedoc.json_bytes": "bytes",
    "tracedoc.markdown_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    # per layer, fixed single-layer cases (per call)
    "rules.hbm_cartesian_d12_ms": "ms",
    "rules.hbm_cartesian_d18_ms": "ms",
    "rules.hbm_cartesian_d24_ms": "ms",
    "pipeline.iterate_dim12_ms": "ms",
    "pipeline.iterate_dim18_ms": "ms",
    "pipeline.iterate_dim24_ms": "ms",
    "theorems.battery_ms": "ms",
    "theorems.rule_calls": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Run one fresh worker; returns (set-up seconds, its result object)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BKCUBE_MAX_ITERS", None)  # the reference assumes the default bound
    argv = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    started = time.monotonic()
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - started, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    def setup_samples() -> list[float]:
        return [
            spawn(workload, seed, seconds, trace, setup_only=True)[0]
            for _ in range(0 if trace else SETUP_SAMPLES_EACH_SIDE)
        ]

    setups = setup_samples()
    setup, result = spawn(workload, seed, seconds, trace, setup_only=False)
    setups += [setup] + setup_samples()
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bkcube" / "__init__.py").is_file():
        print(f"error: no engine source at {ROOT / 'src' / 'bkcube'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        attempted += result["attempted"]
        failed += result["failed"]
        record["workloads"][name] = {
            k: result[k]
            for k in ("attempted", "failed", "ops", "blocks", "problems", "outputs_sha256",
                      "unmeasured", "missing", "setup_samples_s", "wall")
        }
        shown = dict(result["metrics"])
        if not args.trace:
            shown["error_rate"] = result["failed"] / result["attempted"]
        for key, value in shown.items():
            print(f"{name:12s} {key:32s} {value:14.4f} {UNITS[key]}")
        if not args.trace:
            print(f"{name:12s} {'(error_rate counts)':32s} {result['failed']} failed"
                  f" of {result['attempted']} attempted")
        for problem in result["problems"]:
            print(f"{name:12s} FAILED: {problem}")
        if result["unmeasured"]:
            print(f"{name:12s} unmeasured layers: {', '.join(result['unmeasured'])}")
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": UNITS[key]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("record: " + json.dumps(record))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
