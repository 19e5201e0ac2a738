"""One workload in a fresh interpreter.

Started by run.py, once per workload, so that no workload inherits another
one's caches or heap.  The worker imports the engine, runs the untimed
warm-up, notes when it was ready (on the system-wide monotonic clock, so
run.py can time set-up from before it started the interpreter), then runs
the timed pass and prints one JSON object as its last line.

The timed pass is a closed loop with one caller: each op starts after the
previous one ended.  An op's clock covers the engine call only; inputs are
built before it and the answer is checked after it.  The pass ends on the
first boundary of a workload cycle (``cycle`` blocks) at which the op time
has reached ``--seconds`` and at least ``MIN_OPS`` ops have run, so at least
ten latencies lie beyond p90.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import reference as ref
import workloads
from workloads import ROOT, block_rng

MIN_OPS = 100
OUT_DIR = ROOT / ".perfbench-out"
PROBE_REPEATS = 5


class Context:
    """Tallies a pass keeps beside its latencies."""

    def __init__(self) -> None:
        self.statements_run = 0


def _require_checkout_engine() -> None:
    import bkcube

    src = (ROOT / "src").resolve()
    if src not in Path(bkcube.__file__).resolve().parents:
        sys.exit(f"error: bkcube was imported from {bkcube.__file__}, not from {src}")


def _digest(wl, answer) -> str:
    """What an op rendered, for the run record; never compared across runs."""
    return hashlib.sha256(wl.rendered(answer).encode()).hexdigest()


class Pass:
    def __init__(self, wl, seed: int, tracer=None, span_file=None) -> None:
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.span_file = span_file
        self.latencies: list[float] = []  # host-speed adjusted, see hostspeed.py
        self.wall: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.blocks = 0
        self.ctx = Context()
        self.outputs = hashlib.sha256()

    def run_op(self, op):
        wl = self.wl
        prepared = wl.prepare(op)
        if self.tracer is not None:
            self.tracer.current_op = len(self.latencies)
        answer, problems = None, []
        before = hostspeed.probe() if wl.in_process else 0.0
        start = time.perf_counter()
        try:
            answer = wl.run(prepared)
        except Exception:  # an op that raises is a failed op, not a crash
            problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        wall = time.perf_counter() - start
        self.wall.append(wall)
        if wl.in_process:
            probe = (before + hostspeed.probe()) / 2
            self.latencies.append(wall * hostspeed.REFERENCE_PROBE_S / probe)
        else:
            self.latencies.append(wall)
        if self.span_file is not None and self.span_file.exists():
            self.tracer.merge(str(self.span_file))
            self.span_file.unlink()
        if not problems:
            try:
                problems = wl.check(op, answer, self.ctx)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])
        return answer

    def run_block(self) -> None:
        for op in self.wl.block(block_rng(self.wl.name, self.seed, self.blocks), self.blocks):
            answer = self.run_op(op)
            if answer is not None:
                self.outputs.update(_digest(self.wl, answer).encode())
            del answer
        self.blocks += 1

    def until(self, seconds: float, min_ops: int) -> None:
        while True:
            self.run_block()
            if (
                self.blocks % self.wl.cycle == 0
                and sum(self.wall) >= seconds
                and len(self.latencies) >= min_ops
            ):
                return


def stability_problems(wl, seed: int) -> list[str]:
    """Run the first op twice more; its rendered output must not change."""
    op = wl.block(block_rng(wl.name, seed, 0), 0)[0]
    first = _digest(wl, wl.run(wl.prepare(op)))
    second = _digest(wl, wl.run(wl.prepare(op)))
    return [] if first == second else ["rendered output is not byte-stable"]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    lat_ms = [x * 1000 for x in latencies]
    return {
        "ops_per_s": len(lat_ms) / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def end_to_end(p: Pass, children: bool) -> dict[str, float]:
    return {**_latency_metrics(p.latencies), "peak_rss_mb": peak_rss_mb(children)}


# ------------------------------------------------------------ traced run


def _child_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        argv, env=workloads.cli_env(), stdout=subprocess.DEVNULL, check=True, timeout=60, cwd=ROOT
    )
    return (time.perf_counter() - start) * 1000


def _median_ms(fn, repeats: int = PROBE_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def probes(tracer_cls) -> tuple[dict[str, float], list[str]]:
    """Fixed single-layer cases, the same in every workload's traced run:
    one rule application and one iterate at growing size, the battery in
    process, and the command line's start-up split into its parts."""
    import bkcube.pipeline
    import bkcube.theorems

    metrics: dict[str, float] = {}
    problems: list[str] = []
    for dim in (12, 18, 24):
        p = (dim, 1, ref.COCART, tuple(range(2, dim + 1)))
        table = {d: v for d, v in enumerate(p[3], start=2)}
        outcome = bkcube.pipeline.hbm_cartesian(dim, 1, table)
        if workloads.degree_value(outcome.result) != 1 - dim + ref.partition_minima(1, p[3])[dim]:
            problems.append(f"probe hbm_cartesian d={dim} disagrees with the reference")
        metrics[f"rules.hbm_cartesian_d{dim}_ms"] = _median_ms(
            lambda: bkcube.pipeline.hbm_cartesian(dim, 1, table)
        )
        start = (dim, 1, ref.COCART, (ref.INF,) * (dim - 1))
        engine_start = workloads.engine_profile(start)
        derivation = bkcube.pipeline.iterate(engine_start, 1)
        want = ref.iterate(start, 1)
        got = workloads.profile_tuple(derivation.steps[-1].profile), derivation.stabilized_at
        if got != want[:2]:
            problems.append(f"probe iterate dim={dim} disagrees with the reference")
        metrics[f"pipeline.iterate_dim{dim}_ms"] = _median_ms(
            lambda: bkcube.pipeline.iterate(engine_start, 1), repeats=3
        )

    verdicts = bkcube.theorems.standard_battery()
    computed = {v.claim_id: [str(d) for d in v.computed] if v.passed else None for v in verdicts}
    problems += ref.battery_mismatches(computed)
    metrics["theorems.battery_ms"] = _median_ms(bkcube.theorems.standard_battery)
    counter = tracer_cls()
    counter.install()
    try:
        bkcube.theorems.standard_battery()
    finally:
        counter.uninstall()
    metrics["theorems.rule_calls"] = counter.spans_under("theorems.standard_battery", "rules")

    # interleaved, so that a slow spell on the machine hits all three alike
    python = sys.executable
    commands = (
        [python, "-c", "pass"],
        [python, "-c", "import bkcube.cli"],
        [python, str(workloads.CLI_ENTRY), "verify-paper", "--format", "json"],
    )
    samples = [[_child_ms(argv) for argv in commands] for _ in range(PROBE_REPEATS)]
    interpreter, imported, command = (statistics.median(column) for column in zip(*samples))
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = imported - interpreter
    metrics["cli.command_ms"] = command - imported
    return metrics, problems


def per_layer(tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    t = tracer.totals()
    n = len(traced.latencies)
    op_s = sum(traced.wall)  # spans are wall time too
    c = tracer.counts
    steps = t["pipeline.omega_sigma_step:calls"]
    return {
        "core.degree_objects": c["core.degree_objects"] / n,
        "core.profile_objects": c["core.profile_objects"] / n,
        "rules.calls": t["rules:calls"] / n,
        "rules.candidates": c["rules.candidates"] / n,
        "rules.busy_ms": t["rules:busy"] * 1000 / n,
        "rules.share": t["rules:busy"] / op_s,
        "pipeline.steps": steps / n,
        "pipeline.useful_step_ratio": c["pipeline.useful_steps"] / steps if steps else 0.0,
        "pipeline.self_ms": t["pipeline:self"] * 1000 / n,
        "script.parse_ms": t["script.parse:busy"] * 1000 / n,
        "script.execute_self_ms": t["script.execute:self"] * 1000 / n,
        "script.statements_run": traced.ctx.statements_run / n,
        "tracedoc.document_ms": t["tracedoc.document:busy"] * 1000 / n,
        "tracedoc.render_json_ms": t["tracedoc.render_json:busy"] * 1000 / n,
        "tracedoc.render_markdown_ms": t["tracedoc.render_markdown:busy"] * 1000 / n,
        "tracedoc.json_bytes": c["tracedoc.json_bytes"] / n,
        "tracedoc.markdown_bytes": c["tracedoc.markdown_bytes"] / n,
        "trace.overhead_ratio": sum(traced.latencies) / sum(untraced.latencies),
    }


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _require_checkout_engine()
    scratch = OUT_DIR / args.workload
    scratch.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, scratch)
    for op in wl.warmup():
        wl.run(wl.prepare(op))
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    result = {"ready_at": ready_at, "unmeasured": [], "missing": [], "wall": {}}
    if args.trace:
        import tracer as tracing

        untraced = Pass(wl, args.seed)
        untraced.until(args.seconds / 2, 1)
        tracer = tracing.Tracer()
        span_file = None
        if not wl.in_process:
            span_file = scratch / "child-spans.json"
            wl.trace_path = str(span_file)
        tracer.install()
        traced = Pass(wl, args.seed, tracer, span_file)
        try:
            while traced.blocks < untraced.blocks:
                traced.run_block()
        finally:
            tracer.uninstall()
            wl.trace_path = None
        metrics = per_layer(tracer, traced, untraced)
        probe_metrics, probe_problems = probes(tracing.Tracer)
        metrics.update(probe_metrics)
        tracer.write_tsv(str(OUT_DIR / f"spans-{args.workload}.tsv"))
        passes = [untraced, traced]
        result.update(unmeasured=tracer.unmeasured, missing=tracer.missing)
    else:
        timed = Pass(wl, args.seed)
        timed.until(args.seconds, MIN_OPS)
        metrics = end_to_end(timed, children=not wl.in_process)
        passes = [timed]
        result["wall"] = _latency_metrics(timed.wall)

    # whole-run checks count as one op each beside the timed ones
    checks = [stability_problems(wl, args.seed)] + ([probe_problems] if args.trace else [])
    problems = [q for p in passes for q in p.problems] + [q for c in checks for q in c]
    result.update(
        attempted=sum(len(p.latencies) for p in passes) + len(checks),
        failed=sum(p.failed for p in passes) + sum(1 for c in checks if c),
        problems=problems[:10],
        metrics=metrics,
        ops=len(passes[-1].latencies),
        blocks=passes[-1].blocks,
        outputs_sha256=passes[-1].outputs.hexdigest(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
