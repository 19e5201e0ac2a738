"""Tests of the benchmark itself: its reference, its checks and its exit codes.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import reference as ref  # noqa: E402
import schema  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from _oracles import dual_hbm_oracle, hbm_oracle  # noqa: E402


def _random_table(rng: random.Random, d: int):
    conn1 = rng.choice([math.inf, rng.randint(-2, 4)])
    table = {s: (math.inf if rng.random() < 0.3 else rng.randint(-2, s + 3)) for s in range(2, d + 1)}
    return conn1, table


@pytest.mark.parametrize("d", range(2, 9))
def test_partition_minimum_matches_set_partition_oracle(d):
    rng = random.Random(d)
    for _ in range(25):
        conn1, table = _random_table(rng, d)
        degrees = tuple(table[s] for s in range(2, d + 1))
        cart = ref.cartesianize((d, conn1, ref.COCART, degrees))[3][d - 2]
        cocart = ref.dualize((d, conn1, ref.CART, degrees))[3][d - 2]
        assert cart == hbm_oracle(d, conn1, table)
        assert cocart == dual_hbm_oracle(d, conn1, table)


def test_iterate_matches_engine_on_small_profiles():
    import bkcube

    rng = random.Random(7)
    for _ in range(60):
        dim = rng.randint(1, 7)
        p = workloads.random_profile(rng, dim, rng.choice((ref.CART, ref.COCART)))
        r = rng.choice((1, 2, 3, ref.INF))
        d = bkcube.iterate(workloads.engine_profile(p), math.inf if r == ref.INF else r)
        final, stabilized_at, passes = ref.iterate(p, r)
        assert workloads.profile_tuple(d.steps[-1].profile) == final
        assert (d.stabilized_at, len(d.steps)) == (stabilized_at, passes)


def test_generated_scripts_match_engine():
    wl = workloads.LongScript()
    for index in range(3):
        for op in wl.block(workloads.block_rng("test", index, index), index)[:6]:
            assert wl.check(op, wl.run(wl.prepare(op)), worker.Context()) == []


def test_battery_table_matches_engine():
    import bkcube

    verdicts = bkcube.standard_battery()
    computed = {v.claim_id: [str(d) for d in v.computed] if v.passed else None for v in verdicts}
    assert ref.battery_mismatches(computed) == []
    computed["tower n=1 k=1"] = ["3"]
    assert ref.battery_mismatches(computed) == ["tower n=1 k=1: ['3']"]


def test_fast_schema_check_agrees_with_jsonschema():
    import jsonschema
    from bkcube.tracedoc import TRACE_SCHEMA

    wl = workloads.LongScript()
    op = wl.block(workloads.block_rng("test", 1, 0), 0)[0]
    doc = json.loads(wl.run(wl.prepare(op))[1])
    fast = schema.Validator(TRACE_SCHEMA)
    assert fast.fast
    slow = jsonschema.Draft7Validator(TRACE_SCHEMA)
    assert fast.problems(doc) == [] and slow.is_valid(doc)
    step = doc["steps"][-1]
    broken = [
        {**step, "chosen": "infinite"},
        {**step, "extra": 1},
        {k: v for k, v in step.items() if k != "rule"},
        {**step, "dim": 0},
        {**step, "profile_after": {**step["profile_after"], "mode": "spectral"}},
        {**step, "candidates": [{"blocks": [0], "value": "1"}]},
    ]
    for bad in broken:
        bad_doc = {"version": "1", "steps": doc["steps"] + [bad]}
        assert not slow.is_valid(bad_doc)
        assert fast.problems(bad_doc) != []
    assert fast.problems({**doc, "version": "2"}) != []


def test_unknown_schema_keyword_falls_back_to_jsonschema():
    v = schema.Validator({"type": "array", "minItems": 2})
    assert not v.fast
    assert v.problems([1]) != [] and v.problems([1, 1]) == []


def test_missing_wrap_target_is_reported_unmeasured(monkeypatch):
    monkeypatch.setattr(
        tracer,
        "WRAPS",
        tracer.WRAPS + (("gone", "bkcube.pipeline", "no_such_function"),),
    )
    t = tracer.Tracer()
    t.install()
    try:
        import bkcube.pipeline

        bkcube.pipeline.iterate(workloads.engine_profile((3, 1, ref.COCART, (ref.INF, ref.INF))), 1)
    finally:
        t.uninstall()
    assert t.unmeasured == ["gone"]
    assert "bkcube.pipeline.no_such_function" in t.missing
    totals = t.totals()
    assert totals["rules:calls"] > 0 and totals["pipeline.iterate:calls"] == 1


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_corrupted_reference_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "reference.py"
    text = path.read_text()
    corrupted = text.replace("tuple(1 - d + best[d]", "tuple(2 - d + best[d]")
    assert corrupted != text
    path.write_text(corrupted)
    proc = _run(root, "--workload", "wide-cube", "--seed", "3", "--seconds", "0.5")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]


def test_refuses_to_run_without_the_engine_source(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "--workload", "wide-cube", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
