"""JSON and markdown serialization tests."""

from __future__ import annotations

import math
from dataclasses import replace

import jsonschema

from bkcube.core import INF, Degree, Mode, Profile
from bkcube.pipeline import iterate
from bkcube.script import execute, parse
from bkcube.theorems import standard_battery, verify_comparison
from bkcube.tracedoc import (
    TRACE_SCHEMA,
    document,
    profile_json,
    render_json,
    render_markdown,
)


def demo_derivation():
    return iterate(Profile(2, Degree(1), Mode.COCARTESIAN, {2: INF}), r=1, label="demo")


def test_profile_json():
    assert profile_json(Profile(3, Degree(-1), Mode.CARTESIAN, {2: Degree(4), 3: INF})) == {
        "dim": 3,
        "conn1": "-1",
        "mode": "cartesian",
        "degrees": {"2": "4", "3": "inf"},
    }
    assert profile_json(Profile(1, Degree(0), Mode.COCARTESIAN)) == {
        "dim": 1,
        "conn1": "0",
        "mode": "cocartesian",
        "degrees": {},
    }


def test_document_flattens_rule_applications():
    doc = document([demo_derivation()])
    assert doc["version"] == "1"
    steps = doc["steps"]
    assert [s["rule"] for s in steps] == [
        "suspend",
        "hbm_cartesian",
        "loop",
        "dual_hbm_cocartesian",
        "suspend",
        "hbm_cartesian",
        "loop",
    ]
    assert steps[0] == {
        "rule": "suspend",
        "dim": 2,
        "candidates": [],
        "chosen": "inf",
        "profile_after": {
            "dim": 2,
            "conn1": "2",
            "mode": "cocartesian",
            "degrees": {"2": "inf"},
        },
    }
    assert steps[1] == {
        "rule": "hbm_cartesian",
        "dim": 2,
        "candidates": [
            {"blocks": [2], "value": "inf"},
            {"blocks": [1, 1], "value": "3"},
        ],
        "chosen": "3",
        "profile_after": {
            "dim": 2,
            "conn1": "2",
            "mode": "cartesian",
            "degrees": {"2": "3"},
        },
    }
    assert steps[2]["chosen"] == "2"
    assert steps[3]["candidates"] == [
        {"blocks": [2], "value": "3"},
        {"blocks": [1, 1], "value": "3"},
    ]
    assert "verdicts" not in doc


def test_stable_shift_candidates_have_empty_blocks():
    d = iterate(Profile(2, Degree(1), Mode.COCARTESIAN, {2: INF}), r=math.inf, label="st")
    doc = document([d])
    first = doc["steps"][0]
    assert first["rule"] == "stable_shift"
    assert first["candidates"] == [{"blocks": [], "value": "inf"}]


def test_document_dedupes_identical_traces():
    d = demo_derivation()
    assert document([d, d]) == document([d])


def test_dedupe_keeps_first_occurrence_order():
    a = demo_derivation()
    b = iterate(Profile(3, Degree(1), Mode.COCARTESIAN, {2: INF, 3: INF}), r=2, label="b")
    c = iterate(Profile(2, Degree(2), Mode.CARTESIAN, {2: Degree(3)}), r=math.inf, label="c")
    again = demo_derivation()
    assert again is not a
    assert document([a, b, again, c, a]) == document([a, b, c])
    assert document([a, b, c]) != document([b, a, c])
    assert render_markdown([a, b, again, c, a]) == render_markdown([a, b, c])
    reordered = replace(b, steps=b.steps[::-1])
    assert reordered != b and hash(reordered) == hash(b)
    assert document([b, reordered])["steps"] == document([b])["steps"] + document([reordered])["steps"]


def test_render_json_byte_stable():
    def build() -> str:
        verdict = verify_comparison(1, 2)
        return render_json(document(verdict.traces, [verdict]))

    first = build()
    assert build() == first
    assert first.endswith("\n")


def test_document_validates_against_schema():
    battery = standard_battery()
    traces = [t for v in battery for t in v.traces]
    doc = document(traces, battery)
    jsonschema.validate(doc, TRACE_SCHEMA)
    assert all(v["pass"] for v in doc["verdicts"])


def test_script_trace_validates_too():
    result = execute(
        parse("profile p dim=2 { conn1=1, cocart 2=inf }; apply step r=inf; print;")
    )
    doc = document([result.derivation])
    jsonschema.validate(doc, TRACE_SCHEMA)


def test_parameters_serialize_infinity_as_string():
    verdict = verify_comparison(1, math.inf)
    doc = document([], [verdict])
    assert doc["verdicts"][0]["parameters"] == {"k_rel": 1, "r": "inf", "n": 0}
    jsonschema.validate(doc, TRACE_SCHEMA)


def test_markdown_trace_section():
    text = render_markdown([demo_derivation()])
    assert text.startswith("# Derivation report\n")
    for needle in (
        "### trace: demo",
        "- initial: 2-cube cocartesian (conn1=1; cocart 2=inf)",
        "- iterate 1:",
        "  - suspend r=1 -> 2-cube cocartesian (conn1=2; cocart 2=inf)",
        "  - cartesianize:",
        "    - hbm_cartesian d=2: minimum of [2]: -1+inf = inf; [1,1]: -1+2+2 = 3 => 3",
        "    -> 2-cube cartesian (conn1=2; cart 2=3)",
        "  - loop r=1 -> 2-cube cartesian (conn1=1; cart 2=2)",
        "    - dual_hbm_cocartesian d=2: minimum of [2]: 1+2 = 3; [1,1]: 1+1+1 = 3 => 3",
        "- stabilized at iterate 2",
    ):
        assert needle in text, needle


def test_markdown_verdict_section():
    verdict = verify_comparison(1, 1)
    text = render_markdown(verdict.traces, [verdict], title="Claim check")
    assert text.startswith("# Claim check\n")
    assert "### comparison k=1 r=1: PASS" in text
    assert "- parameters: k_rel=1, r=1, n=0" in text
    assert "- expected: 3" in text
    assert "- computed: 3" in text
    assert "- traces: comparison k=1 r=1 stage 0" in text


def test_markdown_marks_unstabilized_runs():
    d = iterate(
        Profile(2, Degree(1), Mode.COCARTESIAN, {2: Degree(5)}), r=2, max_iters=1, label="cut"
    )
    assert d.stabilized_at is None
    assert "- not stabilized" in render_markdown([d])
