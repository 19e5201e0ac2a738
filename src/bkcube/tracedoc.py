"""Serialized views of derivations and verdicts.

The JSON document (version "1") flattens every rule application into one
step entry; degrees travel as strings ("3", "inf") so infinities survive
any JSON reader.  Output is byte-stable: same inputs, same bytes.  The
markdown view keeps the narrative shape instead: per-trace sections with
the candidate lists each minimisation considered.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

from .core import Degree, Profile
from .pipeline import Derivation, StepRecord
from .theorems import Verdict

TRACE_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "steps"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": "1"},
        "steps": {"type": "array", "items": {"$ref": "#/definitions/step"}},
        "verdicts": {"type": "array", "items": {"$ref": "#/definitions/verdict"}},
    },
    "definitions": {
        "degree": {"type": "string", "pattern": "^(-?[0-9]+|inf)$"},
        "step": {
            "type": "object",
            "required": ["rule", "dim", "candidates", "chosen", "profile_after"],
            "additionalProperties": False,
            "properties": {
                "rule": {"type": "string"},
                "dim": {"type": "integer", "minimum": 1},
                "candidates": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["blocks", "value"],
                        "additionalProperties": False,
                        "properties": {
                            "blocks": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 1},
                            },
                            "value": {"$ref": "#/definitions/degree"},
                        },
                    },
                },
                "chosen": {"$ref": "#/definitions/degree"},
                "profile_after": {"$ref": "#/definitions/profile"},
            },
        },
        "profile": {
            "type": "object",
            "required": ["dim", "conn1", "mode", "degrees"],
            "additionalProperties": False,
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "conn1": {"$ref": "#/definitions/degree"},
                "mode": {"enum": ["cartesian", "cocartesian"]},
                "degrees": {
                    "type": "object",
                    "patternProperties": {"^[0-9]+$": {"$ref": "#/definitions/degree"}},
                    "additionalProperties": False,
                },
            },
        },
        "verdict": {
            "type": "object",
            "required": ["claim_id", "parameters", "expected", "computed", "pass", "trace_refs"],
            "additionalProperties": False,
            "properties": {
                "claim_id": {"type": "string"},
                "parameters": {"type": "object"},
                "expected": {"type": "array", "items": {"$ref": "#/definitions/degree"}},
                "computed": {"type": "array", "items": {"$ref": "#/definitions/degree"}},
                "pass": {"type": "boolean"},
                "trace_refs": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


def profile_json(p: Profile) -> dict[str, Any]:
    return {
        "dim": p.dim,
        "conn1": str(p.conn1),
        "mode": p.mode.value,
        "degrees": {str(d): str(v) for d, v in p.degree_map().items()},
    }


def _candidate_json(candidate) -> dict[str, Any]:
    blocks = [] if candidate.blocks is None else list(candidate.blocks)
    return {"blocks": blocks, "value": str(candidate.value)}


def _record_steps(record: StepRecord) -> list[dict[str, Any]]:
    after = profile_json(record.profile)
    if not record.outcomes:
        return [
            {
                "rule": record.transform,
                "dim": record.profile.dim,
                "candidates": [],
                "chosen": str(record.profile.full_degree),
                "profile_after": after,
            }
        ]
    return [
        {
            "rule": outcome.rule,
            "dim": outcome.dim,
            "candidates": [_candidate_json(c) for c in outcome.candidates],
            "chosen": str(outcome.result),
            "profile_after": after,
        }
        for outcome in record.outcomes
    ]


def _param_json(value: Any) -> Any:
    if isinstance(value, Degree):
        return str(value)
    if isinstance(value, float) and value == math.inf:
        return "inf"
    return value


def _verdict_json(v: Verdict) -> dict[str, Any]:
    return {
        "claim_id": v.claim_id,
        "parameters": {k: _param_json(val) for k, val in v.parameters.items()},
        "expected": [str(d) for d in v.expected],
        "computed": [str(d) for d in v.computed],
        "pass": v.passed,
        "trace_refs": list(v.trace_refs),
    }


def document(
    derivations: Iterable[Derivation], verdicts: Iterable[Verdict] | None = None
) -> dict[str, Any]:
    """The version-1 trace document; verdicts are included only when given."""
    steps: list[dict[str, Any]] = []
    for derivation in dict.fromkeys(derivations):  # first of equal traces, in order
        for step in derivation.steps:
            for record in step.records:
                steps.extend(_record_steps(record))
    doc: dict[str, Any] = {"version": "1", "steps": steps}
    if verdicts is not None:
        doc["verdicts"] = [_verdict_json(v) for v in verdicts]
    return doc


def render_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _amount_text(record: StepRecord) -> str:
    return "" if record.amount is None else f" r={record.amount}"


def _derivation_lines(d: Derivation) -> list[str]:
    lines = [f"### trace: {d.label}" if d.label else "### trace", ""]
    lines.append(f"- initial: {d.initial.describe()}")
    for step in d.steps:
        lines.append(f"- iterate {step.index}:")
        for record in step.records:
            if record.outcomes:
                lines.append(f"  - {record.transform}:")
                for outcome in record.outcomes:
                    lines.append(f"    - {outcome.describe()}")
                lines.append(f"    -> {record.profile.describe()}")
            else:
                lines.append(
                    f"  - {record.transform}{_amount_text(record)}"
                    f" -> {record.profile.describe()}"
                )
    if d.stabilized_at is not None:
        lines.append(f"- stabilized at iterate {d.stabilized_at}")
    else:
        lines.append("- not stabilized")
    lines.append("")
    return lines


def _verdict_lines(v: Verdict) -> list[str]:
    status = "PASS" if v.passed else "FAIL"
    params = ", ".join(f"{k}={_param_json(val)}" for k, val in v.parameters.items())
    lines = [f"### {v.claim_id}: {status}", ""]
    if params:
        lines.append(f"- parameters: {params}")
    lines.append(f"- expected: {', '.join(str(d) for d in v.expected)}")
    lines.append(f"- computed: {', '.join(str(d) for d in v.computed)}")
    for outcome in v.outcomes:
        lines.append(f"- {outcome.describe()}")
    for note in v.notes:
        lines.append(f"- note: {note}")
    if v.trace_refs:
        lines.append(f"- traces: {'; '.join(v.trace_refs)}")
    lines.append("")
    return lines


def render_markdown(
    derivations: Iterable[Derivation],
    verdicts: Iterable[Verdict] | None = None,
    title: str = "Derivation report",
) -> str:
    lines = [f"# {title}", ""]
    verdict_list = list(verdicts) if verdicts is not None else []
    if verdict_list:
        lines.append("## Verdicts")
        lines.append("")
        for v in verdict_list:
            lines.extend(_verdict_lines(v))
    trace_list = list(dict.fromkeys(derivations))
    if trace_list:
        lines.append("## Traces")
        lines.append("")
        for d in trace_list:
            lines.extend(_derivation_lines(d))
    return "\n".join(lines).rstrip("\n") + "\n"
