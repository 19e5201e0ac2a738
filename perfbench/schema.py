"""Checks documents against a JSON Schema fast enough to run on every op.

``jsonschema`` takes about ten times as long to validate a long script's
trace as the engine takes to build and render it.  This module compiles the
draft-07 keywords the engine's trace schema uses into plain closures, and
validates each distinct item of a top-level list once.  A schema that uses
any other keyword goes to ``jsonschema`` whole, so the result never rests
on a keyword this module does not implement.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable

# keywords implemented below; none of them judges a list as a whole, so a
# list is valid exactly when each of its distinct items is
SUPPORTED = {
    "$schema", "$ref", "definitions", "title", "description", "type", "required",
    "properties", "patternProperties", "additionalProperties", "items", "const", "enum",
    "pattern", "minimum",
}

_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
}


class Invalid(ValueError):
    pass


def keywords(schema: dict) -> set[str]:
    """Every keyword used anywhere in the schema (property names excluded)."""
    found = set(schema)
    for key, value in schema.items():
        if key in ("properties", "patternProperties", "definitions"):
            for sub in value.values():
                found |= keywords(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            found |= keywords(value)
        elif key == "items" and isinstance(value, list):
            found.add("items (positional)")
    return found


class Validator:
    def __init__(self, schema: dict) -> None:
        self.root = schema
        self.fast = keywords(schema) <= SUPPORTED
        self._compiled: dict[int, Callable[[Any], None]] = {}
        if self.fast:
            self._check = self._compile(schema)
        else:
            import jsonschema

            self._slow = jsonschema.Draft7Validator(schema)

    def problems(self, doc: Any) -> list[str]:
        if not self.fast:
            errors = sorted(self._slow.iter_errors(doc), key=str)
            return [errors[0].message] if errors else []
        if isinstance(doc, dict):
            doc = {
                k: list({json.dumps(x, sort_keys=True): x for x in v}.values())
                if isinstance(v, list)
                else v
                for k, v in doc.items()
            }
        try:
            self._check(doc)
        except Invalid as err:
            return [str(err)]
        return []

    def _resolve(self, ref: str) -> dict:
        if not ref.startswith("#/"):
            raise ValueError(f"only local references are supported, got {ref!r}")
        node: Any = self.root
        for part in ref[2:].split("/"):
            node = node[part.replace("~1", "/").replace("~0", "~")]
        return node

    def _compile(self, schema: dict) -> Callable[[Any], None]:
        key = id(schema)
        if key in self._compiled:
            return self._compiled[key]
        checks: list[Callable[[Any], None]] = []

        def check(x: Any) -> None:
            for c in checks:
                c(x)

        self._compiled[key] = check  # registered first, so references may recurse
        if "$ref" in schema:
            checks.append(self._compile(self._resolve(schema["$ref"])))
        if "type" in schema:
            names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
            tests = [_TYPES[n] for n in names]

            def typed(x, tests=tests, names=names):
                if not any(t(x) for t in tests):
                    raise Invalid(f"{x!r:.60} is not of type {', '.join(names)}")

            checks.append(typed)
        if "const" in schema:
            const = schema["const"]

            def constant(x):
                if x != const:
                    raise Invalid(f"{x!r:.60} is not {const!r}")

            checks.append(constant)
        if "enum" in schema:
            options = schema["enum"]

            def enum(x):
                if x not in options:
                    raise Invalid(f"{x!r:.60} is not one of {options}")

            checks.append(enum)
        if "pattern" in schema:
            search = re.compile(schema["pattern"]).search

            def pattern(x):
                if isinstance(x, str) and not search(x):
                    raise Invalid(f"{x!r:.60} does not match {schema['pattern']!r}")

            checks.append(pattern)
        if "minimum" in schema:
            low = schema["minimum"]

            def minimum(x):
                if _TYPES["number"](x) and x < low:
                    raise Invalid(f"{x} is less than {low}")

            checks.append(minimum)
        if "items" in schema:
            item = self._compile(schema["items"])

            def items(x):
                if isinstance(x, list):
                    for value in x:
                        item(value)

            checks.append(items)
        if {"required", "properties", "patternProperties", "additionalProperties"} & set(schema):
            checks.append(self._object(schema))
        return check

    def _object(self, schema: dict) -> Callable[[Any], None]:
        required = schema.get("required", ())
        props = {k: self._compile(v) for k, v in schema.get("properties", {}).items()}
        patterns = [
            (re.compile(p).search, self._compile(v))
            for p, v in schema.get("patternProperties", {}).items()
        ]
        extra = schema.get("additionalProperties", True)
        extra_check = self._compile(extra) if isinstance(extra, dict) else None

        def obj(x):
            if not isinstance(x, dict):
                return
            for name in required:
                if name not in x:
                    raise Invalid(f"{name!r} is a required property")
            for name, value in x.items():
                known = name in props
                if known:
                    props[name](value)
                for search, sub in patterns:
                    if search(name):
                        known = True
                        sub(value)
                if not known:
                    if extra is False:
                        raise Invalid(f"additional property {name!r}")
                    if extra_check is not None:
                        extra_check(value)

        return obj
