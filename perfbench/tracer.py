"""Layer spans recorded from outside the engine.

The tracer swaps the names that upper modules call (for instance
``bkcube.pipeline.hbm_cartesian`` or ``bkcube.cli.standard_battery``) for
wrappers that record a span: its name, start, end, parent span and the op it
belongs to.  Spans stay in memory, in flat arrays, until the run ends.  Two
constructors of ``bkcube.core`` are counted rather than timed.

A target that no longer exists is skipped; a layer none of whose targets
exists is reported as unmeasured.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict

# (layer, module, attribute): the call sites each upper module uses
WRAPS = (
    ("rules", "bkcube.pipeline", "hbm_cartesian"),
    ("rules", "bkcube.pipeline", "dual_hbm_cocartesian"),
    ("rules", "bkcube.pipeline", "stable_cart_from_cocart"),
    ("pipeline", "bkcube.pipeline", "omega_sigma_step"),
    ("pipeline", "bkcube.pipeline", "iterate"),
    ("pipeline", "bkcube.script", "omega_sigma_step"),
    ("pipeline", "bkcube.script", "apply_transform"),
    ("pipeline", "bkcube.theorems", "iterate"),
    ("pipeline", "bkcube.theorems", "_cartesianize"),
    ("pipeline", "bkcube.cli", "iterate"),
    ("theorems", "bkcube.theorems", "standard_battery"),
    ("theorems", "bkcube.cli", "standard_battery"),
    ("script", "bkcube.script", "parse"),
    ("script", "bkcube.script", "execute"),
    ("script", "bkcube.cli", "parse_script"),
    ("script", "bkcube.cli", "execute"),
    ("tracedoc", "bkcube.tracedoc", "document"),
    ("tracedoc", "bkcube.tracedoc", "render_json"),
    ("tracedoc", "bkcube.tracedoc", "render_markdown"),
    ("tracedoc", "bkcube.cli", "document"),
    ("tracedoc", "bkcube.cli", "render_json"),
    ("tracedoc", "bkcube.cli", "render_markdown"),
    ("cli", "bkcube.cli", "main"),
)

# (counter, class, method): constructions counted, not timed
COUNTED = (
    ("core.degree_objects", "Degree", "__post_init__"),
    ("core.profile_objects", "Profile", "__init__"),
)


def _count_candidates(counts, args, result) -> None:
    candidates = getattr(result, "candidates", None)
    counts["rules.candidates"] += 1 if candidates is None else len(candidates)


def _count_useful(counts, args, result) -> None:
    if args and isinstance(result, tuple) and result and result[0] != args[0]:
        counts["pipeline.useful_steps"] += 1


def _count_chars(counter):
    def hook(counts, args, result) -> None:
        counts[counter] += len(result)  # rendered output is ASCII

    return hook


HOOKS = {
    "hbm_cartesian": _count_candidates,
    "dual_hbm_cocartesian": _count_candidates,
    "stable_cart_from_cocart": _count_candidates,
    "omega_sigma_step": _count_useful,
    "render_json": _count_chars("tracedoc.json_bytes"),
    "render_markdown": _count_chars("tracedoc.markdown_bytes"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.current_op = -1
        self.missing: list[str] = []
        self.unmeasured: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installing

    def install(self) -> None:
        layers: dict[str, bool] = {}
        for layer, module_name, attr in WRAPS:
            target = self._target(module_name, attr)
            layers[layer] = layers.get(layer, False) or target is not None
            if target is None:
                continue
            span = f"{layer}.{getattr(target, '__name__', attr)}"
            hook = HOOKS.get(getattr(target, "__name__", attr))
            self._swap(self._module(module_name), attr, self._spanned(span, target, hook))
        core = self._module("bkcube.core")
        layers["core"] = False
        for counter, cls_name, method in COUNTED:
            cls = getattr(core, cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                self.missing.append(f"bkcube.core.{cls_name}.{method}")
                continue
            layers["core"] = True
            self._swap(cls, method, self._counted(counter, original))
        self.unmeasured = sorted(layer for layer, found in layers.items() if not found)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _module(self, name: str):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None

    def _target(self, module_name: str, attr: str):
        module = self._module(module_name)
        target = getattr(module, attr, None) if module is not None else None
        if target is None:
            self.missing.append(f"{module_name}.{attr}")
        return target

    def _swap(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, span: str, fn, hook):
        nid = self.name_id(span)
        clock = time.perf_counter
        counts, stack = self.counts, self._stack
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, counter: str, original):
        counts = self.counts

        def wrapper(self, *args, **kwargs):
            counts[counter] += 1
            return original(self, *args, **kwargs)

        return wrapper

    # -- moving spans between processes

    def dump(self, path: str) -> None:
        spans = [
            [self.name[i], self.parent[i], self.start[i], self.end[i]] for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "spans": spans, "counts": self.counts,
                 "missing": self.missing, "unmeasured": self.unmeasured},
                handle,
            )

    def merge(self, path: str) -> None:
        """Add the spans a child process dumped, under the current op."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        ids = [self.name_id(n) for n in data["names"]]
        base = len(self.start)
        for nid, parent, start, end in data["spans"]:
            self.name.append(ids[nid])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(self.current_op)
            self.start.append(start)
            self.end.append(end)
        for key, value in data["counts"].items():
            self.counts[key] += value
        self.missing = sorted(set(self.missing) | set(data["missing"]))
        self.unmeasured = sorted(set(self.unmeasured) | set(data["unmeasured"]))

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\top\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.op[i]}\t{self.names[self.name[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    # -- summarising

    def totals(self) -> dict[str, float]:
        """Per span name: calls, busy seconds (outermost spans of a layer
        only) and self seconds (span time minus its child spans)."""
        n = len(self.start)
        layer = [self.names[self.name[i]].split(".", 1)[0] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            out[f"{name}:calls"] += 1
            out[f"{name}:self"] += duration - children[i]
            out[f"{name}:busy"] += duration
            if p < 0 or layer[p] != layer[i]:
                out[f"{layer[i]}:busy"] += duration
            out[f"{layer[i]}:self"] += duration - children[i]
            out[f"{layer[i]}:calls"] += 1
        return out

    def spans_under(self, ancestor: str, layer: str) -> int:
        """Spans of ``layer`` that have a span named ``ancestor`` above them."""
        target = self._ids.get(ancestor)
        found = 0
        for i in range(len(self.start)):
            if not self.names[self.name[i]].startswith(layer + "."):
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != target:
                p = self.parent[p]
            found += p >= 0
        return found
