"""The three workloads: seeded inputs, the timed op, and the answer check.

Each workload hands out its inputs in blocks.  A block has the same shape
for every seed (the same dims, lengths and command mix); the seed only
fills in the values.  A workload's ``cycle`` is the number of blocks after
which its rotation repeats; the timed pass ends on a cycle boundary, so two
seeds time the same mix of op sizes and their figures are comparable.

An op's check runs after its timer stops and returns a list of problems;
an empty list means the engine's answer equals the independent reference.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import reference as ref
import schema
from reference import CART, COCART, INF

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_ENTRY = BENCH_DIR / "cli_entry.py"
SPANS_ENV = "PERFBENCH_SPANS"


def block_rng(workload: str, seed: int, block: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def random_profile(rng: random.Random, dim: int, mode: str):
    """A profile tuple with conn1 in 0..3 and about 30% infinite higher
    degrees; finite degrees sit near the fixed-point value d + 1."""
    degrees = tuple(
        INF if rng.random() < 0.3 else rng.randint(d - 1, d + 3) for d in range(2, dim + 1)
    )
    return (dim, rng.randint(0, 3), mode, degrees)


def engine_profile(p):
    """The engine's Profile for a reference profile tuple."""
    from bkcube.core import INF as ENGINE_INF, Profile

    dim, conn1, mode, degrees = p
    conv = lambda v: ENGINE_INF if v == INF else v  # noqa: E731
    return Profile(dim, conv(conn1), mode, {d: conv(v) for d, v in enumerate(degrees, start=2)})


def degree_value(degree):
    """An engine degree as a reference number (an int or INF)."""
    text = str(degree)
    return INF if text == "inf" else int(text)


def profile_tuple(p):
    """A reference profile tuple read off an engine Profile's public fields."""
    mode = getattr(p.mode, "value", p.mode)
    return (p.dim, degree_value(p.conn1), mode, tuple(degree_value(p.degree(d)) for d in range(2, p.dim + 1)))


# --------------------------------------------------------------- wide-cube


class WideCube:
    """iterate(p, r) to stability on one large random profile per op."""

    name = "wide-cube"
    in_process = True
    dims = range(12, 25)

    # the extent and the mode fix how many passes iterate makes, so they
    # rotate over the dims: any 8 consecutive blocks hold every combination
    # at every dim
    combos = tuple((mode, r) for mode in (CART, COCART) for r in (1, 2, 3, INF))
    cycle = len(combos)

    def block(self, rng: random.Random, index: int) -> list:
        ops = []
        for i, dim in enumerate(self.dims):
            mode, r = self.combos[(i + index) % len(self.combos)]
            ops.append((random_profile(rng, dim, mode), r))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        # the largest dim fills the partition cache for every smaller one; at
        # r = inf the stable shift needs no partitions, so only the dual
        # minimisations run
        dim = self.dims[-1]
        return [((dim, 1, COCART, (INF,) * (dim - 1)), INF)]

    def prepare(self, op):
        p, r = op
        return engine_profile(p), r  # the reference's INF is math.inf, as the engine's r

    def run(self, prepared):
        import bkcube.pipeline

        p, r = prepared
        return bkcube.pipeline.iterate(p, r)

    @staticmethod
    def _answer(derivation):
        final = derivation.steps[-1].profile if derivation.steps else derivation.initial
        return profile_tuple(final), derivation.stabilized_at, len(derivation.steps)

    def rendered(self, derivation) -> str:
        return repr(self._answer(derivation))

    def check(self, op, derivation, ctx) -> list[str]:
        got, want = self._answer(derivation), ref.iterate(*op)
        return [] if got == want else [f"iterate dim={op[0][0]} r={op[1]}: got {got}, want {want}"]


# ------------------------------------------------------------- long-script


_CMPS = (">=", "=", "<=")


class ScriptGen:
    """Builds a random valid script as reference statement tuples.

    The generator tracks the current profile's mode so that every apply is
    legal; a repeat body starts with ``apply step`` (legal from either
    mode), so the body is legal on every pass.
    """

    def __init__(self, rng: random.Random, dim: int) -> None:
        self.rng = rng
        self.dim = dim
        self.names = 0
        self.mode = None
        self.line = 2  # line 1 is a comment

    def _next_line(self) -> int:
        line = self.line
        self.line += 1
        return line

    def declare(self, line: int):
        self.names += 1
        self.mode = self.rng.choice((CART, COCART))
        _, conn1, mode, degrees = random_profile(self.rng, self.dim, self.mode)
        return ("profile", f"p{self.names}", self.dim, conn1, mode, degrees, line)

    def apply(self, line: int):
        rng = self.rng
        if rng.random() < 0.5:
            self.mode = CART
            return ("apply", "step", None, rng.choice((None, 1, 2, 3, INF)), line)
        amount = rng.choice((None, 1, 2))
        if self.mode == COCART:
            op = rng.choice(("hbm", "stable", "suspend"))
            if op != "suspend":
                self.mode, amount = CART, None
        else:
            op = rng.choice(("dualize", "loop"))
            if op == "dualize":
                self.mode, amount = COCART, None
        return ("apply", op, amount, None, line)

    def assertion(self, line: int):
        rng = self.rng
        value = INF if rng.random() < 0.1 else rng.randint(0, self.dim + 4)
        cmp = rng.choice(_CMPS)
        roll = rng.random()
        if roll < 0.3:
            return ("assert", None, None, cmp, value, line)
        scope = self.mode if roll < 0.9 else (CART if self.mode == COCART else COCART)
        return ("assert", scope, rng.randint(2, self.dim), cmp, value, line)

    def body_stmt(self, line: int):
        roll = self.rng.random()
        if roll < 0.6:
            return self.apply(line)
        if roll < 0.9:
            return self.assertion(line)
        return ("print", line)

    def script(self, target: int) -> list:
        """Top-level statements executing about ``target`` statements."""
        rng = self.rng
        stmts = [self.declare(self._next_line())]
        executed = 1
        while executed < target:
            roll = rng.random()
            line = self._next_line()
            if roll < 0.03:
                stmt, cost = self.declare(line), 1
            elif roll < 0.3 and target - executed > 8:
                body = [("apply", "step", None, rng.choice((None, 1, 2, INF)), line)]
                self.mode = CART
                body += [self.body_stmt(line) for _ in range(rng.randint(0, 3))]
                count = rng.randint(2, max(2, min(200, (target - executed) // len(body))))
                stmt, cost = ("repeat", count, tuple(body), line), 1 + count * len(body)
            else:
                stmt, cost = self.body_stmt(line), 1
            stmts.append(stmt)
            executed += cost
        stmts.append(("print", self._next_line()))
        return stmts


def script_text(stmts, title: str) -> str:
    return f"# {title}\n" + "".join(ref.statement_text(s) + ";\n" for s in stmts)


class TraceChecks:
    """Checks on rendered trace output that hold for any trace format
    version: the JSON parses and validates against the engine's own schema,
    and the markdown names the final profile and the stabilisation index."""

    def __init__(self) -> None:
        self._validator = None

    def validate_json(self, text: str) -> list[str]:
        if self._validator is None:
            from bkcube.tracedoc import TRACE_SCHEMA

            self._validator = schema.Validator(TRACE_SCHEMA)
        try:
            doc = json.loads(text)
        except ValueError as err:
            return [f"trace JSON does not parse: {err}"]
        return [f"trace JSON fails the schema: {p}" for p in self._validator.problems(doc)]

    @staticmethod
    def check_markdown(text: str, final, stabilized_at) -> list[str]:
        problems = []
        if ref.describe(final) not in text:
            problems.append("markdown trace does not show the final profile")
        line = (
            "- not stabilized" if stabilized_at is None else f"- stabilized at iterate {stabilized_at}"
        )
        if line not in text.splitlines():
            problems.append(f"markdown trace lacks {line!r}")
        return problems


class LongScript:
    """parse -> execute -> document -> render_json + render_markdown."""

    name = "long-script"
    in_process = True
    # executed-statement lengths: eight log-spaced strata from 16 to 400,
    # one script drawn from each at every dim 2..5, so that op sizes have no
    # gap for p50 or p90 to straddle; plus one tail script of about 2,000
    # statements at dim 2 and 3 in turn
    strata = tuple(16 * 25 ** (i / 8) for i in range(9))
    tail_repeats = 1000
    cycle = 2

    def __init__(self) -> None:
        self.checks = TraceChecks()

    def block(self, rng: random.Random, index: int) -> list:
        ops = [
            self._op(rng, dim, round(rng.uniform(low, high)))
            for dim in range(2, 6)
            for low, high in zip(self.strata, self.strata[1:])
        ]
        ops.append(self._tail(rng, 2 + index % 2))
        rng.shuffle(ops)
        return ops

    def _tail(self, rng, dim):
        gen = ScriptGen(rng, dim)
        step = ("apply", "step", None, rng.choice((1, 2, 3)), 3)
        gen.mode = CART
        body = (step, gen.assertion(3))
        stmts = [gen.declare(2), ("repeat", self.tail_repeats, body, 3), ("print", 4)]
        return stmts, script_text(stmts, f"dim {dim}, {self.tail_repeats} steps")

    def warmup(self) -> list:
        rng = random.Random("long-script warm-up")
        return [self._op(rng, dim, 40) for dim in range(2, 6)]

    def _op(self, rng, dim, target):
        stmts = ScriptGen(rng, dim).script(target)
        return stmts, script_text(stmts, f"dim {dim}, about {target} statements")

    def prepare(self, op):
        return op[1]

    def run(self, text):
        import bkcube.script
        import bkcube.tracedoc

        result = bkcube.script.execute(bkcube.script.parse(text), label="long-script")
        doc = bkcube.tracedoc.document([result.derivation])
        js = bkcube.tracedoc.render_json(doc)
        md = bkcube.tracedoc.render_markdown([result.derivation], title="Script trace")
        return result, js, md

    def rendered(self, answer) -> str:
        return answer[1] + answer[2]

    def check(self, op, answer, ctx) -> list[str]:
        result, js, md = answer
        want = ref.run_script(op[0])
        ctx.statements_run += want.statements_run
        problems = []
        got_final = profile_tuple(result.final)
        if got_final != want.current:
            problems.append(f"final profile {got_final}, want {want.current}")
        if result.derivation.stabilized_at != want.stabilized_at:
            problems.append(
                f"stabilized_at {result.derivation.stabilized_at}, want {want.stabilized_at}"
            )
        got_asserts = [(a.line, a.text, a.passed, a.detail) for a in result.asserts]
        if got_asserts != want.asserts:
            problems.append("assert outcomes differ from the reference")
        if list(result.printed) != want.printed:
            problems.append("printed lines differ from the reference")
        problems += self.checks.validate_json(js)
        problems += self.checks.check_markdown(md, want.current, want.stabilized_at)
        return problems


# ----------------------------------------------------------------- cli-mix


def cli_env(trace_path: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop(SPANS_ENV, None)
    if trace_path is not None:
        env[SPANS_ENV] = trace_path
    return env


def battery_from_markdown(text: str) -> dict:
    computed: dict = {}
    claim = None
    for line in text.splitlines():
        if line.startswith("### ") and line.endswith((": PASS", ": FAIL")):
            head, _, status = line[4:].rpartition(": ")
            claim = head
            computed[claim] = None
            if status != "PASS":
                claim = None
        elif claim is not None and line.startswith("- computed: "):
            computed[claim] = line[len("- computed: ") :].split(", ")
            claim = None
    return computed


def battery_from_json(doc: dict) -> dict:
    return {
        v["claim_id"]: (list(v["computed"]) if v["pass"] else None)
        for v in doc.get("verdicts", [])
    }


class CliMix:
    """One ``bkcube`` subprocess per op, from a fixed seeded mix."""

    name = "cli-mix"
    in_process = False
    mix = ("verify-md", "verify-md", "verify-json", "verify-json", "step", "step", "run", "run")
    cycle = 1

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.checks = TraceChecks()
        self.trace_path: str | None = None
        self.scripts = 0

    def block(self, rng: random.Random, index: int) -> list:
        kinds = list(self.mix)
        rng.shuffle(kinds)
        return [self._op(rng, kind) for kind in kinds]

    def warmup(self) -> list:
        rng = random.Random("cli-mix warm-up")
        return [self._op(rng, kind) for kind in dict.fromkeys(self.mix)]

    def _op(self, rng, kind):
        if kind == "verify-md":
            return kind, ["verify-paper"], None
        if kind == "verify-json":
            return kind, ["verify-paper", "--format", "json"], None
        if kind == "step":
            dim = rng.randint(2, 6)
            mode = rng.choice((CART, COCART))
            p = random_profile(rng, dim, mode)
            r = rng.choice((1, 2, 3, INF))
            entries = ",".join(f"{d}={ref.fmt(v)}" for d, v in enumerate(p[3], start=2))
            flag = "--cart" if mode == CART else "--cocart"
            args = ["step", "--dim", str(dim), "--conn1", ref.fmt(p[1]), flag, entries]
            return kind, args + ["--r", ref.fmt(r)], (p, r)
        stmts = ScriptGen(rng, rng.randint(2, 4)).script(rng.randint(10, 40))
        self.scripts += 1
        path = self.scratch / f"script{self.scripts % 64}.bkc"
        return kind, ["run", str(path), "--trace", "json"], (stmts, path)

    def prepare(self, op):
        kind, args, data = op
        if kind == "run":
            stmts, path = data
            path.write_text(script_text(stmts, "cli-mix script"), encoding="utf-8")
        return [sys.executable, str(CLI_ENTRY), *args]

    def run(self, argv):
        proc = subprocess.run(
            argv,
            env=cli_env(self.trace_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def rendered(self, answer) -> str:
        return answer[1]

    def check(self, op, answer, ctx) -> list[str]:
        kind, args, data = op
        code, out, err = answer
        if kind.startswith("verify"):
            if code != 0:
                return [f"{' '.join(args)} exited {code}: {err.strip()[-200:]}"]
            if kind == "verify-md":
                computed = battery_from_markdown(out)
                problems = []
            else:
                problems = self.checks.validate_json(out)
                computed = battery_from_json(json.loads(out)) if not problems else {}
            return problems + ref.battery_mismatches(computed)
        if kind == "step":
            if code != 0:
                return [f"{' '.join(args)} exited {code}: {err.strip()[-200:]}"]
            final, stabilized_at, _ = ref.iterate(*data)
            want = (
                f"stabilized at iterate {stabilized_at}; final {ref.describe(final)}"
                if stabilized_at is not None
                else f"did not stabilize within {ref.MAX_ITERS} iterates; final {ref.describe(final)}"
            )
            lines = out.splitlines()
            problems = [] if lines and lines[-1] == want else [f"step: last line is not {want!r}"]
            return problems + self.checks.check_markdown(out, final, stabilized_at)
        stmts, _ = data
        want = ref.run_script(stmts)
        ctx.statements_run += want.statements_run
        want_code = 0 if all(a[2] for a in want.asserts) else 1
        if code != want_code:
            return [f"run exited {code}, want {want_code}: {err.strip()[-200:]}"]
        head = list(want.printed) + [
            f"{'ok' if ok else 'FAIL'}: line {line}: {text}" + (f" ({detail})" if detail else "")
            for line, text, ok, detail in want.asserts
        ]
        prefix = "".join(line + "\n" for line in head)
        if not out.startswith(prefix):
            return ["run: printed or assert lines differ from the reference"]
        return self.checks.validate_json(out[len(prefix) :])


def make(name: str, scratch: Path):
    if name == "wide-cube":
        return WideCube()
    if name == "long-script":
        return LongScript()
    if name == "cli-mix":
        return CliMix(scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("wide-cube", "long-script", "cli-mix")
