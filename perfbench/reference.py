"""Independent reference answers for the benchmark's checks.

Nothing here imports ``bkcube``.  Degrees are plain ints, with
``math.inf`` as the one infinity sentinel; a profile is the tuple
``(dim, conn1, mode, degrees)`` where ``degrees[i]`` belongs to face
dimension ``i + 2`` and ``mode`` is ``"cartesian"`` or ``"cocartesian"``.

The partition minimum ``min over partitions of d of sum c(block)`` is an
unbounded knapsack, so one table per profile serves every d:
``best[m] = min over s <= m of c(s) + best[m - s]``.
"""

from __future__ import annotations

import math

INF = math.inf
CART = "cartesian"
COCART = "cocartesian"
MAX_ITERS = 32


def fmt(v) -> str:
    return "inf" if v == INF else str(v)


def partition_minima(conn1, degrees) -> list:
    """best[m] for m = 0..dim, with c(1) = conn1 and c(s) = degrees[s - 2]."""
    cost = [None, conn1, *degrees]
    best = [0]
    for m in range(1, len(cost)):
        best.append(min(cost[s] + best[m - s] for s in range(1, m + 1)))
    return best


def _need(p, mode: str, op: str) -> None:
    if p[0] >= 2 and p[2] != mode:
        raise ValueError(f"{op} needs a {mode} profile")


def _flip(p):
    return (p[0], p[1], CART if p[2] == COCART else COCART, p[3])


def cartesianize(p):
    """Higher Blakers-Massey: cart(d) = 1 - d + partition minimum of d."""
    _need(p, COCART, "cartesianize")
    if p[0] == 1:
        return _flip(p)
    best = partition_minima(p[1], p[3])
    return (p[0], p[1], CART, tuple(1 - d + best[d] for d in range(2, p[0] + 1)))


def dualize(p):
    """Dual shape: cocart(d) = d - 1 + partition minimum of d."""
    _need(p, CART, "dualize")
    if p[0] == 1:
        return _flip(p)
    best = partition_minima(p[1], p[3])
    return (p[0], p[1], COCART, tuple(d - 1 + best[d] for d in range(2, p[0] + 1)))


def stabilize(p):
    """Stable shift at infinite extent: cart(d) = cocart(d) + 1 - d."""
    _need(p, COCART, "stabilize")
    if p[0] == 1:
        return _flip(p)
    return (p[0], p[1], CART, tuple(v + 1 - d for d, v in enumerate(p[3], start=2)))


def shift(p, amount: int):
    return (p[0], p[1] + amount, p[2], tuple(v + amount for v in p[3]))


def suspend(p, r: int):
    _need(p, COCART, "suspend")
    return shift(p, r)


def loop(p, r: int):
    _need(p, CART, "loop")
    return shift(p, -r)


def step(p, r, first: bool):
    """One loop-suspension pass; a non-first pass dualizes first."""
    if not first:
        p = dualize(p)
    if r == INF:
        return stabilize(p)
    return loop(cartesianize(suspend(p, r)), r)


def iterate(p, r, max_iters: int = MAX_ITERS):
    """(final profile, stabilized_at or None, passes run)."""
    current = p
    for index in range(1, max_iters + 1):
        nxt = step(current, r, first=index == 1 and p[2] == COCART)
        if nxt == current:
            return nxt, index, index
        current = nxt
    return current, None, max_iters


def describe(p) -> str:
    dim, conn1, mode, degrees = p
    head = f"{dim}-cube {mode} (conn1={fmt(conn1)}"
    if dim == 1:
        return head + ")"
    short = "cart" if mode == CART else "cocart"
    pairs = ", ".join(f"{d}={fmt(v)}" for d, v in enumerate(degrees, start=2))
    return f"{head}; {short} {pairs})"


# --- the .bkc statement semantics, over the generator's own statement tuples:
#   ("profile", name, dim, conn1, mode, degrees)
#   ("apply", op, amount, r)      op in dualize hbm stable suspend loop step
#   ("assert", scope, dim, cmp, value)   scope None (conn1), CART or COCART
#   ("repeat", count, body)
#   ("print",)
# Every statement also carries its 1-based source line as the last field.

_APPLY = {"dualize": dualize, "hbm": cartesianize, "stable": stabilize}


def _holds(actual, cmp: str, value) -> bool:
    if cmp == "=":
        return actual == value
    return actual >= value if cmp == ">=" else actual <= value


class ScriptRun:
    """Execution of a generated script: the answers the engine must match."""

    def __init__(self) -> None:
        self.current = None
        self.previous = None
        self.steps = 0
        self.stabilized_at = None
        self.asserts: list[tuple[int, str, bool, str]] = []
        self.printed: list[str] = []
        self.statements_run = 0

    def _push(self, profile) -> None:
        self.steps += 1
        if self.stabilized_at is None and profile == self.previous:
            self.stabilized_at = self.steps
        self.previous = self.current = profile

    def run(self, stmt) -> None:
        self.statements_run += 1
        kind = stmt[0]
        if kind == "profile":
            _, _, dim, conn1, mode, degrees, _ = stmt
            p = (dim, conn1, mode, tuple(degrees))
            if self.current is None:
                self.current = self.previous = p
            else:
                self._push(p)
        elif kind == "apply":
            _, op, amount, r, _ = stmt
            p = self.current
            if op == "step":
                out = step(p, 1 if r is None else r, first=p[2] == COCART)
            elif op == "suspend":
                out = suspend(p, 1 if amount is None else amount)
            elif op == "loop":
                out = loop(p, 1 if amount is None else amount)
            else:
                out = _APPLY[op](p)
            self._push(out)
        elif kind == "assert":
            _, scope, dim, cmp, value, line = stmt
            p = self.current
            text = statement_text(stmt)
            if scope is None:
                actual = p[1]
            elif p[2] != scope:
                self.asserts.append((line, text, False, f"profile is {p[2]}"))
                return
            else:
                actual = p[3][dim - 2]
            ok = _holds(actual, cmp, value)
            self.asserts.append((line, text, ok, "" if ok else f"actual {fmt(actual)}"))
        elif kind == "repeat":
            for _ in range(stmt[1]):
                for inner in stmt[2]:
                    self.run(inner)
        else:
            self.printed.append(describe(self.current))


def run_script(statements) -> ScriptRun:
    result = ScriptRun()
    for stmt in statements:
        result.run(stmt)
    return result


def statement_text(stmt) -> str:
    """Canonical source text of a statement, without the trailing ';'."""
    kind = stmt[0]
    if kind == "profile":
        _, name, dim, conn1, mode, degrees, _ = stmt
        short = "cart" if mode == CART else "cocart"
        inner = "".join(f", {short} {d}={fmt(v)}" for d, v in enumerate(degrees, start=2))
        return f"profile {name} dim={dim} {{ conn1={fmt(conn1)}{inner} }}"
    if kind == "apply":
        _, op, amount, r, _ = stmt
        text = f"apply {op}"
        if amount is not None:
            text += f" {amount}"
        if r is not None:
            text += f" r={fmt(r)}"
        return text
    if kind == "assert":
        _, scope, dim, cmp, value, _ = stmt
        subject = "conn1" if scope is None else f"{'cart' if scope == CART else 'cocart'} {dim}"
        return f"assert {subject} {cmp} {fmt(value)}"
    if kind == "repeat":
        inner = " ".join(statement_text(s) + ";" for s in stmt[2])
        return f"repeat {stmt[1]} {{ {inner} }}"
    return "print"


# --- the standard battery, from the paper's closed forms.  Keys are claim
# ids; values are the computed degrees each verdict must report.


def _battery() -> dict[str, list]:
    table: dict[str, list] = {}
    k = 1
    for r in ("1", "2", "inf"):
        table[f"comparison k={k} r={r}"] = [2 * k + 1]
    for n in (1, 2):
        # r = 1: the first iterate is (1 + n r)-cartesian = n + 1 already
        table[f"excisive n={n} r=1"] = [n + 1, n + 1]
        table[f"excisive n={n} r=inf"] = [INF, n + 1, n + 1]
    for n, kk in ((1, 1), (2, 1), (1, 2)):
        table[f"tower n={n} k={kk}"] = [n + 1]
    # conn1 = 2 and degree(d) = d + 1, listed dimension by dimension
    fixed = [d + 1 for dim in range(1, 4) for d in range(1, dim + 1)]
    for r in ("1", "2", "inf"):
        table[f"fixed-point N=3 r={r}"] = fixed
    for r in ("1", "inf"):
        table[f"schedule k=1 r={r} N=5"] = [1 * (n + 2) + 1 for n in range(6)]
        table[f"fibration N=4 r={r}"] = [n + 2 for n in range(5)]
    table["interchange n<=4 k<=4 r=1"] = [
        (n + 2) * kk + 1 for n in range(5) for kk in range(1, 9)
    ] + [n + 1 for n in range(1, 5) for _ in range(5)]
    return table


BATTERY = _battery()


def battery_mismatches(computed: dict[str, list[str]]) -> list[str]:
    """Claims of the expected table that are missing, fail, or report other
    values.  ``computed`` maps claim id to its computed degrees as text, or
    to None when the verdict did not pass.  Extra claims are allowed."""
    bad = []
    for claim, values in BATTERY.items():
        got = computed.get(claim, "missing")
        if got != [fmt(v) for v in values]:
            bad.append(f"{claim}: {got}")
    return bad
