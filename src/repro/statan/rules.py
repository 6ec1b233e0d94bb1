"""The statan ruleset: simulation-specific checks.

Rule families (the id is what ``--select`` / ``--ignore`` and
``# statan: ignore[...]`` take; individual finding codes also work):

============== ======= ========================================================
family         codes   what it catches
============== ======= ========================================================
determinism    DET00x  wall-clock reads, global ``random`` / ``np.random``
                       state, ``os.urandom``, unseeded ``default_rng()``
process-       PROC00x generator-protocol abuse in sim processes: bare
protocol               ``yield``, yields of obvious non-Events, ``return
                       <value>`` mixed with yields
resource-leak  RES00x  ``acquire()`` without a matching ``release()`` on all
                       paths of the same function
float-time-eq  FLT001  ``==`` / ``!=`` between simulation timestamps
missing-slots  SLOT001 hot-path classes under ``sim/`` without ``__slots__``
bad-delay      NAN00x  NaN/inf/negative delay literals reaching
                       ``schedule()`` / ``timeout()``
retry-bound    RETRY001 ``while True`` retry loops (pause + ``continue``)
                       with no attempt cap, deadline, break, or raise
seed-threading SEED001 system/fault builders called without threading the
                       experiment's injected RNG (silent fallback to
                       ``DEFAULT_FAULT_SEED``)
perf-hot-path  PERF00x direct ``heapq`` use outside ``Environment``'s
                       schedule (``sim/core.py``), and per-event
                       ``Event``/``Timeout``/``Span`` construction inside
                       loops in ``sim``/``tracing`` hot paths that
                       bypass the event factories
queue-bound    QUEUE001 unbounded ``Store``/``deque``/``Queue``
                       construction in ``tiers/``/``controlplane/``
                       request-path code (no capacity/maxlen/maxsize)
shard-ring     SHARD001 consistent-hash ring construction from salted
                       ``hash()``, RNG draws, or unordered set
                       iteration (ring must be a pure function of
                       membership)
============== ======= ========================================================

Every check here exists because its bug class silently corrupts a
deterministic experiment: an un-injected random source makes the golden
traces diverge across hosts, a leaked pool slot shows up twenty
simulated minutes later as phantom pool exhaustion, and a ``__dict__``
on an event class undoes PR 1's kernel optimisations.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.statan.engine import Context, Rule, Severity

__all__ = [
    "DeterminismRule", "ProcessProtocolRule", "ResourceSafetyRule",
    "FloatTimeComparisonRule", "MissingSlotsRule", "BadDelayRule",
    "UnboundedRetryRule", "SeedThreadingRule", "PerfHotPathRule",
    "QueueBoundRule", "ShardRingRule", "default_rules", "RULES",
]


# -- shared helpers -------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS + (ast.Lambda,)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _FunctionRuleVisitor(ast.NodeVisitor):
    """Visitor base that dispatches once per function definition."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def check_function(self, node) -> None:  # pragma: no cover
        raise NotImplementedError


# -- determinism ----------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
}
_WALL_CLOCK_NAMES = {name.split(".", 1)[1] for name in _WALL_CLOCK}
_DATETIME = {
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
}
#: ``np.random`` attributes that are fine to call: constructing an
#: explicitly-seeded generator is the sanctioned idiom.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence"}


class DeterminismRule(Rule):
    """All randomness and time must be injected, never ambient.

    Identical seeds must give identical event traces (DESIGN.md §7); a
    single wall-clock read or hidden global-RNG draw breaks that silently
    and only shows up as a diverged golden trace with no locality.
    """

    id = "determinism"
    description = "ambient time/randomness instead of injected sources"
    codes = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006")

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                name = _dotted(node.func)
                if name is not None:
                    rule._check_call(ctx, node, name)
                self.generic_visit(node)

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                rule._check_import(ctx, node)

        return Visitor()

    def _check_call(self, ctx: Context, node: ast.Call, name: str) -> None:
        if name in _WALL_CLOCK:
            ctx.report(node, "DET001", self.id, Severity.ERROR,
                       "wall-clock read '{}()' in simulation code; "
                       "use the simulated clock (env.now)".format(name))
        elif name in _DATETIME:
            ctx.report(node, "DET002", self.id, Severity.ERROR,
                       "'{}()' reads the host clock; simulation time "
                       "must come from env.now".format(name))
        elif name == "os.urandom":
            ctx.report(node, "DET003", self.id, Severity.ERROR,
                       "os.urandom() is unseedable; draw from the "
                       "injected np.random.Generator")
        elif name.startswith("random.") and name.count(".") == 1:
            ctx.report(node, "DET004", self.id, Severity.ERROR,
                       "module-level '{}()' uses hidden global state; "
                       "draw from the injected np.random.Generator"
                       .format(name))
        elif (name.startswith(("np.random.", "numpy.random."))
              and name.rsplit(".", 1)[1] not in _NP_RANDOM_OK):
            ctx.report(node, "DET005", self.id, Severity.ERROR,
                       "'{}()' mutates numpy's global RNG; draw from "
                       "the injected np.random.Generator".format(name))
        if (name.rsplit(".", 1)[-1] == "default_rng"
                and not node.args and not node.keywords):
            ctx.report(node, "DET006", self.id, Severity.ERROR,
                       "unseeded default_rng(): entropy comes from the "
                       "OS, so runs are not reproducible; pass an "
                       "explicit, documented seed")

    def _check_import(self, ctx: Context, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        names = {alias.name for alias in node.names}
        if node.module == "random":
            ctx.report(node, "DET004", self.id, Severity.ERROR,
                       "importing from 'random' pulls in hidden global "
                       "RNG state; use the injected np.random.Generator")
        elif node.module == "time" and names & _WALL_CLOCK_NAMES:
            ctx.report(node, "DET001", self.id, Severity.ERROR,
                       "importing wall-clock functions from 'time'; "
                       "use the simulated clock (env.now)")
        elif node.module == "os" and "urandom" in names:
            ctx.report(node, "DET003", self.id, Severity.ERROR,
                       "importing os.urandom; draw from the injected "
                       "np.random.Generator")


# -- process discipline ---------------------------------------------------

#: Method names whose call results are (or wrap) kernel events; a yield
#: of one of these marks the enclosing generator as a sim process.
_EVENTISH_ATTRS = {
    "timeout", "event", "process", "all_of", "any_of", "request",
    "put", "get", "delay", "succeed", "send",
}
#: Yielded expression types that can never be an Event.
_NON_EVENT_YIELDS = (
    ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.Compare, ast.BoolOp,
)


def _eventish(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr in _EVENTISH_ATTRS)
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  (ast.BitOr, ast.BitAnd)):
        # Event composition: ``req | env.timeout(...)``.
        return _eventish(node.left) or _eventish(node.right)
    return False


class ProcessProtocolRule(Rule):
    """Generator-protocol discipline for simulation processes.

    A sim process may only yield Events; the kernel throws
    ``SimulationError`` at *run* time when it does not
    (``Process._resume``), but only on the paths an experiment happens
    to execute.  A generator is treated as a sim process when it yields
    at least one event-producing call (``env.timeout(...)``,
    ``pool.request()``, ...) or its docstring says "Process generator".
    """

    id = "process-protocol"
    description = "generator-protocol violations in sim processes"
    codes = ("PROC001", "PROC002", "PROC003")

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(_FunctionRuleVisitor):
            def check_function(self, node) -> None:
                rule._check(ctx, node)

        return Visitor(ctx)

    def _check(self, ctx: Context, func) -> None:
        yields = [node for node in _own_nodes(func)
                  if isinstance(node, ast.Yield)]
        if not yields:
            return
        for node in yields:
            if node.value is None:
                ctx.report(node, "PROC001", self.id, Severity.WARNING,
                           "bare 'yield' in generator '{}': yields None, "
                           "which the kernel rejects at run time"
                           .format(func.name))
        docstring = ast.get_docstring(func) or ""
        is_process = ("process generator" in docstring.lower()
                      or any(_eventish(node.value) for node in yields
                             if node.value is not None))
        if not is_process:
            return
        for node in yields:
            value = node.value
            if value is None:
                continue
            if isinstance(value, _NON_EVENT_YIELDS) or (
                    isinstance(value, ast.BinOp)
                    and not isinstance(value.op, (ast.BitOr, ast.BitAnd))):
                ctx.report(node, "PROC002", self.id, Severity.ERROR,
                           "sim process '{}' yields a non-Event "
                           "expression".format(func.name))
        for node in _own_nodes(func):
            if isinstance(node, ast.Return) and node.value is not None:
                ctx.report(node, "PROC003", self.id, Severity.WARNING,
                           "'return <value>' mixed with yields in sim "
                           "process '{}'; make sure every waiter reads "
                           "the process value".format(func.name))


# -- resource safety ------------------------------------------------------

class ResourceSafetyRule(Rule):
    """Every ``acquire()`` needs a ``release()`` on all paths.

    A leaked slot never crashes: the pool just gets permanently smaller,
    which surfaces minutes of simulated time later as phantom pool
    exhaustion — indistinguishable from the millibottleneck symptom the
    experiments are trying to measure.  The check is per-function and
    syntactic: a release counts as "on all paths" when it is reachable
    without entering a conditional branch, or sits in a ``finally``
    block.  The context-manager form is immune by construction.
    """

    id = "resource-leak"
    description = "acquire() without release() on all paths"
    codes = ("RES001", "RES002")

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(_FunctionRuleVisitor):
            def check_function(self, node) -> None:
                rule._check(ctx, node)

        return Visitor(ctx)

    @staticmethod
    def _calls_on(node: ast.AST, method: str) -> dict[str, ast.Call]:
        """receiver-expression -> first ``<receiver>.<method>(...)`` call."""
        out: dict[str, ast.Call] = {}
        for child in _own_nodes(node):
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == method):
                receiver = _dotted(child.func.value)
                if receiver is not None and receiver not in out:
                    out[receiver] = child
        return out

    @classmethod
    def _guaranteed_releases(cls, stmts) -> set[str]:
        """Receivers whose ``release()`` runs on every non-raising path."""
        out: set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, ast.Try):
                out |= cls._guaranteed_releases(stmt.finalbody)
                if not stmt.handlers:
                    out |= cls._guaranteed_releases(stmt.body)
                out |= cls._guaranteed_releases(stmt.orelse)
            elif isinstance(stmt, ast.With):
                out |= cls._guaranteed_releases(stmt.body)
            elif isinstance(stmt, ast.If):
                out |= (cls._guaranteed_releases(stmt.body)
                        & cls._guaranteed_releases(stmt.orelse))
            elif isinstance(stmt, (ast.For, ast.While, ast.FunctionDef,
                                   ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            else:
                for receiver in cls._calls_on(stmt, "release"):
                    out.add(receiver)
                # A statement-level call node itself (Expr wraps it).
                if (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)
                        and isinstance(stmt.value.func, ast.Attribute)
                        and stmt.value.func.attr == "release"):
                    receiver = _dotted(stmt.value.func.value)
                    if receiver is not None:
                        out.add(receiver)
        return out

    def _check(self, ctx: Context, func) -> None:
        if (func.name in ("acquire", "try_acquire")
                or func.name.startswith(("acquire_", "try_acquire_"))):
            # Wrapper methods forwarding to an inner pool hand the slot
            # to their caller by design.
            return
        acquired = self._calls_on(func, "acquire")
        if not acquired:
            return
        released = self._calls_on(func, "release")
        guaranteed = self._guaranteed_releases(func.body)
        for receiver, call in acquired.items():
            if receiver not in released:
                ctx.report(call, "RES001", self.id, Severity.WARNING,
                           "'{}.acquire()' has no matching release() in "
                           "this function; prefer the context-manager "
                           "form".format(receiver))
            elif receiver not in guaranteed:
                ctx.report(call, "RES002", self.id, Severity.WARNING,
                           "'{}.release()' is conditional: not reached "
                           "on every path from acquire(); move it to a "
                           "finally block or use the context-manager "
                           "form".format(receiver))


# -- float-time hygiene ---------------------------------------------------

def _time_like(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    if (name == "now" or name == "timestamp"
            or name.endswith(("_at", "_time", "_ts"))):
        return name
    return None


class FloatTimeComparisonRule(Rule):
    """Simulation timestamps are floats: never compare with ``==``.

    Two events at "the same" time routinely differ in the last ulp
    (``0.1 + 0.2 != 0.3``); an equality test that happens to hold under
    one summation order silently flips when the schedule changes.
    """

    id = "float-time-eq"
    description = "== / != between simulation timestamps"
    codes = ("FLT001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_Compare(self, node: ast.Compare) -> None:
                rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    def _check(self, ctx: Context, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        if any(isinstance(op, ast.Constant) and op.value is None
               for op in operands):
            return  # `x == None` is someone else's lint.
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                name = _time_like(left) or _time_like(right)
                if name is not None:
                    ctx.report(node, "FLT001", self.id, Severity.WARNING,
                               "float equality on timestamp '{}'; compare "
                               "with <=/>= bounds or an explicit tolerance"
                               .format(name))
                    return
            left = right


# -- slots enforcement ----------------------------------------------------

#: Base-class names that make ``__slots__`` pointless or illegal.
_SLOTS_EXEMPT_BASES = (
    "Exception", "BaseException", "Protocol", "NamedTuple", "TypedDict",
)


class MissingSlotsRule(Rule):
    """Classes in ``sim/`` hot-path modules must declare ``__slots__``.

    Events and processes are allocated once per simulated request; an
    accidental ``__dict__`` regresses the PR 1 kernel optimisations by
    ~56 bytes and one dict allocation per instance.  Scoped to files
    under a ``sim`` directory; exception types (and enums, protocols,
    typed dicts) are exempt.
    """

    id = "missing-slots"
    description = "hot-path class without __slots__"
    codes = ("SLOT001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self
        applies = "sim" in ctx.path.replace("\\", "/").split("/")

        class Visitor(ast.NodeVisitor):
            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                if applies:
                    rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    @staticmethod
    def _exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = (_dotted(base) or "").rsplit(".", 1)[-1]
            if (name in _SLOTS_EXEMPT_BASES
                    or name.endswith(("Error", "Exception", "Warning",
                                      "Interrupt", "Enum"))):
                return True
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            if (_dotted(target) or "").rsplit(".", 1)[-1] == "dataclass":
                return True
        return False

    def _check(self, ctx: Context, node: ast.ClassDef) -> None:
        if self._exempt(node):
            return
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets):
                return
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return
        ctx.report(node, "SLOT001", self.id, Severity.WARNING,
                   "class '{}' in a sim hot-path module has no "
                   "__slots__; instances grow a __dict__ and regress "
                   "kernel allocation costs".format(node.name))


# -- delay literals -------------------------------------------------------

_NONFINITE_NAMES = {"nan", "inf", "infinity", "ninf", "pinf"}
_NONFINITE_ROOTS = {"math", "np", "numpy"}


def _nonfinite_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "float" and len(node.args) == 1:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value.strip().lstrip("+-").lower() in {
                "nan", "inf", "infinity"}
    name = _dotted(node)
    if name and "." in name:
        root, leaf = name.split(".", 1)[0], name.rsplit(".", 1)[-1]
        return (root in _NONFINITE_ROOTS
                and leaf.lower() in _NONFINITE_NAMES)
    return False


class BadDelayRule(Rule):
    """No NaN/inf/negative delay may reach ``schedule()``/``timeout()``.

    The kernel validates delays at run time (a NaN key would corrupt the
    heap invariant silently); this catches the literal cases at review
    time, before the 20-minute run that would hit them.
    """

    id = "bad-delay"
    description = "non-finite or negative delay literal"
    codes = ("NAN001", "NAN002")

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    @staticmethod
    def _delay_argument(node: ast.Call) -> Optional[ast.AST]:
        attr = node.func.attr if isinstance(node.func, ast.Attribute) \
            else (node.func.id if isinstance(node.func, ast.Name) else None)
        if attr == "timeout":
            for keyword in node.keywords:
                if keyword.arg == "delay":
                    return keyword.value
            return node.args[0] if node.args else None
        if attr == "schedule":
            for keyword in node.keywords:
                if keyword.arg == "delay":
                    return keyword.value
            return node.args[2] if len(node.args) > 2 else None
        return None

    def _check(self, ctx: Context, node: ast.Call) -> None:
        delay = self._delay_argument(node)
        if delay is None:
            return
        if _nonfinite_literal(delay):
            ctx.report(delay, "NAN001", self.id, Severity.ERROR,
                       "non-finite delay literal: NaN/inf delays "
                       "corrupt the event heap; the kernel rejects "
                       "them at run time")
        elif (isinstance(delay, ast.UnaryOp)
                and isinstance(delay.op, ast.USub)
                and isinstance(delay.operand, ast.Constant)
                and isinstance(delay.operand.value, (int, float))
                and delay.operand.value != 0):
            ctx.report(delay, "NAN002", self.id, Severity.ERROR,
                       "negative delay literal: events cannot be "
                       "scheduled in the past")


# -- retry loops ----------------------------------------------------------

#: Waiting-call names whose yielded result marks a loop iteration as a
#: retry pause (``yield env.timeout(backoff)`` and friends).
_PAUSE_ATTRS = {"timeout", "sleep", "delay"}


def _loop_level_nodes(loop: ast.While) -> Iterable[ast.AST]:
    """Walk a loop's body without entering nested loops or functions.

    ``break``/``continue`` found here bind to *this* loop; statements
    inside a nested ``for``/``while`` bind to the inner one.
    """
    stack = list(loop.body) + list(loop.orelse)
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS + (ast.Lambda, ast.While, ast.For)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_pause_yield(node: ast.AST) -> bool:
    return (isinstance(node, ast.Yield)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in _PAUSE_ATTRS)


class UnboundedRetryRule(Rule):
    """Retry loops must be bounded by attempts or a deadline.

    The resilience layer made pause-and-retry a first-class idiom
    (``RetryPolicy.max_attempts``, the balancer's ``retry_pause``); the
    failure mode it must never reintroduce is the unbounded variant — a
    ``while True`` that sleeps and continues forever turns one Error-state
    backend into an infinite in-simulation spin that no experiment
    duration bounds, and under fault injection it holds a client (and its
    connection slots) hostage for the rest of the run.  A loop counts as
    a retry loop when, at its own level, it both yields a pause
    (``env.timeout(...)``/``sleep``/``delay``) and executes ``continue``;
    it is bounded when that level also has a ``break``, ``raise``, or
    ``return``, or when the loop test itself can go false.
    """

    id = "retry-bound"
    description = "while-True retry loop with no attempt cap or deadline"
    codes = ("RETRY001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_While(self, node: ast.While) -> None:
                rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    def _check(self, ctx: Context, loop: ast.While) -> None:
        # Only `while True:` can spin forever on continue alone; any
        # real test is itself the bound.
        if not (isinstance(loop.test, ast.Constant)
                and loop.test.value is True):
            return
        has_pause = has_continue = False
        for node in _loop_level_nodes(loop):
            if isinstance(node, (ast.Break, ast.Raise, ast.Return)):
                return
            if _is_pause_yield(node):
                has_pause = True
            elif isinstance(node, ast.Continue):
                has_continue = True
        if has_pause and has_continue:
            ctx.report(loop, "RETRY001", self.id, Severity.WARNING,
                       "unbounded retry loop: 'while True' pauses and "
                       "continues with no attempt cap, deadline, break, "
                       "or raise on any path; bound it like "
                       "RetryPolicy.max_attempts does")


# -- seed threading -------------------------------------------------------

#: Builder callables that take the experiment's generator, and the
#: 1-based position of their ``rng`` parameter.  ``build_from_spec``
#: requires it; ``FaultInjector`` without it silently falls back to
#: ``DEFAULT_FAULT_SEED`` — deterministic, but decoupled from the
#: experiment's seed.
_SEEDED_BUILDERS = {
    "build_from_spec": 4,
    "FaultInjector": 2,
}


class SeedThreadingRule(Rule):
    """Topology and fault builders must thread the injected RNG.

    ``build_from_spec``/``FaultInjector`` both take the experiment's
    seeded generator.  Omitting it is a TypeError for the former; the
    latter falls back to a fixed seed, which is reproducible but
    *wrong* — fault schedules stop varying with ``config.seed``, so
    replicate runs silently share randomness.  The fallback exists for
    ad-hoc notebook use; production call sites must pass ``rng=``.
    """

    id = "seed-threading"
    description = "system/fault builder called without the injected RNG"
    codes = ("SEED001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    def _check(self, ctx: Context, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        if name.split(".", 1)[0] in ("self", "cls"):
            # ``self.build_from_spec(...)`` is a same-named method on this
            # object, not the topology builder — the instance already
            # owns its rng.
            return
        short = name.rsplit(".", 1)[-1]
        position = _SEEDED_BUILDERS.get(short)
        if position is None:
            return
        if len(node.args) >= position:
            return  # rng passed positionally
        for keyword in node.keywords:
            if keyword.arg == "rng" or keyword.arg is None:
                return  # rng= given, or **kwargs may carry it
        ctx.report(node, "SEED001", self.id, Severity.WARNING,
                   "'{}()' without rng=: not seeded by the experiment's "
                   "generator; thread the injected generator".format(short))


# -- hot-path performance -------------------------------------------------

#: heapq functions whose bare-name use marks a hand-rolled heap.
_HEAPQ_FUNCS = {
    "heappush", "heappop", "heapify", "heappushpop", "heapreplace",
    "nsmallest", "nlargest",
}
#: Per-event classes with one construction path, a factory
#: (``env.timeout()``/``env.event()``/the tracer's ``__new__``-based
#: span builders); a direct constructor call bypasses it.
_FACTORY_CLASSES = {"Event", "Timeout", "Span"}
#: ``Environment``'s schedule is a heapq list in ``sim/core.py``, the
#: one module where heapq belongs.
_SCHEDULER_MODULE = "core.py"


class PerfHotPathRule(Rule):
    """Hot paths must go through the scheduler and the event factories.

    The kernel keeps every per-event cost behind two chokepoints:
    ``Environment``'s schedule (the only sanctioned event ordering
    structure — its ``heapq`` list is an implementation detail of
    ``sim/core.py``) and the event factories (``env.timeout()``,
    ``env.event()``, the tracer's ``Span.__new__`` builders), each the
    one construction path of its class, with the ``__init__`` chain and
    the schedule insert inlined.  Code under ``sim``/``tracing`` that
    hand-rolls a ``heapq`` schedule orders events outside the one
    schedule the golden traces pin, and a loop that constructs
    ``Event``/``Timeout``/``Span`` instances directly pays the
    constructor chain the factories inline (or, for ``Timeout``, has
    no constructor to call) — a cost invisible in tests that surfaces
    only as a throughput regression in ``bench-smoke``.
    """

    id = "perf-hot-path"
    description = "hot-path code bypassing the scheduler/event factories"
    codes = ("PERF001", "PERF002")

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self
        parts = ctx.path.replace("\\", "/").split("/")
        applies = "sim" in parts or "tracing" in parts
        is_scheduler = parts[-2:] == ["sim", _SCHEDULER_MODULE]

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self._loop_depth = 0
                self._func_stack: list[str] = []

            def visit_Import(self, node: ast.Import) -> None:
                if applies and not is_scheduler:
                    for alias in node.names:
                        if alias.name.split(".", 1)[0] == "heapq":
                            rule._report_heapq(ctx, node)

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                if (applies and not is_scheduler and not node.level
                        and node.module == "heapq"):
                    rule._report_heapq(ctx, node)

            def visit_Call(self, node: ast.Call) -> None:
                if applies:
                    in_setup = any(rule._is_setup_name(name)
                                   for name in self._func_stack)
                    rule._check_call(ctx, node, is_scheduler,
                                     0 if in_setup else self._loop_depth)
                self.generic_visit(node)

            def visit_For(self, node: ast.For) -> None:
                self._loop_depth += 1
                self.generic_visit(node)
                self._loop_depth -= 1

            visit_While = visit_For

            def visit_FunctionDef(self, node) -> None:
                # A function body starts its own loop context: a loop
                # *containing* a def does not make the def's body hot.
                self._func_stack.append(node.name)
                outer_depth, self._loop_depth = self._loop_depth, 0
                self.generic_visit(node)
                self._loop_depth = outer_depth
                self._func_stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

        return Visitor()

    @staticmethod
    def _is_setup_name(name: str) -> bool:
        """Constructors and warm-up helpers allocate by design.

        ``__init__``/``__new__`` and ``setup``/``prewarm``/``warm``-
        style helpers run once per object or per experiment, not once
        per event — a construction loop there builds fixtures, not
        per-event traffic.
        """
        bare = name.lstrip("_")
        return (name in ("__init__", "__new__", "__init_subclass__")
                or bare.startswith(("setup", "prewarm", "warm",
                                    "build", "make_", "init_")))

    def _report_heapq(self, ctx: Context, node: ast.AST) -> None:
        ctx.report(node, "PERF001", self.id, Severity.WARNING,
                   "direct heapq use in a sim/tracing hot path: event "
                   "ordering belongs to Environment's schedule "
                   "(Environment.schedule/timeout); a hand-rolled heap "
                   "orders events outside it")

    def _check_call(self, ctx: Context, node: ast.Call,
                    is_scheduler: bool, loop_depth: int) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        root = name.split(".", 1)[0]
        short = name.rsplit(".", 1)[-1]
        if not is_scheduler and (root == "heapq"
                                 or ("." not in name
                                     and short in _HEAPQ_FUNCS)):
            self._report_heapq(ctx, node)
            return
        if loop_depth and "." not in name and short in _FACTORY_CLASSES:
            ctx.report(node, "PERF002", self.id, Severity.WARNING,
                       "per-event {}(...) construction inside a loop "
                       "bypasses the event factories; use "
                       "env.timeout()/env.event() (or the tracer's "
                       "span builders), or hoist the allocation out "
                       "of the loop".format(short))


# -- queue bounds ---------------------------------------------------------

#: Queue constructors and the keyword that bounds each.
_QUEUE_BOUND_KWARG = {
    "Store": "capacity",
    "deque": "maxlen",
    "Queue": "maxsize",
    "LifoQueue": "maxsize",
    "PriorityQueue": "maxsize",
}


class QueueBoundRule(Rule):
    """Request-path queues in tier and control-plane code must be bounded.

    The paper's causal chain starts where a queue absorbs a stall
    without limit: an unbounded buffer between tiers hides a
    millibottleneck until it surfaces downstream as an accept-queue
    overflow, a packet drop, and a retransmission-driven VLRT.  The
    control plane's whole point is bounded buffering (leveling
    ``capacity``, admission bucket, bulkhead slots), so any
    ``Store``/``deque``/``Queue`` constructed in ``tiers/`` or
    ``controlplane/`` without its bound argument is either a latent
    millibottleneck amplifier or needs a
    ``# statan: ignore[QUEUE001]`` stating the invariant that bounds
    it externally.
    """

    id = "queue-bound"
    description = "unbounded queue construction in tier/control-plane code"
    codes = ("QUEUE001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self
        parts = ctx.path.replace("\\", "/").split("/")
        applies = "tiers" in parts or "controlplane" in parts

        class Visitor(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if applies:
                    rule._check(ctx, node)
                self.generic_visit(node)

        return Visitor()

    def _check(self, ctx: Context, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        short = name.rsplit(".", 1)[-1]
        bound = _QUEUE_BOUND_KWARG.get(short)
        if bound is None:
            return
        if any(keyword.arg == bound for keyword in node.keywords):
            return
        # Positional bounds: Store(env, capacity) / deque(iterable,
        # maxlen) / Queue(maxsize) pass the bound as the last expected
        # positional argument.
        positional_bound = {"Store": 2, "deque": 2, "Queue": 1,
                            "LifoQueue": 1, "PriorityQueue": 1}[short]
        if len(node.args) >= positional_bound:
            return
        ctx.report(node, "QUEUE001", self.id, Severity.WARNING,
                   "unbounded {}(...) on the request path: an unlimited "
                   "queue absorbs a millibottleneck silently and "
                   "re-emits it as drops downstream; pass {}= or "
                   "suppress with the bounding invariant".format(
                       short, bound))


# -- shard-ring determinism -----------------------------------------------

#: RNG draw methods whose presence in ring construction makes the ring
#: a function of generator state instead of membership.
_RNG_DRAWS = {
    "random", "integers", "choice", "shuffle", "uniform", "normal",
    "permutation", "randint", "randrange", "getrandbits", "sample",
}


class ShardRingRule(Rule):
    """Consistent-hash rings must be pure functions of membership.

    A shard ring decides which backend owns which key; every process
    (and every run) must compute the *same* ring, or resharding moves
    keys nondeterministically and golden traces diverge across hosts.
    Three constructions break that: Python's salted ``hash()`` (varies
    per process unless ``PYTHONHASHSEED`` is pinned), any RNG draw
    (seeded or not — ring positions must depend on member names only,
    never on generator state), and iteration over an unordered ``set``
    (insertion order leaks into vnode placement).  Ring code uses keyed
    stable hashes (``blake2b``) over the *ordered* member list — see
    :mod:`repro.tiers.shard` for the sanctioned idiom.
    """

    id = "shard-ring"
    description = "nondeterministic consistent-hash ring construction"
    codes = ("SHARD001",)

    def make_visitor(self, ctx: Context) -> ast.NodeVisitor:
        rule = self

        class Visitor(_FunctionRuleVisitor):
            def check_function(self, node) -> None:
                if "ring" in node.name.lower():
                    rule._check_ring_function(ctx, node)

        return Visitor(ctx)

    def _check_ring_function(self, ctx: Context, func: ast.AST) -> None:
        for node in _own_nodes(func):
            if isinstance(node, ast.Call):
                self._check_call(ctx, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.iter
                if isinstance(target, (ast.Set, ast.SetComp)) or (
                        isinstance(target, ast.Call)
                        and _dotted(target.func) in ("set", "frozenset")):
                    ctx.report(
                        node, "SHARD001", self.id, Severity.WARNING,
                        "ring construction iterates an unordered set: "
                        "insertion order leaks into vnode placement, so "
                        "two processes compute different rings; iterate "
                        "the ordered member list (or sorted(...))")

    def _check_call(self, ctx: Context, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is None:
            return
        if name == "hash":
            ctx.report(node, "SHARD001", self.id, Severity.WARNING,
                       "ring position from salted builtin hash(): varies "
                       "per process unless PYTHONHASHSEED is pinned; use "
                       "a keyed stable hash (hashlib.blake2b)")
            return
        parts = name.lower().split(".")
        if parts[-1] not in _RNG_DRAWS:
            return
        if (parts[0] in ("random", "np", "numpy")
                or any("rng" in part or "random" in part
                       for part in parts[:-1])):
            ctx.report(node, "SHARD001", self.id, Severity.WARNING,
                       "RNG draw inside ring construction: the ring must "
                       "be a pure function of membership (same members -> "
                       "same ring in every process); derive positions "
                       "from stable hashes of member names instead")


#: The default ruleset, in reporting order.
RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    ProcessProtocolRule(),
    ResourceSafetyRule(),
    FloatTimeComparisonRule(),
    MissingSlotsRule(),
    BadDelayRule(),
    UnboundedRetryRule(),
    SeedThreadingRule(),
    PerfHotPathRule(),
    QueueBoundRule(),
    ShardRingRule(),
)


def default_rules() -> tuple[Rule, ...]:
    """The built-in ruleset (fresh references, rules are stateless)."""
    return RULES
