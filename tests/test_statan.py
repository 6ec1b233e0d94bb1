"""Tests for repro.statan: rule engine, ruleset, reporters, CLI.

Every rule gets one positive fixture (the finding fires) and one
negative fixture (idiomatic code stays clean); plus suppression-comment
handling, the JSON reporter schema, and the CLI's 0/1/2 exit-code
contract.
"""

import json
import pathlib
import re
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.statan import (
    RULES,
    Severity,
    StatanError,
    check_paths,
    check_source,
    render_json,
    render_text,
)
from repro.statan.engine import Result


def findings(source, path="pkg/module.py"):
    return check_source(textwrap.dedent(source), path)


def codes(source, path="pkg/module.py"):
    return [finding.code for finding in findings(source, path)]


# -- determinism ----------------------------------------------------------

class TestDeterminismRule:
    def test_wall_clock_read_fires(self):
        assert "DET001" in codes("""
            import time
            def stamp():
                return time.time()
        """)

    def test_datetime_now_fires(self):
        assert "DET002" in codes("""
            import datetime
            start = datetime.datetime.now()
        """)

    def test_os_urandom_fires(self):
        assert "DET003" in codes("""
            import os
            token = os.urandom(8)
        """)

    def test_global_random_module_fires(self):
        assert "DET004" in codes("""
            import random
            def jitter():
                return random.random()
        """)

    def test_from_random_import_fires(self):
        assert "DET004" in codes("from random import choice\n")

    def test_np_random_global_fires(self):
        assert "DET005" in codes("""
            import numpy as np
            x = np.random.uniform(0.0, 1.0)
        """)

    def test_unseeded_default_rng_fires(self):
        assert "DET006" in codes("""
            import numpy as np
            rng = np.random.default_rng()
        """)

    def test_injected_generator_is_clean(self):
        assert codes("""
            import numpy as np

            def service_time(rng: np.random.Generator) -> float:
                return float(rng.exponential(0.01))

            rng = np.random.default_rng(42)
        """) == []


# -- process discipline ---------------------------------------------------

class TestProcessProtocolRule:
    def test_bare_yield_fires(self):
        assert "PROC001" in codes("""
            def get_endpoint(member):
                return None
                yield
        """)

    def test_non_event_yield_fires(self):
        assert "PROC002" in codes("""
            def worker(env):
                yield env.timeout(1.0)
                yield 0.5
        """)

    def test_return_value_mixed_with_yields_fires(self):
        assert "PROC003" in codes("""
            def worker(env):
                yield env.timeout(1.0)
                return 42
        """)

    def test_docstring_marks_process_generator(self):
        assert "PROC003" in codes("""
            def send(request):
                \"\"\"Process generator: forward and await.\"\"\"
                yield request.reply
                return request
        """)

    def test_event_yields_and_composition_are_clean(self):
        assert codes("""
            def worker(env, pool, store):
                with pool.request() as req:
                    yield req
                    yield env.timeout(0.01)
                outcome = yield req | env.timeout(0.3)
                yield store.put(1)
        """) == []

    def test_plain_data_generators_are_ignored(self):
        # A non-process generator (e.g. TimeSeries iteration) may yield
        # tuples and return freely.
        assert codes("""
            def pairs(times, values):
                for pair in zip(times, values):
                    yield pair
        """) == []


# -- resource safety ------------------------------------------------------

class TestResourceSafetyRule:
    def test_missing_release_fires(self):
        assert "RES001" in codes("""
            def execute(self, seconds):
                self.user.acquire(self.env.now)
                yield self.env.timeout(seconds)
        """)

    def test_conditional_release_fires(self):
        assert "RES002" in codes("""
            def execute(self, seconds, flaky):
                self.user.acquire(self.env.now)
                if flaky:
                    self.user.release(self.env.now)
        """)

    def test_try_finally_release_is_clean(self):
        assert codes("""
            def execute(self, seconds):
                self.user.acquire(self.env.now)
                try:
                    yield self.env.timeout(seconds)
                finally:
                    self.user.release(self.env.now)
        """) == []

    def test_straight_line_release_is_clean(self):
        assert codes("""
            def tick(self, now):
                self.tracker.acquire(now)
                self.tracker.release(now)
        """) == []

    def test_acquire_wrappers_are_exempt(self):
        assert codes("""
            def try_acquire(self):
                slot = self.pool.acquire()
                return slot
        """) == []

    def test_acquire_substring_name_is_not_exempt(self):
        assert "RES001" in codes("""
            def process_acquired_batch(self):
                self.pool.acquire()
        """)


# -- float-time hygiene ---------------------------------------------------

class TestFloatTimeComparisonRule:
    def test_timestamp_equality_fires(self):
        assert "FLT001" in codes("""
            def stalled(env, started_at):
                return env.now == started_at
        """)

    def test_bounded_comparison_is_clean(self):
        assert codes("""
            def stalled(env, started_at, window):
                return env.now - started_at >= window
        """) == []

    def test_none_check_is_not_flagged(self):
        assert codes("""
            def started(self):
                return self.busy_since == None
        """) == []

    def test_chained_comparison_checks_running_left_operand(self):
        assert "FLT001" in codes("""
            def stalled(a, started_at, b):
                return a < started_at == b
        """)


# -- slots enforcement ----------------------------------------------------

class TestMissingSlotsRule:
    def test_missing_slots_in_sim_module_fires(self):
        assert "SLOT001" in codes("""
            class Hot:
                def __init__(self, env):
                    self.env = env
        """, path="src/repro/sim/hot.py")

    def test_slots_class_is_clean(self):
        assert codes("""
            class Hot:
                __slots__ = ("env",)
                def __init__(self, env):
                    self.env = env
        """, path="src/repro/sim/hot.py") == []

    def test_exceptions_and_non_sim_modules_are_exempt(self):
        exc = """
            class Interrupt(Exception):
                pass
        """
        assert codes(exc, path="src/repro/sim/events.py") == []
        plain = """
            class Report:
                def __init__(self):
                    self.rows = []
        """
        assert codes(plain, path="src/repro/analysis/report.py") == []


# -- delay literals -------------------------------------------------------

class TestBadDelayRule:
    def test_nonfinite_delay_fires(self):
        assert "NAN001" in codes("""
            def poke(env):
                yield env.timeout(float("nan"))
        """)
        assert "NAN001" in codes("""
            import math
            def poke(env, event):
                env.schedule(event, delay=math.inf)
        """)

    def test_negative_delay_fires(self):
        assert "NAN002" in codes("""
            def poke(env):
                yield env.timeout(-0.5)
        """)

    def test_finite_delays_are_clean(self):
        assert codes("""
            def poke(env, event, pause):
                yield env.timeout(0.0)
                yield env.timeout(pause)
                env.schedule(event, delay=pause - 0.1)
        """) == []


# -- retry loops ----------------------------------------------------------

class TestUnboundedRetryRule:
    def test_pause_and_continue_forever_fires(self):
        assert "RETRY001" in codes("""
            def dispatch(self, request):
                while True:
                    member = self._pick()
                    if member is None:
                        yield self.env.timeout(self.pause)
                        continue
                    yield member.send(request)
        """)

    def test_raise_on_exhaustion_is_clean(self):
        assert codes("""
            def dispatch(self, request):
                while True:
                    member = self._pick()
                    if member is None:
                        if self.env.now > request.deadline:
                            raise NoCandidateError(request)
                        yield self.env.timeout(self.pause)
                        continue
                    yield member.send(request)
        """) == []

    def test_break_is_clean(self):
        assert codes("""
            def probe(self):
                while True:
                    if self.target.responsive:
                        break
                    yield self.env.timeout(self.interval)
                    continue
        """) == []

    def test_bounded_for_loop_is_clean(self):
        assert codes("""
            def send(self, packet):
                for attempt in range(self.max_retries):
                    yield self.env.timeout(self.rto)
                    continue
        """) == []

    def test_real_loop_condition_is_clean(self):
        assert codes("""
            def drain(self, queue):
                while queue.pending:
                    yield self.env.timeout(0.05)
                    continue
        """) == []

    def test_inner_loop_break_does_not_bound_outer(self):
        assert "RETRY001" in codes("""
            def forward(self):
                while True:
                    for item in self.batch:
                        if item.done:
                            break
                    yield self.env.timeout(0.1)
                    continue
        """)

    def test_service_loop_without_continue_is_clean(self):
        assert codes("""
            def run(self):
                while True:
                    yield self.env.timeout(self.think_time)
                    yield from self.issue()
        """) == []


class TestSeedThreadingRule:
    def test_builder_without_rng_fires(self):
        assert "SEED001" in codes("""
            def make(env, spec, bundle):
                return build_from_spec(env, spec, default_bundle=bundle)
        """)

    def test_spec_builder_without_rng_fires(self):
        assert "SEED001" in codes("""
            def make(env, spec):
                return build_from_spec(env, spec)
        """)

    def test_rng_keyword_is_clean(self):
        assert codes("""
            def make(env, spec, bundle, rng):
                return build_from_spec(env, spec, default_bundle=bundle,
                                       rng=rng)
        """) == []

    def test_rng_positional_is_clean(self):
        assert codes("""
            def make(env, spec, profile, rng):
                return build_from_spec(env, spec, profile, rng)
        """) == []

    def test_kwargs_passthrough_is_clean(self):
        assert codes("""
            def make(env, spec, **kwargs):
                return build_from_spec(env, spec, **kwargs)
        """) == []

    def test_fault_injector_without_rng_fires(self):
        assert "SEED001" in codes("""
            def arm(env):
                return FaultInjector(env)
        """)

    def test_unrelated_call_is_clean(self):
        assert codes("""
            def make(env):
                return build_widget(env)
        """) == []

    def test_self_method_with_builder_name_is_clean(self):
        # ``self.build_from_spec`` is a same-named method on this class,
        # not the module-level builder.
        assert codes("""
            class Harness:
                def make(self, env, spec):
                    return self.build_from_spec(env, spec)
        """) == []

    def test_cls_method_with_builder_name_is_clean(self):
        assert codes("""
            class Harness:
                @classmethod
                def make(cls, env, spec):
                    return cls.build_from_spec(env, spec)
        """) == []

    def test_module_qualified_builder_still_fires(self):
        assert "SEED001" in codes("""
            def make(env, spec):
                return topology.build_from_spec(env, spec)
        """)


# -- hot-path performance -------------------------------------------------

class TestPerfHotPathRule:
    SIM = "src/repro/sim/hotmod.py"
    TRACING = "src/repro/tracing/hotmod.py"
    SCHEDULER = "src/repro/sim/core.py"
    ELSEWHERE = "src/repro/cluster/runner.py"

    def test_heapq_import_in_sim_fires(self):
        assert "PERF001" in codes("import heapq\n", path=self.SIM)

    def test_heapq_from_import_in_tracing_fires(self):
        assert "PERF001" in codes("from heapq import heappush\n",
                                  path=self.TRACING)

    def test_heapq_call_in_sim_fires(self):
        assert "PERF001" in codes("""
            import heapq
            def schedule(entries, entry):
                heapq.heappush(entries, entry)
        """, path=self.SIM)

    def test_bare_heappush_call_fires(self):
        assert "PERF001" in codes("""
            def schedule(entries, entry):
                heappush(entries, entry)
        """, path=self.SIM)

    def test_scheduler_module_owns_its_heap(self):
        assert codes("""
            from heapq import heappop, heappush
            def schedule(sched, entry):
                heappush(sched, entry)
        """, path=self.SCHEDULER) == []

    def test_core_module_outside_sim_is_not_the_scheduler(self):
        assert "PERF001" in codes("import heapq\n",
                                  path="src/repro/tracing/core.py")

    def test_heapq_outside_sim_tracing_is_clean(self):
        assert codes("import heapq\n", path=self.ELSEWHERE) == []

    def test_event_construction_in_loop_fires(self):
        assert "PERF002" in codes("""
            def settle(env, waiters):
                for waiter in waiters:
                    event = Event(env)
                    event.succeed()
        """, path=self.SIM)

    def test_timeout_construction_in_while_loop_fires(self):
        assert "PERF002" in codes("""
            def drain(env):
                while env.peek() < 1.0:
                    Timeout(env, 0.1)
        """, path=self.SIM)

    def test_span_construction_in_loop_fires(self):
        assert "PERF002" in codes("""
            def expand(trace, names):
                for name in names:
                    trace.add(Span(name))
        """, path=self.TRACING)

    def test_single_construction_outside_loop_is_clean(self):
        assert codes("""
            def interrupt(env):
                event = Event(env)
                return event
        """, path=self.SIM) == []

    def test_factory_calls_in_loop_are_clean(self):
        assert codes("""
            def drain(env, n):
                for _ in range(n):
                    yield env.timeout(0.1)
        """, path=self.SIM) == []

    def test_loop_construction_outside_sim_tracing_is_clean(self):
        assert codes("""
            def build(env, n):
                return [Event(env) for _ in range(n)]
        """, path=self.ELSEWHERE) == []

    def test_dunder_new_pool_idiom_is_clean(self):
        assert codes("""
            def fill(env, pool, n, _new=Timeout.__new__, _cls=Timeout):
                for _ in range(n):
                    pool.append(_new(_cls))
        """, path=self.SIM) == []

    def test_construction_loop_in_init_is_clean(self):
        # Prewarming a pool in __init__ runs once per object, not per
        # event — setup code is exempt from the hot-loop heuristic.
        assert codes("""
            class Pool:
                __slots__ = ("_free",)

                def __init__(self, env, size):
                    self._free = []
                    for _ in range(size):
                        self._free.append(Event(env))
        """, path=self.SIM) == []

    def test_construction_loop_in_prewarm_helper_is_clean(self):
        assert codes("""
            def _prewarm_spans(trace, names):
                for name in names:
                    trace.add(Span(name))
        """, path=self.TRACING) == []

    def test_construction_loop_in_setup_helper_is_clean(self):
        assert codes("""
            def setup_events(env, n):
                return [Event(env) for _ in range(n)]
        """, path=self.SIM) == []

    def test_helper_nested_in_setup_is_exempt_too(self):
        # The exemption covers the whole lexical nest: a fill helper
        # defined inside a builder runs at build time, not per event.
        assert codes("""
            def build_pool(env, size):
                def fill(pool):
                    for _ in range(size):
                        pool.append(Event(env))
                pool = []
                fill(pool)
                return pool
        """, path=self.SIM) == []

    def test_setup_named_loop_outside_setup_function_still_fires(self):
        # Only the *enclosing function's* name grants the exemption;
        # module-level loops and ordinary dispatchers stay hot.
        assert "PERF002" in codes("""
            def dispatch(env, waiters):
                for waiter in waiters:
                    Event(env).succeed()
        """, path=self.SIM)

    def test_shipped_sim_and_tracing_trees_are_clean(self):
        root = pathlib.Path(__file__).resolve().parents[1] / "src/repro"
        for module_dir in ("sim", "tracing"):
            for path in sorted((root / module_dir).glob("*.py")):
                found = check_source(path.read_text(), str(path))
                perf = [f for f in found if f.code.startswith("PERF")]
                assert perf == [], path


# -- engine behaviour -----------------------------------------------------

class TestSuppressions:
    def test_same_line_suppression_by_rule_id(self):
        clean = """
            import time
            def stamp():
                return time.time()  # statan: ignore[determinism]
        """
        assert codes(clean) == []

    def test_same_line_suppression_by_code(self):
        assert codes("""
            def worker(env):
                yield env.timeout(1.0)
                return 42  # statan: ignore[PROC003]
        """) == []

    def test_bare_ignore_suppresses_everything(self):
        assert codes("""
            import time
            def stamp():
                return time.time()  # statan: ignore
        """) == []

    def test_wrong_id_does_not_suppress(self):
        assert "DET001" in codes("""
            import time
            def stamp():
                return time.time()  # statan: ignore[missing-slots]
        """)

    def test_marker_composes_with_other_comments(self):
        assert codes("""
            def get_endpoint(member):
                return None
                yield  # pragma: no cover; statan: ignore[PROC001]
        """) == []

    def test_suppressions_are_counted(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import time\n"
            "t = time.time()  # statan: ignore[determinism]\n")
        result = check_paths([str(module)])
        assert result.findings == []
        assert result.suppressed == 1

    def test_multi_rule_ignore_list(self):
        # One marker, several targets: both codes on the line go quiet,
        # whitespace around the commas notwithstanding.
        assert codes("""
            import time
            def stamp(env):
                yield env.timeout(1.0)
                return time.time()  # statan: ignore[DET001, PROC003]
        """) == []

    def test_multi_rule_ignore_only_silences_listed(self):
        found = codes("""
            import time
            def stamp():
                return time.time()  # statan: ignore[PROC003,missing-slots]
        """)
        assert "DET001" in found

    def test_suppression_on_decorator_line_covers_statement(self):
        # The marker can sit on the decorator even though the finding
        # anchors to the ``class`` line below it.
        assert codes("""
            @dataclass  # statan: ignore[SLOT001]
            class Hot:
                x: int
        """, path="src/repro/sim/mod.py") == []

    def test_suppression_on_header_line_of_decorated_class(self):
        assert codes("""
            @dataclass
            class Hot:  # statan: ignore[SLOT001]
                x: int
        """, path="src/repro/sim/mod.py") == []

    def test_suppression_anywhere_in_multiline_statement(self):
        # The call spans three lines; the finding anchors to the first,
        # the marker sits on the last.
        assert codes("""
            import time
            t = time.time(
                # wall-clock on purpose: display only
            )  # statan: ignore[DET001]
        """) == []

    def test_multiline_marker_does_not_leak_to_neighbours(self):
        found = codes("""
            import time
            t = time.time(
            )  # statan: ignore[DET001]
            u = time.time()
        """)
        assert found == ["DET001"]


class TestEngine:
    def test_syntax_error_becomes_finding(self):
        result = findings("def broken(:\n")
        assert [finding.code for finding in result] == ["STX001"]
        assert result[0].severity is Severity.ERROR

    def test_select_and_ignore_filter_rules(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import time\nt = time.time()\nyield_free = 1\n")
        selected = check_paths([str(module)], select=["missing-slots"])
        assert selected.findings == []
        ignored = check_paths([str(module)], ignore=["determinism"])
        assert ignored.findings == []
        default = check_paths([str(module)])
        assert [f.code for f in default.findings] == ["DET001"]

    def test_select_by_finding_code(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            import time
            def worker(env):
                t = time.time()
                yield env.timeout(1.0)
                return 42
        """))
        only_det = check_paths([str(module)], select=["DET001"])
        assert [f.code for f in only_det.findings] == ["DET001"]
        only_proc = check_paths([str(module)], select=["PROC003"])
        assert [f.code for f in only_proc.findings] == ["PROC003"]

    def test_ignore_by_finding_code_keeps_rule_siblings(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import time\nimport random\n"
            "t = time.time()\nx = random.random()\n")
        result = check_paths([str(module)], ignore=["DET001"])
        # Ignoring one code leaves the rule's other codes active.
        found = {f.code for f in result.findings}
        assert "DET001" not in found
        assert "DET004" in found  # global ``random`` use survives

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(StatanError):
            check_paths([str(tmp_path)], select=["no-such-rule"])

    def test_unknown_finding_code_raises(self, tmp_path):
        with pytest.raises(StatanError):
            check_paths([str(tmp_path)], select=["DET999"])

    def test_missing_path_raises(self):
        with pytest.raises(StatanError):
            check_paths(["definitely/not/here"])

    def test_min_severity_filters(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            def worker(env):
                yield env.timeout(1.0)
                return 42
        """))
        warn = check_paths([str(module)], min_severity=Severity.WARNING)
        assert [f.code for f in warn.findings] == ["PROC003"]
        err = check_paths([str(module)], min_severity=Severity.ERROR)
        assert err.findings == []

    def test_every_rule_has_id_and_codes(self):
        ids = [rule.id for rule in RULES]
        assert len(ids) == len(set(ids)) == 11
        for rule in RULES:
            assert rule.codes, rule.id
            assert rule.description, rule.id


class TestReporters:
    def _result(self, tmp_path) -> Result:
        module = tmp_path / "mod.py"
        module.write_text("import time\nt = time.time()\n")
        return check_paths([str(module)])

    def test_text_report_lists_findings_and_summary(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "DET001" in text
        assert "checked 1 file:" in text
        assert "1 error(s)" in text

    def test_json_schema(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        assert payload["baselined"] == 0
        assert set(payload["counts"]) == {"info", "warning", "error"}
        assert payload["counts"]["error"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path", "line", "col", "code", "rule", "severity", "message",
            "fingerprint"}
        assert finding["code"] == "DET001"
        assert finding["rule"] == "determinism"
        assert finding["severity"] == "error"
        assert finding["line"] == 2
        assert re.fullmatch(r"[0-9a-f]{40}", finding["fingerprint"])


# -- CLI ------------------------------------------------------------------

class TestStatanCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        module = tmp_path / "clean.py"
        module.write_text("VALUE = 1\n")
        assert cli_main(["statan", str(module)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        module = tmp_path / "dirty.py"
        module.write_text("import time\nt = time.time()\n")
        assert cli_main(["statan", str(module)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_exit_two_on_internal_error(self, tmp_path, capsys):
        missing = tmp_path / "not-there"
        assert cli_main(["statan", str(missing)]) == 2
        assert "statan: error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        module = tmp_path / "clean.py"
        module.write_text("VALUE = 1\n")
        assert cli_main(
            ["statan", str(module), "--select", "bogus"]) == 2
        capsys.readouterr()

    def test_json_format_and_min_severity(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            def worker(env):
                yield env.timeout(1.0)
                return 42
        """))
        assert cli_main(["statan", str(module), "--format", "json",
                         "--min-severity", "error"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert cli_main(["statan", str(module), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["PROC003"]

    def test_select_and_ignore_accept_finding_codes(self, tmp_path,
                                                    capsys):
        module = tmp_path / "mod.py"
        module.write_text(textwrap.dedent("""
            import time
            def worker(env):
                t = time.time()
                yield env.timeout(1.0)
                return 42
        """))
        assert cli_main(["statan", str(module), "--select", "PROC003",
                         "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["PROC003"]
        assert cli_main(["statan", str(module),
                         "--ignore", "DET001,PROC003"]) == 0
        capsys.readouterr()

    def test_repo_source_tree_is_clean(self, capsys):
        # The acceptance bar: zero unsuppressed findings in src/repro
        # beyond the reviewed fingerprints in statan-baseline.json.
        root = pathlib.Path(__file__).resolve().parent.parent
        assert cli_main(["statan", str(root / "src/repro"),
                         "--baseline",
                         str(root / "statan-baseline.json")]) == 0
        capsys.readouterr()
