"""Fixture tests for the repro-lint checker suite (rules RL001–RL014).

Each rule gets one known-good and one known-bad snippet; the suite also
covers suppressions, the JSON report round-trip, the CLI exit contract,
and — the acceptance check — that the real tree is clean *and* that
deliberately breaking an invariant (a ``Node`` cache, a ``to_thread``
wrapper, a read-only attach, a pickle boundary, a fault-site constant)
is caught.  The cross-module rules RL010–RL013 run in the project phase:
single-file fixtures go through ``lint_source`` as usual, multi-module
fixtures through ``project_lint`` (a temporary tree + ``analyze_paths``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisContext,
    Finding,
    all_checkers,
    analyze_paths,
    findings_from_json,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent

CORE_PATH = "src/repro/core/search.py"  # in scope for every rule


def rules_of(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


def lint(source: str, path: str = CORE_PATH, **kwargs) -> list[Finding]:
    return lint_source(source, path=path, **kwargs)


def test_all_thirteen_rules_registered():
    # ids are never renumbered: the gap after RL003 is a retired rule
    assert sorted(all_checkers()) == [
        "RL001", "RL002", "RL003", "RL005",
        "RL006", "RL007", "RL008", "RL009",
        "RL010", "RL011", "RL012", "RL013", "RL014",
    ]


def project_lint(
    tmp_path: Path, files: dict[str, str], select: list[str] | None = None
) -> list[Finding]:
    """Materialise ``files`` under ``tmp_path`` and lint the whole tree.

    The multi-module counterpart of :func:`lint` — cross-module rules
    need more than one file to resolve imports and call edges.
    """
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return analyze_paths([tmp_path], root=tmp_path, select=select)


# ----------------------------------------------------------------------
# RL001 — unseeded randomness
# ----------------------------------------------------------------------
RL001_GOOD = """
import random

def jiggle(seed: int) -> float:
    rng = random.Random(seed)
    return rng.random()
"""

RL001_BAD = """
import random
import numpy as np

def jiggle() -> float:
    np.random.default_rng()         # unseeded generator
    np.random.shuffle([1, 2, 3])    # numpy global RNG
    random.Random()                 # unseeded Random
    return random.random()          # stdlib global RNG
"""


def test_rl001_good():
    assert not lint(RL001_GOOD, select=["RL001"])


def test_rl001_bad():
    findings = lint(RL001_BAD, select=["RL001"])
    assert len(findings) == 4
    assert rules_of(findings) == {"RL001"}


def test_rl001_ignores_tests():
    assert not lint(RL001_BAD, path="tests/test_x.py", select=["RL001"])


# ----------------------------------------------------------------------
# RL002 — clock discipline
# ----------------------------------------------------------------------
RL002_GOOD = """
from repro.core.budget import Stopwatch

def run() -> float:
    watch = Stopwatch()
    return watch.elapsed()
"""

RL002_BAD = """
import time
from time import perf_counter

def run() -> float:
    started = time.perf_counter()
    time.monotonic()
    return time.time() - started
"""


def test_rl002_good():
    assert not lint(RL002_GOOD, select=["RL002"])


def test_rl002_bad():
    findings = lint(RL002_BAD, select=["RL002"])
    # the from-import plus three attribute accesses
    assert len(findings) == 4
    assert all(f.rule == "RL002" for f in findings)


@pytest.mark.parametrize(
    "path",
    [
        "src/repro/core/budget.py",
        "benchmarks/bench_x.py",
        "src/repro/obs/events.py",
    ],
)
def test_rl002_sanctioned_locations(path):
    assert not lint(RL002_BAD, path=path, select=["RL002"])


# ----------------------------------------------------------------------
# RL003 — Node cache invalidation
# ----------------------------------------------------------------------
RL003_GOOD = """
class Node:
    def add(self, rect, child):
        self.bounds.append(rect)
        self.children.append(child)
        self.invalidate_bounds_cache()

    def invalidate_bounds_cache(self):
        self._bounds_array = None
"""

RL003_BAD = """
class Node:
    def add(self, rect, child):
        self.bounds.append(rect)
        self.children.append(child)
"""

RL003_BRANCH_ONLY = """
class Node:
    def add(self, rect, child):
        self.bounds.append(rect)
        if child is not None:
            self._bounds_array = None
"""


def test_rl003_good():
    assert not lint(RL003_GOOD, select=["RL003"])


def test_rl003_bad():
    findings = lint(RL003_BAD, select=["RL003"])
    assert len(findings) == 2  # one per mutated attribute
    assert all(f.rule == "RL003" for f in findings)
    assert "Node.add" in findings[0].message


def test_rl003_branch_only_invalidation_is_not_enough():
    findings = lint(RL003_BRANCH_ONLY, select=["RL003"])
    assert len(findings) == 1
    assert "on this path" in findings[0].message


def test_rl003_direct_cache_assignment_counts():
    source = RL003_GOOD.replace(
        "self.invalidate_bounds_cache()", "self._bounds_array = None"
    )
    assert not lint(source, select=["RL003"])


# ----------------------------------------------------------------------
# RL005 — budget discipline
# ----------------------------------------------------------------------
RL005_GOOD = """
def search(instance, budget):
    best = None
    while not budget.exhausted():
        budget.tick()
        best = step(best)
    return best
"""

RL005_UNUSED_BUDGET = """
def search(instance, budget):
    best = None
    for _ in range(100):
        best = step(best)
    return best
"""

RL005_WHILE_TRUE = """
def search(instance, budget):
    budget.start()
    while True:
        step()
"""

RL005_RAW_COUNTER = """
def search(instance, budget, max_iterations):
    budget.start()
    for _ in range(max_iterations):
        step()
"""


def test_rl005_good():
    assert not lint(RL005_GOOD, select=["RL005"])


def test_rl005_unconsumed_budget():
    findings = lint(RL005_UNUSED_BUDGET, select=["RL005"])
    assert len(findings) == 1
    assert "never consumes" in findings[0].message


def test_rl005_unguarded_while_true():
    findings = lint(RL005_WHILE_TRUE, select=["RL005"])
    assert len(findings) == 1
    assert "while True" in findings[0].message


def test_rl005_raw_counter_loop():
    findings = lint(RL005_RAW_COUNTER, select=["RL005"])
    assert len(findings) == 1
    assert "range(max_iterations)" in findings[0].message


def test_rl005_only_applies_to_core():
    assert not lint(RL005_WHILE_TRUE, path="src/repro/joins/x.py", select=["RL005"])


# ----------------------------------------------------------------------
# RL006 — observability name discipline
# ----------------------------------------------------------------------
RL006_GOOD = """
from ..obs import current

def climb(evaluator):
    obs = current()
    with obs.span("gils.climb"):
        obs.counter("gils.local_maxima").inc()
"""

RL006_COMPUTED = """
from ..obs import current

def bump(kind):
    current().counter("gils." + kind).inc()
"""

RL006_MALFORMED = """
from ..obs import current

def bump():
    current().counter("GILS.LocalMaxima").inc()
    current().gauge("flat").set(1.0)
"""

RL006_UNREGISTERED = """
from ..obs import current

def bump():
    current().histogram("gils.freestyle_metric").observe(1.0)
"""


def context_with_obs_names(*names: str) -> AnalysisContext:
    return AnalysisContext(root=REPO_ROOT, obs_names=frozenset(names))


def test_rl006_good():
    findings = lint(
        RL006_GOOD,
        select=["RL006"],
        context=context_with_obs_names("gils.climb", "gils.local_maxima"),
    )
    assert not findings


def test_rl006_computed_name():
    findings = lint(RL006_COMPUTED, select=["RL006"])
    assert len(findings) == 1
    assert "string literal" in findings[0].message


def test_rl006_malformed_names():
    findings = lint(RL006_MALFORMED, select=["RL006"])
    assert len(findings) == 2
    assert all("dotted-lowercase" in f.message for f in findings)


def test_rl006_unregistered_name():
    findings = lint(
        RL006_UNREGISTERED,
        select=["RL006"],
        context=context_with_obs_names("gils.climb"),
    )
    assert len(findings) == 1
    assert "not registered" in findings[0].message


def test_rl006_registry_skipped_when_missing():
    findings = lint(
        RL006_UNREGISTERED,
        select=["RL006"],
        context=AnalysisContext(root=REPO_ROOT, obs_names=None),
    )
    assert not findings


@pytest.mark.parametrize(
    "path", ["src/repro/obs/metrics.py", "tests/test_obs.py"]
)
def test_rl006_exempt_locations(path):
    assert not lint(RL006_COMPUTED, path=path, select=["RL006"])


def test_rl006_registry_loaded_from_root():
    context = AnalysisContext.from_root(REPO_ROOT)
    assert context.obs_names is not None
    assert "gils.climb" in context.obs_names
    assert "index.node_reads" in context.obs_names


# ----------------------------------------------------------------------
# RL007 — service budget discipline
# ----------------------------------------------------------------------
SERVICE_PATH = "src/repro/service/worker.py"

RL007_GOOD = """
from ..core.parallel import parallel_restarts

def run(instance, ticket, job):
    return parallel_restarts(
        instance, ticket.budget(job.max_iterations), seed=job.seed, workers=1
    )
"""

RL007_GOOD_KEYWORD = """
from ..core.budget import Budget
from ..core.gils import guided_indexed_local_search

def run(instance, deadline):
    solve_budget = Budget(time_limit=deadline)
    return guided_indexed_local_search(instance, budget=solve_budget)
"""

RL007_BAD = """
from ..core.parallel import parallel_restarts

def run(instance, job):
    return parallel_restarts(instance, seed=job.seed, workers=1)
"""


def test_rl007_good_ticket_budget():
    assert not lint(RL007_GOOD, path=SERVICE_PATH, select=["RL007"])


def test_rl007_good_budget_keyword():
    assert not lint(RL007_GOOD_KEYWORD, path=SERVICE_PATH, select=["RL007"])


def test_rl007_bad_unbounded_solver_call():
    findings = lint(RL007_BAD, path=SERVICE_PATH, select=["RL007"])
    assert len(findings) == 1
    assert findings[0].rule == "RL007"
    assert "unbounded" in findings[0].message


def test_rl007_only_applies_inside_service():
    assert not lint(RL007_BAD, path=CORE_PATH, select=["RL007"])
    assert not lint(
        RL007_BAD, path="tests/test_service.py", select=["RL007"]
    )


def test_rl007_ignores_non_solver_calls():
    source = """
def build(record):
    return solve_request("r1", instance=record["instance"])
"""
    assert not lint(source, path=SERVICE_PATH, select=["RL007"])


# ----------------------------------------------------------------------
# RL008 — structured error handling
# ----------------------------------------------------------------------
RL008_GOOD_CLASSIFIED = """
from .errors import classify_exception

def handle(request_id, op):
    try:
        return dispatch(op)
    except Exception as error:
        classified = classify_exception(error)
        return error_response(request_id, op, classified.code, classified.message)
"""

RL008_GOOD_RERAISE = """
def run(pool):
    try:
        return pool.submit(step)
    except BaseException:
        terminate(pool)
        raise
"""

RL008_GOOD_SPECIFIC = """
def close(sock):
    try:
        sock.close()
    except (ConnectionError, OSError):
        pass
"""

RL008_BAD_SWALLOWED = """
def handle(op):
    try:
        return dispatch(op)
    except Exception:
        return None
"""

RL008_BAD_BARE = """
def handle(op):
    try:
        return dispatch(op)
    except:
        return None
"""

RL008_BAD_TUPLE = """
def handle(op):
    try:
        return dispatch(op)
    except (ValueError, Exception) as error:
        log(error)
"""


def test_rl008_classified_handler_is_clean():
    assert not lint(RL008_GOOD_CLASSIFIED, path=SERVICE_PATH, select=["RL008"])


def test_rl008_reraising_handler_is_clean():
    assert not lint(RL008_GOOD_RERAISE, path=SERVICE_PATH, select=["RL008"])


def test_rl008_specific_exceptions_are_clean():
    assert not lint(RL008_GOOD_SPECIFIC, path=SERVICE_PATH, select=["RL008"])


def test_rl008_swallowed_broad_handler():
    findings = lint(RL008_BAD_SWALLOWED, path=SERVICE_PATH, select=["RL008"])
    assert len(findings) == 1
    assert findings[0].rule == "RL008"
    assert "classify_exception" in findings[0].message


def test_rl008_bare_except():
    findings = lint(RL008_BAD_BARE, path=SERVICE_PATH, select=["RL008"])
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_rl008_broad_member_of_tuple():
    findings = lint(RL008_BAD_TUPLE, path=SERVICE_PATH, select=["RL008"])
    assert len(findings) == 1


def test_rl008_applies_to_core_parallel():
    findings = lint(
        RL008_BAD_SWALLOWED, path="src/repro/core/parallel.py", select=["RL008"]
    )
    assert len(findings) == 1


def test_rl008_out_of_scope_locations():
    assert not lint(RL008_BAD_SWALLOWED, path=CORE_PATH, select=["RL008"])
    assert not lint(
        RL008_BAD_SWALLOWED, path="tests/test_service.py", select=["RL008"]
    )


# ----------------------------------------------------------------------
# RL009 — shared-memory segment lifecycle
# ----------------------------------------------------------------------
WARM_PATH = "src/repro/warm/segments.py"

RL009_GOOD_WITH = """
from multiprocessing import shared_memory

def peek(name):
    with shared_memory.SharedMemory(name=name) as shm:
        return bytes(shm.buf[:8])
"""

RL009_GOOD_TRY_EXCEPT = """
from multiprocessing import shared_memory

def publish(name, size):
    shm = None
    try:
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    except BaseException:
        if shm is not None:
            shm.close()
            shm.unlink()
        raise
    return shm
"""

RL009_GOOD_TRY_FINALLY = """
from multiprocessing import shared_memory

def copy_out(name):
    try:
        shm = shared_memory.SharedMemory(name=name)
        return bytes(shm.buf)
    finally:
        shm.close()
"""

RL009_BAD_CREATION_BEFORE_TRY = """
from multiprocessing import shared_memory

def copy_out(name):
    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytes(shm.buf)
    finally:
        shm.close()
"""

RL009_BAD_NAKED = """
from multiprocessing import shared_memory

def publish(name, size):
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    return shm
"""

RL009_BAD_NO_CLEANUP = """
from multiprocessing import shared_memory

def publish(name, size):
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        return None
"""


def test_rl009_context_manager_is_clean():
    assert not lint(RL009_GOOD_WITH, path=WARM_PATH, select=["RL009"])


def test_rl009_guarded_try_except_is_clean():
    assert not lint(RL009_GOOD_TRY_EXCEPT, path=WARM_PATH, select=["RL009"])


def test_rl009_try_finally_is_clean():
    assert not lint(RL009_GOOD_TRY_FINALLY, path=WARM_PATH, select=["RL009"])


def test_rl009_creation_before_the_try_is_flagged():
    # the creation line itself sits outside any guard: an exception
    # between it and the try (however unlikely) strands the segment
    findings = lint(
        RL009_BAD_CREATION_BEFORE_TRY, path=WARM_PATH, select=["RL009"]
    )
    assert len(findings) == 1


def test_rl009_naked_creation():
    findings = lint(RL009_BAD_NAKED, path=WARM_PATH, select=["RL009"])
    assert len(findings) == 1
    assert findings[0].rule == "RL009"
    assert "leak" in findings[0].message


def test_rl009_try_without_cleanup():
    findings = lint(RL009_BAD_NO_CLEANUP, path=WARM_PATH, select=["RL009"])
    assert len(findings) == 1


def test_rl009_out_of_scope_locations():
    assert not lint(RL009_BAD_NAKED, path=SERVICE_PATH, select=["RL009"])
    assert not lint(RL009_BAD_NAKED, path=CORE_PATH, select=["RL009"])
    assert not lint(
        RL009_BAD_NAKED, path="tests/test_warm.py", select=["RL009"]
    )


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_line_suppression():
    source = RL002_BAD.replace(
        "time.monotonic()",
        "time.monotonic()  # repro-lint: disable=RL002",
    )
    findings = lint(source, select=["RL002"])
    assert len(findings) == 3  # one of four muted


def test_file_suppression():
    source = "# repro-lint: disable-file=RL002\n" + RL002_BAD
    assert not lint(source, select=["RL002"])


def test_disable_all():
    source = RL002_BAD.replace(
        "time.monotonic()", "time.monotonic()  # repro-lint: disable=all"
    )
    assert len(lint(source, select=["RL002"])) == 3


def test_directive_inside_string_is_inert():
    source = 'FIXTURE = """\n# repro-lint: disable-file=RL002\n"""\n' + RL002_BAD
    assert len(lint(source, select=["RL002"])) == 4


# ----------------------------------------------------------------------
# reporters, CLI and the real tree
# ----------------------------------------------------------------------
def test_json_report_round_trips():
    findings = lint(RL002_BAD, select=["RL002"])
    assert findings
    assert findings_from_json(render_json(findings)) == findings
    assert render_text(findings).count("RL002") == len(findings)


def test_syntax_error_reported_not_raised():
    findings = lint("def broken(:\n", select=["RL001"])
    assert [f.rule for f in findings] == ["RL000"]


def test_unknown_rule_rejected():
    with pytest.raises(ValueError):
        lint("x = 1", select=["RL999"])


def test_repo_tree_is_clean():
    """The acceptance gate: repro-lint src tests benchmarks examples."""
    findings = analyze_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        root=REPO_ROOT,
    )
    assert findings == [], render_text(findings)


def test_breaking_node_invariant_is_caught():
    """Removing one invalidation call from Node.add must trip RL003."""
    node_source = (REPO_ROOT / "src/repro/index/node.py").read_text()
    sabotaged = node_source.replace(
        "        self.bounds.append(rect)\n"
        "        self.children.append(child)\n"
        "        self.invalidate_bounds_cache()\n",
        "        self.bounds.append(rect)\n"
        "        self.children.append(child)\n",
    )
    assert sabotaged != node_source, "Node.add no longer matches expected shape"
    findings = lint_source(sabotaged, path="src/repro/index/node.py")
    assert rules_of(findings) == {"RL003"}
    assert len(findings) == 2


def test_cli_text_and_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean), "--root", str(tmp_path)]) == 0
    assert "no findings" in capsys.readouterr().out

    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\nNOW = time.time()\n")
    assert lint_main([str(dirty), "--root", str(tmp_path)]) == 1
    assert "RL002" in capsys.readouterr().out


def test_cli_json_round_trips(tmp_path, capsys):
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\nNOW = time.time()\n")
    code = lint_main([str(dirty), "--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = capsys.readouterr().out
    findings = findings_from_json(payload)
    assert [f.rule for f in findings] == ["RL002"]
    assert json.loads(payload)["version"] == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    rules = [line.split()[0] for line in out.splitlines() if line.startswith("RL")]
    assert rules == sorted(all_checkers())


def test_cli_select_and_disable(tmp_path, capsys):
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\nNOW = time.time()\n")
    assert (
        lint_main([str(dirty), "--root", str(tmp_path), "--disable", "RL002"]) == 0
    )
    capsys.readouterr()
    assert (
        lint_main([str(dirty), "--root", str(tmp_path), "--select", "RL001"]) == 0
    )
    capsys.readouterr()


# ----------------------------------------------------------------------
# RL010 — no blocking calls on async service paths (project phase)
# ----------------------------------------------------------------------
SERVICE_PATH = "src/repro/service/handler.py"

RL010_GOOD = """
import asyncio

async def handler(loop, pool):
    await asyncio.sleep(0.1)
    await loop.run_in_executor(pool, load)
    return await asyncio.to_thread(load)

def load():
    return open("data")  # only ever reached through an executor
"""

RL010_BAD = """
import time

async def handler(job):
    time.sleep(0.05)
    data = job.future.result()
    return load(data)

def load(path):
    return open(path)
"""


def test_rl010_good():
    assert not lint(RL010_GOOD, path=SERVICE_PATH, select=["RL010"])


def test_rl010_bad():
    findings = lint(RL010_BAD, path=SERVICE_PATH, select=["RL010"])
    assert rules_of(findings) == {"RL010"}
    # the direct sleep, the Future.result, and the transitive open()
    assert len(findings) == 3
    transitive = [f for f in findings if "open" in f.message]
    assert len(transitive) == 1
    assert transitive[0].chain[-1] == "open"
    assert transitive[0].chain[0].startswith("repro.service.handler.handler ")


def test_rl010_only_applies_to_service_async_defs():
    # same blocking body outside service/ (or in a sync def) is fine
    assert not lint(RL010_BAD, path="src/repro/core/search.py", select=["RL010"])
    sync_version = RL010_BAD.replace("async def", "def")
    assert not lint(sync_version, path=SERVICE_PATH, select=["RL010"])


def test_rl010_sabotage_reverting_to_thread_fix(tmp_path):
    """Re-inlining registry.warm() into async start() must trip RL010."""
    server = (REPO_ROOT / "src/repro/service/server.py").read_text()
    sabotaged = server.replace(
        "await asyncio.to_thread(self.registry.warm)",
        "self.registry.warm()",
    )
    assert sabotaged != server, "server.start no longer matches expected shape"
    files = {
        "src/repro/service/server.py": sabotaged,
        "src/repro/service/registry.py": (
            REPO_ROOT / "src/repro/service/registry.py"
        ).read_text(),
        "src/repro/data/io.py": (REPO_ROOT / "src/repro/data/io.py").read_text(),
    }
    baseline = dict(files)
    baseline["src/repro/service/server.py"] = server
    assert not project_lint(tmp_path / "clean", baseline, select=["RL010"])
    findings = project_lint(tmp_path / "dirty", files, select=["RL010"])
    assert rules_of(findings) == {"RL010"}
    assert any("warm" in finding.message for finding in findings)


# ----------------------------------------------------------------------
# RL011 — attached warm-plane arrays are immutable (project phase)
# ----------------------------------------------------------------------
WARM_PATH = "src/repro/warm/consumer.py"

RL011_GOOD = """
def snapshot(manager, spec):
    table = manager.attach(spec)
    local = table.copy()
    local[0] = 0.0
    return local
"""

RL011_BAD = """
def corrupt(manager, spec):
    table = manager.attach(spec)
    table[0, 0] = -1.0
"""


def test_rl011_good():
    assert not lint(RL011_GOOD, path=WARM_PATH, select=["RL011"])


def test_rl011_bad():
    findings = lint(RL011_BAD, path=WARM_PATH, select=["RL011"])
    assert rules_of(findings) == {"RL011"}
    assert len(findings) == 1


def test_rl011_interprocedural_chain():
    source = (
        "def clobber(arr):\n"
        "    arr.fill(0.0)\n"
        "\n"
        "def use(manager, spec):\n"
        "    view = manager.attach(spec)\n"
        "    clobber(view)\n"
    )
    (finding,) = lint(source, path=WARM_PATH, select=["RL011"])
    assert finding.chain == ("repro.warm.consumer.use", "repro.warm.consumer.clobber")


def test_rl011_sabotage_mutating_attach_dataset():
    """An in-place store on the freshly attached table must trip RL011."""
    plane = (REPO_ROOT / "src/repro/warm/plane.py").read_text()
    sabotaged = plane.replace(
        "        table = active.attach(spec.columns)\n",
        "        table = active.attach(spec.columns)\n"
        "        table[0, 0] = 0.0\n",
    )
    assert sabotaged != plane, "attach_dataset no longer matches expected shape"
    findings = lint_source(sabotaged, path="src/repro/warm/plane.py", select=["RL011"])
    assert rules_of(findings) == {"RL011"}


# ----------------------------------------------------------------------
# RL012 — only spec-vocabulary values cross the pickle boundary
# ----------------------------------------------------------------------
RL012_GOOD = """
from dataclasses import dataclass

@dataclass
class Task:
    seed: int

def run_task(task):
    return task.seed

def dispatch(pool, seed):
    return pool.submit(run_task, Task(seed))
"""

RL012_BAD = """
import threading

class Live:
    pass

def dispatch(pool, items):
    return pool.submit(lambda: items, threading.Lock(), Live())
"""


def test_rl012_good():
    assert not lint(RL012_GOOD, select=["RL012"])


def test_rl012_bad():
    findings = lint(RL012_BAD, select=["RL012"])
    assert rules_of(findings) == {"RL012"}
    messages = " | ".join(finding.message for finding in findings)
    assert "lambda" in messages
    assert "threading.Lock" in messages
    assert "Live" in messages
    assert len(findings) == 3


def test_rl012_local_closure_and_containers():
    source = (
        "def dispatch(pool, items):\n"
        "    def job():\n"
        "        return items\n"
        "    return pool.submit(run, [job, 42])\n"
    )
    (finding,) = lint(source, select=["RL012"])
    assert "closure" in finding.message


def test_rl012_sabotage_lambda_in_member_dispatch():
    """A lambda in the parallel member dispatch must trip RL012."""
    parallel = (REPO_ROOT / "src/repro/core/parallel.py").read_text()
    sabotaged = parallel.replace(
        "executor.submit(run,", "executor.submit(lambda *task: None,"
    )
    assert sabotaged != parallel, "dispatch no longer matches expected shape"
    assert not lint_source(
        parallel, path="src/repro/core/parallel.py", select=["RL012"]
    )
    findings = lint_source(
        sabotaged, path="src/repro/core/parallel.py", select=["RL012"]
    )
    assert rules_of(findings) == {"RL012"}


# ----------------------------------------------------------------------
# RL013 — fault-site consistency (project phase)
# ----------------------------------------------------------------------
RL013_HOOKS = """
SITE_ALPHA = "alpha.start"
SITE_BETA = "beta.stop"

def fault_point(site, **context):
    return False
"""

RL013_GOOD_CONSUMER = """
from repro.faults.hooks import SITE_ALPHA, fault_point

def run():
    fault_point(SITE_ALPHA)
    fault_point("beta.stop")
"""

RL013_BAD_CONSUMER = """
from repro.faults.hooks import SITE_ALPHA, fault_point

def run(name):
    fault_point(SITE_ALPHA)
    fault_point("gamma.boom")
    fault_point("fault." + name)
"""


def test_rl013_good(tmp_path):
    findings = project_lint(
        tmp_path,
        {
            "src/repro/faults/hooks.py": RL013_HOOKS,
            "src/repro/faults/consumer.py": RL013_GOOD_CONSUMER,
        },
        select=["RL013"],
    )
    assert findings == [], render_text(findings)


def test_rl013_bad(tmp_path):
    findings = project_lint(
        tmp_path,
        {
            "src/repro/faults/hooks.py": RL013_HOOKS,
            "src/repro/faults/consumer.py": RL013_BAD_CONSUMER,
        },
        select=["RL013"],
    )
    assert rules_of(findings) == {"RL013"}
    messages = " | ".join(finding.message for finding in findings)
    assert "'gamma.boom'" in messages            # undeclared literal
    assert "computed value" in messages          # concatenated site name
    assert "SITE_BETA" in messages               # dead declaration
    dead = [f for f in findings if "SITE_BETA" in f.message]
    assert dead[0].path.endswith("faults/hooks.py")
    assert len(findings) == 3


def test_rl013_skips_when_hooks_module_absent():
    # a lone module referencing sites cannot be validated: stay silent
    assert not lint(
        RL013_BAD_CONSUMER, path="src/repro/faults/consumer.py", select=["RL013"]
    )


def test_rl013_sabotage_undeclared_site_literal(tmp_path):
    """Replacing a SITE_* constant with a typo literal must trip RL013."""
    worker = (REPO_ROOT / "src/repro/service/worker.py").read_text()
    sabotaged = worker.replace(
        "fault_point(SITE_SERVICE_JOB,", 'fault_point("service.jobz",'
    )
    assert sabotaged != worker, "worker no longer matches expected shape"
    files = {
        "src/repro/faults/hooks.py": (
            REPO_ROOT / "src/repro/faults/hooks.py"
        ).read_text(),
        "src/repro/service/worker.py": sabotaged,
        "src/repro/core/parallel.py": (
            REPO_ROOT / "src/repro/core/parallel.py"
        ).read_text(),
        # every declared SITE_* needs its consumer in the mini-project,
        # or the clean baseline trips the dead-declaration arm
        "src/repro/fleet/router.py": (
            REPO_ROOT / "src/repro/fleet/router.py"
        ).read_text(),
        "src/repro/fleet/supervisor.py": (
            REPO_ROOT / "src/repro/fleet/supervisor.py"
        ).read_text(),
    }
    baseline = dict(files)
    baseline["src/repro/service/worker.py"] = worker
    assert not project_lint(tmp_path / "clean", baseline, select=["RL013"])
    findings = project_lint(tmp_path / "dirty", files, select=["RL013"])
    assert rules_of(findings) == {"RL013"}
    messages = " | ".join(finding.message for finding in findings)
    assert "'service.jobz'" in messages          # the typo reference
    assert "SITE_SERVICE_JOB" in messages        # the now-dead declaration


# ----------------------------------------------------------------------
# RL014 — benchmark results must go through the benchmark ledger
# ----------------------------------------------------------------------
RL014_GOOD = """
from repro.bench.ledger import emit_sections

def flush(results):
    emit_sections("demo", [
        {"section": "hot", "value": results["hot"], "unit": "s",
         "better": "lower"},
    ])
"""

RL014_BAD = """
import json

def flush(results):
    with open("demo.json", "w") as handle:
        json.dump(results, handle)
    with open("demo2.json", "w") as handle:
        json.dump({"sections": results}, handle, indent=2)
"""

BENCH_PATH = "benchmarks/bench_demo.py"


def test_rl014_good():
    assert not lint(RL014_GOOD, path=BENCH_PATH, select=["RL014"])


def test_rl014_bad():
    findings = lint(RL014_BAD, path=BENCH_PATH, select=["RL014"])
    assert len(findings) == 2
    assert rules_of(findings) == {"RL014"}
    messages = " | ".join(finding.message for finding in findings)
    assert "json.dump" in messages
    assert all("benchmark ledger" in finding.message for finding in findings)


def test_rl014_only_applies_to_benchmarks():
    # src/ callers of json.dump are out of scope — the rule polices the
    # benchmark emitters, not the reporting module
    assert not lint(RL014_BAD, path=CORE_PATH, select=["RL014"])
    assert not lint(RL014_BAD, path="src/repro/bench/reporting.py",
                    select=["RL014"])


def test_rl014_real_benchmarks_are_clean():
    for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        findings = lint_source(
            path.read_text(), path=f"benchmarks/{path.name}", select=["RL014"]
        )
        assert findings == [], render_text(findings)


def test_rl014_sabotage_raw_writer_in_real_bench():
    """Bypassing the ledger in a real benchmark file must trip RL014."""
    bench = (REPO_ROOT / "benchmarks/bench_faults.py").read_text()
    sabotaged = bench.replace("emit_sections(", "json.dump(")
    assert sabotaged != bench, "bench no longer matches expected shape"
    findings = lint_source(
        sabotaged, path="benchmarks/bench_faults.py", select=["RL014"]
    )
    assert rules_of(findings) == {"RL014"}
    assert "json.dump" in findings[0].message


# ----------------------------------------------------------------------
# suppression edge cases (project findings + directives)
# ----------------------------------------------------------------------
def test_one_directive_disables_multiple_rules():
    source = (
        "import time, random\n"
        "def f():\n"
        "    return time.time() + random.random()"
        "  # repro-lint: disable=RL001,RL002\n"
    )
    assert not lint(source, select=["RL001", "RL002"])


def test_disable_file_after_imports_still_covers_whole_file():
    source = (
        "import time\n"
        "NOW = time.time()\n"
        "\n"
        "# repro-lint: disable-file=RL002\n"
    )
    assert not lint(source, select=["RL002"])


def test_project_finding_suppressed_at_anchor_line():
    source = RL010_BAD.replace(
        "    time.sleep(0.05)",
        "    time.sleep(0.05)  # repro-lint: disable=RL010",
    )
    findings = lint(source, path=SERVICE_PATH, select=["RL010"])
    # the other two findings survive; only the anchored one is dropped
    assert len(findings) == 2
    assert all("sleep" not in finding.message for finding in findings)


def test_project_finding_chain_round_trips_through_json():
    findings = lint(RL010_BAD, path=SERVICE_PATH, select=["RL010"])
    assert any(finding.chain for finding in findings)
    restored = findings_from_json(render_json(findings))
    assert restored == findings
    for finding in restored:
        assert isinstance(finding.chain, tuple)


# ----------------------------------------------------------------------
# --stats
# ----------------------------------------------------------------------
def test_cli_stats_reports_findings_and_suppressions(tmp_path, capsys):
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(
        "import time\n"
        "NOW = time.time()\n"
        "LATER = time.time()  # repro-lint: disable=RL002\n"
    )
    assert lint_main([str(dirty), "--root", str(tmp_path), "--stats"]) == 1
    captured = capsys.readouterr()
    assert "RL002" in captured.out
    assert "repro-lint stats: 1 file(s) analyzed" in captured.err
    row = next(
        line for line in captured.err.splitlines() if line.strip().startswith("RL002")
    )
    assert row.split() == ["RL002", "1", "1"]


def test_cli_stats_clean_tree(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean), "--root", str(tmp_path), "--stats"]) == 0
    assert "no findings, no suppressions" in capsys.readouterr().err
