"""Unit tests for the whole-program model (repro.analysis.project).

Covers the machinery the cross-module rules RL010–RL013 stand on:
module naming, import resolution (absolute, aliased, relative),
import-graph cycle detection, call-graph resolution through symbol
tables (``self.method()``, ``Class.method()``, ``module.func()``,
``__init__``-typed attributes), opaque edges, deferral exemption,
reachability witnesses, and the taint pass.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import AnalysisContext, Module, module_name_for_path
from repro.analysis.project import ProjectModel, TaintAnalysis


def make_module(path: str, source: str) -> Module:
    return Module(
        path=path,
        source=source,
        tree=ast.parse(source),
        context=AnalysisContext(root=Path(".")),
    )


def build(files: dict[str, str]) -> ProjectModel:
    return ProjectModel([make_module(path, src) for path, src in files.items()])


# ----------------------------------------------------------------------
# module naming and imports
# ----------------------------------------------------------------------
def test_module_name_for_path():
    assert module_name_for_path("src/repro/service/server.py") == "repro.service.server"
    assert module_name_for_path("src/repro/warm/__init__.py") == "repro.warm"
    assert module_name_for_path("benchmarks/bench_rtree.py") == "benchmarks.bench_rtree"
    assert module_name_for_path("tests/test_lint.py") == "tests.test_lint"


def test_import_resolution_absolute_aliased_and_relative():
    model = build(
        {
            "src/pkg/a.py": "import time\nimport numpy as np\n",
            "src/pkg/sub/b.py": (
                "from ..a import helper\n"
                "from .c import thing\n"
                "from . import c\n"
            ),
            "src/pkg/sub/c.py": "def thing():\n    pass\n",
            "src/pkg/__init__.py": "",
        }
    )
    a = model.modules["pkg.a"]
    assert a.imports["time"] == "time"
    assert a.imports["np"] == "numpy"
    b = model.modules["pkg.sub.b"]
    assert b.imports["helper"] == "pkg.a.helper"
    assert b.imports["thing"] == "pkg.sub.c.thing"
    assert b.imports["c"] == "pkg.sub.c"


def test_import_graph_and_cycles():
    model = build(
        {
            "src/pkg/a.py": "from .b import f\n",
            "src/pkg/b.py": "from .a import g\n",
            "src/pkg/c.py": "from .a import g\n",
        }
    )
    assert model.import_graph["pkg.a"] == {"pkg.b"}
    assert model.import_graph["pkg.b"] == {"pkg.a"}
    assert model.import_graph["pkg.c"] == {"pkg.a"}
    assert model.import_cycles() == [["pkg.a", "pkg.b"]]


def test_reexport_chasing_through_package_init():
    model = build(
        {
            "src/pkg/__init__.py": "from .hooks import fault_point\n",
            "src/pkg/hooks.py": "def fault_point(site):\n    pass\n",
            "src/pkg/user.py": (
                "from pkg import fault_point\n"
                "def use():\n    fault_point('x')\n"
            ),
        }
    )
    user = model.functions["pkg.user.use"]
    (edge,) = user.edges
    assert edge.resolved
    assert edge.target == "pkg.hooks.fault_point"


# ----------------------------------------------------------------------
# call-graph resolution
# ----------------------------------------------------------------------
CALLGRAPH_FILES = {
    "src/pkg/registry.py": (
        "class Registry:\n"
        "    def warm(self):\n"
        "        return self.load()\n"
        "    def load(self):\n"
        "        return open('data')\n"
    ),
    "src/pkg/server.py": (
        "from .registry import Registry\n"
        "\n"
        "class Server:\n"
        "    def __init__(self, registry: Registry):\n"
        "        self.registry = registry\n"
        "    def boot(self):\n"
        "        self.registry.warm()\n"
        "        self.helper()\n"
        "        Registry.load(self.registry)\n"
        "        unknown.thing()\n"
        "    def helper(self):\n"
        "        pass\n"
    ),
}


def test_call_graph_resolution_tiers():
    model = build(CALLGRAPH_FILES)
    boot = model.functions["pkg.server.Server.boot"]
    targets = {edge.target: edge.resolved for edge in boot.edges}
    # self.attr.method() via __init__-annotated attribute typing
    assert targets["pkg.registry.Registry.warm"] is True
    # self.method() on the owning class
    assert targets["pkg.server.Server.helper"] is True
    # Class.method() through the import table
    assert targets["pkg.registry.Registry.load"] is True
    # unknown receivers stay opaque, with their dotted text preserved
    assert targets["unknown.thing"] is False


def test_reaching_returns_witness_chain():
    model = build(CALLGRAPH_FILES)
    witness = model.reaching(
        lambda edge: not edge.resolved and edge.target == "open"
    )
    assert "pkg.registry.Registry.load" in witness
    assert "pkg.registry.Registry.warm" in witness
    _, chain = witness["pkg.registry.Registry.warm"]
    assert chain == ("pkg.registry.Registry.load", "open")


def test_deferral_arguments_produce_no_edges():
    model = build(
        {
            "src/pkg/s.py": (
                "import asyncio, functools, time\n"
                "async def handler(loop, pool):\n"
                "    await loop.run_in_executor(pool, functools.partial(work))\n"
                "    await asyncio.to_thread(time.sleep, 1)\n"
                "def work():\n"
                "    pass\n"
            ),
        }
    )
    handler = model.functions["pkg.s.handler"]
    targets = {edge.target for edge in handler.edges}
    assert "functools.partial" not in targets
    assert "time.sleep" not in targets
    assert any(t.endswith("run_in_executor") for t in targets)


def test_nested_defs_are_not_edges_of_the_encloser():
    model = build(
        {
            "src/pkg/n.py": (
                "import time\n"
                "def outer():\n"
                "    def inner():\n"
                "        time.sleep(1)\n"
                "    return inner\n"
            ),
        }
    )
    outer = model.functions["pkg.n.outer"]
    assert all(edge.target != "time.sleep" for edge in outer.edges)


# ----------------------------------------------------------------------
# taint
# ----------------------------------------------------------------------
def attach_source(edge):
    return edge.target.endswith(".attach")


def test_taint_propagates_through_calls_and_copy_sanitizes():
    model = build(
        {
            "src/pkg/warm.py": (
                "def mutate(arr):\n"
                "    arr[0] = 1.0\n"
                "\n"
                "def safe(arr):\n"
                "    local = arr.copy()\n"
                "    local[0] = 1.0\n"
                "\n"
                "def use(manager, spec):\n"
                "    view = manager.attach(spec)\n"
                "    mutate(view)\n"
                "    safe(view)\n"
            ),
        }
    )
    violations = TaintAnalysis(model, attach_source).run()
    assert len(violations) == 1
    (violation,) = violations
    assert violation.function == "pkg.warm.mutate"
    assert violation.chain == ("pkg.warm.use", "pkg.warm.mutate")


def test_taint_through_returning_functions_and_reassignment_kill():
    model = build(
        {
            "src/pkg/warm.py": (
                "def get(manager, spec):\n"
                "    return manager.attach(spec)\n"
                "\n"
                "def use(manager, spec):\n"
                "    view = get(manager, spec)\n"
                "    view += 1\n"
                "    view = view.copy()\n"
                "    view[0] = 2.0\n"
            ),
        }
    )
    violations = TaintAnalysis(model, attach_source).run()
    # the augmented assignment fires; after the .copy() rebind the
    # subscript store is clean
    assert len(violations) == 1
    assert "augmented" in violations[0].description


def test_taint_views_stay_tainted():
    model = build(
        {
            "src/pkg/warm.py": (
                "def use(manager, spec):\n"
                "    table = manager.attach(spec)\n"
                "    row = table[0]\n"
                "    row.fill(0.0)\n"
            ),
        }
    )
    violations = TaintAnalysis(model, attach_source).run()
    assert len(violations) == 1
    assert ".fill()" in violations[0].description
