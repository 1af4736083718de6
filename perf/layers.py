"""Per-layer probes: public calls of single modules, timed from outside.

Each probe takes its inputs from the workload's own instance (its first one
when there are several), so a layer number is always read at the data size
the end-to-end number was measured at.  Values come back as
``{name: (value, samples)}``; units live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import QueryEvaluator, QueryGraph, RStarTree, bulk_load, find_best_value, search
from repro.data.generators import uniform_dataset
from repro.geometry.kernels import count_satisfied
from repro.index.bulk import pack_tree, tree_from_packed
from repro.query.hardness import ProblemInstance
from repro.query.io import load_instance, save_instance
from repro.service.admission import AdmissionController
from repro.service.cache import CacheEntry, SolutionCache, canonical_query_key, solve_cache_key
from repro.service.protocol import solve_request, validate_request
from repro.warm.plane import WarmPlane, attach_dataset
from repro.warm.segments import SegmentManager

__all__ = ["probe_layers"]

Metrics = dict[str, tuple[float, int]]

#: dynamic inserts timed per probe (a full N = 100 000 build would take minutes)
_INSERT_SAMPLE = 2_000


def _median_seconds(call: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def _per_call_seconds(call: Callable[[], Any], calls: int, batches: int = 5) -> float:
    """Median over ``batches`` of the mean time of ``calls`` back-to-back calls."""
    times = []
    for _ in range(batches):
        begin = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - begin) / calls)
    return statistics.median(times)


def probe_layers(
    instance: ProblemInstance, evaluator: QueryEvaluator, seed: str, workdir: Path
) -> Metrics:
    rng = random.Random(seed + ":probes")
    metrics: Metrics = {}
    metrics.update(_geometry(evaluator, rng))
    metrics.update(_index(instance, rng))
    metrics.update(_core(instance, evaluator, rng))
    metrics.update(_data_and_query(instance, rng, workdir))
    metrics.update(_service_calls(instance))
    metrics.update(_warm(instance))
    return metrics


# ----------------------------------------------------------------------
def _random_constraints(evaluator: QueryEvaluator, rng: random.Random) -> tuple[int, list, float]:
    """The windows ``find_best_value`` sees for one variable of a random state."""
    state = evaluator.random_state(rng)
    variable = rng.randrange(evaluator.num_variables)
    return variable, state.constraint_windows(variable), float(state.sat[variable])


def _geometry(evaluator: QueryEvaluator, rng: random.Random) -> Metrics:
    variable, constraints, _floor = _random_constraints(evaluator, rng)
    node_rows = evaluator.trees[variable].root.bounds_array()
    columns = evaluator.columns[variable]
    node_calls, bulk_calls = 2_000, 20
    node = _per_call_seconds(lambda: count_satisfied(node_rows, constraints), node_calls)
    bulk = _per_call_seconds(lambda: count_satisfied(columns, constraints), bulk_calls)
    return {
        "geometry.count_satisfied_node_ns_per_rect": (node * 1e9 / len(node_rows), node_calls * 5),
        "geometry.count_satisfied_bulk_ns_per_rect": (bulk * 1e9 / len(columns), bulk_calls * 5),
    }


def _index(instance: ProblemInstance, rng: random.Random) -> Metrics:
    dataset = instance.datasets[0]
    entries = [(rect, object_id) for object_id, rect in enumerate(dataset.rects)]
    repeats = 1 if len(entries) >= 50_000 else 5
    bulk_s = _median_seconds(lambda: bulk_load(entries), repeats)
    tree = dataset.tree
    pack_s = _median_seconds(lambda: pack_tree(tree), repeats)
    packed = pack_tree(tree)
    arrays = (
        packed["entry_bounds"], packed["entry_children"],
        packed["node_offsets"], packed["node_levels"], packed["meta"],
    )
    unpack_s = _median_seconds(lambda: tree_from_packed(*arrays), repeats)

    # windows shaped like the join's own: rectangles of a partner dataset
    partner = instance.datasets[1].rects
    windows = [partner[rng.randrange(len(partner))] for _ in range(200)]
    reads_before = tree.stats.node_reads
    begin = time.perf_counter()
    for window in windows:
        for _hit in search(tree, window):
            pass
    window_s = (time.perf_counter() - begin) / len(windows)
    window_reads = (tree.stats.node_reads - reads_before) / len(windows)

    sample = entries[: min(len(entries), _INSERT_SAMPLE)]
    grown = RStarTree()
    begin = time.perf_counter()
    for rect, object_id in sample:
        grown.insert(rect, object_id)
    insert_s = (time.perf_counter() - begin) / len(sample)
    return {
        "index.bulk_load_s": (bulk_s, repeats),
        "index.pack_tree_s": (pack_s, repeats),
        "index.tree_from_packed_s": (unpack_s, repeats),
        "index.height": (float(tree.height), 1),
        "index.nodes": (float(len(packed["node_levels"])), 1),
        "index.window_query_us": (window_s * 1e6, len(windows)),
        "index.window_query_node_reads": (window_reads, len(windows)),
        "index.insert_us": (insert_s * 1e6, len(sample)),
    }


def _ils_style_calls(
    evaluator: QueryEvaluator, rng: random.Random, calls: int = 600
) -> tuple[list[float], int]:
    """Time ``find_best_value`` as ILS calls it: climb from a random state,
    offer the variables worst-first until one improves, restart at a local
    maximum.  A call's cost depends on how good the state already is (most
    calls at a local maximum are pruned at the root), so random states
    alone would overstate it.  Returns per-call seconds and total node reads.
    """
    trees = evaluator.trees
    times: list[float] = []
    reads_before = sum(tree.stats.node_reads for tree in trees)
    state = evaluator.random_state(rng)
    while len(times) < calls:
        improved = False
        for variable in state.worst_variable_order():
            if state.violated_count(variable) == 0 or len(times) == calls:
                break
            constraints = state.constraint_windows(variable)
            floor = float(state.sat[variable])
            begin = time.perf_counter()
            found = find_best_value(trees[variable], constraints, floor_score=floor)
            times.append(time.perf_counter() - begin)
            if found is not None:
                state.set_value(variable, found.item)
                improved = True
                break
        if not improved:
            state = evaluator.random_state(rng)
    return times, sum(tree.stats.node_reads for tree in trees) - reads_before


def _core(instance: ProblemInstance, evaluator: QueryEvaluator, rng: random.Random) -> Metrics:
    # a tree packs a node's arrays the first time the node is read: replay
    # the same (deterministic) climb once untimed, so that cost — which an
    # op pays once per node, not per call — is not charged to the calls
    climb_seed = rng.random()
    _ils_style_calls(evaluator, random.Random(climb_seed))
    call_seconds, node_reads = _ils_style_calls(evaluator, random.Random(climb_seed))
    calls = len(call_seconds)
    best_value_s, reads = sum(call_seconds) / calls, node_reads / calls

    build_s = _median_seconds(lambda: QueryEvaluator(instance), 3)
    rows = 2_000
    matrix = np.array([evaluator.random_values(rng) for _ in range(rows)], dtype=np.intp)
    batch_s = _median_seconds(lambda: evaluator.count_violations_batch(matrix), 5)
    values = evaluator.random_values(rng)
    state_s = _per_call_seconds(lambda: evaluator.make_state(values), 200)
    return {
        "core.find_best_value_us": (best_value_s * 1e6, calls),
        "core.find_best_value_node_reads": (reads, calls),
        # a rebuild over datasets whose columns are already packed; the traced
        # run reports the set-up's own first build where it made one
        "core.evaluator_build_ms": (build_s * 1e3, 3),
        "core.count_violations_batch_us_per_row": (batch_s * 1e6 / rows, 5),
        "core.make_state_us": (state_s * 1e6, 1_000),
    }


def _data_and_query(instance: ProblemInstance, rng: random.Random, workdir: Path) -> Metrics:
    first = instance.datasets[0]
    begin = time.perf_counter()
    uniform_dataset(len(first), instance.density or first.density(), rng)
    generate_s = time.perf_counter() - begin
    # persistence is linear in objects: two datasets bound the probe's cost
    pair = ProblemInstance(query=QueryGraph.chain(2), datasets=instance.datasets[:2])
    directory = workdir / "probe-instance"
    begin = time.perf_counter()
    save_instance(pair, directory)
    save_s = (time.perf_counter() - begin) / 2
    begin = time.perf_counter()
    load_instance(directory)
    load_s = (time.perf_counter() - begin) / 2
    return {
        "data.uniform_dataset_s": (generate_s, 1),
        "query.save_instance_s": (save_s, 2),
        "query.load_instance_s": (load_s, 2),
    }


def _service_calls(instance: ProblemInstance) -> Metrics:
    """Direct calls to ``protocol``, ``cache`` and ``admission``."""
    n = instance.num_variables
    names = [f"d{index}" for index in range(n)]
    record = solve_request(
        "probe", query={"type": "clique", "variables": n}, datasets=names,
        seed=7, max_iterations=20, deadline=30.0,
    )
    calls = 2_000
    validate_s = _per_call_seconds(lambda: validate_request(record), calls)
    key_s = _per_call_seconds(lambda: canonical_query_key(instance.query, names), 200)
    signature, order = canonical_query_key(instance.query, names)
    cache = SolutionCache(capacity=256)
    keys = [solve_cache_key(signature, "gils", seed, 1, 30.0, 20) for seed in range(256)]
    entry = CacheEntry.from_result(
        list(range(n)), order, violations=1, similarity=0.5, iterations=20,
        elapsed=0.003, algorithm="gils", signature=signature,
    )
    cursor = iter(range(10**9))
    put_s = _per_call_seconds(lambda: cache.put(keys[next(cursor) % 256], entry), calls)
    get_s = _per_call_seconds(lambda: cache.get(keys[next(cursor) % 256]), calls)
    admission = AdmissionController()
    admit_s = _per_call_seconds(lambda: admission.release(admission.try_admit(30.0)), calls)
    return {
        "service.validate_request_us": (validate_s * 1e6, calls * 5),
        "service.canonical_key_us": (key_s * 1e6, 1_000),
        "service.cache_get_us": (get_s * 1e6, calls * 5),
        "service.cache_put_us": (put_s * 1e6, calls * 5),
        "service.admit_release_us": (admit_s * 1e6, calls * 5),
    }


def _warm(instance: ProblemInstance) -> Metrics:
    """Publish one dataset into shared memory, attach it, tear down."""
    plane = WarmPlane()
    manager = SegmentManager()
    try:
        begin = time.perf_counter()
        spec = plane.publish("probe", instance.datasets[0])
        publish_s = time.perf_counter() - begin
        begin = time.perf_counter()
        attach_dataset(spec, manager)
        attach_s = time.perf_counter() - begin
    finally:
        manager.shutdown()
        report = plane.shutdown()
    return {
        "warm.publish_ms": (publish_s * 1e3, 1),
        "warm.attach_ms": (attach_s * 1e3, 1),
        "warm.segments_leaked": (float(len(report["leaked"])), 1),
    }
