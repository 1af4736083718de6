"""Command-line experiment driver: ``python -m repro.cli <command> …``.

The paper's figures are not regenerated here: ``runs/FIG/run_all.sh``
(``python -m repro.bench.runner FIG``) is the one path for them.

Commands
--------
``solve``
    Run one algorithm on one freshly generated hard instance and print the
    result summary — the quickest way to try the library.
``generate`` / ``rerun``
    Persist a hard instance to a directory / re-run an algorithm on a
    previously persisted instance (bit-exact reproducibility).
``trace``
    Inspect JSONL traces produced by ``solve --trace``: ``trace summarize``
    prints the per-phase time/node-access table, ``trace validate`` checks
    every record against the event schema.
``serve`` / ``query``
    Run the deadline-driven join service (:mod:`repro.service`) over
    registered datasets / issue one request against a running server or
    fleet router.
``chaos``
    Fire a burst of deadline-bounded queries at a running server (usually
    one started with ``serve --fault-plan``) and assert the robustness
    contract: every query gets a structured answer, none drop.

Example::

    python -m repro.cli solve --query clique --variables 8 --algorithm sea
    python -m repro.cli solve --algorithm gils --trace out.jsonl --metrics
    python -m repro.cli trace summarize out.jsonl
    python -m repro.cli serve --instance demo=./demo-dir --port 7447
    python -m repro.cli query --port 7447 --instance demo --deadline 2.0
    python -m repro.cli serve --instance demo=./demo-dir --fault-plan plan.json
    python -m repro.cli chaos --port 7447 --instance demo --queries 12
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Callable, Coroutine, Sequence

from .core import (
    Budget,
    GILSConfig,
    ILSConfig,
    SEAConfig,
    guided_indexed_local_search,
    indexed_branch_and_bound,
    indexed_local_search,
    parallel_restarts,
    portfolio_search,
    spatial_evolutionary_algorithm,
    two_step,
)
from .obs import (
    JsonlSink,
    Observation,
    format_table,
    merge_trace_files,
    observe,
    phase_rows,
    read_trace,
    summarize_trace,
)
from .faults import FaultPlan, run_chaos_queries
from .fleet import (
    PARTITION_METHODS,
    FleetHandle,
    load_fleet,
    partition_instance,
    save_partition,
)
from .query import (
    QUERY_BUILDERS,
    hard_instance,
    load_instance,
    planted_instance,
    save_instance,
)
from .service import DatasetRegistry, JoinClient, JoinServer

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (workers, restarts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-msj",
        description="Approximate multiway spatial joins (EDBT 2002 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one algorithm on one instance")
    solve.add_argument("--query", default="clique", choices=sorted(QUERY_BUILDERS))
    solve.add_argument("--variables", type=int, default=8)
    solve.add_argument("--cardinality", type=int, default=2_000)
    solve.add_argument("--algorithm", default="sea",
                       choices=["ils", "gils", "sea", "ibb", "two-step",
                                "portfolio"])
    solve.add_argument("--seconds", type=float, default=5.0)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--target-solutions", type=float, default=1.0)
    solve.add_argument("--workers", type=_positive_int, default=1,
                       help="processes for portfolio members / restarts "
                            "(1 = run in-process)")
    solve.add_argument("--restarts", type=_positive_int, default=1,
                       help="independent seeds of one heuristic, best kept "
                            "(> 1 runs ils/gils/sea via parallel_restarts)")
    solve.add_argument("--trace", metavar="PATH", default=None,
                       help="write a schema-versioned JSONL event trace "
                            "(spans, metrics, convergence points)")
    solve.add_argument("--metrics", action="store_true",
                       help="collect and print the metrics registry after "
                            "the run")

    trace = commands.add_parser(
        "trace", help="inspect JSONL traces written by solve --trace"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize", help="per-phase time/node-access table of one or more "
        "traces (several files merge with per-source tagging)"
    )
    summarize.add_argument("paths", nargs="+", metavar="path",
                           help="trace file(s); a shell glob summarizes a "
                           "whole fleet run at once")
    validate = trace_commands.add_parser(
        "validate", help="check every record against the event schema"
    )
    validate.add_argument("paths", nargs="+", metavar="path")

    generate = commands.add_parser(
        "generate", help="persist a hard instance to a directory"
    )
    generate.add_argument("directory")
    generate.add_argument("--query", default="clique", choices=sorted(QUERY_BUILDERS))
    generate.add_argument("--variables", type=int, default=5)
    generate.add_argument("--cardinality", type=int, default=2_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--target-solutions", type=float, default=1.0)
    generate.add_argument("--plant", action="store_true",
                          help="plant a guaranteed exact solution")

    rerun = commands.add_parser(
        "rerun", help="run an algorithm on a persisted instance"
    )
    rerun.add_argument("directory")
    rerun.add_argument("--algorithm", default="sea",
                       choices=["ils", "gils", "sea", "ibb"])
    rerun.add_argument("--seconds", type=float, default=5.0)
    rerun.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve", help="run the deadline-driven join service"
    )
    _add_front_end_arguments(serve)
    serve.add_argument("--dataset", action="append", default=[],
                       metavar="NAME=PATH",
                       help="register a dataset file (.npz/.csv); repeatable")
    serve.add_argument("--instance", action="append", default=[],
                       metavar="NAME=DIR",
                       help="register a persisted instance directory; repeatable")
    serve.add_argument("--no-warm", action="store_true",
                       help="disable the shared-memory warm plane (process "
                       "workers re-load datasets instead of attaching)")

    chaos = commands.add_parser(
        "chaos", help="storm a running join service and check the "
        "no-dropped-connections contract"
    )
    chaos.add_argument("--host", default="127.0.0.1")
    chaos.add_argument("--port", type=int, required=True)
    chaos.add_argument("--instance", required=True,
                       help="registered instance name to solve")
    chaos.add_argument("--queries", type=_positive_int, default=12)
    chaos.add_argument("--deadline", type=float, default=2.0,
                       help="per-query deadline (s)")
    chaos.add_argument("--max-iterations", type=_positive_int, default=2_000)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--retry-attempts", type=_positive_int, default=4,
                       help="client retry budget per query")
    chaos.add_argument("--expect-recovered", type=int, default=0,
                       help="fail unless at least this many answers "
                       "recovered from a worker crash")

    query = commands.add_parser(
        "query", help="issue one request against a running join service "
        "or fleet router"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--op", default="solve",
                       choices=["solve", "ping", "stats", "datasets", "shutdown"])
    query.add_argument("--instance", default=None,
                       help="solve a registered instance by name")
    query.add_argument("--query", default=None, choices=sorted(QUERY_BUILDERS),
                       help="query topology (with --variables and --datasets)")
    query.add_argument("--variables", type=_positive_int, default=None)
    query.add_argument("--datasets", nargs="+", default=None,
                       help="registered dataset names, one per variable")
    query.add_argument("--deadline", type=float, default=None)
    query.add_argument("--max-iterations", type=_positive_int, default=None)
    query.add_argument("--algorithm", default=None,
                       choices=["ils", "gils", "sea", "isa"])
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--restarts", type=_positive_int, default=1)
    query.add_argument("--no-cache", action="store_true",
                       help="bypass the server's solution cache")
    query.add_argument("--fanout", type=_positive_int, default=None,
                       help="fleet routers: contact only the k cheapest "
                       "healthy shards (default: all)")

    fleet = commands.add_parser(
        "fleet", help="partition, serve and inspect a sharded fleet "
        "(one JoinServer per spatial shard behind a cost-model router)"
    )
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_partition = fleet_commands.add_parser(
        "partition", help="split a persisted instance into shard "
        "sub-instances plus a routable fleet manifest"
    )
    fleet_partition.add_argument("directory",
                                 help="persisted instance (see `generate`)")
    fleet_partition.add_argument("--out", required=True,
                                 help="output directory (shard-k/ dirs + "
                                 "fleet.json)")
    fleet_partition.add_argument("--shards", type=int, default=2,
                                 help="number of spatial shards (>= 2)")
    fleet_partition.add_argument("--method", default="str",
                                 choices=sorted(PARTITION_METHODS),
                                 help="str = data-adaptive STR tiles, "
                                 "grid = regular grid")
    fleet_partition.add_argument("--name", default="fleet",
                                 help="fleet (and routed instance) name")
    fleet_partition.add_argument("--replicas", type=_positive_int, default=1,
                                 help="hosts per tile (R-way replication: "
                                 "the router fails over inside the replica "
                                 "group and the answer stays exact)")
    fleet_serve = fleet_commands.add_parser(
        "serve", help="launch shard servers + router (or attach the router "
        "to externally running shards)"
    )
    _add_front_end_arguments(fleet_serve)
    fleet_serve.add_argument("--fleet", required=True, metavar="MANIFEST",
                             help="fleet.json written by `fleet partition`")
    fleet_serve.add_argument("--attach", action="append", default=[],
                             metavar="SHARD=HOST:PORT",
                             help="attach to an already-running shard server "
                             "instead of launching one; repeatable, must "
                             "cover every shard when used")
    fleet_serve.add_argument("--no-hedge", action="store_true",
                             help="disable hedged duplicate sub-queries "
                             "against replicas")
    fleet_serve.add_argument("--supervise", action="store_true",
                             help="run the shard supervisor: probe shard "
                             "servers and respawn dead ones from the "
                             "manifest (bounded restart budget)")
    fleet_serve.add_argument("--pid", action="append", default=[],
                             metavar="SHARD=PID",
                             help="pid of an externally launched shard "
                             "(attach mode); the supervisor checks process "
                             "liveness in addition to pings (repeatable)")
    fleet_status = fleet_commands.add_parser(
        "status", help="per-shard health/cost/dispatch table of a router"
    )
    fleet_status.add_argument("--host", default="127.0.0.1")
    fleet_status.add_argument("--port", type=int, required=True)
    return parser


def _add_front_end_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags ``serve`` and ``fleet serve`` share: listener, pool,
    admission, cache, trace and fault plan."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (printed at startup)")
    parser.add_argument("--workers", type=_positive_int, default=2,
                        help="solver pool size (per launched shard for a fleet)")
    parser.add_argument("--executor", default="process",
                        choices=["process", "thread"])
    parser.add_argument("--max-pending", type=_positive_int, default=16,
                        help="in-flight requests before load shedding")
    parser.add_argument("--deadline", type=float, default=5.0,
                        help="default per-request deadline (s)")
    parser.add_argument("--max-deadline", type=float, default=60.0,
                        help="requested deadlines are clamped to this")
    parser.add_argument("--cache-capacity", type=int, default=256,
                        help="solution cache entries (0 disables caching)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the JSONL request log / event trace")
    parser.add_argument("--fault-plan", metavar="PATH", default=None,
                        help="JSON fault-injection plan (chaos testing): "
                        "activated in the solve workers of `serve`, in the "
                        "router of `fleet serve`")


def _load_fault_plan(path: str | None) -> FaultPlan | None:
    """The plan ``--fault-plan`` names, ``None`` without one; exits on error."""
    if path is None:
        return None
    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load fault plan: {error}") from error


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "trace": _cmd_trace,
        "generate": _cmd_generate,
        "rerun": _cmd_rerun,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
    }[args.command]
    return int(handler(args) or 0)


def _cmd_solve(args: argparse.Namespace) -> None:
    query = QUERY_BUILDERS[args.query](args.variables)
    instance = hard_instance(
        query, args.cardinality, seed=args.seed,
        target_solutions=args.target_solutions,
    )
    print(f"instance: {args.query} n={args.variables} N={args.cardinality} "
          f"density={instance.density:.4g} "
          f"expected solutions={instance.expected_solutions:.3g}")
    budget = Budget.seconds(args.seconds)
    if not (args.trace or args.metrics):
        _solve_and_report(args, instance, budget)
        return

    sink = JsonlSink(args.trace) if args.trace else None
    observation = Observation(sink=sink)
    try:
        with observe(observation):
            with observation.span("solve.run"):
                _solve_and_report(args, instance, budget)
            observation.emit_metrics()
    finally:
        observation.close()
    if args.trace:
        print(f"trace: {args.trace}")
    if args.metrics:
        snapshot = observation.registry.snapshot()
        rows = [list(item) for item in snapshot["counters"].items()]
        if rows:
            print(format_table("metrics — counters", ["metric", "value"], rows))
        for kind in ("gauges", "histograms"):
            if snapshot[kind]:
                print(f"{kind}: {snapshot[kind]}")


def _solve_and_report(
    args: argparse.Namespace, instance, budget: Budget
) -> None:
    if args.restarts > 1 and args.algorithm in ("ils", "gils", "sea"):
        result = parallel_restarts(
            instance, budget, seed=args.seed, heuristic=args.algorithm,
            restarts=args.restarts, workers=args.workers,
        )
    elif args.algorithm == "portfolio":
        result = portfolio_search(
            instance, budget, seed=args.seed, workers=args.workers
        )
    elif args.algorithm == "ils":
        result = indexed_local_search(instance, budget, args.seed, ILSConfig())
    elif args.algorithm == "gils":
        result = guided_indexed_local_search(instance, budget, args.seed, GILSConfig())
    elif args.algorithm == "sea":
        result = spatial_evolutionary_algorithm(instance, budget, args.seed, SEAConfig())
    elif args.algorithm == "ibb":
        result = indexed_branch_and_bound(instance, budget)
    else:
        combined = two_step(instance, "sea", heuristic_budget=budget,
                            systematic_budget=budget.spawn(), seed=args.seed)
        print(combined.summary())
        print(f"  heuristic : {combined.heuristic.summary()}")
        if combined.systematic is not None:
            print(f"  systematic: {combined.systematic.summary()}")
        return
    print(result.summary())
    if result.trace.points:
        print("convergence:")
        for point in result.trace.points[-5:]:
            print(f"  t={point.elapsed:8.3f}s similarity={point.similarity:.4f}")


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "validate":
        failed = False
        for path in args.paths:
            try:
                records = read_trace(path, validate=True)
            except ValueError as error:
                print(f"invalid trace: {error}", file=sys.stderr)
                failed = True
                continue
            print(f"{path}: {len(records)} records, all schema-valid")
        if failed:
            return 1
        if len(args.paths) > 1:
            merged = merge_trace_files(args.paths, validate=True)
            print(f"merged: {len(merged)} records from "
                  f"{len(args.paths)} source(s)")
        return 0

    if len(args.paths) == 1:
        label = args.paths[0]
        records = read_trace(label, validate=True)
    else:
        label = f"{len(args.paths)} files"
        records = merge_trace_files(args.paths, validate=True)
    summary = summarize_trace(records)
    print(f"trace: {label} — {summary['events']} events"
          + (f", members {summary['members']}" if summary["members"] else ""))
    if len(args.paths) > 1:
        by_source: dict[str, int] = {}
        for record in records:
            source = str(record.get("source", "?"))
            by_source[source] = by_source.get(source, 0) + 1
        print("sources: " + ", ".join(
            f"{source}={count}" for source, count in sorted(by_source.items())
        ))
    rows = phase_rows(summary)
    if rows:
        print(format_table(
            "per-phase wall time and node accesses",
            ["phase", "count", "time(s)", "node reads"],
            rows,
        ))
    convergence = summary["convergence"]
    if convergence is not None:
        print(f"convergence: {convergence['points']} points, final "
              f"violations={convergence['final_violations']} "
              f"similarity={convergence['final_similarity']:.4f}")
    for label in ("local_maxima", "restarts", "crossovers"):
        if summary[label]:
            print(f"{label.replace('_', ' ')}: {summary[label]}")
    requests = summary["requests"]
    if requests is not None:
        by_status = ", ".join(
            f"{status}={count}"
            for status, count in sorted(requests["by_status"].items())
        )
        print(f"requests: {requests['count']} ({by_status}), "
              f"total latency {requests['elapsed']:.3f}s")
    latency = summary["latency"]
    if latency is not None:
        print(f"solve latency: {latency['count']} request(s), "
              f"p50={latency['p50'] * 1000.0:.2f}ms "
              f"p95={latency['p95'] * 1000.0:.2f}ms "
              f"p99={latency['p99'] * 1000.0:.2f}ms")
    buffer = summary["buffer"]
    if buffer is not None:
        print(f"buffer pool: {buffer['hits']} hits / {buffer['misses']} misses "
              f"(hit ratio {buffer['hit_ratio']:.3f})")
    faults = summary["faults"]
    if faults is not None:
        detail = ", ".join(
            f"{name.replace('_', ' ')}={faults[name]}"
            for name in ("crashes", "hangs", "corruptions", "retries",
                         "rebuilds", "recovered_members", "lost_members")
            if faults[name]
        )
        print(f"faults: {detail or 'none recorded'}")
    metrics = summary["metrics"]
    if metrics and metrics.get("counters"):
        print(format_table(
            "final metric snapshot — counters",
            ["metric", "value"],
            [list(item) for item in metrics["counters"].items()],
        ))
    return 0


def _cmd_generate(args: argparse.Namespace) -> None:
    query = QUERY_BUILDERS[args.query](args.variables)
    if args.plant:
        instance = planted_instance(
            query, args.cardinality, seed=args.seed,
            target_solutions=args.target_solutions,
        )
    else:
        instance = hard_instance(
            query, args.cardinality, seed=args.seed,
            target_solutions=args.target_solutions,
        )
    instance.metadata.update(
        query=args.query, variables=args.variables, seed=args.seed,
        planted=bool(args.plant),
    )
    manifest = save_instance(instance, args.directory)
    print(f"wrote {manifest}")
    print(f"  {args.query} n={args.variables} N={args.cardinality} "
          f"density={instance.density:.4g}"
          + (f" planted={instance.planted}" if instance.planted else ""))


def _parse_registrations(pairs: list[str], flag: str) -> list[tuple[str, str]]:
    parsed = []
    for pair in pairs:
        name, separator, path = pair.partition("=")
        if not separator or not name or not path:
            raise SystemExit(f"{flag} expects NAME=PATH, got {pair!r}")
        parsed.append((name, path))
    return parsed


def _run_serving(
    serve: Callable[[], Coroutine[Any, Any, None]], trace: str | None
) -> int:
    """Run one serving loop, under a JSONL trace when ``trace`` names a file."""
    if trace is None:
        asyncio.run(serve())
        return 0
    observation = Observation(sink=JsonlSink(trace))
    try:
        with observe(observation):
            asyncio.run(serve())
            observation.emit_metrics()
    finally:
        observation.close()
    print(f"trace: {trace}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    registry = DatasetRegistry()
    try:
        for name, path in _parse_registrations(args.dataset, "--dataset"):
            registry.register_path(name, path)
        for name, path in _parse_registrations(args.instance, "--instance"):
            registry.register_instance_dir(name, path)
    except (FileNotFoundError, ValueError) as error:
        print(f"registration failed: {error}", file=sys.stderr)
        return 1
    fault_plan = _load_fault_plan(args.fault_plan)
    server = JoinServer(
        registry,
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        max_deadline=args.max_deadline,
        cache_capacity=args.cache_capacity,
        warm=False if args.no_warm else None,
        fault_plan=fault_plan,
    )

    async def _serve() -> None:
        await server.start()
        host, port = server.address
        print(f"listening on {host}:{port} "
              f"({args.workers} {args.executor} workers, "
              f"datasets: {registry.dataset_names() or '-'}, "
              f"instances: {registry.instance_names() or '-'})",
              flush=True)
        # machine-parseable: fleet smokes launch N servers on --port 0
        # and scrape the bound port from this line
        print(f"ready host={host} port={port}", flush=True)
        print(f"warm plane: {'on' if server.warm else 'off'}", flush=True)
        if fault_plan is not None:
            print(f"fault plan active: {len(fault_plan.specs)} spec(s) at "
                  f"{sorted(fault_plan.sites())}", flush=True)
        try:
            await server.wait_for_shutdown()
        finally:
            await server.stop()
            if server.warm_report is not None:
                report = server.warm_report
                print(f"warm plane shutdown: {report['datasets']} dataset(s), "
                      f"{report['unlinked']} segment(s) unlinked, "
                      f"{len(report['leaked'])} leaked", flush=True)

    return _run_serving(_serve, args.trace)


def _cmd_query(args: argparse.Namespace) -> int:
    try:
        client = JoinClient(args.host, args.port)
    except OSError as error:
        print(f"cannot connect to {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    with client:
        if args.op != "solve":
            response = client.request(
                {"v": 1, "op": args.op, "id": f"cli-{args.op}"}
            )
            print(json.dumps(response, indent=2, sort_keys=True))
            return 0 if response.get("status") == "ok" else 1
        record: dict[str, object] = {
            "v": 1,
            "op": "solve",
            "id": "cli-solve",
            "seed": args.seed,
            "restarts": args.restarts,
            "cache": not args.no_cache,
        }
        if args.instance is not None:
            record["instance"] = args.instance
        elif args.query is not None:
            if args.variables is None or args.datasets is None:
                print("--query needs --variables and --datasets", file=sys.stderr)
                return 1
            record["query"] = {"type": args.query, "variables": args.variables}
            record["datasets"] = args.datasets
        else:
            print("query solve needs --instance or --query", file=sys.stderr)
            return 1
        for field in ("deadline", "max_iterations", "algorithm", "fanout"):
            if getattr(args, field) is not None:
                record[field] = getattr(args, field)
        response = client.request(record)
    if response.get("status") != "ok":
        error = response.get("error", {})
        print(f"error: {error.get('code')} — {error.get('message')} "
              f"(retryable: {error.get('retryable')})", file=sys.stderr)
        return 1
    print(f"cache: {'hit' if response['cached'] else 'miss'}")
    if "warm_started" in response:
        print(f"warm: {'started' if response['warm_started'] else 'cold'}")
    fleet = response.get("fleet")
    if fleet is not None and not fleet.get("cached"):
        print(f"routing: {len(fleet['answered'])}/{fleet['shards']} "
              f"shard(s) answered (winner {fleet['shard']}, "
              f"lost {fleet['lost']}, degraded {fleet['degraded']})")
        if fleet["failover"] or fleet["hedged"]:
            print(f"healing: failover {fleet['failover']}, "
                  f"hedged {fleet['hedged']}")
    print(f"result: {'exact' if response['exact'] else 'approximate'} "
          f"violations={response['violations']} "
          f"similarity={response['similarity']:.4f}"
          + (" recovered" if response.get("recovered") else ""))
    print(f"search: algorithm={response['algorithm']} "
          f"iterations={response['iterations']} "
          f"elapsed={response['elapsed']:.3f}s")
    print(f"assignment: {response['assignment']}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    try:
        tally = run_chaos_queries(
            args.host,
            args.port,
            instance=args.instance,
            queries=args.queries,
            deadline=args.deadline,
            max_iterations=args.max_iterations,
            seed=args.seed,
            retry_attempts=args.retry_attempts,
        )
    except OSError as error:
        print(f"cannot connect to {args.host}:{args.port}: {error}", file=sys.stderr)
        return 1
    codes = ", ".join(
        f"{code}={count}" for code, count in sorted(tally["codes"].items())
    )
    print(f"chaos: {tally['queries']} queries — {tally['ok']} ok "
          f"({tally['exact']} exact, {tally['approximate']} approximate, "
          f"{tally['recovered']} recovered), "
          f"{tally['retryable_errors']} retryable errors, "
          f"{tally['dropped']} dropped"
          + (f" [codes: {codes}]" if codes else ""))
    failed = False
    if tally["dropped"]:
        print(f"FAIL: {tally['dropped']} query(ies) dropped without a "
              "structured response", file=sys.stderr)
        failed = True
    if tally["recovered"] < args.expect_recovered:
        print(f"FAIL: expected >= {args.expect_recovered} recovered answers, "
              f"saw {tally['recovered']}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    return {
        "partition": _cmd_fleet_partition,
        "serve": _cmd_fleet_serve,
        "status": _cmd_fleet_status,
    }[args.fleet_command](args)


def _cmd_fleet_partition(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.directory)
    except (OSError, ValueError) as error:
        print(f"cannot load instance: {error}", file=sys.stderr)
        return 1
    try:
        partition = partition_instance(
            instance, args.shards, method=args.method, name=args.name,
            replicas=args.replicas,
        )
    except ValueError as error:
        print(f"partition failed: {error}", file=sys.stderr)
        return 1
    manifest = save_partition(partition, args.out)
    print(f"wrote {manifest}")
    print(format_table(
        f"fleet {args.name} — {args.shards} {args.method} shard(s), "
        f"{args.replicas} replica(s)",
        ["shard", "objects", "cost", "hosts", "tile"],
        [[shard.name, sum(shard.counts), round(shard.cost_total, 3),
          ",".join(shard.replica_group),
          "[" + ", ".join(f"{c:.3f}" for c in shard.tile) + "]"]
         for shard in partition.spec.shards],
    ))
    return 0


def _parse_endpoints(pairs: list[str]) -> dict[str, tuple[str, int]]:
    endpoints: dict[str, tuple[str, int]] = {}
    for pair in pairs:
        name, separator, address = pair.partition("=")
        host, colon, port = address.rpartition(":")
        if not separator or not name or not host or not colon or not port.isdigit():
            raise SystemExit(f"--attach expects SHARD=HOST:PORT, got {pair!r}")
        endpoints[name] = (host, int(port))
    return endpoints


def _parse_pids(pairs: list[str]) -> dict[str, int]:
    pids: dict[str, int] = {}
    for pair in pairs:
        name, separator, pid = pair.partition("=")
        if not separator or not name or not pid.isdigit():
            raise SystemExit(f"--pid expects SHARD=PID, got {pair!r}")
        pids[name] = int(pid)
    return pids


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    try:
        spec = load_fleet(args.fleet)
    except (OSError, ValueError) as error:
        print(f"cannot load fleet manifest: {error}", file=sys.stderr)
        return 1
    endpoints = _parse_endpoints(args.attach) or None
    if endpoints is not None:
        missing = [s.name for s in spec.shards if s.name not in endpoints]
        if missing:
            print(f"--attach must cover every shard; missing {missing}",
                  file=sys.stderr)
            return 1
    fault_plan = _load_fault_plan(args.fault_plan)

    def _supervisor_line(line: str) -> None:
        # flushed so external drivers (CI) can tail respawn events live
        print(line, flush=True)

    handle = FleetHandle(
        spec,
        endpoints=endpoints,
        host=args.host,
        router_port=args.port,
        workers=args.workers,
        executor=args.executor,
        max_pending=args.max_pending,
        default_deadline=args.deadline,
        max_deadline=args.max_deadline,
        cache_capacity=args.cache_capacity,
        hedge=not args.no_hedge,
        supervise=args.supervise,
        supervisor_log=_supervisor_line,
        pids=_parse_pids(args.pid),
        fault_plan=fault_plan,
    )

    async def _serve() -> None:
        await handle.start()
        for name, (host, port) in sorted(handle.shard_addresses.items()):
            mode = "attached" if endpoints is not None else "launched"
            print(f"shard {mode} name={name} host={host} port={port}",
                  flush=True)
        host, port = handle.address
        print(f"listening on {host}:{port} "
              f"(fleet {spec.name!r}, {len(spec.shards)} shard(s), "
              f"method {spec.method})", flush=True)
        print(f"ready host={host} port={port}", flush=True)
        if handle.supervisor is not None:
            policy = handle.supervisor.policy
            print(f"supervising {len(spec.server_names)} server(s): "
                  f"probe every {policy.probe_interval}s, "
                  f"restart budget {policy.max_restarts} "
                  f"(≤{policy.budget():.2f}s backoff)", flush=True)
        if fault_plan is not None:
            print(f"fault plan active: {len(fault_plan.specs)} spec(s) at "
                  f"{sorted(fault_plan.sites())}", flush=True)
        try:
            await handle.wait_for_shutdown()
        finally:
            await handle.stop()

    return _run_serving(_serve, args.trace)


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    try:
        client = JoinClient(args.host, args.port)
    except OSError as error:
        print(f"cannot connect to {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    with client:
        response = client.request({"v": 1, "op": "stats", "id": "cli-fleet-stats"})
    if response.get("status") != "ok" or "fleet" not in response:
        print("not a fleet router (no fleet stats in response)", file=sys.stderr)
        return 1
    fleet = response["fleet"]
    hedge = fleet.get("hedge", {})
    print(f"fleet {fleet['name']!r} ({fleet['method']}, "
          f"{fleet.get('replicas', 1)} replica(s)): "
          f"{response['requests_total']} request(s), "
          f"{response['errors_total']} error(s), "
          f"{fleet['degraded_total']} degraded, "
          f"{fleet.get('failover_total', 0)} failover(s), "
          f"hedges {hedge.get('won', 0)}/{hedge.get('launched', 0)} won "
          f"({hedge.get('suppressed', 0)} suppressed)")

    def _age(value: object) -> str:
        return "-" if value is None else f"{value:.1f}s"

    print(format_table(
        "shards",
        ["shard", "endpoint", "healthy", "cost", "bias", "inflight",
         "dispatched", "answered", "lost", "probed", "changed"],
        [[s["name"], f"{s['endpoint'][0]}:{s['endpoint'][1]}",
          "yes" if s["healthy"] else "DOWN", round(s["cost"], 3),
          round(s.get("bias", s["cost"]), 3), s.get("inflight", 0),
          s["dispatched"], s["answered"], s["lost"],
          _age(s.get("last_probe_age")),
          _age(s.get("since_state_change"))]
         for s in fleet["shards"]],
    ))
    supervisor = fleet.get("supervisor")
    if supervisor is not None:
        policy = supervisor["policy"]
        print(f"supervisor: {supervisor['respawns_total']} respawn "
              f"attempt(s), budget {policy['max_restarts']} restart(s) "
              f"(≤{policy['budget']:.2f}s backoff)")
        print(format_table(
            "supervised servers",
            ["server", "state", "restarts", "failed attempts"],
            [[name, state["state"], state["restarts"],
              state["failed_attempts"]]
             for name, state in supervisor["servers"].items()],
        ))
    return 0


def _cmd_rerun(args: argparse.Namespace) -> None:
    instance = load_instance(args.directory)
    print(f"loaded instance: n={instance.num_variables} "
          f"N={instance.cardinalities[0]} density={instance.density}")
    budget = Budget.seconds(args.seconds)
    runners = {
        "ils": lambda: indexed_local_search(instance, budget, args.seed, ILSConfig()),
        "gils": lambda: guided_indexed_local_search(
            instance, budget, args.seed, GILSConfig()
        ),
        "sea": lambda: spatial_evolutionary_algorithm(
            instance, budget, args.seed, SEAConfig()
        ),
        "ibb": lambda: indexed_branch_and_bound(instance, budget),
    }
    print(runners[args.algorithm]().summary())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
