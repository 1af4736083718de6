"""``perf/run.py --selftest``: the checks must catch a corrupt answer of every kind.

Each workload is run small (same code paths, sizes overridden here and only
here), one answer of each kind is corrupted after the fact, and the run's
own ``verify`` must mark exactly the corrupted ops as failed — which is what
puts them into ``failed`` and ``failed_share``.
"""

from __future__ import annotations

import copy
import shutil
from pathlib import Path
from typing import Any, Callable

import library
import serving
from spans import OFF

RESULTS = Path(__file__).resolve().parent / "results"

#: ``(what goes wrong, which op to pick, how to corrupt its answer)``
Corruption = tuple[str, Callable[[Any, Any], bool], Callable[[Any, Any], Any]]


def _expect_failures(label: str, workload: Any, corruptions: list[Corruption]) -> bool:
    """Run ``workload``, corrupt the first op each selector picks, verify
    again, and require exactly the corrupted ops to fail."""
    workload.setup(OFF)
    workload.finish_setup()
    ops = workload.ops()
    outcomes, _wall = workload.run(ops, OFF)
    workload.verify(outcomes, ops)
    flat = [op for part in ops for op in part] if isinstance(ops[0], list) else ops
    good = all(outcome.ok for outcome in outcomes)
    if not good:
        print(f"  FAIL {label}: the uncorrupted run did not verify")
    expected: dict[int, str] = {}
    for name, select, corrupt in corruptions:
        index = next(
            (i for i, (outcome, op) in enumerate(zip(outcomes, flat))
             if i not in expected and select(outcome, op)),
            None,
        )
        if index is None:
            print(f"  FAIL {label}: no op to corrupt for {name!r}")
            good = False
            continue
        outcomes[index].answer = corrupt(copy.deepcopy(outcomes[index].answer), flat[index])
        expected[index] = name
    for outcome in outcomes:
        outcome.ok = False
    workload.verify(outcomes, ops)
    workload.close()
    failed = {i for i, outcome in enumerate(outcomes) if not outcome.ok}
    for index, name in expected.items():
        print(f"  {'ok  ' if index in failed else 'FAIL'} {label}: {name}")
    if failed - set(expected):
        print(f"  FAIL {label}: {len(failed - set(expected))} uncorrupted ops failed")
    return good and failed == set(expected)


def _kind(kind: str) -> Callable[[Any, Any], bool]:
    return lambda outcome, op: outcome.kind == kind


def _set(**fields: Any) -> Callable[[Any, Any], Any]:
    def corrupt(answer: Any, op: Any) -> Any:
        for name, value in fields.items():
            if isinstance(answer, dict):
                answer[name] = value
            else:
                setattr(answer, name, value)
        return answer

    return corrupt


def _one_violation_fewer(result: Any, op: Any) -> Any:
    result.best_violations -= 1
    return result


def _claim_proof(result: Any, op: Any) -> Any:
    result.stats["proven_optimal"] = True
    return result


def _other_tuple(answer: Any, variable: int = 0, step: int = 1) -> Any:
    """Point one variable at another object (ids below 50 exist everywhere)."""
    values = list(answer["assignment"] if isinstance(answer, dict) else answer.best_assignment)
    values[variable] = (values[variable] + step) % 50
    if isinstance(answer, dict):
        answer["assignment"] = values
    else:
        answer.best_assignment = tuple(values)
    return answer


def _mis_scored(view_of: Callable[[Any], Any]) -> Callable[[Any, Any], Any]:
    """Swap in a tuple with a different true score, keeping the reported
    score: what is reported no longer describes the tuple.  ``view_of(op)``
    is the benchmark's copy of the instance as the op's requester sees it."""

    def corrupt(answer: Any, op: Any) -> Any:
        view = view_of(op)
        tuple_of = (lambda a: a["assignment"]) if isinstance(answer, dict) else (
            lambda a: a.best_assignment
        )
        reported = view.violations(tuple_of(answer))
        for variable in range(len(tuple_of(answer))):
            for step in range(1, 50):
                candidate = _other_tuple(copy.deepcopy(answer), variable, step)
                if view.violations(tuple_of(candidate)) != reported:
                    return candidate
        raise AssertionError("no differently-scored tuple nearby")

    return corrupt


def selftest() -> int:
    workdir = RESULTS / "tmp-selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    # same code, small data: only the sizes change
    library.PAPER_N, library.PAPER_VARIABLES = 2_000, 6
    library.ILS_ITERATIONS = library.GILS_ITERATIONS = 30
    library.PAPER_ROUNDS, library.EXACT_ROUNDS = 2, 1
    serving.SERVING_N = 300
    serving.SERVICE_ROUNDS, serving.FLEET_OPS = 1, 50
    paper = library.PaperHeuristics(0)
    exact = library.ExactTwoStep(0)
    mix = serving.ServiceMix(0, workdir)
    fleet = serving.FleetScatter(0, workdir)

    def mix_view(op: dict) -> Any:
        return mix.mirrors[op["connection"]].relabelled(op["order"])

    def truthful_other_tuple(answer: dict, op: dict) -> dict:
        """Another tuple *with* its true violations: it passes the truth
        check and can only fail as "not what the cache stored"."""
        view = mix_view(op)
        answer = _other_tuple(answer)
        answer["violations"] = view.violations(answer["assignment"])
        answer["similarity"] = view.similarity(answer["violations"])
        answer["exact"] = answer["violations"] == 0
        answer["approximate"] = not answer["exact"]
        return answer

    def shed(answer: dict, op: dict) -> dict:
        return {"status": "error", "error": {"code": "overloaded", "retryable": True}}

    results = []
    try:
        results.append(_expect_failures(
            "paper_heuristics", paper,
            [
                ("ILS under-reports its violations", _kind("ils"), _one_violation_fewer),
                ("GILS reports a tuple it did not score", _kind("gils"),
                 _mis_scored(lambda op: paper.mirror)),
                ("SEA's similarity does not follow from its violations", _kind("sea"),
                 _set(best_similarity=1.0)),
            ],
        ))
        results.append(_expect_failures(
            "exact_two_step", exact,
            [
                ("IBB claims a proof with violations left",
                 lambda outcome, op: outcome.kind == "ibb" and outcome.answer.best_violations,
                 _claim_proof),
                ("two-step reports a tuple it did not score", _kind("two_step"),
                 _mis_scored(lambda op: exact.mirrors[op[1]])),
                ("WR drops a solution", _kind("wr"), lambda rows, op: rows[1:]),
                ("ST invents a solution", _kind("st"), lambda rows, op: rows + [(0, 0, 0, 0)]),
                ("PJM returns a solution twice", _kind("pjm"), lambda rows, op: rows + rows[:1]),
            ],
        ))
        results.append(_expect_failures(
            "service_mix", mix,
            [
                ("a miss reports a tuple it did not score", _kind("miss"),
                 _mis_scored(mix_view)),
                ("a miss claims exact with violations left", _kind("miss"),
                 _set(exact=True, approximate=False)),
                ("a request is shed", _kind("miss"), shed),
                ("a hit is not what the cache stored", _kind("hit"), truthful_other_tuple),
                ("a relabelled hit comes back in the wrong numbering",
                 lambda outcome, op: outcome.kind == "hit" and op["order"] != sorted(op["order"]),
                 lambda r, op: dict(r, assignment=r["assignment"][1:] + r["assignment"][:1])),
            ],
        ))
        results.append(_expect_failures(
            "fleet_scatter", fleet,
            [
                ("the answer is not in global ids", _kind("miss"),
                 _mis_scored(lambda op: fleet.mirror)),
                ("the router claims exact with violations left", _kind("miss"),
                 _set(exact=True, approximate=False)),
                ("every shard was lost", _kind("miss"), shed),
            ],
        ))
    finally:
        mix.abort()
        fleet.abort()
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1
