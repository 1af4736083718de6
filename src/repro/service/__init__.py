"""Deadline-driven query service: an async JSON-lines join server.

The paper's contract — *the best possible solution within a hard time
limit* — is exactly the contract of an SLO-bound query service.  This
package turns the batch library into a long-running multi-tenant server:

* :mod:`repro.service.protocol` — versioned request/response schema with
  :func:`validate_request`, mirroring the obs v1 event discipline;
* :mod:`repro.service.registry` — named dataset/instance registry with
  lazy :mod:`repro.data.io` loading and index warm-up;
* :mod:`repro.service.cache` — LRU+TTL solution cache keyed by a
  canonical query signature so isomorphic queries hit;
* :mod:`repro.service.admission` — bounded admission with load shedding
  and per-request deadline budgets built on :class:`repro.core.budget.Budget`;
* :mod:`repro.service.frame` — the JSON-lines front end (listener, read
  loop, request accounting) the server and the fleet router share;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the asyncio
  JSON-lines server dispatching solves onto a ``ProcessPoolExecutor``
  (via :func:`repro.core.parallel.parallel_restarts`) and its client.

Every request degrades gracefully: on deadline expiry the server returns
the best-so-far solution flagged ``"approximate": true`` instead of
erroring; on overload it sheds with a structured retryable error.

Failures follow the same discipline (see :mod:`repro.service.errors` and
``docs/robustness.md``): a crashed worker pool is rebuilt and the job
re-dispatched against its remaining deadline; what cannot be recovered is
shed with a retryable ``worker_crashed``/``timeout`` error — never a
dropped connection.  :class:`RetryPolicy` is the client half of that
contract.
"""

from __future__ import annotations

from .admission import AdmissionController, Ticket
from .cache import CacheEntry, SolutionCache, canonical_query_key, solve_cache_key
from .client import JoinClient, RetryPolicy, ServiceError
from .errors import ClassifiedError, classify_exception
from .protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    SOLVE_ALGORITHMS,
    error_response,
    ok_response,
    solve_request,
    validate_request,
)
from .registry import DatasetRegistry
from .server import JoinServer

__all__ = [
    "AdmissionController",
    "Ticket",
    "CacheEntry",
    "SolutionCache",
    "canonical_query_key",
    "solve_cache_key",
    "JoinClient",
    "RetryPolicy",
    "ServiceError",
    "ClassifiedError",
    "classify_exception",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "SOLVE_ALGORITHMS",
    "error_response",
    "ok_response",
    "solve_request",
    "validate_request",
    "DatasetRegistry",
    "JoinServer",
]
