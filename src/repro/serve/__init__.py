"""Concurrent query service: plan cache, warm pool, admission control.

The serve layer turns the single-query engine into a multi-tenant
service: compiled plans are cached by deterministic fingerprint
(:mod:`repro.serve.cache`), phase workers are spawned once and shared
across queries (:mod:`repro.serve.pool`), and an admission-controlled
fair scheduler multiplexes bounded in-flight queries over them
(:mod:`repro.serve.service`) — while every query's traffic ledger,
profile, and output stay byte-identical to a solo run.
"""

from .cache import CacheEntry, PlanCache
from .pool import SharedExecutor, WarmExecutorPool
from .service import QueryOutcome, QueryRequest, QueryService, QueryTicket

__all__ = [
    "PlanCache",
    "CacheEntry",
    "WarmExecutorPool",
    "SharedExecutor",
    "QueryService",
    "QueryRequest",
    "QueryTicket",
    "QueryOutcome",
]
