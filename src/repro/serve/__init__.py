"""repro.serve — simulation-as-a-service over the deterministic engine.

The repo's sweep engine is a pure function: every result is fully
determined by ``(graph fingerprint or generator spec, FaultPlan, seeds,
protocol, kernel backend, limit/race flags)``.  That purity — enforced
byte-for-byte by the serial==pool identity tests and the replay corpus —
makes every result *immutable* and therefore infinitely cacheable.  This
subsystem turns that property into a service:

* :mod:`~repro.serve.address` canonicalizes a JSON request (defaults
  filled, key order erased, generator specs normalized) and derives a
  SHA-256 **content address** for it;
* :mod:`~repro.serve.store` is a persistent on-disk content-addressed
  result store that keeps each payload as its canonical bytes
  (:func:`~repro.serve.address.payload_bytes`) behind a one-line header,
  re-verifies their SHA-256 on every read, and evicts in deterministic
  FIFO order;
* :class:`~repro.serve.service.ServeService` is the asyncio core:
  cache lookup, **single-flight** dedupe of identical in-flight
  requests, capacity-limited admission, and fan-out of cold requests to
  the persistent process pool (:mod:`repro.experiments.parallel`);
* :class:`~repro.serve.server.ServeServer` reads JSON request lines over
  TCP (``python -m repro.serve``) and answers each with a ``meta`` line
  and a frame of the payload's canonical bytes, the same bytes the store
  keeps and the service returns for every source;
* :class:`~repro.serve.client.ServeClient` is the in-process client the
  tests and benches drive (plus :class:`~repro.serve.client.TCPServeClient`
  for the wire protocol, which re-verifies each frame's SHA-256); both
  decode the payload from those bytes once;
* :class:`~repro.serve.stats.ServeStats` counts hits, misses,
  single-flight coalesces, evictions, queue depth and p50/p99 service
  time — the requests/sec instrumentation the bench gates on.

The cache is correct *because* the engine is deterministic: a cached
response is byte-identical to re-execution and to a coalesced one
(asserted per request kind in ``tests/test_serve_service.py`` and, over
TCP, ``tests/test_serve_server.py``), and cached traces still pass
:func:`repro.replay.verify_trace`.
"""

from .address import (
    RequestError,
    SCHEMA_VERSION,
    canonical_request,
    payload_bytes,
    payload_sha,
    request_address,
)
from .client import ServeClient, TCPServeClient
from .executor import execute_request
from .server import ServeServer
from .service import ServeError, ServeService
from .stats import ServeStats
from .store import ResultStore, StoredResult

__all__ = [
    "SCHEMA_VERSION",
    "RequestError",
    "ServeError",
    "ServeClient",
    "TCPServeClient",
    "ServeServer",
    "ServeService",
    "ServeStats",
    "ResultStore",
    "StoredResult",
    "canonical_request",
    "execute_request",
    "payload_bytes",
    "payload_sha",
    "request_address",
]
