"""Request canonicalization and SHA-256 content addressing.

A request names an immutable computation, so two requests that *mean* the
same thing must hash to the same address: key order, omitted-vs-explicit
defaults, and dict-vs-flat generator specs are all erased by
:func:`canonical_request` before :func:`request_address` hashes the
canonical JSON.  Conversely every knob that can change a result — seeds,
rates, protocol, graph shape, kernel backend, limit/race flags — is a
canonical field, so changing any of them changes the address.

Four request kinds cover the engine's workloads:

``sweep``
    a chaos-matrix sweep (:func:`repro.experiments.parallel.chaos_rows`
    cells) over drop rates and protocols on one benchmark graph;
``chaos``
    a single chaos cell (one ``(protocol, drop, reliable)`` run);
``snapshot``
    a sweep over a published shared-memory graph snapshot
    (:func:`repro.experiments.parallel.snapshot_rows`), addressed by its
    *generator spec* — the spec is the graph's content address;
``trace``
    one recorded, replayable run (:func:`repro.replay.record_run`): the
    request is a :class:`~repro.experiments.chaos.RunSpec` dict plus
    ``backend``, and the payload is the JSONL trace document itself.

A protocol a request names must be one of
:data:`~repro.experiments.chaos.PROTOCOLS`; any other is a
:class:`RequestError` at canonicalization, never an execution failure.

``backend`` defaults to the ambient kernel backend resolved *at
canonicalization time* (``auto`` never reaches an address): two hosts
with different backends produce different addresses, which is the
conservative choice — the kernels are value-identical by test, but the
cache never has to rely on that.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "RequestError",
    "REQUEST_KINDS",
    "canonical_request",
    "request_address",
    "payload_bytes",
    "payload_sha",
]

#: Bumped whenever canonical form changes; part of every address, so a
#: schema change can never alias an old cache entry.
SCHEMA_VERSION = 1

REQUEST_KINDS = ("sweep", "chaos", "snapshot", "trace")

_BACKENDS = ("python", "numpy")


class RequestError(ValueError):
    """A request that cannot be canonicalized (unknown kind/field,
    out-of-range value, malformed plan or generator spec)."""


# ---------------------------------------------------------------------- #
# Field normalizers
# ---------------------------------------------------------------------- #


def _as_int(name: str, v: Any) -> int:
    # JSON round-trips may widen ints to floats; 8.0 means 8, 8.5 is an
    # error.
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise RequestError(f"{name} must be an int, got {v!r}")
    return v


def _as_bool(name: str, v: Any) -> bool:
    if not isinstance(v, bool):
        raise RequestError(f"{name} must be a bool, got {v!r}")
    return v


def _as_rate(name: str, v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RequestError(f"{name} must be a number, got {v!r}")
    f = float(v)
    if not 0.0 <= f <= 1.0:
        raise RequestError(f"{name} {f!r} outside [0, 1]")
    return f


def _as_protocol(name: str, v: Any) -> str:
    from ..experiments.chaos import PROTOCOLS

    if v not in PROTOCOLS:
        raise RequestError(f"{name} must be one of {list(PROTOCOLS)}, got {v!r}")
    return v


def _as_backend(name: str, v: Any) -> str:
    if v is None:
        from ..graphs.npkernels import kernel_backend

        return kernel_backend()
    if v not in _BACKENDS:
        raise RequestError(f"{name} must be one of {_BACKENDS}, got {v!r}")
    return v


def _as_opt_int(name: str, v: Any) -> int | None:
    return None if v is None else _as_int(name, v)


def _as_rates(name: str, v: Any) -> list[float]:
    if not isinstance(v, (list, tuple)) or not v:
        raise RequestError(f"{name} must be a non-empty list, got {v!r}")
    return [_as_rate(f"{name}[{i}]", r) for i, r in enumerate(v)]


def _as_protocols(name: str, v: Any) -> list[str] | None:
    if v is None:
        return None
    if not isinstance(v, (list, tuple)) or not v:
        raise RequestError(f"{name} must be null or a non-empty list")
    return [_as_protocol(f"{name}[{i}]", p) for i, p in enumerate(v)]


# Generator-spec families: name -> (positional arg names, defaults).
# The canonical form is the flat list shm.build_spec consumes, with every
# default filled, so ["random_connected", 100, 200] and
# {"family": "random_connected", "n": 100, "extra_edges": 200} collide.
_SPEC_FAMILIES: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "lower_bound": (("n", "heavy"), {"heavy": None}),
    "lower_bound_split": (("n", "i", "heavy"), {"heavy": None}),
    "random_connected": (
        ("n", "extra_edges", "seed", "max_weight"),
        {"seed": 0, "max_weight": 10.0},
    ),
}


def _as_spec(name: str, v: Any) -> list[Any]:
    if isinstance(v, dict):
        family = v.get("family")
        if family not in _SPEC_FAMILIES:
            raise RequestError(
                f"{name}.family must be one of {sorted(_SPEC_FAMILIES)}, "
                f"got {family!r}"
            )
        fields, defaults = _SPEC_FAMILIES[family]
        unknown = set(v) - set(fields) - {"family"}
        if unknown:
            raise RequestError(f"unknown {name} fields: {sorted(unknown)}")
        args = []
        for f in fields:
            if f in v:
                args.append(v[f])
            elif f in defaults:
                args.append(defaults[f])
            else:
                raise RequestError(f"{name} missing required field {f!r}")
    elif isinstance(v, (list, tuple)):
        if not v or v[0] not in _SPEC_FAMILIES:
            raise RequestError(
                f"{name}[0] must be one of {sorted(_SPEC_FAMILIES)}"
            )
        fields, defaults = _SPEC_FAMILIES[v[0]]
        given = list(v[1:])
        if len(given) > len(fields):
            raise RequestError(f"{name} has too many arguments: {v!r}")
        args = []
        for i, f in enumerate(fields):
            if i < len(given):
                args.append(given[i])
            elif f in defaults:
                args.append(defaults[f])
            else:
                raise RequestError(f"{name} missing required argument {f!r}")
        family = v[0]
    else:
        raise RequestError(f"{name} must be a list or dict, got {v!r}")
    fields, _defaults = _SPEC_FAMILIES[family]
    canon: list[Any] = [family]
    for f, a in zip(fields, args):
        if f == "heavy":
            canon.append(None if a is None else float(a))
        elif f == "max_weight":
            canon.append(float(a))
        else:
            canon.append(_as_int(f"{name}.{f}", a))
    return canon


def _as_sweep_kind(name: str, v: Any) -> str:
    if v not in ("stripe", "sources"):
        raise RequestError(f"{name} must be 'stripe' or 'sources', got {v!r}")
    return v


# ---------------------------------------------------------------------- #
# Kind schemas: field -> (default-or-_REQUIRED, normalizer)
# ---------------------------------------------------------------------- #

_REQUIRED = object()

_SCHEMAS: dict[str, dict[str, tuple[Any, Any]]] = {
    "sweep": {
        "n": (14, _as_int),
        "extra_edges": (20, _as_int),
        "graph_seed": (2, _as_int),
        "drop_rates": ([0.0, 0.05, 0.2], _as_rates),
        "fault_seed": (7, _as_int),
        "include_raw": (True, _as_bool),
        "protocols": (None, _as_protocols),
        "trace": (False, _as_bool),
        "race_detect": (False, _as_bool),
        "backend": (None, _as_backend),
    },
    "chaos": {
        "protocol": (_REQUIRED, _as_protocol),
        "n": (14, _as_int),
        "extra_edges": (20, _as_int),
        "graph_seed": (2, _as_int),
        "drop": (0.0, _as_rate),
        "reliable": (True, _as_bool),
        "fault_seed": (7, _as_int),
        "trace": (False, _as_bool),
        "race_detect": (False, _as_bool),
        "backend": (None, _as_backend),
    },
    "snapshot": {
        "spec": (_REQUIRED, _as_spec),
        "sweep": ("stripe", _as_sweep_kind),
        "limit": (None, _as_opt_int),
        "cell_size": (1, _as_int),
        "backend": (None, _as_backend),
    },
}


def _canonical_trace(request: dict) -> dict:
    """A trace request is a :class:`~repro.experiments.chaos.RunSpec` dict
    plus ``backend``; its canonical form is the spec's canonical dict."""
    from ..experiments.chaos import RunSpec

    fields = {k: v for k, v in request.items() if k not in ("kind", "backend")}
    try:
        spec = RunSpec.from_dict(fields)
    except (ValueError, TypeError) as exc:
        raise RequestError(f"invalid trace request: {exc}") from None
    return {"kind": "trace", **spec.to_dict(),
            "backend": _as_backend("backend", request.get("backend"))}


def canonical_request(request: dict) -> dict:
    """Validate ``request`` and return its canonical form.

    Canonical means: ``kind`` plus *every* schema field present (defaults
    filled), values normalized (rates to floats, a trace request through
    ``RunSpec``, generator specs to their flat list form).  Two requests
    with the same meaning canonicalize to equal dicts; any semantic knob
    difference survives into the canonical form.  Unknown kinds or fields
    raise :class:`RequestError` — a typo'd knob must fail loudly, never
    silently address a different computation.
    """
    if not isinstance(request, dict):
        raise RequestError(f"request must be a dict, got {type(request).__name__}")
    kind = request.get("kind")
    if kind not in REQUEST_KINDS:
        raise RequestError(
            f"request kind must be one of {REQUEST_KINDS}, got {kind!r}"
        )
    if kind == "trace":
        return _canonical_trace(request)
    schema = _SCHEMAS[kind]
    unknown = set(request) - set(schema) - {"kind"}
    if unknown:
        raise RequestError(f"unknown {kind} request fields: {sorted(unknown)}")
    canon: dict[str, Any] = {"kind": kind}
    for field, (default, normalize) in schema.items():
        if field in request:
            value = request[field]
        elif default is _REQUIRED:
            raise RequestError(f"{kind} request missing required field {field!r}")
        else:
            value = default
        canon[field] = normalize(field, value)
    # Cheap structural sanity that the executor would otherwise hit late.
    if kind in ("sweep", "chaos") and canon["n"] < 2:
        raise RequestError(f"n must be >= 2, got {canon['n']}")
    if kind == "snapshot" and canon["cell_size"] < 1:
        raise RequestError(f"cell_size must be >= 1, got {canon['cell_size']}")
    limit = canon.get("limit")
    if limit is not None and limit < 0:
        raise RequestError(f"limit must be >= 0, got {limit}")
    return canon


def request_address(request: dict) -> tuple[dict, str]:
    """Canonicalize ``request`` and return ``(canonical, address)``.

    The address is the SHA-256 hex digest of the canonical JSON
    (``sort_keys``, compact separators) prefixed with the schema version,
    so it is stable across processes, platforms, and hash randomization —
    the property the persistent cache keys on.
    """
    canon = canonical_request(request)
    doc = json.dumps({"v": SCHEMA_VERSION, "request": canon},
                     sort_keys=True, separators=(",", ":"))
    return canon, hashlib.sha256(doc.encode()).hexdigest()


def payload_bytes(payload: Any) -> bytes:
    """The canonical byte encoding of a result payload.

    Results are rows (lists of primitive dicts) or trace documents
    (strings); both serialize through ``json.dumps(sort_keys=True)`` after
    :func:`repro.obs.exporters.jsonable` coercion, so equal payloads are
    byte-equal — the form the store integrity-hashes and the
    cold-vs-cached identity tests compare.
    """
    from ..obs.exporters import jsonable

    return json.dumps(jsonable(payload), sort_keys=True,
                      separators=(",", ":")).encode()


def payload_sha(payload: Any) -> str:
    """SHA-256 hex digest of :func:`payload_bytes`."""
    return hashlib.sha256(payload_bytes(payload)).hexdigest()
