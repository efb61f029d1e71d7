"""Request validation: JSON bodies → canonical sweep specs.

Everything the HTTP surface accepts is parsed here into the *existing*
declarative dataclasses (:class:`~repro.sweeps.spec.Point`,
:class:`~repro.sweeps.spec.SweepSpec`) before any engine code runs.
That choice is what makes the service cache-coherent for free: two
clients phrasing the same query differently (``"protocol": "best-of-3"``
versus ``{"kind": "best_of_k", "k": 3}``) canonicalise to the same
:func:`~repro.sweeps.spec.canonical_point` bytes, hence the same
:class:`~repro.sweeps.cache.SweepCache` key, the same micro-batch
flight, and the same job id.

Invalid input raises :class:`RequestError`, which the HTTP layer maps to
a 400 with the message in the body — the underlying dataclass
``ValueError`` messages (already written for humans) pass through
verbatim.

Accepted shapes
---------------
host      ``{"family": "complete", "n": 4096}`` — family plus the
          family's constructor params, flat.
protocol  a string (``"voter"``, ``"best-of-3"``, ``"best-of-2-rand"``)
          or a dict: ``{"kind": "best_of_k", "k": 3, "tie_rule":
          "keep_self", "eta": ..., "zealots": ...}`` with every field
          optional but ``kind``-consistent.  Default: ``best-of-3``.
          Engine execution settings are not request fields: a result
          depends on the point alone.
init      sugar ``{"delta": 0.1}`` (i.i.d. bias) or ``{"blue": 100}``
          (exact count), or explicit ``{"kind": "adversarial", "blue":
          100, "strategy": "high_degree"}``.  Default: ``delta=0.1``.
point     ``{"host": ..., "protocol": ..., "init": ..., "trials": 10,
          "max_steps": 2000, "seed": 0}`` — seed may be an int or a
          list of ints.
compare   a point request whose ``protocols`` is a list (≥ 2) of
          protocol shapes; all other fields shared.
sweep     ``{"name": ..., "hosts": [...], "protocols": [...],
          "inits": [...], "trials": ..., "max_steps": ..., "seed": N}``
          — the grid product with per-point derived seeds, exactly
          :meth:`SweepSpec.grid`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.sweeps.spec import (
    HostSpec,
    InitSpec,
    Point,
    ProtocolSpec,
    SweepSpec,
)

__all__ = [
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TRIALS",
    "RequestError",
    "parse_compare_request",
    "parse_host",
    "parse_init",
    "parse_point_request",
    "parse_protocol",
    "parse_sweep_request",
]

DEFAULT_TRIALS = 10
DEFAULT_MAX_STEPS = 2000

_POINT_KEYS = frozenset(
    {"host", "protocol", "init", "trials", "max_steps", "seed", "label"}
)
_COMPARE_KEYS = (_POINT_KEYS - {"protocol"}) | {"protocols"}
_SWEEP_KEYS = frozenset(
    {"name", "hosts", "protocols", "inits", "trials", "max_steps", "seed"}
)


class RequestError(ValueError):
    """A request body that cannot be turned into a valid spec (HTTP 400)."""


def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise RequestError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value

def _reject_unknown(body: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(allowed))})"
        )


def parse_host(value: Any) -> HostSpec:
    """``{"family": ..., **params}`` → :class:`HostSpec`."""
    body = dict(_require_mapping(value, "host"))
    family = body.pop("family", None)
    if not isinstance(family, str) or not family:
        raise RequestError('host needs a "family" string (e.g. "complete")')
    try:
        host = HostSpec.of(family, **body)
    except TypeError as exc:
        raise RequestError(f"bad host params: {exc}") from None
    # Unknown families / missing params surface when the runner builds the
    # graph; catch them at validation time instead so the client gets a 400,
    # not a failed job.
    from repro.sweeps.runner import host_families

    if family not in host_families():
        raise RequestError(
            f"unknown host family {family!r}; known: "
            f"{', '.join(host_families())}"
        )
    return host


def parse_protocol(value: Any) -> ProtocolSpec:
    """A protocol name string or structured dict → :class:`ProtocolSpec`."""
    if value is None:
        return ProtocolSpec.best_of(3)
    if isinstance(value, str):
        try:
            return ProtocolSpec.parse(value)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
    body = _require_mapping(value, "protocol")
    _reject_unknown(
        body,
        frozenset({"kind", "k", "tie_rule", "eta", "zealots"}),
        "protocol",
    )
    kwargs = {
        k: body[k]
        for k in ("kind", "k", "tie_rule", "eta", "zealots")
        if k in body
    }
    try:
        return ProtocolSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad protocol: {exc}") from None


def parse_init(value: Any) -> InitSpec:
    """Init sugar (``{"delta": ...}`` / ``{"blue": ...}``) or explicit kind."""
    if value is None:
        return InitSpec.iid(0.1)
    body = _require_mapping(value, "init")
    _reject_unknown(
        body, frozenset({"kind", "delta", "blue", "strategy"}), "init"
    )
    try:
        if "kind" in body:
            return InitSpec(
                kind=body["kind"],
                delta=body.get("delta"),
                blue=body.get("blue"),
                strategy=body.get("strategy"),
            )
        if "delta" in body and "blue" not in body:
            return InitSpec.iid(body["delta"])
        if "blue" in body and "delta" not in body:
            if "strategy" in body:
                return InitSpec.adversarial(body["blue"], body["strategy"])
            return InitSpec.count(body["blue"])
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad init: {exc}") from None
    raise RequestError(
        'init needs "delta" OR "blue" (optionally with "strategy"), '
        'or an explicit "kind"'
    )


def _parse_seed(value: Any) -> tuple[int, ...]:
    if value is None:
        return (0,)
    if isinstance(value, bool):
        raise RequestError("seed must be an int or list of ints")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        try:
            return tuple(int(v) for v in value)
        except (TypeError, ValueError):
            raise RequestError("seed must be an int or list of ints") from None
    raise RequestError("seed must be an int or list of ints")


def _parse_budget(body: Mapping[str, Any]) -> tuple[int, int]:
    """(trials, max_steps) with service defaults."""
    trials = body.get("trials", DEFAULT_TRIALS)
    max_steps = body.get("max_steps", DEFAULT_MAX_STEPS)
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise RequestError("trials must be an int")
    if not isinstance(max_steps, int) or isinstance(max_steps, bool):
        raise RequestError("max_steps must be an int")
    return trials, max_steps


def parse_point_request(body: Any) -> Point:
    """A ``POST /v1/ensemble`` body → one canonical :class:`Point`."""
    body = _require_mapping(body, "request body")
    _reject_unknown(body, _POINT_KEYS, "ensemble request")
    if "host" not in body:
        raise RequestError('ensemble request needs a "host"')
    trials, max_steps = _parse_budget(body)
    label = body.get("label", "")
    if not isinstance(label, str):
        raise RequestError("label must be a string")
    try:
        return Point(
            host=parse_host(body["host"]),
            protocol=parse_protocol(body.get("protocol")),
            init=parse_init(body.get("init")),
            trials=trials,
            max_steps=max_steps,
            seed=_parse_seed(body.get("seed")),
            label=label,
        )
    except RequestError:
        raise
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def parse_compare_request(body: Any) -> list[Point]:
    """A ``POST /v1/compare`` body → one point per listed protocol.

    All points share host, init, budget, and seed — the protocol is the
    only varying axis, so the comparison isolates the dynamics exactly
    the way the paper's protocol contrasts do.
    """
    body = _require_mapping(body, "request body")
    _reject_unknown(body, _COMPARE_KEYS, "compare request")
    protocols = body.get("protocols")
    if not isinstance(protocols, Sequence) or isinstance(protocols, (str, bytes)):
        raise RequestError('compare request needs a "protocols" list')
    if len(protocols) < 2:
        raise RequestError("compare request needs at least 2 protocols")
    base = dict(body)
    del base["protocols"]
    points = []
    for proto in protocols:
        spec = parse_protocol(proto)
        point = parse_point_request({**base, "protocol": None})
        point = _with_protocol(point, spec)
        points.append(point)
    labels = {p.label for p in points}
    if len(labels) < len(points):
        points = [
            _with_label(p, f"{p.label + ' ' if p.label else ''}[{_protocol_name(p.protocol)}]")
            for p in points
        ]
    return points


def _with_protocol(point: Point, protocol: ProtocolSpec) -> Point:
    import dataclasses

    return dataclasses.replace(point, protocol=protocol)


def _with_label(point: Point, label: str) -> Point:
    import dataclasses

    return dataclasses.replace(point, label=label)


def _protocol_name(spec: ProtocolSpec) -> str:
    bits = [f"{spec.kind} k={spec.k}/{spec.tie_rule}"]
    if spec.eta is not None:
        bits.append(f"eta={spec.eta}")
    if spec.zealots is not None:
        bits.append(f"zealots={spec.zealots}")
    return " ".join(bits)


def parse_sweep_request(body: Any) -> SweepSpec:
    """A ``POST /v1/sweeps`` body → a :class:`SweepSpec` grid.

    Identical semantics to building the grid in Python: per-point seeds
    derived from the root ``seed``, duplicate axis values deduplicated,
    labels generated by :meth:`SweepSpec.grid`.  A grid submitted over
    HTTP and the same grid run via ``repro sweep`` therefore share cache
    entries *and* render byte-identical summary tables.
    """
    body = _require_mapping(body, "request body")
    _reject_unknown(body, _SWEEP_KEYS, "sweep request")
    name = body.get("name", "service-sweep")
    if not isinstance(name, str) or not name:
        raise RequestError("sweep name must be a non-empty string")
    hosts_raw = body.get("hosts")
    if not isinstance(hosts_raw, Sequence) or isinstance(hosts_raw, (str, bytes)) or not hosts_raw:
        raise RequestError('sweep request needs a non-empty "hosts" list')
    protocols_raw = body.get("protocols") or ["best-of-3"]
    if not isinstance(protocols_raw, Sequence) or isinstance(protocols_raw, (str, bytes)):
        raise RequestError('"protocols" must be a list')
    inits_raw = body.get("inits") or [{"delta": 0.1}]
    if not isinstance(inits_raw, Sequence) or isinstance(inits_raw, (str, bytes)):
        raise RequestError('"inits" must be a list')
    trials, max_steps = _parse_budget(body)
    seed = body.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        seed_tuple = _parse_seed(seed)
    else:
        seed_tuple = (seed,)
    try:
        return SweepSpec.grid(
            name,
            hosts=[parse_host(h) for h in hosts_raw],
            protocols=[parse_protocol(p) for p in protocols_raw],
            inits=[parse_init(i) for i in inits_raw],
            trials=trials,
            max_steps=max_steps,
            seed=seed_tuple,
        )
    except RequestError:
        raise
    except ValueError as exc:
        raise RequestError(str(exc)) from None
