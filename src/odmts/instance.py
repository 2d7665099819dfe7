"""Problem data model: stops, hubs, trips, cost parameters.

An instance bundles the stop set, the hub subset, minute/kilometer
matrices, the trip list (core riders plus latent riders with a mode
choice), and the cost parameters from which all arc weights derive:

    beta_hl  = (1 - theta) * rate * n * d_hl      (bus leg investment, $)
    tau_hl   = theta * (t_hl + wait_hl)           (weighted bus leg cost)
    gamma_ij = (1 - theta) * omega * d_ij + theta * t_ij   (shuttle leg)
    varphi   = (1 - theta) * ticket               (adoption revenue)

In per-time mode the investment uses the hourly rate: beta_hl =
(1 - theta) * rate * n * t_hl / 60 with t in minutes.

Units are fixed: minutes for time, kilometers for distance, dollars for
money. Instances are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

CORE = "core"
LATENT = "latent"

PER_DISTANCE = "per_distance"
PER_TIME = "per_time"


class ValidationError(ValueError):
    """An instance violates one of its structural invariants."""


class InstanceParseError(ValueError):
    """The file is not a well-formed instance document."""


def _finite(x) -> bool:
    """A finite real number; bools (JSON true/false) are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


_REQUIRED = object()


def _field(doc: dict, key: str, convert, where: str, default=_REQUIRED):
    """``convert(doc[key])``; a missing or unconvertible value is a parse
    error naming the key."""
    if key not in doc:
        if default is _REQUIRED:
            raise InstanceParseError(f"{where}: missing key {key!r}")
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as e:
        raise InstanceParseError(f"{where}: bad {key!r}: {e}") from None


@dataclass(frozen=True)
class Trip:
    """One origin-destination demand entry.

    Core trips always ride the system. Latent trips adopt it only when
    the proposed route's travel time stays within ``alpha * t_cur``
    minutes, ``t_cur`` being their direct car time.
    """

    id: int
    origin: int
    destination: int
    riders: int
    kind: str = CORE
    alpha: float | None = None
    t_cur: float | None = None

    @property
    def is_latent(self) -> bool:
        return self.kind == LATENT

    def to_dict(self) -> dict:
        d = {
            "id": self.id,
            "origin": self.origin,
            "destination": self.destination,
            "riders": self.riders,
            "kind": self.kind,
        }
        if self.kind == LATENT:
            d["alpha"] = self.alpha
            d["t_cur"] = self.t_cur
        return d


@dataclass(frozen=True)
class CostParams:
    """Cost model knobs shared by every solver component.

    ``candidate`` is either ``"all"`` (every ordered hub pair) or an
    integer k restricting each hub to its k nearest hubs by travel
    time. ``fixed_arcs`` is a backbone (e.g. an existing rail loop)
    forced open in every design; ``fixed_arc_costed`` controls whether
    those arcs still pay their investment cost.
    """

    theta: float
    omega: float
    bus_cost_mode: str = PER_DISTANCE
    bus_rate: float = 3.87
    buses_per_leg: float = 16.0
    wait: np.ndarray | float = 7.5
    ticket: float = 2.5
    shuttle_between_hubs: bool = False
    candidate: str | int = "all"
    fixed_arcs: tuple[tuple[int, int], ...] = ()
    fixed_arc_costed: bool = True

    def to_dict(self) -> dict:
        wait = self.wait
        if isinstance(wait, np.ndarray):
            wait = [[float(x) for x in row] for row in wait]
        return {
            "theta": self.theta,
            "omega": self.omega,
            "bus_cost_mode": self.bus_cost_mode,
            "bus_rate": self.bus_rate,
            "buses_per_leg": self.buses_per_leg,
            "wait": wait,
            "ticket": self.ticket,
            "shuttle_between_hubs": self.shuttle_between_hubs,
            "candidate": self.candidate,
            "fixed_arcs": [list(a) for a in self.fixed_arcs],
            "fixed_arc_costed": self.fixed_arc_costed,
        }


@dataclass(frozen=True)
class WeightTable:
    """Derived arc weights: beta/tau over hub pairs, gamma over stop pairs."""

    beta: np.ndarray
    tau: np.ndarray
    gamma: np.ndarray
    varphi: float


def _as_matrix(rows, n: int, name: str) -> np.ndarray:
    m = np.array(rows, dtype=float, copy=True)
    if m.shape != (n, n):
        raise ValidationError(f"{name} must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(m < 0):
        raise ValidationError(f"{name} has negative entries")
    if np.any(np.diag(m) != 0):
        raise ValidationError(f"{name} diagonal must be zero")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance. Build via ``from_dict``/``load_instance``
    or the synthetic generator; direct construction skips no validation
    either (``__post_init__`` runs it).
    """

    stops: tuple[int, ...]
    hubs: tuple[int, ...]
    time: np.ndarray
    dist: np.ndarray
    trips: tuple[Trip, ...]
    params: CostParams
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stops", tuple(int(s) for s in self.stops))
        object.__setattr__(self, "hubs", tuple(sorted(int(h) for h in self.hubs)))
        object.__setattr__(self, "trips", tuple(self.trips))
        n = len(self.stops)
        if len(set(self.stops)) != n:
            raise ValidationError("duplicate stop ids")
        if not set(self.hubs) <= set(self.stops):
            raise ValidationError("hubs must be a subset of stops")
        if not self.hubs:
            raise ValidationError("at least one hub is required")
        object.__setattr__(self, "time", _as_matrix(self.time, n, "time"))
        object.__setattr__(self, "dist", _as_matrix(self.dist, n, "dist"))
        self._validate_params()
        self._validate_trips()
        self._validate_fixed_arcs()

    # -- validation ----------------------------------------------------

    def _validate_params(self):
        p = self.params
        if not 0.0 <= p.theta <= 1.0:
            raise ValidationError("theta out of range [0, 1]")
        if p.omega < 0 or p.ticket < 0 or p.buses_per_leg < 0 or p.bus_rate < 0:
            raise ValidationError("monetary rates must be non-negative")
        if p.bus_cost_mode not in (PER_DISTANCE, PER_TIME):
            raise ValidationError(f"unknown bus_cost_mode {p.bus_cost_mode!r}")
        nh = len(self.hubs)
        wait = p.wait
        if np.isscalar(wait):
            if not _finite(wait) or wait < 0:
                raise ValidationError("wait must be finite and non-negative")
        else:
            wait = np.asarray(wait, dtype=float)
            if wait.shape != (nh, nh):
                raise ValidationError(f"wait must be {nh}x{nh}")
            if np.any(wait < 0) or not np.all(np.isfinite(wait)):
                raise ValidationError("wait entries must be finite and non-negative")
        if p.candidate != "all":
            if isinstance(p.candidate, bool) or not isinstance(p.candidate, int) or p.candidate < 1:
                raise ValidationError("candidate must be 'all' or a positive integer k")

    def _validate_trips(self):
        known = set(self.stops)
        seen = set()
        for t in self.trips:
            if t.id in seen:
                raise ValidationError(f"duplicate trip id {t.id}")
            seen.add(t.id)
            if t.origin not in known:
                raise ValidationError(f"trip {t.id}: unknown stop {t.origin}")
            if t.destination not in known:
                raise ValidationError(f"trip {t.id}: unknown stop {t.destination}")
            if t.origin == t.destination:
                raise ValidationError(f"trip {t.id}: origin equals destination")
            if (
                isinstance(t.riders, bool)
                or not isinstance(t.riders, numbers.Integral)
                or t.riders < 1
            ):
                raise ValidationError(f"trip {t.id}: riders must be a positive integer")
            if t.kind == CORE:
                if t.alpha is not None or t.t_cur is not None:
                    raise ValidationError(f"trip {t.id}: core trips carry no alpha/t_cur")
            elif t.kind == LATENT:
                if not _finite(t.alpha) or t.alpha < 1.0:
                    raise ValidationError(f"trip {t.id}: latent trip needs a finite alpha >= 1")
                if not _finite(t.t_cur) or t.t_cur <= 0:
                    raise ValidationError(f"trip {t.id}: latent trip needs a finite t_cur > 0")
            else:
                raise ValidationError(f"trip {t.id}: unknown kind {t.kind!r}")

    def _validate_fixed_arcs(self):
        cand = set(self.candidate_arcs)
        for a in self.params.fixed_arcs:
            if tuple(a) not in cand:
                raise ValidationError(f"fixed arc {a} outside the candidate set")
        deg = {h: 0 for h in self.hubs}
        for h, l in self.params.fixed_arcs:
            deg[h] += 1
            deg[l] -= 1
        if any(v != 0 for v in deg.values()):
            raise ValidationError("fixed arcs are not weakly connected")

    # -- indexing helpers ----------------------------------------------

    @property
    def stop_index(self) -> dict:
        if "stop_index" not in self._caches:
            self._caches["stop_index"] = {s: i for i, s in enumerate(self.stops)}
        return self._caches["stop_index"]

    @property
    def hub_index(self) -> dict:
        if "hub_index" not in self._caches:
            self._caches["hub_index"] = {h: i for i, h in enumerate(self.hubs)}
        return self._caches["hub_index"]

    @property
    def candidate_arcs(self) -> tuple[tuple[int, int], ...]:
        """Ordered hub pairs that may carry a bus leg, materialized once.

        Arcs outside this set are permanently closed. Under nearest-k,
        both directions between a hub and each of its k nearest hubs
        (by travel time) are candidates.
        """
        if "candidate_arcs" not in self._caches:
            if self.params.candidate == "all":
                arcs = [(h, l) for h in self.hubs for l in self.hubs if h != l]
            else:
                k = int(self.params.candidate)
                idx = self.stop_index
                arcs = set()
                for h in self.hubs:
                    others = sorted(
                        (l for l in self.hubs if l != h),
                        key=lambda l: (self.time[idx[h], idx[l]], l),
                    )
                    for l in others[:k]:
                        arcs.add((h, l))
                        arcs.add((l, h))
            self._caches["candidate_arcs"] = tuple(sorted(arcs))
        return self._caches["candidate_arcs"]

    @property
    def fixed_arcs(self) -> frozenset:
        return frozenset(tuple(a) for a in self.params.fixed_arcs)

    @property
    def core_trips(self) -> tuple[Trip, ...]:
        return tuple(t for t in self.trips if not t.is_latent)

    @property
    def latent_trips(self) -> tuple[Trip, ...]:
        return tuple(t for t in self.trips if t.is_latent)

    def trip_by_id(self, trip_id: int) -> Trip:
        if "trip_map" not in self._caches:
            self._caches["trip_map"] = {t.id: t for t in self.trips}
        return self._caches["trip_map"][trip_id]

    @property
    def wait_matrix(self) -> np.ndarray:
        """Bus waiting minutes over hub pairs (scalar broadcast if needed)."""
        if "wait" not in self._caches:
            nh = len(self.hubs)
            w = self.params.wait
            if np.isscalar(w):
                w = np.full((nh, nh), float(w))
                np.fill_diagonal(w, 0.0)
            else:
                w = np.array(w, dtype=float, copy=True)
            w.setflags(write=False)
            self._caches["wait"] = w
        return self._caches["wait"]

    @property
    def metric_consistent(self) -> bool:
        """True when both matrices satisfy the triangle inequality.

        Routing exploits this to restrict the search graph to the trip
        endpoints, the hubs, and precomputed two-leg shuttle bridges.
        """
        if "triangle" not in self._caches:
            self._caches["triangle"] = bool(
                _satisfies_triangle(self.dist) and _satisfies_triangle(self.time)
            )
        return self._caches["triangle"]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "stops": list(self.stops),
            "hubs": list(self.hubs),
            "time": [[float(x) for x in row] for row in self.time],
            "dist": [[float(x) for x in row] for row in self.dist],
            "trips": [t.to_dict() for t in self.trips],
            "params": self.params.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Instance":
        if not isinstance(doc, dict):
            raise InstanceParseError("instance document must be a mapping")
        if doc.get("schema") != SCHEMA_VERSION:
            raise InstanceParseError(
                f"unsupported schema {doc.get('schema')!r}, expected {SCHEMA_VERSION}"
            )
        for key in ("stops", "hubs", "time", "dist", "trips", "params"):
            if key not in doc:
                raise InstanceParseError(f"missing section {key!r}")
        if not isinstance(doc["trips"], list):
            raise InstanceParseError("'trips' must be a list")
        if not isinstance(doc["params"], dict):
            raise InstanceParseError("'params' must be a mapping")
        trips = []
        for k, td in enumerate(doc["trips"]):
            where = f"trip entry {k}"
            if not isinstance(td, dict):
                raise InstanceParseError(f"{where} must be a mapping")
            trips.append(
                Trip(
                    id=_field(td, "id", int, where),
                    origin=_field(td, "origin", int, where),
                    destination=_field(td, "destination", int, where),
                    riders=_field(td, "riders", lambda v: v, where),
                    kind=td.get("kind", CORE),
                    alpha=td.get("alpha"),
                    t_cur=td.get("t_cur"),
                )
            )
        p = doc["params"]
        wait = p.get("wait", 7.5)
        if isinstance(wait, list):
            wait = np.asarray(wait, dtype=float)
        params = CostParams(
            theta=_field(p, "theta", float, "params"),
            omega=_field(p, "omega", float, "params"),
            bus_cost_mode=p.get("bus_cost_mode", PER_DISTANCE),
            bus_rate=_field(p, "bus_rate", float, "params", 3.87),
            buses_per_leg=_field(p, "buses_per_leg", float, "params", 16.0),
            wait=wait,
            ticket=_field(p, "ticket", float, "params", 2.5),
            shuttle_between_hubs=bool(p.get("shuttle_between_hubs", False)),
            candidate=p.get("candidate", "all"),
            fixed_arcs=tuple(tuple(a) for a in p.get("fixed_arcs", [])),
            fixed_arc_costed=bool(p.get("fixed_arc_costed", True)),
        )
        return cls(
            stops=tuple(doc["stops"]),
            hubs=tuple(doc["hubs"]),
            time=doc["time"],
            dist=doc["dist"],
            trips=tuple(trips),
            params=params,
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _satisfies_triangle(m: np.ndarray, tol: float = 1e-9) -> bool:
    n = m.shape[0]
    for k in range(n):
        if np.any(m > m[:, k, None] + m[None, k, :] + tol):
            return False
    return True


def load_instance(path: str | Path) -> Instance:
    """Read and validate a schema-1 instance file."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InstanceParseError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceParseError(f"malformed instance file {path}: {e}") from e
    return Instance.from_dict(doc)


def save_instance(inst: Instance, path: str | Path) -> str:
    """Write the instance as canonical JSON; returns the text written."""
    text = inst.to_json(indent=1) + "\n"
    Path(path).write_text(text)
    return text


def derive_weights(inst: Instance) -> WeightTable:
    """Materialize beta, tau, gamma and varphi from the cost parameters."""
    p = inst.params
    hubs = inst.hubs
    sidx = inst.stop_index
    hub_pos = np.array([sidx[h] for h in hubs], dtype=int)
    t_hub = inst.time[np.ix_(hub_pos, hub_pos)]
    d_hub = inst.dist[np.ix_(hub_pos, hub_pos)]
    if p.bus_cost_mode == PER_DISTANCE:
        beta = (1.0 - p.theta) * p.bus_rate * p.buses_per_leg * d_hub
    else:
        beta = (1.0 - p.theta) * p.bus_rate * p.buses_per_leg * t_hub / 60.0
    tau = p.theta * (t_hub + inst.wait_matrix)
    gamma = (1.0 - p.theta) * p.omega * inst.dist + p.theta * inst.time
    for m in (beta, tau, gamma):
        m.setflags(write=False)
    return WeightTable(beta=beta, tau=tau, gamma=gamma, varphi=(1.0 - p.theta) * p.ticket)
