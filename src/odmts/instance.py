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

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, wraps
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

CORE = "core"
LATENT = "latent"

PER_DISTANCE = "per_distance"
PER_TIME = "per_time"

# CostParams fields that must be finite numbers.
_RATES = ("theta", "omega", "bus_rate", "buses_per_leg", "ticket")
# Trip ids lie in [-_INT64, _INT64), the int64 arrays routing builds.
_INT64 = 2**63


class ValidationError(ValueError):
    """An instance value breaks one of its rules, whatever its source."""


class InstanceParseError(ValueError):
    """The file is not a well-formed instance document: not JSON, not a
    mapping, another schema, a section or key missing, or a section of
    the wrong container type."""


def _finite(x) -> bool:
    """A finite real number; bools (JSON true/false) are not numbers here,
    and an integer too large for a float is not finite."""
    try:
        return (type(x) is float or _real(type(x))) and math.isfinite(x)
    except OverflowError:
        return False


def _integral(x) -> bool:
    """An integer; bools (JSON true/false) are not integers here."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _real(kind: type) -> bool:
    """A real number type other than bool (numpy's ``np.bool_`` is none)."""
    return issubclass(kind, numbers.Real) and kind is not bool


def _bad(where: str, key: str, expected: str, value) -> ValidationError:
    """The error for a value of the wrong type, named as in the document."""
    return ValidationError(f"{where}: bad {key!r}: expected {expected}, got {value!r}")


def _plain(x):
    """x as a Python number: an int or a float stays as it is, so a JSON
    integer keeps its bytes; any other number becomes a float."""
    return x if type(x) in (int, float) else float(x)


def hub_pairs(arcs, label: str, inst: Instance | None = None) -> list:
    """``arcs`` as (int, int) hub pairs, in their order. Each arc is a list
    or tuple of two integer hub ids (bools are not) and, given ``inst``, one
    of its candidate arcs; an error names the arc as ``label`` and its value."""
    pairs = []
    for a in arcs:
        if not (type(a) is tuple and len(a) == 2 and type(a[0]) is type(a[1]) is int):
            if not (isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_integral, a))):
                raise ValidationError(f"{label} {a!r} is not a pair of integer hub ids")
            a = (int(a[0]), int(a[1]))
        pairs.append(a)
    if inst is not None and not _candidate_set(inst).issuperset(pairs):
        outside = next(a for a in pairs if a not in _candidate_set(inst))
        raise ValidationError(f"{label} {outside} outside the candidate set")
    return pairs


def memo(fn):
    """Keep ``fn(obj)``, a value derived from one ``Instance`` or
    ``Design``, in ``obj.__dict__``, as ``cached_property`` keeps a
    property's: computed on the first call, then returned as is. A
    ``dataclasses.replace`` copy is a new object and computes its own."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def get(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            value = obj.__dict__[key] = fn(obj)
            return value

    return get


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
        """The trip's document entry; a core trip has no alpha or t_cur."""
        d = dataclasses.asdict(self)
        if not self.is_latent:
            del d["alpha"], d["t_cur"]
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
        """The document's params section; a wait matrix as float lists."""
        d = dataclasses.asdict(self)
        if isinstance(self.wait, np.ndarray):
            d["wait"] = [[float(x) for x in row] for row in self.wait]
        return d


@dataclass(frozen=True)
class WeightTable:
    """Derived arc weights: beta/tau over hub pairs, gamma over stop pairs."""

    beta: np.ndarray
    tau: np.ndarray
    gamma: np.ndarray
    varphi: float


def _float_matrix(rows, n: int, where: str, name: str) -> np.ndarray:
    """``rows`` as a new read-only n x n float array whose entries were all
    numbers. The array cannot tell: it reads "0.5" and true as numbers and
    null as NaN. So an ndarray is judged by its dtype, and a list of rows by the
    set of entry types of each row (``_real``)."""
    try:
        m = np.array(rows, dtype=float, copy=True)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{where}: bad {name!r}: {e}") from None
    if m.shape != (n, n):
        raise ValidationError(f"{name} must be {n}x{n}, got {m.shape}")
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iuf":
            raise _bad(where, name, "a matrix of numbers", rows.dtype)
    elif not all(map(_real, set().union(*(map(type, row) for row in rows)))):
        bad = next(x for row in rows for x in row if not _real(type(x)))
        raise _bad(where, name, "a matrix of numbers", bad)
    m.setflags(write=False)
    return m


def _as_matrix(rows, n: int, name: str) -> np.ndarray:
    m = _float_matrix(rows, n, "instance", name)
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(m < 0):
        raise ValidationError(f"{name} has negative entries")
    if np.any(np.diag(m) != 0):
        raise ValidationError(f"{name} diagonal must be zero")
    return m


def _read_params(p: CostParams, n_hubs: int) -> CostParams:
    """p checked and in its stored form: float rates, a ``_plain`` scalar
    wait or a read-only float wait matrix, an int candidate k and fixed
    arcs as int pairs."""
    for key in _RATES:
        if not _finite(getattr(p, key)):
            raise _bad("params", key, "a finite number", getattr(p, key))
    for key in ("shuttle_between_hubs", "fixed_arc_costed"):
        if not isinstance(getattr(p, key), bool):
            raise _bad("params", key, "true or false", getattr(p, key))
    if not 0.0 <= p.theta <= 1.0:
        raise ValidationError("theta out of range [0, 1]")
    if p.omega < 0 or p.ticket < 0 or p.buses_per_leg < 0 or p.bus_rate < 0:
        raise ValidationError("monetary rates must be non-negative")
    if p.bus_cost_mode not in (PER_DISTANCE, PER_TIME):
        raise ValidationError(f"unknown bus_cost_mode {p.bus_cost_mode!r}")
    if np.isscalar(p.wait):
        if not _finite(p.wait) or p.wait < 0:
            raise ValidationError("wait must be finite and non-negative")
        wait = _plain(p.wait)
    else:
        wait = _float_matrix(p.wait, n_hubs, "params", "wait")
        if np.any(wait < 0) or not np.all(np.isfinite(wait)):
            raise ValidationError("wait entries must be finite and non-negative")
    if p.candidate != "all":
        if not _integral(p.candidate) or p.candidate < 1:
            raise ValidationError("candidate must be 'all' or a positive integer k")
    if not isinstance(p.fixed_arcs, (list, tuple)):
        raise _bad("params", "fixed_arcs", "a list of [h, l] hub pairs", p.fixed_arcs)
    return dataclasses.replace(
        p, **{key: float(getattr(p, key)) for key in _RATES}, wait=wait,
        candidate=p.candidate if p.candidate == "all" else int(p.candidate),
        fixed_arcs=tuple(hub_pairs(p.fixed_arcs, "fixed arc")),
    )


def _read_trips(trips, known: set) -> tuple[Trip, ...]:
    """The trips checked, each with int id, stops and riders and, when
    latent, ``_plain`` alpha and t_cur; a trip already so is kept as is."""
    out, seen = [], set()
    for k, t in enumerate(trips):
        for key in ("id", "origin", "destination"):
            if not _integral(getattr(t, key)):
                raise _bad(f"trip entry {k}", key, "an integer", getattr(t, key))
        if not -_INT64 <= t.id < _INT64:
            raise _bad(f"trip entry {k}", "id", "an integer within int64", t.id)
        if t.id in seen:
            raise ValidationError(f"duplicate trip id {t.id}")
        seen.add(t.id)
        if t.origin not in known:
            raise ValidationError(f"trip {t.id}: unknown stop {t.origin}")
        if t.destination not in known:
            raise ValidationError(f"trip {t.id}: unknown stop {t.destination}")
        if t.origin == t.destination:
            raise ValidationError(f"trip {t.id}: origin equals destination")
        if not _integral(t.riders) or t.riders < 1:
            raise ValidationError(f"trip {t.id}: riders must be a positive integer")
        if t.riders > 2**53:  # scoring and the LP weigh riders as floats, exact up to 2**53
            raise _bad(f"trip entry {k}", "riders", "an integer within [1, 2**53]", t.riders)
        alpha, t_cur = t.alpha, t.t_cur
        if t.kind == CORE:
            if alpha is not None or t_cur is not None:
                raise ValidationError(f"trip {t.id}: core trips carry no alpha/t_cur")
        elif t.kind == LATENT:
            if not _finite(alpha) or alpha < 1.0:
                raise ValidationError(f"trip {t.id}: latent trip needs a finite alpha >= 1")
            if not _finite(t_cur) or t_cur <= 0:
                raise ValidationError(f"trip {t.id}: latent trip needs a finite t_cur > 0")
            alpha, t_cur = _plain(alpha), _plain(t_cur)
        else:
            raise ValidationError(f"trip {t.id}: unknown kind {t.kind!r}")
        if {type(t.id), type(t.origin), type(t.destination), type(t.riders)} != {int} or (
                alpha is not t.alpha or t_cur is not t.t_cur):
            t = dataclasses.replace(t, id=int(t.id), origin=int(t.origin),
                                    destination=int(t.destination), riders=int(t.riders),
                                    alpha=alpha, t_cur=t_cur)
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance. Build via ``from_dict``/``load_instance``,
    the synthetic generator or directly: on all three paths ``__post_init__``
    stores each section as its reader checks and returns it.
    """

    stops: tuple[int, ...]
    hubs: tuple[int, ...]
    time: np.ndarray
    dist: np.ndarray
    trips: tuple[Trip, ...]
    params: CostParams

    def __post_init__(self):
        for key in ("stops", "hubs"):
            ids = getattr(self, key)
            if not isinstance(ids, (list, tuple)) or not all(map(_integral, ids)):
                raise _bad("instance", key, "a list of integers", ids)
        object.__setattr__(self, "stops", tuple(int(s) for s in self.stops))
        object.__setattr__(self, "hubs", tuple(sorted(int(h) for h in self.hubs)))
        n, known = len(self.stops), set(self.stops)
        if len(known) != n:
            raise ValidationError("duplicate stop ids")
        if len(set(self.hubs)) != len(self.hubs):
            raise ValidationError("duplicate hub ids")
        if not set(self.hubs) <= known:
            raise ValidationError("hubs must be a subset of stops")
        if not self.hubs:
            raise ValidationError("at least one hub is required")
        object.__setattr__(self, "time", _as_matrix(self.time, n, "time"))
        object.__setattr__(self, "dist", _as_matrix(self.dist, n, "dist"))
        object.__setattr__(self, "params", _read_params(self.params, len(self.hubs)))
        object.__setattr__(self, "trips", _read_trips(self.trips, known))
        fixed = self.params.fixed_arcs
        if len(set(fixed)) < len(fixed):
            twice = next(a for i, a in enumerate(fixed) if a in fixed[:i])
            raise ValidationError(f"duplicate fixed arc {twice}")
        hub_pairs(fixed, "fixed arc", self)
        if any(self.hub_degree(self.params.fixed_arcs)):
            raise ValidationError("fixed arcs are not weakly connected")

    # -- indexing helpers ----------------------------------------------

    @cached_property
    def stop_index(self) -> dict:
        return {s: i for i, s in enumerate(self.stops)}

    @cached_property
    def hub_index(self) -> dict:
        return {h: i for i, h in enumerate(self.hubs)}

    @cached_property
    def hub_positions(self) -> np.ndarray:
        """Row of each hub in the matrices, in ``hubs`` order; read-only."""
        pos = np.array([self.stop_index[h] for h in self.hubs], dtype=int)
        pos.setflags(write=False)
        return pos

    @cached_property
    def trip_index(self) -> dict:
        """Row of each trip in ``trips``, by trip id."""
        return {t.id: i for i, t in enumerate(self.trips)}

    def trip_ids(self, ids) -> frozenset:
        """``ids`` as a set of this instance's trip ids; an unknown or a
        non-integer id (``True`` and ``1.0`` included) raises
        ``ValidationError``. A frozenset is checked and returned as is."""
        if type(ids) is not frozenset:
            ids = list(ids)  # checked before {1, True} or {1, 1.0} collapse
        out = frozenset(ids)
        kinds = set(map(type, ids))  # bools are not integers here
        integral = all(issubclass(k, numbers.Integral) and k is not bool for k in kinds)
        if not (integral and self.trip_index.keys() >= out):
            raise ValidationError("tset references unknown trip ids")
        return out

    def hub_degree(self, arcs) -> list:
        """Out-degree minus in-degree of each hub over ``arcs``, in ``hubs``
        order; an arc set is weakly connected when this is all zero."""
        hidx = self.hub_index
        deg = [0] * len(self.hubs)
        for h, l in arcs:
            deg[hidx[h]] += 1
            deg[hidx[l]] -= 1
        return deg

    @cached_property
    def candidate_arcs(self) -> tuple[tuple[int, int], ...]:
        """Ordered hub pairs that may carry a bus leg.

        Arcs outside this set are permanently closed. Under nearest-k,
        both directions between a hub and each of its k nearest hubs
        (by travel time) are candidates.
        """
        if self.params.candidate == "all":
            arcs = [(h, l) for h in self.hubs for l in self.hubs if h != l]
        else:
            idx = self.stop_index
            arcs = set()
            for h in self.hubs:
                others = sorted(
                    (l for l in self.hubs if l != h),
                    key=lambda l: (self.time[idx[h], idx[l]], l),
                )
                for l in others[:self.params.candidate]:
                    arcs.add((h, l))
                    arcs.add((l, h))
        return tuple(sorted(arcs))

    @cached_property
    def fixed_arcs(self) -> frozenset:
        return frozenset(self.params.fixed_arcs)

    @cached_property
    def core_trips(self) -> tuple[Trip, ...]:
        return tuple(t for t in self.trips if not t.is_latent)

    @cached_property
    def core_ids(self) -> frozenset:
        """Ids of the core trips, which every heuristic trip set contains."""
        return frozenset(t.id for t in self.core_trips)

    @cached_property
    def latent_trips(self) -> tuple[Trip, ...]:
        return tuple(t for t in self.trips if t.is_latent)

    @cached_property
    def latent_ids(self) -> frozenset:
        """Ids of the latent trips, which may adopt a design or not."""
        return frozenset(t.id for t in self.latent_trips)

    def trip_by_id(self, trip_id: int) -> Trip:
        return self.trips[self.trip_index[trip_id]]

    @cached_property
    def wait_matrix(self) -> np.ndarray:
        """Bus waiting minutes over hub pairs: the stored matrix, or a scalar
        wait broadcast off the diagonal; read-only."""
        if isinstance(self.params.wait, np.ndarray):
            return self.params.wait
        w = np.full((len(self.hubs),) * 2, float(self.params.wait))
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        return w

    @cached_property
    def metric_consistent(self) -> bool:
        """True when both matrices satisfy the triangle inequality, an O(n^3)
        check on the first read, over half the pairs of a symmetric matrix.
        Routing then restricts its search graph to the trip endpoints, the
        hubs and precomputed two-leg shuttle bridges."""
        return bool(_satisfies_triangle(self.dist) and _satisfies_triangle(self.time))

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
        """The instance of a schema-1 document. Values go to ``Trip``,
        ``CostParams`` and ``Instance`` as read; ``__post_init__`` checks
        them."""
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
            if not isinstance(td, dict):
                raise InstanceParseError(f"trip entry {k} must be a mapping")
            trips.append(_read(Trip, td, f"trip entry {k}"))
        return cls(
            stops=doc["stops"], hubs=doc["hubs"], time=doc["time"], dist=doc["dist"],
            trips=tuple(trips), params=_read(CostParams, doc["params"], "params"),
        )

    def to_json(self) -> str:
        """The canonical JSON text of the instance, as ``save_instance``
        writes it."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


def _read(kind, doc: dict, where: str):
    """A ``kind`` built from the keys of ``doc`` that name its fields, as
    read; a field without a default must be there."""
    args = {}
    for f in dataclasses.fields(kind):
        if f.name in doc:
            args[f.name] = doc[f.name]
        elif f.default is dataclasses.MISSING:
            raise InstanceParseError(f"{where}: missing key {f.name!r}")
    return kind(**args)


@memo
def _candidate_set(inst: Instance) -> frozenset:
    return frozenset(inst.candidate_arcs)


def _satisfies_triangle(m: np.ndarray) -> bool:
    """No m[i, j] exceeds m[i, k] + m[k, j] + 1e-9; m has a zero diagonal and
    no negative entry, so no pair (i, i) fails. A symmetric m is checked
    over the pairs j > i as min over k of m[j, k] + m[i, k], bit for bit
    m[i, k] + m[k, j]; any other m row by row against its min-plus product."""
    if np.array_equal(m, m.T):
        lo = np.full_like(m, np.inf)  # inf on and below the diagonal
        for i in range(m.shape[0] - 1):
            (m[i + 1:] + m[i]).min(axis=1, out=lo[i, i + 1:])
        return not (m > lo + 1e-9).any()
    for i in range(m.shape[0]):
        if np.any(m[i] > (m[i, :, None] + m).min(axis=0) + 1e-9):
            return False
    return True


def read_json(path: str | Path, what: str):
    """The JSON document in the file at ``path``. A file that cannot be
    read, is not UTF-8 text or is not JSON that Python reads (an integer
    of more than 4300 digits is not) raises ``InstanceParseError`` naming
    it, ``what`` saying which kind of file it is."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise InstanceParseError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError among them
        raise InstanceParseError(f"malformed {what} file {path}: {e}") from e


def load_instance(path: str | Path) -> Instance:
    """Read and validate a schema-1 instance file."""
    return Instance.from_dict(read_json(path, "instance"))


def save_instance(inst: Instance, path: str | Path) -> str:
    """Write the instance as canonical JSON; returns the text written."""
    text = inst.to_json()
    Path(path).write_text(text)
    return text


def derive_weights(inst: Instance) -> WeightTable:
    """Materialize beta, tau, gamma and varphi from the cost parameters."""
    p = inst.params
    hub_pos = inst.hub_positions
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
