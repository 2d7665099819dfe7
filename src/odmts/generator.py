"""Deterministic synthetic instance generator.

Stops are uniform points in a planar square; travel time is distance
over a single speed, so both matrices are Euclidean-consistent and the
direct-trip test is meaningful. Income classes partition the stops
geographically (nearest class anchor) and a trip's class is decided by
its destination stop; the lowest-income class forms the core trips and
the remaining classes are latent with a per-class tolerance alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import CORE, LATENT, CostParams, Instance, Trip, ValidationError


@dataclass(frozen=True)
class TripClass:
    """One income class: trip count, tolerance (None marks the core class)."""

    count: int
    alpha: float | None = None
    max_riders: int = 8


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for ``generate_synthetic``. Defaults mirror a mid-size
    agency evening commute: theta 0.001, $1/km shuttles, and the
    ``CostParams`` defaults for the rest (per-km bus costs, no fixed
    arcs).
    """

    stops: int = 100
    hubs: int = 8
    classes: tuple[TripClass, ...] = (
        TripClass(count=60, alpha=None),
        TripClass(count=100, alpha=2.0),
        TripClass(count=40, alpha=1.5),
    )
    square_km: float = 12.0
    speed_kmh: float = 36.0
    theta: float = 0.001
    omega: float = 1.0
    bus_rate: float = CostParams.bus_rate
    buses_per_leg: float = CostParams.buses_per_leg
    wait: float = CostParams.wait
    ticket: float = CostParams.ticket
    shuttle_between_hubs: bool = CostParams.shuttle_between_hubs
    candidate: str | int = CostParams.candidate


def _pick_hubs(points: np.ndarray, k: int) -> list[int]:
    """Farthest-point selection seeded at the most central stop; spreads
    hubs over the square without extra RNG draws."""
    center = points.mean(axis=0)
    first = int(np.argmin(((points - center) ** 2).sum(axis=1)))
    chosen = [first]
    d2 = ((points - points[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return sorted(chosen)


def generate_synthetic(config: GeneratorConfig, seed: int) -> Instance:
    """Build a validated instance, byte-stable for a fixed (config, seed)."""
    if config.hubs > config.stops:
        raise ValidationError("more hubs than stops")
    if config.hubs < 1 or config.stops < 2:
        raise ValidationError("need at least 2 stops and 1 hub")
    for name in ("square_km", "speed_kmh"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    for spec in config.classes:
        if spec.count < 0:
            raise ValidationError(f"trip class count must be >= 0, got {spec.count}")
        if spec.max_riders < 1:
            raise ValidationError(f"max_riders must be >= 1, got {spec.max_riders}")
    rng = np.random.default_rng(seed)
    n = config.stops
    pts = rng.uniform(0.0, config.square_km, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    time = dist / config.speed_kmh * 60.0

    hubs = _pick_hubs(pts, config.hubs)

    # Class anchors partition the stops; destination decides a trip's class.
    n_classes = len(config.classes)
    anchors = rng.uniform(0.0, config.square_km, size=(n_classes, 2))
    stop_class = np.argmin(
        ((pts[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    class_stops = [np.flatnonzero(stop_class == c) for c in range(n_classes)]
    all_stops = np.arange(n)

    trips = []
    for c, spec in enumerate(config.classes):
        dests = class_stops[c] if len(class_stops[c]) else all_stops
        for _ in range(spec.count):
            de = int(rng.choice(dests))
            orig = int(rng.choice(all_stops))
            while orig == de:
                orig = int(rng.choice(all_stops))
            riders = int(rng.integers(1, spec.max_riders + 1))
            latent = spec.alpha is not None
            trips.append(Trip(id=len(trips), origin=orig, destination=de, riders=riders,
                              kind=LATENT if latent else CORE,
                              alpha=float(spec.alpha) if latent else None,
                              t_cur=float(time[orig, de]) if latent else None))

    params = CostParams(
        theta=config.theta,
        omega=config.omega,
        bus_rate=config.bus_rate,
        buses_per_leg=config.buses_per_leg,
        wait=config.wait,
        ticket=config.ticket,
        shuttle_between_hubs=config.shuttle_between_hubs,
        candidate=config.candidate,
    )
    return Instance(
        stops=tuple(range(n)),
        hubs=tuple(hubs),
        time=time,
        dist=dist,
        trips=tuple(trips),
        params=params,
    )
