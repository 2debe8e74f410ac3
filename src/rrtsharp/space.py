"""Problem geometry: axis-aligned worlds, cost zones, sampling and edge costs.

A planning problem lives in an axis-aligned box in R^d.  Obstacles and cost
zones are axis-aligned boxes as well.  Collision semantics are interior-based:
a segment is blocked only if it passes through the open interior of an
obstacle, so segments that merely touch a face are free.  Edge costs are exact
line integrals of a piecewise-constant coefficient field (one coefficient per
zone, a default elsewhere), computed by parametric clipping rather than
numeric quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

import numpy as np

Point = tuple[float, ...]

DEFAULT_SAMPLE_BUDGET = 10_000


class ScenarioError(ValueError):
    """Raised when a scenario file or object fails validation.

    The message always names the offending field.
    """


class SamplingBudgetError(RuntimeError):
    """Raised when rejection sampling exhausts its budget of consecutive
    rejected draws without producing a collision-free point."""


@dataclass(frozen=True)
class AxisBox:
    """Closed axis-aligned box given by componentwise lower/upper corners."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ScenarioError("box lo/hi dimension mismatch")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ScenarioError("box must have lo < hi on every axis")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains(self, p: Sequence[float]) -> bool:
        """Closed containment: face points count as inside."""
        return all(l <= x <= h for x, l, h in zip(p, self.lo, self.hi))

    def contains_interior(self, p: Sequence[float]) -> bool:
        """Open containment: face points count as outside."""
        return all(l < x < h for x, l, h in zip(p, self.lo, self.hi))

    def volume(self) -> float:
        v = 1.0
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    def clipped_volume(self, other: "AxisBox") -> float:
        """Volume of the intersection with ``other`` (0.0 when disjoint)."""
        v = 1.0
        for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi):
            w = min(h, oh) - max(l, ol)
            if w <= 0.0:
                return 0.0
            v *= w
        return v

    def overlaps_interior(self, other: "AxisBox") -> bool:
        """True when the two boxes share interior volume (touching faces do
        not count)."""
        return all(
            max(l, ol) < min(h, oh)
            for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )


@dataclass(frozen=True)
class CostZone:
    """A box with a strictly positive traversal-cost coefficient."""

    box: AxisBox
    coefficient: float

    def __post_init__(self) -> None:
        if not (self.coefficient > 0.0 and math.isfinite(self.coefficient)):
            raise ScenarioError("zone coefficient must be finite and > 0")


@dataclass(frozen=True)
class Scenario:
    """A complete planning problem description.

    ``min_coefficient`` is the smallest coefficient anywhere in the world and
    is what keeps the goal heuristic admissible when zones cost less than the
    default.
    """

    bounds: AxisBox
    obstacles: tuple[AxisBox, ...]
    zones: tuple[CostZone, ...]
    x_init: Point
    goal: AxisBox
    default_coefficient: float = 1.0
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def dimension(self) -> int:
        return self.bounds.dimension

    @property
    def min_coefficient(self) -> float:
        return min(
            [self.default_coefficient] + [z.coefficient for z in self.zones]
        )

    def free_volume(self) -> float:
        """Bounds volume minus obstacle volume (obstacles clipped to bounds).

        Overlapping obstacles are not deduplicated; bundled and generated
        scenarios keep obstacles disjoint.
        """
        v = self.bounds.volume()
        for ob in self.obstacles:
            v -= self.bounds.clipped_volume(ob)
        return max(v, 1e-12)

    def within(self, lo: Sequence[float], hi: Sequence[float]) -> "Scenario":
        """This scenario with only the obstacles and zones whose boxes the
        closed box [lo, hi] is not axis-separated from, in their original
        order.

        Exact for every segment with both endpoints in [lo, hi]: both
        endpoints lie on or beyond one face of each dropped box, where the
        slab clip finds no interval, so collision verdicts and edge costs
        are the same bit for bit.
        """
        obstacles, zones = self._boxed_items
        obstacles = _not_separated(obstacles, lo, hi)
        zones = _not_separated(zones, lo, hi)
        if not obstacles and not zones:
            return self._bare
        return Scenario(
            self.bounds, tuple(obstacles), tuple(zones), self.x_init,
            self.goal, self.default_coefficient, self.metadata,
        )

    @cached_property
    def _boxed_items(self) -> tuple[list, list]:
        """``(lo, hi, item)`` for every obstacle and for every zone."""
        return (
            [(ob.lo, ob.hi, ob) for ob in self.obstacles],
            [(zn.box.lo, zn.box.hi, zn) for zn in self.zones],
        )

    @cached_property
    def _bare(self) -> "Scenario":
        """This scenario without obstacles or zones, built once: the
        restriction to a box that touches none of them."""
        return Scenario(
            self.bounds, (), (), self.x_init, self.goal,
            self.default_coefficient, self.metadata,
        )


def _not_separated(boxed: list, lo: Sequence[float], hi: Sequence[float]) -> list:
    """The items of ``(box lo, box hi, item)`` entries whose box the closed
    box [lo, hi] is not axis-separated from, in order: on every axis the
    two overlap in more than a point."""
    axes = range(len(lo))
    kept = []
    for blo, bhi, item in boxed:
        for i in axes:
            if blo[i] >= hi[i] or bhi[i] <= lo[i]:
                break
        else:
            kept.append(item)
    return kept


def validate_scenario(sc: Scenario) -> Scenario:
    """Check cross-field invariants, raising ScenarioError naming the field."""
    d = sc.dimension
    if d < 2:
        raise ScenarioError("dimension: must be at least 2")
    if not math.isfinite(sc.bounds.volume()):
        raise ScenarioError("bounds: volume must be finite")
    if len(sc.x_init) != d:
        raise ScenarioError("x_init: dimension mismatch with bounds")
    if not sc.bounds.contains(sc.x_init):
        raise ScenarioError("x_init: must lie inside bounds")
    if sc.goal.dimension != d:
        raise ScenarioError("goal: dimension mismatch with bounds")
    for axis in range(d):
        if sc.goal.lo[axis] < sc.bounds.lo[axis] or sc.goal.hi[axis] > sc.bounds.hi[axis]:
            raise ScenarioError("goal: must be contained in bounds")
    for i, ob in enumerate(sc.obstacles):
        if ob.dimension != d:
            raise ScenarioError(f"obstacles[{i}]: dimension mismatch with bounds")
        if ob.contains_interior(sc.x_init):
            raise ScenarioError(f"obstacles[{i}]: contains x_init")
        if ob.overlaps_interior(sc.goal):
            raise ScenarioError(f"obstacles[{i}]: overlaps goal box")
    for i, zn in enumerate(sc.zones):
        if zn.box.dimension != d:
            raise ScenarioError(f"zones[{i}]: dimension mismatch with bounds")
        for j in range(i):
            if zn.box.overlaps_interior(sc.zones[j].box):
                raise ScenarioError(f"zones[{i}]: overlaps zones[{j}]")
    if not (sc.default_coefficient > 0.0 and math.isfinite(sc.default_coefficient)):
        raise ScenarioError("default_coefficient: must be finite and > 0")
    return sc


def _to_float(x: int | float) -> float:
    """``x`` as a float; an integer too large for a float reads as inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _point(raw: Any, where: str) -> Point:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ScenarioError(f"{where}: expected a non-empty list of numbers")
    out = []
    for k, x in enumerate(raw):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise ScenarioError(f"{where}[{k}]: expected a number")
        value = _to_float(x)
        if not math.isfinite(value):
            raise ScenarioError(f"{where}[{k}]: must be a finite number")
        out.append(value)
    return tuple(out)


def _box(raw: Any, where: str) -> AxisBox:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object with min/max")
    for key in ("min", "max"):
        if key not in raw:
            raise ScenarioError(f"{where}.{key}: missing")
    extra = set(raw) - {"min", "max"}
    if extra:
        raise ScenarioError(f"{where}.{sorted(extra)[0]}: unknown field")
    lo = _point(raw["min"], f"{where}.min")
    hi = _point(raw["max"], f"{where}.max")
    if len(lo) != len(hi):
        raise ScenarioError(f"{where}: min/max length mismatch")
    if not all(l < h for l, h in zip(lo, hi)):
        raise ScenarioError(f"{where}: min must be < max on every axis")
    return AxisBox(lo, hi)


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load and validate a scenario from a JSON file path or a parsed dict.

    Schema: ``dimension`` (int), ``bounds`` {min, max}, ``obstacles`` (list of
    {min, max}), ``zones`` (list of {min, max, coefficient}), ``x_init``
    (list), ``goal`` {min, max}.  An optional ``metadata`` object is carried
    through untouched.  Unknown fields are rejected.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"scenario file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file: invalid JSON ({exc})") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")

    allowed = {"dimension", "bounds", "obstacles", "zones", "x_init", "goal", "metadata"}
    extra = set(data) - allowed
    if extra:
        raise ScenarioError(f"{sorted(extra)[0]}: unknown field")
    for key in ("dimension", "bounds", "obstacles", "zones", "x_init", "goal"):
        if key not in data:
            raise ScenarioError(f"{key}: missing")

    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ScenarioError("dimension: must be an integer >= 2")

    bounds = _box(data["bounds"], "bounds")
    if bounds.dimension != dim:
        raise ScenarioError("bounds: dimension mismatch with 'dimension'")

    if not isinstance(data["obstacles"], list):
        raise ScenarioError("obstacles: expected a list")
    obstacles = tuple(
        _box(raw, f"obstacles[{i}]") for i, raw in enumerate(data["obstacles"])
    )

    if not isinstance(data["zones"], list):
        raise ScenarioError("zones: expected a list")
    zones = []
    for i, raw in enumerate(data["zones"]):
        if not isinstance(raw, dict):
            raise ScenarioError(f"zones[{i}]: expected an object")
        if "coefficient" not in raw:
            raise ScenarioError(f"zones[{i}].coefficient: missing")
        coef = raw["coefficient"]
        if not isinstance(coef, (int, float)) or isinstance(coef, bool) or not coef > 0:
            raise ScenarioError(f"zones[{i}].coefficient: must be a number > 0")
        coef = _to_float(coef)
        if not math.isfinite(coef):
            raise ScenarioError(f"zones[{i}].coefficient: must be a finite number")
        box = _box({"min": raw.get("min"), "max": raw.get("max")}, f"zones[{i}]")
        zones.append(CostZone(box, coef))

    x_init = _point(data["x_init"], "x_init")
    goal = _box(data["goal"], "goal")

    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioError("metadata: expected an object")

    sc = Scenario(
        bounds=bounds,
        obstacles=obstacles,
        zones=tuple(zones),
        x_init=x_init,
        goal=goal,
        metadata=dict(metadata),
    )
    return validate_scenario(sc)


class SeededRng:
    """Deterministic PCG64 random stream.

    Seed material is an int or a tuple of ints fed through numpy's
    SeedSequence, so a given seed reproduces the identical draw sequence on
    every platform.  Trials derive their streams from (base_seed, trial).
    """

    def __init__(self, seed: int | tuple[int, ...]) -> None:
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def uniform_point(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return self._gen.uniform(lo, hi)


def sample_free(
    rng: SeededRng,
    scenario: Scenario,
    max_rejections: int = DEFAULT_SAMPLE_BUDGET,
) -> Point:
    """Draw a uniform point over the bounds, rejecting obstacle interiors.

    Raises SamplingBudgetError after ``max_rejections`` consecutive rejected
    draws.
    """
    lo = np.asarray(scenario.bounds.lo)
    hi = np.asarray(scenario.bounds.hi)
    obstacles = scenario.obstacles
    for _ in range(max_rejections + 1):
        p = rng.uniform_point(lo, hi)
        pt = tuple(map(float, p))
        if not any(ob.contains_interior(pt) for ob in obstacles):
            return pt
    raise SamplingBudgetError(
        f"no free sample after {max_rejections} consecutive rejections"
    )


def _clip_interior_interval(
    a: Point, b: Point, lo: Point, hi: Point
) -> tuple[float, float] | None:
    """Parameter interval of segment a->b inside the open box (lo, hi), or
    None.  This one parametric slab clip decides both collisions and zone
    contributions.

    Grazing contact (a touching face or single point) has zero measure and
    returns None, so it neither blocks a segment nor adds to a line
    integral.  When both endpoints lie on or beyond one face, the slab
    arithmetic would find no interval either (rounding is monotone, so the
    entry parameter computes as >= 1 or the exit parameter as <= 0); a
    first pass over the axes answers that case without a division.
    ``Scenario.within`` relies on it.
    """
    for i in range(len(a)):
        ai = a[i]
        bi = b[i]
        if (ai <= lo[i] and bi <= lo[i]) or (ai >= hi[i] and bi >= hi[i]):
            return None
    t0 = 0.0
    t1 = 1.0
    for i in range(len(a)):
        ai = a[i]
        di = b[i] - ai
        if di == 0.0:
            continue  # not separated, so lo[i] < ai < hi[i]
        u = (lo[i] - ai) / di
        v = (hi[i] - ai) / di
        if u > v:
            u, v = v, u
        if u > t0:
            t0 = u
        if v < t1:
            t1 = v
        if t0 >= t1:
            return None
    return (t0, t1)


def segment_obstacle_free(a: Point, b: Point, scenario: Scenario) -> bool:
    """True when the closed segment a->b avoids every obstacle interior.

    Touching an obstacle face is free; only interior penetration blocks.
    """
    for ob in scenario.obstacles:
        if _clip_interior_interval(a, b, ob.lo, ob.hi) is not None:
            return False
    return True


def edge_cost(a: Point, b: Point, scenario: Scenario) -> float:
    """Exact line integral of the zone coefficient field along segment a->b.

    The endpoint order is canonicalised internally so that
    edge_cost(a, b) == edge_cost(b, a) bit for bit.
    """
    if b < a:
        a, b = b, a
    length = math.dist(a, b)
    if length == 0.0:
        return 0.0
    default = scenario.default_coefficient
    total = default * length
    for zone in scenario.zones:
        seg = _clip_interior_interval(a, b, zone.box.lo, zone.box.hi)
        if seg is not None:
            total += (zone.coefficient - default) * (seg[1] - seg[0]) * length
    return total


def heuristic(x: Point, scenario: Scenario) -> float:
    """Admissible cost-to-goal lower bound.

    Euclidean distance from x to the goal box (coordinate-wise clamping),
    scaled by the smallest coefficient in the world.  Zero inside the goal.
    """
    lo = scenario.goal.lo
    hi = scenario.goal.hi
    d2 = 0.0
    for i in range(len(x)):
        xi = x[i]
        if xi < lo[i]:
            delta = lo[i] - xi
        elif xi > hi[i]:
            delta = xi - hi[i]
        else:
            continue
        d2 += delta * delta
    if d2 == 0.0:
        return 0.0
    return scenario.min_coefficient * math.sqrt(d2)
