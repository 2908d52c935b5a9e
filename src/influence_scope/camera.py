"""Seeded smart-camera-network simulator.

Cameras sit above a rectangular ground plane and observe a disc-shaped
footprint determined by their pan/tilt/zoom configuration.  Targets appear
at random, stay put, and count toward performance exactly once: a camera
earns 1/m for each previously undetected target in its footprint, where m
is the number of cameras observing that target this step.  Observed
targets are latched as detected and never score again.

Per-step order of effects: spawn new targets, compute footprints, score
cameras on currently undetected targets, latch observations, emit the
step's log values.  ``step`` carries every target with a detected mask;
``run_scenario`` keeps only the live backlog.  Both score through one
footprint test and an exact credit computed from per-m counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from reprlib import repr as brief
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InputError, expect, integer, is_number, need, number
from .model import (
    AgentSchema,
    ConfigPartSchema,
    RealInterval,
    SampleLog,
    SampleRecord,
)

TWO_PI = 2.0 * math.pi
# A camera's configuration parts, as its log schema declares them.
_PARTS = ("pan", "tilt", "zoom")

# A scenario that fails validation raises the package's one input error.
ScenarioError = InputError

log = logging.getLogger("influence_scope")


@dataclass(frozen=True)
class CameraPose:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not self.z > 0:
            raise ValueError("camera height z must be > 0")


@dataclass(frozen=True)
class PtzConfig:
    pan: float   # radians in [0, 2*pi)
    tilt: float  # radians in [0, tilt_max], tilt_max < pi/2
    zoom: float  # in [1, zoom_max]


@dataclass(frozen=True)
class CameraSpec:
    camera_id: str
    pose: CameraPose
    base_half_angle: float
    tilt_max: float
    zoom_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.base_half_angle < math.pi / 2:
            raise ValueError("base_half_angle must lie in (0, pi/2)")
        if not 0.0 <= self.tilt_max < math.pi / 2:
            raise ValueError("tilt_max must lie in [0, pi/2)")
        if self.zoom_max < 1.0:
            raise ValueError("zoom_max must be >= 1")

    def validate_ptz(self, ptz: PtzConfig) -> None:
        if not 0.0 <= ptz.pan < TWO_PI:
            raise ValueError(f"pan {ptz.pan} outside [0, 2*pi)")
        if not 0.0 <= ptz.tilt <= self.tilt_max:
            raise ValueError(f"tilt {ptz.tilt} outside [0, {self.tilt_max}]")
        if not 1.0 <= ptz.zoom <= self.zoom_max:
            raise ValueError(f"zoom {ptz.zoom} outside [1, {self.zoom_max}]")


@dataclass(frozen=True)
class Footprint:
    """Disc of ground points a camera observes (clipped by the scene rect
    at evaluation time; stored targets always lie inside the rect)."""

    cx: float
    cy: float
    radius: float


@dataclass(frozen=True)
class SceneState:
    width: float
    height: float
    arrival_rate: float
    detection_radius: float
    cameras: tuple[CameraSpec, ...]
    target_xy: np.ndarray       # (n, 2)
    target_detected: np.ndarray  # (n,) bool
    t: int = 0


def fov_footprint(pose: CameraPose, ptz: PtzConfig, base_half_angle: float) -> Footprint:
    """Project the view cone onto the ground plane as a disc.

    The center moves away from the camera's ground position as tilt grows;
    the radius shrinks with zoom and grows with tilt.
    """
    offset = pose.z * math.tan(ptz.tilt)
    cx = pose.x + offset * math.cos(ptz.pan)
    cy = pose.y + offset * math.sin(ptz.pan)
    radius = pose.z * math.tan(base_half_angle / ptz.zoom) / math.cos(ptz.tilt)
    return Footprint(cx, cy, radius)


def _observe(
    x: np.ndarray, y: np.ndarray, footprints: Sequence[Footprint], radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observer count m of each target and the (cameras, targets) hit mask."""
    hit = np.empty((len(footprints), len(x)), dtype=bool)
    for c, fp in enumerate(footprints):
        hit[c] = (x - fp.cx) ** 2 + (y - fp.cy) ** 2 <= (fp.radius + radius) ** 2
    return hit.sum(axis=0), hit


def _credits(m: np.ndarray, hit: np.ndarray) -> list[Fraction]:
    """Exact credit per camera, the sum of 1/m over the targets it hits.

    With count_m of those targets seen by m cameras the credit is
    sum_m count_m / m, summed in integers over L = lcm(1..#cameras).
    """
    lcm = math.lcm(*range(1, len(hit) + 1))
    seen = np.flatnonzero(m)
    m_seen = m[seen]
    credits = []
    for row in hit[:, seen]:
        counts = np.bincount(m_seen[row]).tolist()  # counts[0] is 0: m >= 1
        credits.append(Fraction(sum(n * (lcm // k) for k, n in enumerate(counts) if n), lcm))
    return credits


def exact_camera_credits(
    target_xy: np.ndarray,
    target_detected: np.ndarray,
    footprints: Sequence[Footprint],
    detection_radius: float,
) -> list[Fraction]:
    """Exact per-camera credit: sum of 1/m over newly observed targets."""
    live = ~target_detected
    m, hit = _observe(target_xy[live, 0], target_xy[live, 1], footprints, detection_radius)
    return _credits(m, hit)


def system_performance(per_camera: Sequence[float]) -> float:
    """Whole-system performance: the sum over cameras."""
    return float(math.fsum(per_camera))


def _advance(
    scene: Union[SceneState, ScenarioSpec], configs: Sequence[PtzConfig], rng: np.random.Generator
) -> tuple[np.ndarray, list[Footprint]]:
    """Check the configs, draw the step's (n, 2) arrivals and project the
    footprints."""
    if len(configs) != len(scene.cameras):
        raise ValueError("one PTZ config per camera required")
    for cam, cfg in zip(scene.cameras, configs):
        cam.validate_ptz(cfg)
    n_new = int(rng.poisson(scene.arrival_rate))
    new_xy = np.empty((0, 2))
    if n_new:
        new_xy = rng.uniform(low=[0.0, 0.0], high=[scene.width, scene.height], size=(n_new, 2))
    return new_xy, [
        fov_footprint(cam.pose, cfg, cam.base_half_angle)
        for cam, cfg in zip(scene.cameras, configs)
    ]


def step(
    state: SceneState, configs: Sequence[PtzConfig], rng: np.random.Generator
) -> tuple[SceneState, list[float], SampleRecord]:
    """Advance one time step; returns (next state, per-camera perf, record)."""
    new_xy, footprints = _advance(state, configs, rng)
    xy = np.vstack([state.target_xy, new_xy]) if len(state.target_xy) else new_xy
    detected = np.concatenate([state.target_detected, np.zeros(len(new_xy), dtype=bool)])
    live = np.flatnonzero(~detected)
    m, hit = _observe(xy[live, 0], xy[live, 1], footprints, state.detection_radius)
    perfs = [float(c) for c in _credits(m, hit)]
    detected[live[m > 0]] = True
    next_state = replace(state, target_xy=xy, target_detected=detected, t=state.t + 1)
    config = {(cam.camera_id, part): getattr(cfg, part)
              for cam, cfg in zip(state.cameras, configs) for part in _PARTS}
    performance = {cam.camera_id: p for cam, p in zip(state.cameras, perfs)}
    return next_state, perfs, SampleRecord(state.t, config, performance)


# --- scenarios and policies ------------------------------------------------


@dataclass(frozen=True)
class UniformRandomPtz:
    """Draw each camera's pan/tilt/zoom uniformly and independently every
    step; this excitation is what makes influences visible in the log."""


@dataclass(frozen=True)
class FixedPtz:
    configs: tuple[PtzConfig, ...]


Policy = Union[UniformRandomPtz, FixedPtz]


@dataclass(frozen=True)
class ScenarioSpec:
    width: float
    height: float
    arrival_rate: float
    detection_radius: float
    cameras: tuple[CameraSpec, ...]
    initial_targets: tuple[tuple[float, float], ...] = ()
    policy: Policy = UniformRandomPtz()
    steps: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.width > 0 and self.height > 0):
            raise ValueError("scene dimensions must be positive")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if self.detection_radius < 0:
            raise ValueError("detection_radius must be >= 0")
        if len(self.cameras) == 0:
            raise ValueError("at least one camera required")
        ids = [c.camera_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate camera ids")
        for x, y in self.initial_targets:
            if not (0 <= x <= self.width and 0 <= y <= self.height):
                raise ValueError(f"initial target ({x}, {y}) outside the scene")


def initial_state(spec: ScenarioSpec) -> SceneState:
    xy = np.array(spec.initial_targets, dtype=float).reshape(-1, 2)
    return SceneState(
        width=spec.width,
        height=spec.height,
        arrival_rate=spec.arrival_rate,
        detection_radius=spec.detection_radius,
        cameras=spec.cameras,
        target_xy=xy,
        target_detected=np.zeros(len(xy), dtype=bool),
    )


def camera_schemas(spec: ScenarioSpec) -> tuple[AgentSchema, ...]:
    schemas = []
    for cam in spec.cameras:
        # degenerate bounds (tilt_max 0, zoom_max 1) still need lower < upper
        tilt_hi = cam.tilt_max if cam.tilt_max > 0 else 1e-9
        zoom_hi = cam.zoom_max if cam.zoom_max > 1 else 1.0 + 1e-9
        bounds = ((0.0, TWO_PI), (0.0, tilt_hi), (1.0, zoom_hi))
        parts = tuple(ConfigPartSchema(p, RealInterval(*b)) for p, b in zip(_PARTS, bounds))
        schemas.append(AgentSchema(cam.camera_id, parts))
    return tuple(schemas)


def run_scenario(
    spec: ScenarioSpec,
    steps: Optional[int] = None,
    policy: Optional[Policy] = None,
    seed: Optional[int] = None,
) -> SampleLog:
    """Run the simulator and return a schema-complete sample log.

    ``steps``, ``policy`` and ``seed`` default to the scenario's own
    values.  The run is a pure function of its arguments.
    """
    steps = spec.steps if steps is None else steps
    policy = spec.policy if policy is None else policy
    seed = spec.seed if seed is None else seed
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    cams = spec.cameras
    # The backlog x, y holds only undetected targets that can still be seen.
    # A target can never enter camera c's footprint once it is farther from
    # the base than the largest center offset plus the largest radius: each
    # target is tested against that reach once, after the footprint test of
    # the step it enters in, and hit targets are dropped after every step.
    reach = np.array(
        [
            cam.pose.z * math.tan(cam.tilt_max)
            + cam.pose.z * math.tan(cam.base_half_angle) / math.cos(cam.tilt_max)
            + spec.detection_radius
            for cam in cams
        ]
    )
    base_x = np.array([cam.pose.x for cam in cams])
    base_y = np.array([cam.pose.y for cam in cams])
    x, y = np.array(spec.initial_targets, dtype=float).reshape(-1, 2).T
    entered, unreachable, peak = len(x), 0, 0
    if isinstance(policy, FixedPtz) and len(policy.configs) != len(cams):
        raise ValueError("FixedPtz needs one config per camera")
    # the uniform policy draws every camera's pan, tilt and zoom in one call
    lows = np.tile([0.0, 0.0, 1.0], len(cams))
    highs = np.array([(TWO_PI, cam.tilt_max, cam.zoom_max) for cam in cams]).ravel()
    rows = []  # per step: every camera's pan, tilt and zoom, then every performance
    for t in range(steps):
        configs = policy.configs if isinstance(policy, FixedPtz) else [
            PtzConfig(*ptz) for ptz in rng.uniform(lows, highs).reshape(-1, 3).tolist()
        ]
        new_xy, footprints = _advance(spec, configs, rng)
        x = np.concatenate([x, new_xy[:, 0]])
        y = np.concatenate([y, new_xy[:, 1]])
        fresh = len(x) if t == 0 else len(new_xy)  # initial targets enter at step 0
        entered += len(new_xy)
        m, hit = _observe(x, y, footprints, spec.detection_radius)
        rows.append([v for cfg in configs for v in (cfg.pan, cfg.tilt, cfg.zoom)]
                    + [float(c) for c in _credits(m, hit)])
        keep = m == 0
        if fresh:
            d2 = (x[-fresh:, None] - base_x) ** 2 + (y[-fresh:, None] - base_y) ** 2
            reachable = (d2 <= reach**2).any(axis=1)
            unreachable += int(np.count_nonzero(keep[-fresh:] & ~reachable))
            keep[-fresh:] &= reachable
        if not keep.all():
            x, y = x[keep], y[keep]
        peak = max(peak, len(x))
    log.debug(
        "simulated %d steps: %d targets entered, %d dropped as unreachable, live backlog"
        " %d at the end, %d at peak", steps, entered, unreachable, len(x), peak
    )
    return SampleLog.from_columns(camera_schemas(spec), range(steps), list(zip(*rows)))


# --- scenario (de)serialization --------------------------------------------


# Largest magnitude a scenario may give a length (scene size, camera pose,
# detection radius).  A footprint's radius reaches about 3e32 times the camera
# height (base_half_angle and tilt_max just below pi/2), and the simulator
# squares distances, so much larger lengths could overflow.
MAX_LENGTH = 1e100

# Largest mean number of targets a scenario may have arrive per step.  Each
# step draws about that many positions, 16 bytes each, so one step's draw
# stays near 16 MB; a rate of 1e12 would ask for terabytes.
MAX_ARRIVAL_RATE = 1e6


def _bounded(obj: dict, key: str, prefix: str = "", limit: float = MAX_LENGTH) -> float:
    value = number(obj, key, prefix)
    if abs(value) > limit:
        raise InputError(prefix + key, f"magnitude above {limit:g}, got {value!r}")
    return value


def _at_least(value, least, path: str, strict: bool = False):
    """``value``, refused at ``path`` when below ``least``, or equal to it if ``strict``."""
    if value < least or (strict and value == least):
        raise InputError(path, f"must be {'>' if strict else '>='} {least}, got {brief(value)}")
    return value


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build a scenario from a parsed JSON object, reporting the offending
    field path on failure."""
    expect(data, dict, "")
    scene = need(data, "scene", kind=dict)
    width, height = (_at_least(_bounded(scene, k, "scene."), 0, "scene." + k, strict=True)
                     for k in ("width", "height"))

    cameras = []
    for i, cam in enumerate(need(data, "cameras", kind=list)):
        at = f"cameras[{i}]."
        cam_id = need(expect(cam, dict, at[:-1]), "id", at, str)
        if not cam_id or any(c.camera_id == cam_id for c in cameras):
            raise InputError(at + "id", f"empty or duplicate camera id {cam_id!r}")
        pose = [_bounded(need(cam, "pose", at, dict), k, at + "pose.") for k in "xyz"]
        angles = {k: number(cam, k, at) for k in ("base_half_angle", "tilt_max", "zoom_max")}
        try:
            cameras.append(CameraSpec(cam_id, CameraPose(*pose), **angles))
        except ValueError as exc:
            raise InputError(at[:-1], str(exc)) from exc

    policy_name = data.get("policy", "uniform_random")
    if policy_name == "uniform_random":
        policy: Policy = UniformRandomPtz()
    elif isinstance(policy_name, dict) and "fixed" in policy_name:
        configs = []
        for i, cfg in enumerate(expect(policy_name["fixed"], list, "policy.fixed")):
            at = f"policy.fixed[{i}]."
            ptz = [number(expect(cfg, dict, at[:-1]), k, at) for k in ("pan", "tilt", "zoom")]
            configs.append(PtzConfig(*ptz))
        policy = FixedPtz(tuple(configs))
    else:
        raise InputError("policy", f"unknown policy {policy_name!r}")

    initial = []
    for i, point in enumerate(expect(data.get("initial_targets", []), list, "initial_targets")):
        if not (isinstance(point, list) and len(point) == 2 and all(map(is_number, point))):
            raise InputError(f"initial_targets[{i}]", f"expected two numbers, got {point!r}")
        initial.append((float(point[0]), float(point[1])))
    rates = {key: _at_least(_bounded(data, key, limit=limit), 0, key) for key, limit
             in (("arrival_rate", MAX_ARRIVAL_RATE), ("detection_radius", MAX_LENGTH))}
    steps = _at_least(integer(data.get("steps", 1000), "steps"), 1, "steps")
    seed = _at_least(integer(data.get("seed", 0), "seed"), 0, "seed")
    return ScenarioSpec(
        width, height, cameras=tuple(cameras), initial_targets=tuple(initial),
        policy=policy, steps=steps, seed=seed, **rates,
    )
