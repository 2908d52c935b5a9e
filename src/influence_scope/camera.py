"""Seeded smart-camera-network simulator.

Cameras sit above a rectangular ground plane and observe a disc-shaped
footprint determined by their pan/tilt/zoom configuration.  Targets appear
at random, stay put, and count toward performance exactly once: a camera
earns 1/m for each previously undetected target in its footprint, where m
is the number of cameras observing that target this step.  Observed
targets are latched as detected and never score again.

Per-step order of effects: spawn new targets, compute footprints, score
cameras on currently undetected targets, latch observations, emit the
sample record.  ``step`` carries every target with a detected mask;
``run_scenario`` keeps only the live backlog.  Both score through one
footprint test and an exact credit computed from per-m counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .model import (
    AgentSchema,
    ConfigPartSchema,
    RealInterval,
    SampleLog,
    SampleRecord,
)

TWO_PI = 2.0 * math.pi

log = logging.getLogger("influence_scope")


class ScenarioError(ValueError):
    """A scenario description failed validation; ``path`` names the field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


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


def _record(
    t: int, cameras: Sequence[CameraSpec], configs: Sequence[PtzConfig], perfs: list[float]
) -> SampleRecord:
    config = {}
    for cam, cfg in zip(cameras, configs):
        config[(cam.camera_id, "pan")] = cfg.pan
        config[(cam.camera_id, "tilt")] = cfg.tilt
        config[(cam.camera_id, "zoom")] = cfg.zoom
    performance = {cam.camera_id: p for cam, p in zip(cameras, perfs)}
    return SampleRecord(t=t, config=config, performance=performance)


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
    return next_state, perfs, _record(state.t, state.cameras, configs, perfs)


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
        parts = (
            ConfigPartSchema("pan", RealInterval(0.0, TWO_PI)),
            ConfigPartSchema("tilt", RealInterval(0.0, tilt_hi)),
            ConfigPartSchema("zoom", RealInterval(1.0, zoom_hi)),
        )
        schemas.append(AgentSchema(cam.camera_id, parts))
    return tuple(schemas)


def _draw_configs(
    spec: ScenarioSpec, policy: Policy, rng: np.random.Generator
) -> list[PtzConfig]:
    if isinstance(policy, FixedPtz):
        if len(policy.configs) != len(spec.cameras):
            raise ValueError("FixedPtz needs one config per camera")
        return list(policy.configs)
    configs = []
    for cam in spec.cameras:
        pan = float(rng.uniform(0.0, TWO_PI))
        tilt = float(rng.uniform(0.0, cam.tilt_max))
        zoom = float(rng.uniform(1.0, cam.zoom_max))
        configs.append(PtzConfig(pan, tilt, zoom))
    return configs


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
    records = []
    for t in range(steps):
        configs = _draw_configs(spec, policy, rng)
        new_xy, footprints = _advance(spec, configs, rng)
        x = np.concatenate([x, new_xy[:, 0]])
        y = np.concatenate([y, new_xy[:, 1]])
        fresh = len(x) if t == 0 else len(new_xy)  # initial targets enter at step 0
        entered += len(new_xy)
        m, hit = _observe(x, y, footprints, spec.detection_radius)
        records.append(_record(t, cams, configs, [float(c) for c in _credits(m, hit)]))
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
    return SampleLog(schemas=camera_schemas(spec), records=tuple(records))


# --- scenario (de)serialization --------------------------------------------


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build a scenario from a parsed JSON object, reporting the offending
    field path on failure."""

    def need(obj: dict, key: str, path: str):
        if key not in obj:
            raise ScenarioError(f"{path}{key}", "missing field")
        return obj[key]

    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def number(obj: dict, key: str, path: str) -> float:
        value = need(obj, key, path)
        if not is_number(value):
            raise ScenarioError(f"{path}{key}", f"expected a number, got {value!r}")
        return float(value)

    def integer(key: str, default: int) -> int:
        value = number(data, key, "") if key in data else default
        if not float(value).is_integer():
            raise ScenarioError(key, f"expected an integer, got {value!r}")
        return int(value)

    if not isinstance(data, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    scene = need(data, "scene", "")
    if not isinstance(scene, dict):
        raise ScenarioError("scene", "expected an object")
    width = number(scene, "width", "scene.")
    height = number(scene, "height", "scene.")

    raw_cameras = need(data, "cameras", "")
    if not isinstance(raw_cameras, list) or not raw_cameras:
        raise ScenarioError("cameras", "expected a non-empty list")
    cameras = []
    for i, cam in enumerate(raw_cameras):
        path = f"cameras[{i}]."
        if not isinstance(cam, dict):
            raise ScenarioError(f"cameras[{i}]", "expected an object")
        cam_id = need(cam, "id", path)
        if not (isinstance(cam_id, str) and cam_id):
            raise ScenarioError(path + "id", f"expected a non-empty string, got {cam_id!r}")
        if any(c.camera_id == cam_id for c in cameras):
            raise ScenarioError(path + "id", f"duplicate camera id {cam_id!r}")
        pose_obj = need(cam, "pose", path)
        if not isinstance(pose_obj, dict):
            raise ScenarioError(path + "pose", "expected an object")
        pose = CameraPose(
            number(pose_obj, "x", path + "pose."),
            number(pose_obj, "y", path + "pose."),
            number(pose_obj, "z", path + "pose."),
        )
        try:
            cameras.append(
                CameraSpec(
                    camera_id=cam_id,
                    pose=pose,
                    base_half_angle=number(cam, "base_half_angle", path),
                    tilt_max=number(cam, "tilt_max", path),
                    zoom_max=number(cam, "zoom_max", path),
                )
            )
        except ValueError as exc:
            raise ScenarioError(f"cameras[{i}]", str(exc)) from exc

    policy_name = data.get("policy", "uniform_random")
    if policy_name == "uniform_random":
        policy: Policy = UniformRandomPtz()
    elif isinstance(policy_name, dict) and "fixed" in policy_name:
        if not isinstance(policy_name["fixed"], list):
            raise ScenarioError("policy.fixed", "expected a list")
        configs = []
        for i, cfg in enumerate(policy_name["fixed"]):
            path = f"policy.fixed[{i}]"
            if not isinstance(cfg, dict):
                raise ScenarioError(path, "expected an object")
            pan, tilt, zoom = (number(cfg, k, path + ".") for k in ("pan", "tilt", "zoom"))
            configs.append(PtzConfig(pan, tilt, zoom))
        policy = FixedPtz(tuple(configs))
    else:
        raise ScenarioError("policy", f"unknown policy {policy_name!r}")

    raw_targets = data.get("initial_targets", [])
    if not isinstance(raw_targets, list):
        raise ScenarioError("initial_targets", "expected a list")
    initial = []
    for i, point in enumerate(raw_targets):
        if not (isinstance(point, list) and len(point) == 2 and all(map(is_number, point))):
            raise ScenarioError(f"initial_targets[{i}]", f"expected two numbers, got {point!r}")
        initial.append((float(point[0]), float(point[1])))
    try:
        return ScenarioSpec(
            width=width,
            height=height,
            arrival_rate=number(data, "arrival_rate", ""),
            detection_radius=number(data, "detection_radius", ""),
            cameras=tuple(cameras),
            initial_targets=tuple(initial),
            policy=policy,
            steps=integer("steps", 1000),
            seed=integer("seed", 0),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError("", str(exc)) from exc
