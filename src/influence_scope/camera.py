"""Seeded smart-camera-network simulator.

Cameras sit above a rectangular ground plane and observe a disc-shaped
footprint determined by their pan/tilt/zoom configuration.  Targets appear
at random, stay put, and count toward performance exactly once: a camera
earns 1/m for each previously undetected target in its footprint, where m
is the number of cameras observing that target this step.  Observed
targets are latched as detected and never score again.

Per-step order of effects: spawn new targets, compute footprints, score
cameras on currently undetected targets, latch observations, emit the
step's log values.  ``run_scenario`` keeps only the live backlog and scores
a block of steps at once: each camera tests the block's steps against only
the targets within its own reach (its base's largest footprint offset plus
radius, with a margin no rounding crosses), each arrival from the step it
enters in, a chunk of targets at a time.  A target is credited in the step
of its first hit by any camera, to the m cameras that hit it then.  Each
credit is exact, an integer over lcm(1..#cameras), until one division
gives the logged float.  The tests check this scorer bit for bit against
a per-step world that carries every target (``tests/camera_oracle.py``)
and uses this module's footprint test and arrival draw.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from reprlib import repr as brief
from typing import Optional, Union

import numpy as np

from .errors import InputError, expect, finite, need
from .logio import _from_data
from .model import AgentSchema, ConfigPartSchema, RealInterval, SampleLog, check_name

TWO_PI = 2.0 * math.pi
# A camera's configuration parts, as its log schema declares them.
_PARTS = ("pan", "tilt", "zoom")

log = logging.getLogger("influence_scope")

_BLOCK = 32  # steps whose draws run_scenario makes ahead and scores at once
_CHUNK = 2048  # targets a camera tests against one block at once; bounds the work arrays

# Largest magnitude a scenario may give a length (scene size, camera pose,
# detection radius).  A footprint's radius reaches about 3e32 times the camera
# height (base_half_angle and tilt_max just below pi/2), and the simulator
# squares distances, so much larger lengths could overflow.
MAX_LENGTH = 1e100

# Largest mean number of targets a scenario may have arrive per step.  Each
# step draws about that many positions, 16 bytes each, so one step's draw
# stays near 16 MB; a rate of 1e12 would ask for terabytes.
MAX_ARRIVAL_RATE = 1e6

# Most steps a run may simulate.  The run holds about 250 bytes per camera
# and step (the row list, then the log's columns); ``simulate`` writes its
# log a chunk at a time, and on camera-trio its peak RSS grew 0.8 kB per
# step from 80k to 160k steps (105 to 169 MB), so near 0.9 GB at the cap;
# one detection buffer at the default 200 permutations holds 1.6 GB more.
MAX_STEPS = 1_000_000


def _within(path: str, value, least, limit: float = math.inf, strict: bool = False) -> None:
    """Refuse ``value`` at ``path`` when its magnitude is above ``limit``, or
    when it is below ``least``, or equal to it if ``strict``."""
    if abs(value) > limit:
        raise InputError(path, f"magnitude above {limit:g}, got {value!r}")
    if not (value > least or value == least and not strict):
        raise InputError(path, f"must be {'>' if strict else '>='} {least}, got {brief(value)}")


@dataclass(frozen=True)
class CameraPose:
    x: float
    y: float
    z: float  # the height above the ground plane

    def __post_init__(self) -> None:
        for name, least in (("x", -math.inf), ("y", -math.inf), ("z", 0)):
            _within(name, getattr(self, name), least, MAX_LENGTH, strict=True)


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
        check_name("id", "camera id", self.camera_id)  # the log's rule for agent ids
        for name, ok, rule in (
            ("base_half_angle", 0.0 < self.base_half_angle < math.pi / 2, "must lie in (0, pi/2)"),
            ("tilt_max", 0.0 <= self.tilt_max < math.pi / 2, "must lie in [0, pi/2)"),
            ("zoom_max", self.zoom_max >= 1.0, "must be >= 1"),
        ):
            if not ok:
                raise InputError(name, f"{rule}, got {brief(getattr(self, name))}")

    def validate_ptz(self, ptz: PtzConfig) -> None:
        """Refuse a config outside this camera's ranges at the part's name."""
        if not 0.0 <= ptz.pan < TWO_PI:
            raise InputError("pan", f"pan {ptz.pan} outside [0, 2*pi)")
        if not 0.0 <= ptz.tilt <= self.tilt_max:
            raise InputError("tilt", f"tilt {ptz.tilt} outside [0, {self.tilt_max}]")
        if not 1.0 <= ptz.zoom <= self.zoom_max:
            raise InputError("zoom", f"zoom {ptz.zoom} outside [1, {self.zoom_max}]")


def _disc(pose: CameraPose, base_half_angle: float, pan: float, tilt: float, zoom: float):
    """The footprint's center x, y and radius: the view cone projected onto
    the ground plane as a disc.  The center moves away from the camera's
    ground position as tilt grows; the radius shrinks with zoom and grows
    with tilt."""
    offset = pose.z * math.tan(tilt)
    return (pose.x + offset * math.cos(pan), pose.y + offset * math.sin(pan),
            pose.z * math.tan(base_half_angle / zoom) / math.cos(tilt))


def _reaches(discs, detection_radius: float) -> np.ndarray:
    """The (3, rows, 1) columns center x, center y and squared reach (radius
    plus detection radius) of each (cx, cy, radius) disc."""
    rows = [(cx, cy, (radius + detection_radius) ** 2) for cx, cy, radius in discs]
    return np.array(rows, dtype=float).reshape(-1, 3).T[:, :, None]


def _dist2(x, y, cx, cy, dx: Optional[np.ndarray] = None, dy: Optional[np.ndarray] = None):
    """The squared distances (x - cx)**2 + (y - cy)**2, broadcast, by the float
    operations of every footprint test; written into ``dx`` (``dy`` a second
    buffer of the same shape) when given."""
    dx = np.subtract(x, cx, dx)
    dy = np.subtract(y, cy, dy)
    return np.add(np.square(dx, dx), np.square(dy, dy), dx)


def _arrivals(arrival_rate: float, rng: np.random.Generator) -> np.ndarray:
    """The step's (n, 2) new targets in the unit square, a Poisson count;
    times the scene's (width, height) they are the doubles ``rng.uniform``
    gives with bounds 0 and the size."""
    return rng.random((int(rng.poisson(arrival_rate)), 2))


# --- scenarios and policies ------------------------------------------------


@dataclass(frozen=True)
class UniformRandomPtz:
    """Draw each camera's pan/tilt/zoom uniformly and independently every
    step; this excitation is what makes influences visible in the log."""


@dataclass(frozen=True)
class FixedPtz:
    configs: tuple[PtzConfig, ...]  # one per camera


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
        """Refuse a bad field at its path in the scenario JSON (see
        :func:`scenario_from_dict`)."""
        _within("scene.width", self.width, 0, MAX_LENGTH, strict=True)
        _within("scene.height", self.height, 0, MAX_LENGTH, strict=True)
        _within("arrival_rate", self.arrival_rate, 0, MAX_ARRIVAL_RATE)
        _within("detection_radius", self.detection_radius, 0, MAX_LENGTH)
        _within("steps", self.steps, 1, MAX_STEPS)
        _within("seed", self.seed, 0)
        if len(self.cameras) == 0:
            raise InputError("cameras", "at least one camera required")
        ids = [c.camera_id for c in self.cameras]
        for i, camera_id in enumerate(ids):
            if camera_id in ids[:i]:
                raise InputError(f"cameras[{i}].id", f"duplicate camera id {brief(camera_id)}")
        for i, (x, y) in enumerate(self.initial_targets):
            if not (0 <= x <= self.width and 0 <= y <= self.height):
                raise InputError(f"initial_targets[{i}]", f"({x}, {y}) outside the scene")
        if isinstance(self.policy, FixedPtz):
            configs = self.policy.configs
            if len(configs) != len(self.cameras):
                raise InputError("policy.fixed", f"one PTZ config per camera required, got "
                                 f"{len(configs)} for {len(self.cameras)} cameras")
            for i, (cam, cfg) in enumerate(zip(self.cameras, configs)):
                try:
                    cam.validate_ptz(cfg)
                except InputError as exc:
                    raise InputError(f"policy.fixed[{i}].{exc.path}", exc.message) from None


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


def _first_hits(cams, ptz: list, x: np.ndarray, y: np.ndarray, near: np.ndarray,
                entry: np.ndarray, detection_radius: float, work: np.ndarray) -> np.ndarray:
    """Each camera's first hit of each target in a block of steps: the (C, n)
    step indices, the block's length where a camera hits a target in none.

    Camera c's pan, tilt and zoom in step s are ``ptz[s][3c:3c + 3]``.  The
    targets ``x``, ``y`` end with the block's arrivals, the i-th of them
    entering in step ``entry[i]`` and tested from that step on.  Camera c
    tests only the targets ``near[c]``, a chunk of them at a time in the
    buffers ``work``."""
    nb, n0 = len(ptz), len(x) - len(entry)
    steps = np.arange(nb)[:, None]
    hit_at = np.full(near.shape, nb, np.int8)  # nb <= _BLOCK < 128
    # numpy's buffered loops copy a broadcast operand whose rows are shorter
    # than the ufunc buffer (8192 elements by default); a (steps, targets)
    # chunk's rows are a few thousand long, and run 3-4 times faster in
    # buffers no longer than they are
    buffer = np.setbufsize(256)
    try:
        for c, cam in enumerate(cams):
            cx, cy, reach2 = _reaches([_disc(cam.pose, cam.base_half_angle, *p[3 * c:3 * c + 3])
                                       for p in ptz], detection_radius)
            tested = np.flatnonzero(near[c])
            arrived = np.searchsorted(tested, n0)  # tested[arrived:] entered in this block
            for a in range(0, len(tested), _CHUNK):
                part = tested[a:a + _CHUNK]
                dx, dy = work[:, :nb * len(part)].reshape(2, nb, -1)
                # the hits overwrite dy, which the sum has already read
                hit = np.less_equal(_dist2(x[part], y[part], cx, cy, dx, dy), reach2,
                                    work[1].view(bool)[:dx.size].reshape(nb, -1))
                j = max(arrived - a, 0)
                if j < len(part):
                    hit[:, j:] &= steps >= entry[part[j:] - n0]
                seen = np.flatnonzero(hit.any(0))
                hit_at[c, part[seen]] = hit[:, seen].argmax(0)
    finally:
        np.setbufsize(buffer)
    return hit_at


def _block_credits(hit_at: np.ndarray, nb: int, lcm: int) -> tuple[list[list[int]], np.ndarray]:
    """Exact credit of each camera in each step of a block, from
    :func:`_first_hits`: a target counts in the step any camera first hits
    it, and each of the m cameras that hit it then earns 1/m.  Returns per
    step the numerators over L = ``lcm`` = lcm(1..#cameras), and each
    target's first hit, the block's length for none.

    The numerators are summed in int64 while no sum can reach 2**63, and as
    Python ints beyond."""
    found = hit_at.min(0)
    got = np.flatnonzero(found < nb)
    at = found[got]
    observed = hit_at.take(got, axis=1) == at  # the cameras that share each credited target
    # count each camera's shares by step and observer count m, then weigh each by L/m
    shares = [0] + [lcm // m for m in range(1, len(hit_at) + 1)]
    observer, target = np.divmod(np.flatnonzero(observed), len(got))
    keys = (observer * nb + at[target]) * len(shares) + observed.sum(0)[target]
    kind = np.int64 if lcm * len(got) < 2**63 else object
    tally = np.bincount(keys, minlength=len(hit_at) * nb * len(shares)).astype(kind)
    return (tally.reshape(len(hit_at), nb, -1) @ np.array(shares, kind)).T.tolist(), found


def run_scenario(
    spec: ScenarioSpec, steps: Optional[int] = None, seed: Optional[int] = None
) -> SampleLog:
    """Run the simulator on the scenario's policy and return a
    schema-complete sample log.

    ``steps`` and ``seed`` default to the scenario's own values.  The run
    is a pure function of its arguments.
    """
    steps = spec.steps if steps is None else steps
    seed = spec.seed if seed is None else seed
    _within("steps", steps, 1, MAX_STEPS)
    rng = np.random.default_rng(seed)
    cams = spec.cameras
    fixed = None  # a fixed policy's pan, tilt and zoom of every camera, checked by the spec
    if isinstance(spec.policy, FixedPtz):
        fixed = [v for cfg in spec.policy.configs for v in (cfg.pan, cfg.tilt, cfg.zoom)]
    # The uniform policy draws the doubles of rng.uniform(lows, highs); low +
    # span * u with u < 1 never leaves [low, high], so no draw needs a check.
    lows = np.tile([0.0, 0.0, 1.0], len(cams))
    span = np.array([(TWO_PI, cam.tilt_max, cam.zoom_max) for cam in cams]).ravel() - lows
    # The backlog x, y holds only undetected targets that can still be seen.
    # A target can never enter camera c's footprint once it is farther from
    # the base than the largest center offset plus the largest radius: a target
    # beyond every reach is tested only in the step it enters in, and hit
    # targets are dropped after every block.
    reach = np.array([cam.pose.z * math.tan(cam.tilt_max) + cam.pose.z * math.tan(
        cam.base_half_angle) / math.cos(cam.tilt_max) + spec.detection_radius for cam in cams])
    bx, by = (np.array([[getattr(cam.pose, axis)] for cam in cams]) for axis in "xy")
    # Each camera tests only the targets within its own reach, widened by a
    # relative margin that no rounding of a footprint's center and radius
    # can cross: a larger set changes no credit.
    near2 = (reach[:, None] + 1e-9 * (reach[:, None] + abs(bx) + abs(by))) ** 2
    lcm = math.lcm(*range(1, len(cams) + 1))
    work = np.empty((2, _BLOCK * _CHUNK))  # a chunk's squared distances, then its hits
    x = y = np.empty(0)
    near = np.empty((len(cams), 0), bool)  # near[c]: the targets camera c tests
    entered, credited, peak = 0, 0, 0
    rows = []  # per step: each camera's pan, tilt and zoom, then each credit
    for first in range(0, steps, _BLOCK):
        # No draw depends on the state: a block of steps is drawn ahead, in the
        # order the steps make them, and scored at once.
        draws, arrivals = [], []
        for _ in range(min(_BLOCK, steps - first)):
            draws.append(fixed or rng.random(span.size))
            arrivals.append(_arrivals(spec.arrival_rate, rng))
        counts = [len(a) for a in arrivals]
        new = np.concatenate(arrivals) * (spec.width, spec.height)
        if first == 0:  # the initial targets enter at step 0
            new = np.concatenate([np.reshape(spec.initial_targets, (-1, 2)), new])
            counts[0] += len(spec.initial_targets)
        nb, n0 = len(draws), len(x)
        ptz = draws if fixed else (lows + span * np.array(draws)).tolist()
        entry = np.repeat(np.arange(nb), counts)
        d2 = _dist2(new[:, 0], new[:, 1], bx, by)
        # the last step each arrival may be hit in: nb for no bound, or the step
        # it enters in if it lies beyond every camera's reach
        last = np.where((d2 <= reach[:, None] ** 2).any(0), nb, entry)
        x, y = np.concatenate([x, new[:, 0]]), np.concatenate([y, new[:, 1]])
        near = np.concatenate([near, d2 <= near2], axis=1)
        hit_at = _first_hits(cams, ptz, x, y, near, entry, spec.detection_radius, work)
        tail = hit_at[:, n0:]  # the arrivals' first hits
        tail[tail > last] = nb
        numerators, found = _block_credits(hit_at, nb, lcm)
        rows += [p + [k / lcm for k in credit] for p, credit in zip(ptz, numerators)]
        # the live backlog after each step: arrivals less first hits and the unreachable
        keep = found == nb
        gone = np.bincount(found, minlength=nb + 1)[:nb]
        gone += np.bincount(last[(last < nb) & keep[n0:]], minlength=nb)
        live = n0 + np.cumsum(counts - gone)
        entered, credited = entered + len(new), credited + len(found) - int(keep.sum())
        peak = max(peak, int(live.max()))
        keep[n0:] &= last == nb
        kept = np.flatnonzero(keep)
        x, y, near = x.take(kept), y.take(kept), near.take(kept, axis=1)
    # every target that entered was credited, dropped as unreachable, or is live
    log.debug(
        "simulated %d steps: %d targets entered, %d dropped as unreachable, live backlog"
        " %d at the end, %d at peak", steps, entered, entered - credited - len(x), len(x), peak
    )
    return SampleLog.from_columns(camera_schemas(spec), range(steps), list(zip(*rows)))


# --- scenario JSON ----------------------------------------------------------


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Read a scenario from its parsed JSON through the one strict decoder.

    The JSON object holds :class:`ScenarioSpec`'s fields, a camera's
    ``camera_id`` under the key ``id``, except for two that this adapter
    reads: the scene's ``width`` and ``height`` sit in a nested ``scene``
    object, and ``policy`` is ``"uniform_random"`` (the default) or
    ``{"fixed": [...]}`` with one ``{"pan", "tilt", "zoom"}`` object per
    camera.  A bad field raises :class:`InputError` at its path, such as
    ``scene.width`` or ``policy.fixed[1].tilt``."""
    fields = dict(expect(data, dict, ""))
    scene = need(fields, "scene", kind=dict)
    del fields["scene"]
    for key in scene:
        if key not in ("width", "height"):
            raise InputError(f"scene.{key}", "not a scene field")
    size = {key: finite(need(scene, key, "scene."), "scene." + key) for key in ("width", "height")}
    policy = fields.pop("policy", "uniform_random")
    if policy == "uniform_random":
        policy = UniformRandomPtz()
    elif isinstance(policy, dict):
        policy = _from_data(FixedPtz, policy, "policy")
    else:
        raise InputError("policy", f"unknown policy {brief(policy)}")
    return _from_data(ScenarioSpec, fields, "", policy=policy, **size)
