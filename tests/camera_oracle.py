"""The per-step camera world the simulator does not run, kept as the oracle
that checks ``influence_scope.camera.run_scenario`` bit for bit.

``step`` carries every target with a detected mask and tests each camera
against each target once per step; it credits each camera exactly, as a
``Fraction``, the sum of 1/m over the newly observed targets it sees, m
being each target's observer count.  ``exact_camera_credits`` gives the same
credits for given footprints.  The footprint test (``_disc``, ``_reaches``
and ``_dist2``) and the arrival draw (``_arrivals``) are imported from
``influence_scope.camera``, not copied: the oracle makes the simulator's own
float operations, so the logs agree to the bit, and the geometry tests test
shipped code.  ``replay`` steps the oracle with the draws ``run_scenario``
makes for the same scenario, steps and seed.  Imported by the tests as
``from camera_oracle import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from influence_scope.camera import (
    _PARTS,
    CameraPose,
    CameraSpec,
    FixedPtz,
    PtzConfig,
    ScenarioSpec,
    _arrivals,
    _disc,
    _dist2,
    _reaches,
)
from influence_scope.model import SampleRecord


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
    """The camera's footprint under ``ptz``, by the simulator's ``_disc``."""
    return Footprint(*_disc(pose, base_half_angle, ptz.pan, ptz.tilt, ptz.zoom))


def _credits(hit: np.ndarray) -> tuple[list[int], int, np.ndarray]:
    """Exact credit per camera, the sum of 1/m over the targets it hits, m
    being each target's observer count: the integer numerators over
    L = lcm(1..#cameras), L, and the mask of targets some camera hits.

    The numerators are summed in int64 while no sum can reach 2**63, and as
    Python ints beyond, as from 43 cameras on."""
    lcm = math.lcm(*range(1, len(hit) + 1))
    seen = hit.any(axis=0)
    sub = hit.compress(seen, axis=1)
    m = sub.sum(axis=0, dtype=np.int64 if lcm * sub.shape[1] < 2**63 else object)
    return (sub @ (lcm // m)).tolist(), lcm, seen


def exact_camera_credits(
    target_xy: np.ndarray,
    target_detected: np.ndarray,
    footprints: Sequence[Footprint],
    detection_radius: float,
) -> list[Fraction]:
    """Exact per-camera credit: sum of 1/m over newly observed targets."""
    live = ~target_detected
    cx, cy, reach2 = _reaches([(fp.cx, fp.cy, fp.radius) for fp in footprints], detection_radius)
    numerators, lcm, _ = _credits(_dist2(target_xy[live, 0], target_xy[live, 1], cx, cy) <= reach2)
    return [Fraction(k, lcm) for k in numerators]


def system_performance(per_camera: Sequence[float]) -> float:
    """Whole-system performance: the sum over cameras."""
    return float(math.fsum(per_camera))


def _check_configs(cameras: Sequence[CameraSpec], configs: Sequence[PtzConfig]) -> None:
    if len(configs) != len(cameras):
        raise ValueError("one PTZ config per camera required")
    for cam, cfg in zip(cameras, configs):
        cam.validate_ptz(cfg)


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


def step(
    state: SceneState, configs: Sequence[PtzConfig], rng: np.random.Generator
) -> tuple[SceneState, list[Fraction], SampleRecord]:
    """Advance one time step; returns (next state, each camera's exact
    credit, record)."""
    _check_configs(state.cameras, configs)
    new_xy = _arrivals(state.arrival_rate, rng) * (state.width, state.height)
    xy = np.vstack([state.target_xy, new_xy]) if len(state.target_xy) else new_xy
    detected = np.concatenate([state.target_detected, np.zeros(len(new_xy), dtype=bool)])
    live = np.flatnonzero(~detected)
    discs = [_disc(cam.pose, cam.base_half_angle, cfg.pan, cfg.tilt, cfg.zoom)
             for cam, cfg in zip(state.cameras, configs)]
    cx, cy, reach2 = _reaches(discs, state.detection_radius)
    numerators, lcm, seen = _credits(_dist2(xy[live, 0], xy[live, 1], cx, cy) <= reach2)
    detected[live[seen]] = True
    next_state = replace(state, target_xy=xy, target_detected=detected, t=state.t + 1)
    config = {(cam.camera_id, part): getattr(cfg, part)
              for cam, cfg in zip(state.cameras, configs) for part in _PARTS}
    # k / lcm is correctly rounded, as float(Fraction(k, lcm)), and as the simulator divides
    performance = {cam.camera_id: k / lcm for cam, k in zip(state.cameras, numerators)}
    credits = [Fraction(k, lcm) for k in numerators]
    return next_state, credits, SampleRecord(state.t, config, performance)


def replay(
    spec: ScenarioSpec, steps: int, seed: int
) -> Iterator[tuple[SceneState, list[Fraction], SampleRecord]]:
    """``steps`` oracle steps of the scenario under its policy, from the
    unpruned initial state, with the RNG calls ``run_scenario`` makes for
    the same steps and seed; yields each step's next state, credits and
    record."""
    rng = np.random.default_rng(seed)
    state = initial_state(spec)
    for _ in range(steps):
        if isinstance(spec.policy, FixedPtz):
            configs = list(spec.policy.configs)
        else:
            configs = [
                PtzConfig(
                    float(rng.uniform(0.0, 2 * math.pi)),
                    float(rng.uniform(0.0, cam.tilt_max)),
                    float(rng.uniform(1.0, cam.zoom_max)),
                )
                for cam in spec.cameras
            ]
        state, credits, record = step(state, configs, rng)
        yield state, credits, record
