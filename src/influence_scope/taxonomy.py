"""System descriptors and strategy recommendation.

A descriptor captures the characteristics that matter when picking a
detection approach: how many agents, what kinds of configuration parts,
what communication costs, and how influences behave (locality, jointness,
dependency class, distinctiveness, timing).  ``recommend_strategy`` maps a
descriptor to detection settings through a fixed rule table; every setting
that deviates from the defaults carries a human-readable note.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

from .detection import DetectionStrategy, Measure
from .errors import InputError, expect, need, read


class AgentScale(Enum):
    SMALL = "small"        # a few agents
    MEDIUM = "medium"      # less than a few hundred
    LARGE = "large"        # more than a few hundred


@dataclass(frozen=True)
class NominalPart:
    categories: int

    def __post_init__(self) -> None:
        if self.categories < 2:
            raise ValueError("nominal parts need >= 2 categories")


@dataclass(frozen=True)
class OrdinalPart:
    categories: int

    def __post_init__(self) -> None:
        if self.categories < 2:
            raise ValueError("ordinal parts need >= 2 categories")


@dataclass(frozen=True)
class InfiniteRealPart:
    pass


PartKindSpec = Union[NominalPart, OrdinalPart, InfiniteRealPart]


class CommKind(Enum):
    FREE = "free"
    MULTI_HOP_COST = "multi_hop_cost"
    NEIGHBORS_ONLY = "neighbors_only"


class CostLevel(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True)
class Communication:
    kind: CommKind
    cost: Optional[CostLevel] = None

    def __post_init__(self) -> None:
        if self.kind is CommKind.MULTI_HOP_COST and self.cost is None:
            raise ValueError("multi-hop communication needs a cost level")
        if self.kind is not CommKind.MULTI_HOP_COST and self.cost is not None:
            raise ValueError("cost level only applies to multi-hop communication")


class InfluenceLocality(Enum):
    NEIGHBORHOOD = "neighborhood"
    MULTI_HOP = "multi_hop"


class Jointness(Enum):
    PAIRWISE = "pairwise"
    JOINT = "joint"


class DependencyClass(Enum):
    LINEAR = "linear"
    MONOTONIC = "monotonic"
    STOCHASTIC = "stochastic"


class Distinctiveness(Enum):
    DISTINCT = "distinct"
    SUBTLE = "subtle"


@dataclass(frozen=True)
class Temporality:
    """Immediate influence, or delayed with a maximum lag in steps."""

    delayed: bool = False
    max_lag: int = 0

    def __post_init__(self) -> None:
        if self.delayed and self.max_lag < 1:
            raise ValueError("delayed influence needs max_lag >= 1")
        if not self.delayed and self.max_lag != 0:
            raise ValueError("immediate influence must not carry a lag")


@dataclass(frozen=True)
class SystemDescriptor:
    agent_scale: AgentScale
    part_kinds: tuple[PartKindSpec, ...]
    communication: Communication
    influence_locality: InfluenceLocality
    jointness: Jointness
    dependency_class: DependencyClass
    distinctiveness: Distinctiveness
    temporality: Temporality
    hardware_heterogeneous: bool = False  # descriptor metadata only

    @property
    def part_count(self) -> int:
        return len(self.part_kinds)

    def __post_init__(self) -> None:
        if len(self.part_kinds) == 0:
            raise ValueError("at least one configuration part required")


@dataclass(frozen=True)
class StrategyRecommendation:
    strategy: DetectionStrategy
    notes: tuple[str, ...]


def recommend_strategy(descriptor: SystemDescriptor) -> StrategyRecommendation:
    """Deterministic rule table from descriptor to detection settings."""
    strategy = DetectionStrategy()
    notes: list[str] = []

    cls = descriptor.dependency_class
    if cls is DependencyClass.LINEAR:
        strategy = replace(strategy, measure_kind=Measure.LINEAR)
        notes.append("linear dependencies: Pearson correlation suffices")
    elif cls is DependencyClass.MONOTONIC:
        strategy = replace(strategy, measure_kind=Measure.RANK)
        notes.append("monotonic dependencies: Spearman rank correlation suffices")
    else:
        if any(isinstance(k, InfiniteRealPart) for k in descriptor.part_kinds):
            strategy = replace(strategy, measure_kind=Measure.MIC)
            notes.append(
                "stochastic dependencies over real-valued parts: MIC searches "
                "binning grids for arbitrary dependency shapes"
            )
        else:
            strategy = replace(strategy, measure_kind=Measure.MI)
            notes.append(
                "stochastic dependencies over categorical parts: plug-in "
                "mutual information applies directly"
            )

    if descriptor.temporality.delayed:
        lags = tuple(range(descriptor.temporality.max_lag + 1))
        strategy = replace(strategy, lag_set=lags)
        notes.append(
            f"delayed influence: scan lags 0..{descriptor.temporality.max_lag}"
        )

    if descriptor.jointness is Jointness.JOINT:
        strategy = replace(strategy, joint_pairs=True)
        notes.append("joint influences: score composite remote-part pairs too")

    if descriptor.distinctiveness is Distinctiveness.SUBTLE:
        strategy = replace(strategy, permutations=500, min_partition_size=50)
        notes.append(
            "subtle dependencies: more permutations and larger partitions "
            "stabilize the significance test"
        )

    if (
        descriptor.agent_scale is AgentScale.LARGE
        and descriptor.communication.kind is CommKind.NEIGHBORS_ONLY
    ):
        notes.append(
            "large system with neighbor-limited communication: restrict "
            "candidate remote agents to declared neighborhoods"
        )

    return StrategyRecommendation(strategy=strategy, notes=tuple(notes))


BUILTINS = {
    "scn": SystemDescriptor(
        # network sizes range from a few cameras to large-scale; there is
        # no clear single classification, stored as medium
        agent_scale=AgentScale.MEDIUM,
        part_kinds=(InfiniteRealPart(), InfiniteRealPart(), InfiniteRealPart()),
        communication=Communication(CommKind.MULTI_HOP_COST, CostLevel.HIGH),
        influence_locality=InfluenceLocality.NEIGHBORHOOD,
        jointness=Jointness.PAIRWISE,
        dependency_class=DependencyClass.STOCHASTIC,
        distinctiveness=Distinctiveness.DISTINCT,
        temporality=Temporality(),
        hardware_heterogeneous=False,
    ),
}


def builtin_descriptor(name: str) -> SystemDescriptor:
    """Shipped descriptors; "scn" is the smart-camera network with three
    infinite real-valued parts (pan, tilt, zoom) per camera."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin descriptor {name!r}") from None


# --- JSON mirror ------------------------------------------------------------


def descriptor_to_dict(d: SystemDescriptor) -> dict:
    parts = []
    for kind in d.part_kinds:
        if isinstance(kind, NominalPart):
            parts.append({"kind": "nominal", "categories": kind.categories})
        elif isinstance(kind, OrdinalPart):
            parts.append({"kind": "ordinal", "categories": kind.categories})
        else:
            parts.append({"kind": "infinite_real"})
    return {
        "agent_scale": d.agent_scale.value,
        "part_kinds": parts,
        "communication": {
            "kind": d.communication.kind.value,
            "cost": d.communication.cost.value if d.communication.cost else None,
        },
        "influence_locality": d.influence_locality.value,
        "jointness": d.jointness.value,
        "dependency_class": d.dependency_class.value,
        "distinctiveness": d.distinctiveness.value,
        "temporality": {
            "delayed": d.temporality.delayed,
            "max_lag": d.temporality.max_lag,
        },
        "hardware_heterogeneous": d.hardware_heterogeneous,
    }


def descriptor_from_dict(data: dict) -> SystemDescriptor:
    expect(data, dict, "")
    parts: list[PartKindSpec] = []
    for i, p in enumerate(need(data, "part_kinds", kind=list)):
        at = f"part_kinds[{i}]."
        kind = need(expect(p, dict, at[:-1]), "kind", at)
        if kind == "nominal" or kind == "ordinal":
            part = NominalPart if kind == "nominal" else OrdinalPart
            parts.append(read(p, "categories", lambda c: part(int(c)), at))
        elif kind == "infinite_real":
            parts.append(InfiniteRealPart())
        else:
            raise InputError(at + "kind", f"unknown part kind {kind!r}")
    comm = need(data, "communication", kind=dict)
    temporal = data.get("temporality", {"delayed": False, "max_lag": 0})
    expect(temporal, dict, "temporality")
    return SystemDescriptor(
        agent_scale=read(data, "agent_scale", AgentScale),
        part_kinds=tuple(parts),
        communication=Communication(
            read(comm, "kind", CommKind, "communication."),
            read(comm, "cost", CostLevel, "communication.") if comm.get("cost") else None,
        ),
        influence_locality=read(data, "influence_locality", InfluenceLocality),
        jointness=read(data, "jointness", Jointness),
        dependency_class=read(data, "dependency_class", DependencyClass),
        distinctiveness=read(data, "distinctiveness", Distinctiveness),
        temporality=Temporality(
            read(temporal, "delayed", bool, "temporality."),
            read(temporal, "max_lag", int, "temporality."),
        ),
        hardware_heterogeneous=bool(data.get("hardware_heterogeneous", False)),
    )
