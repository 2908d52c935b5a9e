"""Descriptor model and the strategy recommendation rule table."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_scope import (
    Measure,
    SystemDescriptor,
    builtin_descriptor,
    recommend_strategy,
)
from influence_scope.taxonomy import (
    AgentScale,
    CommKind,
    Communication,
    CostLevel,
    DependencyClass,
    Distinctiveness,
    InfiniteRealPart,
    InfluenceLocality,
    Jointness,
    NominalPart,
    OrdinalPart,
    Temporality,
)
from influence_scope.logio import descriptor_from_dict, descriptor_to_dict


def descriptor(**overrides) -> SystemDescriptor:
    base = dict(
        agent_scale=AgentScale.SMALL,
        part_kinds=(NominalPart(2),),
        communication=Communication(CommKind.FREE),
        influence_locality=InfluenceLocality.NEIGHBORHOOD,
        jointness=Jointness.PAIRWISE,
        dependency_class=DependencyClass.LINEAR,
        distinctiveness=Distinctiveness.DISTINCT,
        temporality=Temporality(),
    )
    base.update(overrides)
    return SystemDescriptor(**base)


# --- builtin -----------------------------------------------------------------


def test_builtin_camera_network_descriptor():
    d = builtin_descriptor("scn")
    assert d.part_count == 3
    assert all(isinstance(k, InfiniteRealPart) for k in d.part_kinds)
    assert d.dependency_class is DependencyClass.STOCHASTIC
    assert not d.temporality.delayed


def test_builtin_is_pure():
    assert builtin_descriptor("scn") == builtin_descriptor("scn")


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin_descriptor("foo")


def test_builtin_camera_network_recommendation():
    rec = recommend_strategy(builtin_descriptor("scn"))
    assert rec.strategy.measure_kind is Measure.MIC
    assert rec.strategy.lag_set == (0,)
    assert rec.strategy.joint_pairs is False


# --- rule table ----------------------------------------------------------------


def test_linear_class_picks_pearson():
    rec = recommend_strategy(descriptor())
    assert rec.strategy.measure_kind is Measure.LINEAR
    assert len(rec.notes) == 1


def test_monotonic_class_picks_spearman():
    rec = recommend_strategy(descriptor(dependency_class=DependencyClass.MONOTONIC))
    assert rec.strategy.measure_kind is Measure.RANK


def test_stochastic_nominal_delayed_joint_combination():
    rec = recommend_strategy(
        descriptor(
            dependency_class=DependencyClass.STOCHASTIC,
            part_kinds=(NominalPart(3), NominalPart(2)),
            temporality=Temporality(delayed=True, max_lag=2),
            jointness=Jointness.JOINT,
        )
    )
    assert rec.strategy.measure_kind is Measure.MI
    assert rec.strategy.lag_set == (0, 1, 2)
    assert rec.strategy.joint_pairs is True


def test_stochastic_with_real_part_picks_mic():
    rec = recommend_strategy(
        descriptor(
            dependency_class=DependencyClass.STOCHASTIC,
            part_kinds=(NominalPart(2), InfiniteRealPart()),
        )
    )
    assert rec.strategy.measure_kind is Measure.MIC


def test_subtle_raises_permutations_and_partitions():
    rec = recommend_strategy(descriptor(distinctiveness=Distinctiveness.SUBTLE))
    assert rec.strategy.permutations == 500
    assert rec.strategy.min_partition_size == 50


def test_large_neighbor_limited_note():
    rec = recommend_strategy(
        descriptor(
            agent_scale=AgentScale.LARGE,
            communication=Communication(CommKind.NEIGHBORS_ONLY),
        )
    )
    assert any("neighbor" in note for note in rec.notes)


def test_delayed_lag_note_mentions_range():
    rec = recommend_strategy(descriptor(temporality=Temporality(True, 3)))
    assert rec.strategy.lag_set == (0, 1, 2, 3)
    assert any("0..3" in note for note in rec.notes)


# --- totality over the descriptor space ---------------------------------------------


def all_enum_descriptors():
    comms = [Communication(CommKind.FREE), Communication(CommKind.NEIGHBORS_ONLY)] + [
        Communication(CommKind.MULTI_HOP_COST, cost) for cost in CostLevel
    ]
    parts = [(NominalPart(2),), (OrdinalPart(3),), (InfiniteRealPart(),)]
    temporals = [Temporality(), Temporality(True, 1)]
    for combo in itertools.product(
        AgentScale,
        parts,
        comms,
        InfluenceLocality,
        Jointness,
        DependencyClass,
        Distinctiveness,
        temporals,
    ):
        yield SystemDescriptor(*combo)


def test_recommendation_total_and_noted():
    count = 0
    for d in all_enum_descriptors():
        rec = recommend_strategy(d)
        assert rec.strategy is not None
        assert rec.notes, f"no note for {d}"
        assert rec == recommend_strategy(d)
        count += 1
    assert count == len(list(all_enum_descriptors()))


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(list(DependencyClass)),
)
def test_recommendation_deterministic_over_sampled_fields(categories, max_lag, cls):
    d = descriptor(
        part_kinds=(NominalPart(categories),),
        dependency_class=cls,
        temporality=Temporality(True, max_lag),
    )
    assert recommend_strategy(d) == recommend_strategy(d)


# --- validation and serialization -----------------------------------------------------


def test_descriptor_requires_parts():
    with pytest.raises(ValueError):
        descriptor(part_kinds=())


def test_multi_hop_needs_cost_level():
    with pytest.raises(ValueError):
        Communication(CommKind.MULTI_HOP_COST)
    with pytest.raises(ValueError):
        Communication(CommKind.FREE, CostLevel.LOW)


def test_temporality_validation():
    with pytest.raises(ValueError):
        Temporality(delayed=True, max_lag=0)
    with pytest.raises(ValueError):
        Temporality(delayed=False, max_lag=2)


def test_descriptor_dict_round_trip():
    for d in (builtin_descriptor("scn"), descriptor(temporality=Temporality(True, 2))):
        assert descriptor_from_dict(descriptor_to_dict(d)) == d
