"""The one-pass γ / τ / π against the per-path reference they replaced.

``solution_space_reference`` holds the operators' previous bodies verbatim.
On hypothesis-generated path lists — repeated paths, empty input, every ψ,
every θ, projection components below, at and above what is available — the
production operators must build the same solution space (shape, keys, every
rank) and project the same *sequence* of paths: Algorithm 1's order is stable
with respect to insertion order, and callers see it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from solution_space_reference import reference_group_by, reference_order_by, reference_project
from repro.algebra.solution_space import (
    ALL,
    GroupByKey,
    OrderByKey,
    ProjectionSpec,
    SolutionSpace,
    group_by,
    order_by,
    project,
)
from repro.datasets.figure1 import figure1_graph
from repro.paths.pathset import PathSet
from repro.semantics.restrictors import Restrictor, recursive_closure

#: Every walk of length <= 3 in Figure 1, plus its nodes: a pool with many
#: endpoint pairs, several lengths per pair and ties at every level.
_GRAPH = figure1_graph()
_POOL = (
    PathSet.nodes_of(_GRAPH).paths()
    + recursive_closure(PathSet.edges_of(_GRAPH), Restrictor.WALK, max_length=3).paths()
)

path_lists = st.lists(st.sampled_from(_POOL), max_size=40)  # may repeat paths, may be empty
group_keys = st.sampled_from(list(GroupByKey))
order_keys = st.none() | st.sampled_from(list(OrderByKey))
components = st.just(ALL) | st.integers(min_value=1, max_value=6)
specs = st.builds(ProjectionSpec, components, components, components)


def _image(space: SolutionSpace) -> list:
    """Everything observable about a solution space, in its stored order."""
    return [
        (
            partition.key,
            partition.rank,
            [
                (group.key, group.rank, [(path, group.path_rank(path)) for path in group.paths])
                for group in partition.groups
            ],
        )
        for partition in space.partitions
    ]


@settings(max_examples=300, deadline=None)
@given(path_lists, group_keys, order_keys, specs, st.booleans())
def test_one_pass_operators_match_the_reference(paths, group_key, order_key, spec, as_path_set) -> None:
    # A PathSet input takes the bulk-build route, a plain list (which may
    # repeat paths) the deduplicating one.
    source = PathSet(paths) if as_path_set else paths
    space = group_by(source, group_key)
    expected = reference_group_by(source, group_key)
    assert space.shape() == expected.shape()
    assert _image(space) == _image(expected)
    assert space.all_paths().paths() == expected.all_paths().paths()

    if order_key is not None:
        before = _image(space)
        ordered = order_by(space, order_key)
        assert _image(space) == before  # τ leaves its input space as it was
        space, expected = ordered, reference_order_by(expected, order_key)
        assert space.shape() == expected.shape()
        assert _image(space) == _image(expected)

    assert project(space, spec).paths() == reference_project(expected, spec).paths()


@settings(max_examples=50, deadline=None)
@given(path_lists, group_keys, st.sampled_from(list(OrderByKey)), st.sampled_from(list(OrderByKey)))
def test_stacked_order_bys_match_the_reference(paths, group_key, first, second) -> None:
    """Ranks a τ does not name survive the next τ (Table 6: 'keep their previous rank')."""
    space = order_by(order_by(group_by(paths, group_key), first), second)
    expected = reference_order_by(reference_order_by(reference_group_by(paths, group_key), first), second)
    assert _image(space) == _image(expected)
    assert project(space).paths() == reference_project(expected).paths()
