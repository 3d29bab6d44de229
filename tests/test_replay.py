"""The single-pass replay of DualGraph against a two-pass reference.

``reference_replay`` is the replay as it was written before adjacency was
built during the pass: it first walks the sequence, keeping per vertex the
parents no satellite has cut it from, and then lists the edges in a second
pass.  On every sequence, valid or not, the construction must derive the
same adjacency and self-intersections, or refuse with the same class and
message.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from planevals import DualGraph, GraphError, random_instance

from census import bare_sequences
from test_fuzz import GRAPH_TEXTS, _mutate, fuzz_settings, mutations


def reference_replay(parents):
    """(adjacency dict, self-intersections) of sorted parents tuples."""
    n = len(parents)
    if n and parents[0]:
        raise GraphError("vertex 1 cannot have parents")
    kids = [0] * (n + 1)
    # up[v - 1]: the parents of v that no satellite has cut it from
    up = list(map(list, parents))
    for v in range(2, n + 1):
        ps = parents[v - 1]
        if len(ps) == 1:
            (s,) = ps
            if not 0 < s < v:
                raise GraphError(f"vertex {v}: bad parent {s}")
            kids[s] += 1
        elif len(ps) == 2:
            s, d = ps
            if not 0 < s < d < v:
                raise GraphError(f"vertex {v}: bad parents {ps}")
            if s not in up[d - 1]:
                raise GraphError(
                    f"vertex {v}: satellite parents {s},{d} not adjacent")
            up[d - 1].remove(s)
            kids[s] += 1
            kids[d] += 1
        else:
            raise GraphError(f"vertex {v}: needs 0, 1, or 2 parents")
    # parents come before v and children after it, each in id order
    adj = [[] for _ in range(n + 1)]
    for v, ps in enumerate(up, 1):
        for p in ps:
            adj[p].append(v)
            adj[v].append(p)
    return (dict(zip(range(1, n + 1), map(tuple, adj[1:]))),
            tuple(-1 - k for k in kids[1:]))


def replayed(parents):
    g = DualGraph(parents)
    return g._adj, g._selfint


def outcome(replay, parents):
    """What replay derives from parents, or the class and message of its
    refusal."""
    try:
        return replay(parents)
    except GraphError as exc:
        return type(exc), str(exc)


def assert_replays_alike(parents):
    """DualGraph(parents) derives what the reference does, or refuses
    alike; parents the constructor cannot normalize are skipped."""
    try:
        parents = tuple(tuple(sorted(map(int, ps))) for ps in parents)
    except (TypeError, ValueError):
        return
    assert (outcome(replayed, parents)
            == outcome(reference_replay, parents)), parents


def test_census_sequences_replay_as_the_reference():
    graphs = [g for level in bare_sequences(6) for g in level]
    assert len(graphs) == 236
    for g in graphs:
        assert replayed(g.parents) == reference_replay(g.parents)


def test_random_instances_replay_as_the_reference():
    for bias in (0, 0.4, 0.9, 1.0):
        for seed in range(300):
            g = random_instance(seed, 40, 1 + seed % 3,
                                ("divisorial", "curve")[seed % 2], bias)
            assert replayed(g.parents) == reference_replay(g.parents)


def test_refusals_of_bad_sequences_match_the_reference():
    # one of each refusal, and a satellite on an edge a satellite cut
    for parents in [((1,),), ((), ()), ((), (3,)), ((), (1,), (1, 3)),
                    ((), (1,), (2, 2)), ((), (1,), (1,), (2, 3)),
                    ((), (1,), (1, 2), (1, 2)), ((), (1,), (1, 2, 3))]:
        assert outcome(replayed, parents)[0] is GraphError
        assert_replays_alike(parents)


@fuzz_settings
@given(st.integers(0, len(GRAPH_TEXTS) - 1), mutations)
def test_mutated_graph_files_replay_as_the_reference(which, edits):
    # the mutated graph files of test_fuzz.py, read back to their
    # sequences of parents
    try:
        doc = json.loads(_mutate(GRAPH_TEXTS[which], edits))
        parents = [v["parents"]
                   for v in sorted(doc["vertices"], key=lambda v: v["id"])]
    except (ValueError, KeyError, TypeError):
        return
    assert_replays_alike(parents)


@fuzz_settings
@given(st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=10))
def test_drawn_sequences_replay_as_the_reference(parents):
    # past the origin, which has no parents
    assert_replays_alike([[]] + parents)
