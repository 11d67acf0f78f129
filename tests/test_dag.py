"""DAG construction against brute-force reachability and leveling oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_job
from marsched.dag import build_dag, combine_parallel_tasks, split_workload
from marsched.errors import DagError


def tasks_from_edges(n, edges):
    deps = {i: [] for i in range(1, n + 1)}
    for pred, succ in edges:
        deps[succ].append(pred)
    return [make_job(i, deps=deps[i]) for i in range(1, n + 1)]


# -- oracles ----------------------------------------------------------------

def reachability(n, edges):
    """Transitive closure by Floyd-Warshall; reach[a][b] means a path a->b."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if reach[i][k]:
                for j in range(1, n + 1):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def has_cycle_oracle(n, edges):
    reach = reachability(n, edges)
    return any(reach[v][v] for v in range(1, n + 1))


def longest_path_levels_oracle(n, edges):
    """Level = longest path from any source, by exhaustive relaxation."""
    level = {i: 0 for i in range(1, n + 1)}
    for _ in range(n + 1):
        for a, b in edges:
            level[b] = max(level[b], level[a] + 1)
    return level


# -- construction and cycles -------------------------------------------------

def test_build_simple_dag():
    dag = build_dag(tasks_from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)]))
    assert dag.edges == {(1, 2), (1, 3), (2, 4), (3, 4)}
    assert sorted(dag.tasks) == [1, 2, 3, 4]


def test_cycle_rejected_with_witness():
    with pytest.raises(DagError) as err:
        build_dag(tasks_from_edges(3, [(1, 2), (2, 3), (3, 1)]))
    assert "->" in str(err.value)


def test_self_loop_rejected():
    with pytest.raises(DagError):
        build_dag(tasks_from_edges(1, [(1, 1)]))


def test_unknown_dependency_rejected():
    with pytest.raises(DagError):
        build_dag([make_job(1, deps=(99,))])


def test_duplicate_task_rejected():
    with pytest.raises(DagError):
        build_dag([make_job(1), make_job(1)])


@given(st.integers(2, 9), st.data())
@settings(max_examples=150)
def test_cycle_detection_matches_reachability_oracle(n, data):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=14,
                               unique=True))
    expect_cycle = has_cycle_oracle(n, edges)
    # build_dag reads deps off the Job objects, self-loops included
    deps = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        deps[b].append(a)
    tasks = [make_job(i, deps=deps[i]) for i in range(1, n + 1)]
    if expect_cycle:
        with pytest.raises(DagError):
            build_dag(tasks)
    else:
        build_dag(tasks)


# -- leveling ---------------------------------------------------------------

def test_levels_match_longest_path_oracle_hand_case():
    edges = [(1, 2), (1, 3), (3, 4), (2, 5), (4, 5), (6, 5)]
    dag = build_dag(tasks_from_edges(6, edges))
    levels = combine_parallel_tasks(dag)
    oracle = longest_path_levels_oracle(6, edges)
    for lvl, members in enumerate(levels):
        for tid in members:
            assert oracle[tid] == lvl
    assert sorted(t for lv in levels for t in lv) == [1, 2, 3, 4, 5, 6]


@given(st.integers(1, 10), st.data())
@settings(max_examples=100)
def test_levels_property(n, data):
    # forward edges only, guaranteed acyclic
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=16,
                               unique=True)) if pairs else []
    dag = build_dag(tasks_from_edges(n, edges))
    levels = combine_parallel_tasks(dag)
    oracle = longest_path_levels_oracle(n, edges)
    placed = {tid: lvl for lvl, members in enumerate(levels) for tid in members}
    assert placed == oracle
    # no dependency inside one level; concatenation is a topological order
    for a, b in edges:
        assert placed[a] < placed[b]


# -- splitting -------------------------------------------------------------

def test_split_examples():
    assert [len(c) for c in split_workload(list(range(50000)), 20000)] == \
        [12500, 12500, 12500, 12500]
    assert [len(c) for c in split_workload(list(range(20001)), 20000)] == \
        [10001, 10000]
    assert split_workload([1, 2, 3], 5) == [[1, 2, 3]]


@given(st.integers(0, 3000), st.integers(1, 500))
@settings(max_examples=200)
def test_split_partition_property(n, max_size):
    jobs = list(range(n))
    chunks = split_workload(jobs, max_size)
    assert [x for c in chunks for x in c] == jobs   # order-preserving partition
    assert all(1 <= len(c) <= max_size for c in chunks) or n == 0
    if n > max_size:
        # every split node exceeded max_size, so no chunk can drop below
        # half of it (the floor half of max_size + 1)
        assert min(len(c) for c in chunks) >= (max_size + 1) // 2
