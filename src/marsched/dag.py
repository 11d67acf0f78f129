"""Workflow DAGs: construction, parallel-level combining and workload
splitting."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DagError
from .workload import Job


@dataclass
class WorkflowDag:
    tasks: dict[int, Job]
    edges: set[tuple[int, int]]                 # (predecessor, successor)


def _find_cycle(adjacency: dict[int, list[int]]) -> list[int] | None:
    """Return one witness cycle as a node list, or None. Iterative DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: 0 for v in adjacency}
    parent: dict[int, int] = {}
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if color[nxt] == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.pop()  # drop the duplicated start node
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def build_dag(tasks) -> WorkflowDag:
    """Build a validated DAG from parsed workflow tasks (Jobs with dependencies)."""
    task_map: dict[int, Job] = {}
    for job in tasks:
        if job.id in task_map:
            raise DagError(f"duplicate task id {job.id}")
        task_map[job.id] = job
    edges: set[tuple[int, int]] = set()
    for job in task_map.values():
        for dep in job.dependencies:
            if dep not in task_map:
                raise DagError(f"task {job.id} depends on unknown task {dep}")
            edges.add((dep, job.id))
    adjacency = {tid: [] for tid in task_map}
    for pred, succ in sorted(edges):
        adjacency[pred].append(succ)
    cycle = _find_cycle(adjacency)
    if cycle is not None:
        raise DagError(f"dependency cycle: {' -> '.join(map(str, cycle + cycle[:1]))}")
    return WorkflowDag(tasks=task_map, edges=edges)


def _levels(dag: WorkflowDag) -> dict[int, int]:
    """Longest-path-from-source level per task (sources are level 0)."""
    levels: dict[int, int] = {}
    preds: dict[int, list[int]] = {tid: [] for tid in dag.tasks}
    for pred, succ in dag.edges:
        preds[succ].append(pred)

    def level_of(tid: int) -> int:
        if tid in levels:
            return levels[tid]
        # DAG is validated acyclic, so recursion terminates; depth is bounded
        # by task count, keep an iterative resolution for big chains
        stack = [tid]
        while stack:
            cur = stack[-1]
            if cur in levels:
                stack.pop()
                continue
            missing = [p for p in preds[cur] if p not in levels]
            if missing:
                stack.extend(missing)
                continue
            levels[cur] = 1 + max((levels[p] for p in preds[cur]), default=-1)
            stack.pop()
        return levels[tid]

    for tid in dag.tasks:
        level_of(tid)
    return levels


def combine_parallel_tasks(dag: WorkflowDag) -> list[list[int]]:
    """Level sets safe for co-submission.

    Tasks within one list have no dependency path between them; the
    concatenation of the lists is a valid topological order.
    """
    levels = _levels(dag)
    if not levels:
        return []
    out: list[list[int]] = [[] for _ in range(max(levels.values()) + 1)]
    for tid in sorted(dag.tasks):
        out[levels[tid]].append(tid)
    return out


def split_workload(jobs: list, max_size: int) -> list[list]:
    """Halve recursively (first half gets the ceiling) until chunks fit max_size."""
    if max_size < 1:
        raise DagError(f"max_size must be >= 1, got {max_size}")
    jobs = list(jobs)
    if len(jobs) <= max_size:
        return [jobs]
    mid = (len(jobs) + 1) // 2
    return split_workload(jobs[:mid], max_size) + split_workload(jobs[mid:], max_size)
