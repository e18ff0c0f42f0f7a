"""Seeded synthetic enter/exit traces for the tcb-trace workload.

Each task owns a random call graph over a slice of the function inventory
and replays random walks through it.  The tasks' event streams are merged by
timestamp, so the text interleaves tasks the way a shared trace buffer does.
Stdlib only: the generator must not share code with ``teeguard.tcbtrace``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

FUNCTIONS = 2000
TASKS = 8
EVENTS = 200_000
SELECTED_TASKS = 4
_POOL = 400  # functions a task can reach
_ROOTS = 4
_FANOUT = 3
_MAX_DEPTH = 6


@dataclass(frozen=True)
class SyntheticTrace:
    text: str
    inventory: list[str]
    tasks: list[str]  # the subset the analysis keeps
    events: int


def generate(seed: int) -> SyntheticTrace:
    rng = random.Random(seed)
    inventory = [f"fn{i:04d}" for i in range(FUNCTIONS)]
    task_names = [f"task{t}" for t in range(TASKS)]
    per_task = EVENTS // TASKS
    streams = []
    for index, task in enumerate(task_names):
        pool = rng.sample(inventory, _POOL)
        callees = {fn: rng.sample(pool, _FANOUT) for fn in pool}
        roots = pool[:_ROOTS]
        events: list[tuple[int, int, str]] = []
        clock = rng.randrange(16)

        def walk(fn: str, depth: int) -> None:
            nonlocal clock
            events.append((clock, index, f"{clock} E {fn} {task}"))
            clock += rng.randint(1, 5)
            if depth < _MAX_DEPTH:
                for callee in callees[fn]:
                    if rng.random() < 0.45:
                        walk(callee, depth + 1)
            events.append((clock, index, f"{clock} X {fn} {task}"))
            clock += rng.randint(1, 5)

        while len(events) < per_task:
            walk(rng.choice(roots), 0)
        streams.append(events)
    lines = [line for _, _, line in heapq.merge(*streams)]
    return SyntheticTrace(
        text="\n".join(lines) + "\n",
        inventory=inventory,
        tasks=task_names[:SELECTED_TASKS],
        events=len(lines),
    )


def entered_functions(text: str, tasks: list[str]) -> set[str]:
    """Independent oracle for the required set: every function the selected
    tasks entered, read straight off the text."""
    wanted = set(tasks)
    entered = set()
    for line in text.splitlines():
        _, direction, function, task = line.split()
        if direction == "E" and task in wanted:
            entered.add(function)
    return entered
