"""Call-trace analysis for trimming the trusted driver down to what runs.

Traces are flat text, one event per line: ``<timestamp> <E|X> <function>
<task>``.  Stack replay per task rebuilds the dynamic call graph; the union
of nodes reachable from the selected tasks' roots is the set a build must
keep, and everything else in the inventory gets an exclusion directive.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

TIMESTAMP_LIMIT = 1 << 64
DIRECTIVE_PREFIX = "CFG_EXCL_"

_IDENTIFIER = re.compile(r"[A-Za-z0-9_]+\Z")


class ParseError(ValueError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


class UnbalancedTrace(ValueError):
    pass


class MismatchedExit(ValueError):
    pass


class UnknownTask(KeyError):
    pass


class UnknownFunction(ValueError):
    pass


class Direction(Enum):
    ENTER = "E"
    EXIT = "X"


@dataclass(frozen=True)
class TraceEvent:
    timestamp: int
    direction: Direction
    function: str
    task: str

    def __post_init__(self) -> None:
        if not 0 <= self.timestamp < TIMESTAMP_LIMIT:
            raise ValueError("timestamp outside u64 range")
        for name in (self.function, self.task):
            if not _IDENTIFIER.match(name):
                raise ValueError(f"bad identifier {name!r}")


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a trace log.  Blank lines and `#` comments are skipped; each
    task's timestamps must be non-decreasing and its Enters must all be
    matched by the end of input."""
    events: list[TraceEvent] = []
    stacks: dict[str, list[str]] = {}
    last_ts: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(fields)}")
        ts_text, dir_text, function, task = fields
        if not ts_text.isdigit():
            raise ParseError(lineno, f"bad timestamp {ts_text!r}")
        timestamp = int(ts_text)
        if timestamp >= TIMESTAMP_LIMIT:
            raise ParseError(lineno, "timestamp outside u64 range")
        try:
            direction = Direction(dir_text)
        except ValueError:
            raise ParseError(lineno, f"unknown direction {dir_text!r}") from None
        for name in (function, task):
            if not _IDENTIFIER.match(name):
                raise ParseError(lineno, f"bad identifier {name!r}")
        if task in last_ts and timestamp < last_ts[task]:
            raise ParseError(lineno, f"timestamp went backwards for task {task!r}")
        last_ts[task] = timestamp

        stack = stacks.setdefault(task, [])
        if direction is Direction.ENTER:
            stack.append(function)
        elif stack and stack[-1] == function:
            stack.pop()
        events.append(TraceEvent(timestamp, direction, function, task))

    leftovers = {
        task: list(stack) for task, stack in stacks.items() if stack
    }
    if leftovers:
        parts = "; ".join(
            f"task {task!r} never exited {', '.join(sorted(set(stack)))}"
            for task, stack in sorted(leftovers.items())
        )
        raise UnbalancedTrace(parts)
    return events


def render_events(events: Iterable[TraceEvent]) -> str:
    return "\n".join(
        f"{e.timestamp} {e.direction.value} {e.function} {e.task}" for e in events
    )


@dataclass(frozen=True)
class CallGraph:
    nodes: frozenset[str]
    edges: dict[tuple[str, str], int]
    roots: frozenset[str]

    def __post_init__(self) -> None:
        for (caller, callee), count in self.edges.items():
            if caller not in self.nodes or callee not in self.nodes:
                raise ValueError(f"edge ({caller}, {callee}) endpoint is not a node")
            if count < 1:
                raise ValueError("call counts must be at least 1")
        if not self.roots <= self.nodes:
            raise ValueError("roots must be nodes")


def _replay(events: Iterable[TraceEvent]) -> tuple[set[str], dict[tuple[str, str], int], set[str]]:
    nodes: set[str] = set()
    edges: dict[tuple[str, str], int] = {}
    roots: set[str] = set()
    stacks: dict[str, list[str]] = {}
    for event in events:
        stack = stacks.setdefault(event.task, [])
        if event.direction is Direction.ENTER:
            nodes.add(event.function)
            if stack:
                key = (stack[-1], event.function)
                edges[key] = edges.get(key, 0) + 1
            else:
                roots.add(event.function)
            stack.append(event.function)
        else:
            if not stack or stack[-1] != event.function:
                top = stack[-1] if stack else "<empty>"
                raise MismatchedExit(
                    f"task {event.task!r} exits {event.function!r} but the stack top is {top}"
                )
            stack.pop()
    return nodes, edges, roots


def build_callgraph(events: Iterable[TraceEvent]) -> CallGraph:
    """Replay the per-task stacks and merge every task into one graph."""
    nodes, edges, roots = _replay(events)
    return CallGraph(nodes=frozenset(nodes), edges=edges, roots=frozenset(roots))


def build_task_graphs(events: Iterable[TraceEvent]) -> dict[str, CallGraph]:
    by_task: dict[str, list[TraceEvent]] = {}
    for event in events:
        by_task.setdefault(event.task, []).append(event)
    return {task: build_callgraph(evts) for task, evts in by_task.items()}


def reachable(graph: CallGraph) -> set[str]:
    """Breadth-first closure of the roots over the call edges."""
    seen = set(graph.roots)
    frontier = list(graph.roots)
    adjacency: dict[str, list[str]] = {}
    for caller, callee in graph.edges:
        adjacency.setdefault(caller, []).append(callee)
    while frontier:
        nxt = []
        for fn in frontier:
            for callee in adjacency.get(fn, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    return seen


def minimal_set(graphs: Mapping[str, CallGraph], tasks: Iterable[str]) -> set[str]:
    """Union of functions reachable from the selected tasks' roots."""
    required: set[str] = set()
    for task in tasks:
        if task not in graphs:
            raise UnknownTask(task)
        required |= reachable(graphs[task])
    return required


@dataclass(frozen=True)
class ExclusionReport:
    inventory: frozenset[str]
    required: frozenset[str]
    excluded: frozenset[str]
    directives: tuple[str, ...]
    reduction_ratio: float


def directive_for(function: str) -> str:
    return DIRECTIVE_PREFIX + function.upper()


def emit_report(inventory: Iterable[str], required: Iterable[str]) -> ExclusionReport:
    inv = frozenset(inventory)
    req = frozenset(required)
    strays = req - inv
    if strays:
        raise UnknownFunction(
            f"traced but not in the inventory: {', '.join(sorted(strays))}"
        )
    excluded = inv - req
    directives = tuple(directive_for(fn) for fn in sorted(excluded))
    ratio = len(excluded) / len(inv) if inv else 0.0
    return ExclusionReport(
        inventory=inv,
        required=req,
        excluded=excluded,
        directives=directives,
        reduction_ratio=ratio,
    )


def render_report(report: ExclusionReport) -> str:
    lines = ["[required]"]
    lines.extend(sorted(report.required))
    lines.append("[excluded]")
    lines.extend(sorted(report.excluded))
    lines.append("[directives]")
    lines.extend(report.directives)
    lines.append("[stats]")
    lines.append(
        "inventory={} required={} excluded={} ratio={:.4f}".format(
            len(report.inventory),
            len(report.required),
            len(report.excluded),
            report.reduction_ratio,
        )
    )
    return "\n".join(lines)


def merge_graphs(graph_sets: Iterable[Mapping[str, CallGraph]]) -> dict[str, CallGraph]:
    """Union per-task graphs from several traces: nodes and roots are joined
    and edge call counts added.  A task seen in one trace keeps its graph."""
    graphs: dict[str, CallGraph] = {}
    for per_task in graph_sets:
        for task, graph in per_task.items():
            prior = graphs.get(task)
            if prior is None:
                graphs[task] = graph
                continue
            edges = dict(prior.edges)
            for key, count in graph.edges.items():
                edges[key] = edges.get(key, 0) + count
            graphs[task] = CallGraph(
                nodes=prior.nodes | graph.nodes,
                edges=edges,
                roots=prior.roots | graph.roots,
            )
    return graphs


def analyze(
    trace_texts: Sequence[str], inventory: Iterable[str], tasks: Sequence[str] | None = None
) -> ExclusionReport:
    """Whole-module convenience: parse traces, build per-task graphs, take
    the minimal set for `tasks` (default: every traced task), emit the report."""
    graphs = merge_graphs(build_task_graphs(parse_trace(text)) for text in trace_texts)
    selected = list(tasks) if tasks is not None else sorted(graphs)
    required = minimal_set(graphs, selected)
    return emit_report(inventory, required)
