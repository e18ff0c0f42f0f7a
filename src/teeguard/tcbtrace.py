"""Call-trace analysis for trimming the trusted driver down to what runs.

Traces are flat text, one event per line: ``<timestamp> <E|X> <function>
<task>``.  `task_graphs` reads a trace in one pass: a scanner checks each
line and hands it straight to a per-task stack replay, which records the
functions each task entered without keeping per-event objects.  A bad trace
raises `ParseError` at its first bad line, else `UnbalancedTrace` if a task
never exits a call, else `MismatchedExit` for the first task to appear that
exits a function not on top of its stack.  The union of the functions the
selected tasks entered is the set a build must keep, and everything else in
the inventory gets an exclusion directive.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from enum import Enum

TIMESTAMP_LIMIT = 1 << 64
_TIMESTAMP_DIGITS = len(str(TIMESTAMP_LIMIT - 1))  # 20
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


_DIRECTIONS = {d.value: d for d in Direction}
_Row = tuple[int, Direction, str, str]  # timestamp, direction, function, task
# A task's replay state: the calls still open and the functions entered.
_TaskState = tuple[list[str], set[str]]


def _scan(text: str) -> Iterator[_Row]:
    """Yield each event line of a trace as a checked row.  Blank lines and
    `#` comments are skipped; each task's timestamps must be non-decreasing."""
    last_ts: dict[str, int] = {}
    checked: set[str] = set()  # names that already matched _IDENTIFIER
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(fields)}")
        ts_text, dir_text, function, task = fields
        if not (ts_text.isascii() and ts_text.isdigit()):
            raise ParseError(lineno, f"bad timestamp {ts_text!r}")
        try:
            timestamp = int(ts_text)
        except ValueError:  # over int()'s 4,300-digit limit, leading zeros included
            ts_text = ts_text.lstrip("0") or "0"
            timestamp = int(ts_text) if len(ts_text) <= _TIMESTAMP_DIGITS else TIMESTAMP_LIMIT
        if timestamp >= TIMESTAMP_LIMIT:
            raise ParseError(lineno, "timestamp outside u64 range")
        direction = _DIRECTIONS.get(dir_text)
        if direction is None:
            raise ParseError(lineno, f"unknown direction {dir_text!r}")
        for name in (function, task):
            if name not in checked:
                if not _IDENTIFIER.match(name):
                    raise ParseError(lineno, f"bad identifier {name!r}")
                checked.add(name)
        if timestamp < last_ts.get(task, 0):
            raise ParseError(lineno, f"timestamp went backwards for task {task!r}")
        last_ts[task] = timestamp
        yield timestamp, direction, function, task


def _replay(rows: Iterable[_Row]) -> tuple[dict[str, _TaskState], dict[str, str]]:
    """Replay each task's call stack.  Returns every task's state, in order
    of first appearance, and the first mismatched exit of each task, in the
    order met.  An exit that does not match the top of its stack is not
    popped."""
    tasks: dict[str, _TaskState] = {}
    mismatches: dict[str, str] = {}
    enter = Direction.ENTER
    for _, direction, function, task in rows:
        stack, entered = tasks.get(task) or tasks.setdefault(task, ([], set()))
        if direction is enter:
            entered.add(function)
            stack.append(function)
        elif stack and stack[-1] == function:
            stack.pop()
        elif task not in mismatches:
            top = stack[-1] if stack else "<empty>"
            mismatches[task] = f"task {task!r} exits {function!r} but the stack top is {top}"
    return tasks, mismatches


def _check_balance(tasks: Mapping[str, _TaskState]) -> None:
    open_calls = sorted((task, state[0]) for task, state in tasks.items() if state[0])
    if open_calls:
        raise UnbalancedTrace("; ".join(
            f"task {task!r} never exited {', '.join(sorted(set(stack)))}"
            for task, stack in open_calls
        ))


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a trace log.  Blank lines and `#` comments are skipped; each
    task's timestamps must be non-decreasing and its Enters must all be
    matched by the end of input."""
    rows = list(_scan(text))
    _check_balance(_replay(rows)[0])
    return [TraceEvent(*row) for row in rows]


def _entered(tasks: dict[str, _TaskState], mismatches: dict[str, str]) -> dict[str, frozenset[str]]:
    """Each replayed task's entered functions; the first task with a
    mismatched exit raises."""
    for task in tasks:
        if task in mismatches:
            raise MismatchedExit(mismatches[task])
    return {task: frozenset(entered) for task, (_, entered) in tasks.items()}


def task_graphs(text: str) -> dict[str, frozenset[str]]:
    """The functions each task of one trace entered, read in a single pass;
    errors come in the order the module docstring gives."""
    tasks, mismatches = _replay(_scan(text))
    _check_balance(tasks)
    return _entered(tasks, mismatches)


def build_task_graphs(events: Iterable[TraceEvent]) -> dict[str, frozenset[str]]:
    return _entered(*_replay((e.timestamp, e.direction, e.function, e.task) for e in events))


def minimal_set(graphs: Mapping[str, Set[str]], tasks: Iterable[str]) -> set[str]:
    """Union of the functions the selected tasks entered."""
    required: set[str] = set()
    for task in tasks:
        if task not in graphs:
            raise UnknownTask(task)
        required |= graphs[task]
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


def analyze(
    trace_texts: Iterable[str], inventory: Iterable[str], tasks: Sequence[str] | None = None
) -> ExclusionReport:
    """Whole-module convenience: read each trace in one pass, union each
    task's entered functions across the traces, take the minimal set for
    `tasks` (default: every traced task), emit the report."""
    entered: dict[str, set[str]] = {}
    for text in trace_texts:
        for task, functions in task_graphs(text).items():
            entered.setdefault(task, set()).update(functions)
    selected = list(tasks) if tasks is not None else sorted(entered)
    return emit_report(inventory, minimal_set(entered, selected))
