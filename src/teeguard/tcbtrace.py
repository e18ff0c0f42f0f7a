"""Call-trace analysis for trimming the trusted driver down to what runs.

Traces are flat text, one event per line: ``<timestamp> <E|X> <function>
<task>``.  Every reader goes through one loop, `_replay`, which checks each
line and replays it on its task's call stack straight away, with one state
per task and no per-event object.  It caches each checked line's tail, the
text after its first space, one entry per distinct tail, so a later line
with that tail and a timestamp under 20 digits is neither split nor checked
again.  Each task's last timestamp is kept as text, and two of equal length
are compared as strings; int() runs only when the lengths differ.
`task_graphs` feeds the loop a trace's text and returns the functions each
task entered.  `parse_trace` (text to `TraceEvent`s) and `build_task_graphs`
(`TraceEvent`s, formatted as lines, to entered sets) are the event-object
entry points over the same loop.  A bad trace raises `ParseError` at its
first bad line, else `UnbalancedTrace` if a task never exits a call, else
`MismatchedExit` for the first task to appear that exits a function not on
top of its stack.  The union of the functions the selected tasks entered is
the set a build must keep, and everything else in the inventory gets an
exclusion directive.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence, Set
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
    def __str__(self) -> str:  # KeyError's own would print the repr of the name
        return f"unknown task {self.args[0]!r}"


class UnknownFunction(ValueError):
    pass


class DirectiveClash(ValueError):
    """Inventory names with no exclusion directive of their own: names that
    are not identifiers, or excluded names whose directive is a required
    function's."""


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
        if not isinstance(self.timestamp, int) or isinstance(self.timestamp, bool):
            raise ValueError(f"timestamp must be an int, got {self.timestamp!r}")
        if not 0 <= self.timestamp < TIMESTAMP_LIMIT:
            raise ValueError("timestamp outside u64 range")
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        for name in (self.function, self.task):
            if not isinstance(name, str) or not _IDENTIFIER.match(name):
                raise ValueError(f"bad identifier {name!r}")


_DIRECTIONS = {d.value: d for d in Direction}
_Row = tuple[int, Direction, str, str]  # timestamp, direction, function, task
# A task's replay state: [last timestamp as text, calls still open, functions entered].
_TaskState = list


def _check_identifier(lineno: int, name: str) -> None:
    if not _IDENTIFIER.match(name):
        raise ParseError(lineno, f"bad identifier {name!r}")


def _replay(
    lines: Iterable[str], rows: list[_Row] | None = None
) -> tuple[dict[str, _TaskState], dict[str, str]]:
    """Check each line of a trace and replay it on its task's call stack
    straight away.  Returns every task's state, in order of first appearance,
    and the first mismatched exit of each task, in the order met; an exit
    that does not match the top of its stack is not popped.  Blank lines and
    `#` comments are skipped; each task's timestamps must be non-decreasing.
    `rows`, if given, collects each checked event.

    A line whose first field is its all-digit timestamp caches its tail (the
    text after the first space) once it passes the checks, one entry per
    distinct tail.  A later line with that tail and a timestamp of fewer than
    20 ASCII digits has the same, already checked, fields, so it goes
    straight to the clock check and the stack; every other line is split and
    checked.  A task's name is matched against _IDENTIFIER when the task
    first appears, a function's until its task has entered it.  Timestamps
    of 20 digits or more take the zero-strip path.  Each task keeps its last
    timestamp as text: equal-length ASCII digit strings sort like their
    values, so int() runs only when the lengths differ, and for `rows`."""
    tasks: dict[str, _TaskState] = {}
    mismatches: dict[str, str] = {}
    tails: dict[str, tuple[Direction, str, str, _TaskState]] = {}
    enter = Direction.ENTER
    for lineno, line in enumerate(lines, 1):
        head, _, tail = line.partition(" ")
        known = tails.get(tail)
        if (
            known is not None
            and len(head) < _TIMESTAMP_DIGITS
            and head.isdigit()
            and head.isascii()
        ):
            ts_text = head
            direction, function, task, state = known
        else:
            fields = line.split()
            try:
                ts_text, dir_text, function, task = fields
            except ValueError:
                if fields and not fields[0].startswith("#"):
                    raise ParseError(lineno, f"expected 4 fields, got {len(fields)}") from None
                continue
            if not (ts_text.isdigit() and ts_text.isascii()):
                if ts_text.startswith("#"):
                    continue
                raise ParseError(lineno, f"bad timestamp {ts_text!r}")
            if len(ts_text) >= _TIMESTAMP_DIGITS:
                # strip the zeros first: int() refuses over 4,300 digits
                ts_text = ts_text.lstrip("0") or "0"
                if len(ts_text) > _TIMESTAMP_DIGITS or int(ts_text) >= TIMESTAMP_LIMIT:
                    raise ParseError(lineno, "timestamp outside u64 range")
            direction = _DIRECTIONS.get(dir_text)
            if direction is None:
                raise ParseError(lineno, f"unknown direction {dir_text!r}")
            state = tasks.get(task)
            if state is None:
                _check_identifier(lineno, function)
                _check_identifier(lineno, task)
                state = tasks[task] = [ts_text, [], set()]
            elif function not in state[2]:
                _check_identifier(lineno, function)  # a bad name beats a backwards clock
            if direction is enter:
                state[2].add(function)
            if fields[0] == head:  # else the tail holds more than the other three fields
                tails[tail] = (direction, function, task, state)
        last = state[0]
        if ts_text < last if len(ts_text) == len(last) else int(ts_text) < int(last):
            raise ParseError(lineno, f"timestamp went backwards for task {task!r}")
        state[0] = ts_text
        stack = state[1]
        if direction is enter:
            stack.append(function)
        elif stack and stack[-1] == function:
            stack.pop()
        elif task not in mismatches:
            top = stack[-1] if stack else "<empty>"
            mismatches[task] = f"task {task!r} exits {function!r} but the stack top is {top}"
        if rows is not None:
            rows.append((int(ts_text), direction, function, task))
    return tasks, mismatches


def _check_balance(tasks: Mapping[str, _TaskState]) -> None:
    open_calls = sorted((task, state[1]) for task, state in tasks.items() if state[1])
    if open_calls:
        raise UnbalancedTrace("; ".join(
            f"task {task!r} never exited {', '.join(sorted(set(stack)))}"
            for task, stack in open_calls
        ))


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse a trace log.  Blank lines and `#` comments are skipped; each
    task's timestamps must be non-decreasing and its Enters must all be
    matched by the end of input."""
    rows: list[_Row] = []
    _check_balance(_replay(text.splitlines(), rows)[0])
    return [TraceEvent(*row) for row in rows]


def _entered(tasks: dict[str, _TaskState], mismatches: dict[str, str]) -> dict[str, frozenset[str]]:
    """Each replayed task's entered functions; the first task with a
    mismatched exit raises."""
    for task in tasks:
        if task in mismatches:
            raise MismatchedExit(mismatches[task])
    return {task: frozenset(entered) for task, (_, _, entered) in tasks.items()}


def task_graphs(text: str) -> dict[str, frozenset[str]]:
    """The functions each task of one trace entered, read in a single pass;
    errors come in the order the module docstring gives."""
    tasks, mismatches = _replay(text.splitlines())
    _check_balance(tasks)
    return _entered(tasks, mismatches)


def build_task_graphs(events: Iterable[TraceEvent]) -> dict[str, frozenset[str]]:
    """The functions each task entered, replayed from events; the first task
    with a mismatched exit raises, and open calls are not checked.  Each event
    is formatted as a trace line and goes through the same line checks as a
    trace's text, so an event whose task's clock goes backwards raises
    `ParseError`, numbered by its 1-based position in `events`."""
    return _entered(*_replay(
        f"{e.timestamp} {e.direction.value} {e.function} {e.task}" for e in events
    ))


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
    malformed = sorted(fn for fn in inv if not _IDENTIFIER.match(fn))
    if malformed:
        raise DirectiveClash(
            f"inventory names that are not identifiers: {', '.join(map(repr, malformed))}"
        )
    excluded = inv - req
    per_name = [(fn, directive_for(fn)) for fn in sorted(excluded)]
    kept = {directive_for(fn): fn for fn in req}
    clashes = [
        f"{directive} for excluded {fn} would exclude required {kept[directive]}"
        for fn, directive in per_name
        if directive in kept
    ]
    if clashes:
        raise DirectiveClash("; ".join(clashes))
    ratio = len(excluded) / len(inv) if inv else 0.0
    return ExclusionReport(
        inventory=inv,
        required=req,
        excluded=excluded,
        directives=tuple(dict.fromkeys(directive for _, directive in per_name)),
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
