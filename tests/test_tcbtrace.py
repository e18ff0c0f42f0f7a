"""Trace parsing, the replay of the functions each task entered, and exclusion
report generation."""

import hashlib
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.tcbtrace import (
    DirectiveClash,
    Direction,
    MismatchedExit,
    ParseError,
    TraceEvent,
    UnbalancedTrace,
    UnknownFunction,
    UnknownTask,
    analyze,
    build_task_graphs,
    directive_for,
    emit_report,
    minimal_set,
    parse_trace,
    render_report,
    task_graphs,
)

NESTED = """\
100 E a main
110 E b main
120 E c main
130 X c main
140 X b main
150 X a main
"""


@st.composite
def balanced_trace(draw):
    """Random well-formed trace over a few tasks with a shared clock."""
    functions = [f"fn{i}" for i in range(draw(st.integers(1, 6)))]
    tasks = [f"task{i}" for i in range(draw(st.integers(1, 3)))]
    stacks = {t: [] for t in tasks}
    ts = draw(st.integers(0, 100))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        task = draw(st.sampled_from(tasks))
        stack = stacks[task]
        ts += draw(st.integers(0, 3))
        if stack and draw(st.booleans()):
            lines.append(f"{ts} X {stack.pop()} {task}")
        else:
            fn = draw(st.sampled_from(functions))
            stack.append(fn)
            lines.append(f"{ts} E {fn} {task}")
    for task in tasks:
        while stacks[task]:
            ts += 1
            lines.append(f"{ts} X {stacks[task].pop()} {task}")
    return "\n".join(lines)


# -- parsing ----------------------------------------------------------------


def test_balanced_pair_parses():
    events = parse_trace("5 E setup boot\n9 X setup boot\n")
    assert events == [
        TraceEvent(5, Direction.ENTER, "setup", "boot"),
        TraceEvent(9, Direction.EXIT, "setup", "boot"),
    ]


def test_comments_and_blanks_skipped_but_counted():
    text = "# header\n\n1 E a t\n\nbroken line here now extra\n"
    with pytest.raises(ParseError) as info:
        parse_trace(text)
    assert info.value.lineno == 5
    assert "got 5" in info.value.reason


def test_unknown_direction_rejected():
    with pytest.raises(ParseError, match="direction"):
        parse_trace("100 Q foo rec\n")


def test_bad_timestamp_rejected():
    with pytest.raises(ParseError, match="timestamp"):
        parse_trace("ten E foo rec\n")
    with pytest.raises(ParseError, match="timestamp"):
        parse_trace("-5 E foo rec\n")
    with pytest.raises(ParseError):
        parse_trace(f"{1 << 64} E foo rec\n")


@pytest.mark.parametrize("stamp", ["\u00b2", "\u0661\u0662"])
def test_non_ascii_digit_timestamps_rejected(stamp):
    # "\u00b2" used to escape as a bare ValueError from int(); "\u0661\u0662" was read as 12
    text = f"{stamp} E f t\n{stamp} X f t\n"
    for read in (parse_trace, lambda trace: analyze([trace], ["f"])):
        with pytest.raises(ParseError, match="bad timestamp") as info:
            read(text)
        assert info.value.lineno == 1


def test_huge_timestamps_rejected_before_conversion():
    # int() refuses strings over 4,300 digits with a bare ValueError
    huge = "1" + "0" * 5000 + " E f t\n"
    for read in (parse_trace, lambda trace: analyze([trace], ["f"])):
        with pytest.raises(ParseError, match="outside u64 range") as info:
            read(huge)
        assert info.value.lineno == 1
    padded = "0" * 5000 + "1 E f t\n2 X f t\n"
    assert parse_trace(padded)[0].timestamp == 1
    assert analyze([padded], ["f"]).required == {"f"}
    assert parse_trace("0" * 5000 + " E f t\n0 X f t\n")[0].timestamp == 0
    # below 20 digits a timestamp is converted as is; from 20 on, zeros go first
    top = (1 << 64) - 1
    accepted = {
        str(top): top,
        "0" + str(top): top,
        "9" * 19: 10**19 - 1,
        "0" * 18 + "7": 7,
        "0" * 19 + "7": 7,
        "0" * 20 + "7": 7,
    }
    for stamp, value in accepted.items():
        text = f"{stamp} E f t\n{stamp} X f t\n"
        assert parse_trace(text)[0].timestamp == value
        assert task_graphs(text) == {"t": {"f"}}
        assert analyze([text], ["f"]).required == {"f"}
    for stamp in (str(1 << 64), "0" + str(1 << 64), "1" + "0" * 20):
        text = f"0 E f t\n{stamp} X f t\n"
        for read in (parse_trace, task_graphs, lambda trace: analyze([trace], ["f"])):
            with pytest.raises(ParseError, match="outside u64 range") as info:
                read(text)
            assert info.value.lineno == 2


def test_bad_identifier_rejected():
    with pytest.raises(ParseError, match="identifier"):
        parse_trace("1 E f%o rec\n")


def test_per_task_clock_must_not_go_backwards():
    with pytest.raises(ParseError, match="backwards"):
        parse_trace("10 E a t\n5 X a t\n")
    # other tasks keep their own clocks
    parse_trace("10 E a t1\n5 E b t2\n12 X a t1\n6 X b t2\n")


def test_unclosed_enter_is_unbalanced():
    with pytest.raises(UnbalancedTrace, match="never exited"):
        parse_trace("1 E lonely boot\n")
    with pytest.raises(UnbalancedTrace, match="inner"):
        parse_trace("1 E outer t\n2 E inner t\n3 X outer t\n")


def test_empty_trace_parses_to_nothing():
    assert parse_trace("") == []
    assert parse_trace("# only a comment\n") == []


@settings(max_examples=150)
@given(balanced_trace())
def test_parse_render_identity(text):
    events = parse_trace(text)
    rendered = [f"{e.timestamp} {e.direction.value} {e.function} {e.task}" for e in events]
    assert rendered == [" ".join(line.split()) for line in text.splitlines() if line.strip()]
    assert parse_trace("\n".join(rendered)) == events


# -- entered sets ------------------------------------------------------------


def test_nested_calls_are_all_entered():
    assert task_graphs(NESTED) == {"main": {"a", "b", "c"}}


def test_sibling_roots():
    assert task_graphs("1 E a t\n2 X a t\n3 E b t\n4 X b t\n") == {"t": {"a", "b"}}


def test_empty_graph():
    assert task_graphs("") == {}
    assert build_task_graphs([]) == {}


def test_repeated_calls_enter_once():
    text = "1 E a t\n2 E b t\n3 X b t\n4 E b t\n5 X b t\n6 X a t\n"
    assert task_graphs(text) == {"t": {"a", "b"}}


def test_recursion_enters_once():
    text = "1 E a t\n2 E a t\n3 X a t\n4 X a t\n"
    assert task_graphs(text) == {"t": {"a"}}


def test_mismatched_exit_detected_at_build():
    # parsing tolerates the stray exit; replay must not
    events = parse_trace("1 E a t\n2 X b t\n3 X a t\n")
    with pytest.raises(MismatchedExit, match="'b'"):
        build_task_graphs(events)
    with pytest.raises(MismatchedExit, match="<empty>"):
        build_task_graphs([TraceEvent(1, Direction.EXIT, "a", "t")])


@pytest.mark.parametrize(
    "fields",
    [
        (1.5, Direction.ENTER, "a", "t"),
        (True, Direction.ENTER, "a", "t"),
        (1, "E", "a", "t"),
        (1, Direction.ENTER, 5, "t"),
        (1, Direction.ENTER, "a", None),
    ],
    ids=["1.5-Direction.ENTER", "True-Direction.ENTER", "1-E", "function-5", "task-None"],
)
def test_event_refuses_a_timestamp_or_direction_of_the_wrong_type(fields):
    with pytest.raises(
        ValueError, match="timestamp must be an int|direction must be a Direction|bad identifier"
    ):
        TraceEvent(*fields)


@settings(max_examples=150)
@given(balanced_trace())
def test_one_pass_graphs_equal_parse_then_build(text):
    graphs = task_graphs(text)
    reference = build_task_graphs(parse_trace(text))
    assert graphs == reference
    assert list(graphs) == list(reference)


# Timestamps that the line checks refuse or that take the zero-strip path,
# the u64 bounds included.
ODD_STAMPS = (
    "\u00b2", "\u0661\u0662", "+1", "1_0", "1" + "0" * 5000, str((1 << 64) - 1), str(1 << 64),
)


def corpus_trace(rng):
    """A small balanced trace over up to three tasks in which at most one line
    is mutated, by one or two faults, or inserted as a copy of the line before
    it (an enter that never exits, or an exit with no matching enter)."""
    tasks = [f"t{i}" for i in range(rng.randint(1, 3))]
    clocks = {task: rng.randint(1, 3) for task in tasks}
    stacks = {task: [] for task in tasks}
    rows = []
    for _ in range(rng.randint(0, 10)):
        task = rng.choice(tasks)
        clocks[task] += rng.randint(0, 3)
        if stacks[task] and rng.random() < 0.5:
            rows.append([str(clocks[task]), "X", stacks[task].pop(), task])
        else:
            stacks[task].append(rng.choice("abcd"))
            rows.append([str(clocks[task]), "E", stacks[task][-1], task])
    for task in tasks:
        while stacks[task]:
            clocks[task] += 1
            rows.append([str(clocks[task]), "X", stacks[task].pop(), task])
    separators = [" "] * len(rows)
    faults = rng.choice((0, 1, 1, 2))
    if faults:
        at = rng.randrange(len(rows) + 1)
        if at == len(rows) or rng.random() < 0.3:
            rows.insert(at, list(rows[at - 1]) if at else ["1", "E", "a", "t0"])
            separators.insert(at, " ")
        line = rows[at]
        for _ in range(faults):
            kind = rng.randrange(12)
            if kind == 0:
                line[0:1] = [rng.choice(ODD_STAMPS)]
            elif kind == 1:
                line[0:1] = ["0" * rng.randint(1, 25) + (line[0] if line else "1")]
            elif kind == 2:
                line[0:1] = ["0"]  # backwards unless it is the task's first line
            elif kind == 3:
                line[1:2] = [rng.choice(("Q", "e", "EX", "\u0415"))]
            elif kind == 4:
                line[2:3] = [rng.choice(("f%o", "fo-o", "\u00e9", "a.b"))]
            elif kind == 5:
                line[3:4] = [rng.choice(("t%1", "t-1", "\u00e9", "a.b"))]
            elif kind == 6 and line:
                del line[rng.randrange(len(line))]  # 3 fields
            elif kind == 7:
                line.insert(rng.randrange(len(line) + 1), "x")  # 5 fields
            elif kind == 8:
                separators[at] = rng.choice(("\t", "\x0b", "\x1c", "\u2028"))
            elif kind == 9:
                line[:] = ["", ""]  # blank, or two blank lines after a line-breaking separator
            elif kind == 10:
                line[0:1] = ["#" + (line[0] if line else "")]
            elif kind == 11:
                line[2:3] = [rng.choice("abcdz")]  # an exit that may match no enter
    return "\n".join(sep.join(fields) for sep, fields in zip(separators, rows)) + "\n"


def outcome(read, text):
    """What `read` returns for `text`, or its exception's type, line and message."""
    try:
        return read(text)
    except Exception as exc:  # whatever its type: the type is part of the outcome
        return type(exc).__name__, getattr(exc, "lineno", None), str(exc)


def test_mutated_corpus_outcomes_are_pinned():
    # For each trace: task_graphs' graphs in task order and parse_trace's
    # events, or the type, line and message of the exception each raised.  The
    # digest was taken from the two-pass reader (a line scanner feeding a
    # separate replay), so it pins that reader's results; a line with two
    # faults pins the order of the line checks.
    digest = hashlib.sha256()
    kinds = Counter()
    rng = random.Random(18)
    for _ in range(2000):
        text = corpus_trace(rng)
        graphs = outcome(task_graphs, text)
        events = outcome(parse_trace, text)
        if isinstance(graphs, dict):
            graphs = [(task, sorted(functions)) for task, functions in graphs.items()]
        if isinstance(events, list):
            events = [(e.timestamp, e.direction.value, e.function, e.task) for e in events]
        kinds[graphs[0] if isinstance(graphs, tuple) else "graphs"] += 1
        digest.update(repr((graphs, events)).encode())
    assert set(kinds) == {"graphs", "ParseError", "UnbalancedTrace", "MismatchedExit"}
    assert digest.hexdigest() == "7a190a9b16fcd42b4a0f6896304a2a9959e459ac47a7e35ec1d2099582a27f08"


# -- the cached reader against a split-every-line reference ---------------------


_REFERENCE_DIRECTIONS = {d.value: d for d in Direction}
_REFERENCE_IDENTIFIER = re.compile(r"[A-Za-z0-9_]+\Z")


def _reference_identifier(lineno, name):
    if not _REFERENCE_IDENTIFIER.match(name):
        raise ParseError(lineno, f"bad identifier {name!r}")


def reference_replay(lines, rows=None):
    """The one-pass reader as it stood before the tail cache, changed only in
    its names and inlined constants: every line is split, each task's last
    timestamp is an int, and each line runs every check that applies to it."""
    tasks = {}
    mismatches = {}
    for lineno, fields in enumerate(lines, 1):
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
        if len(ts_text) < 20:
            timestamp = int(ts_text)
        else:
            ts_text = ts_text.lstrip("0") or "0"
            timestamp = int(ts_text) if len(ts_text) <= 20 else 1 << 64
            if timestamp >= 1 << 64:
                raise ParseError(lineno, "timestamp outside u64 range")
        direction = _REFERENCE_DIRECTIONS.get(dir_text)
        if direction is None:
            raise ParseError(lineno, f"unknown direction {dir_text!r}")
        state = tasks.get(task)
        if state is None:
            _reference_identifier(lineno, function)
            _reference_identifier(lineno, task)
            state = tasks[task] = [timestamp, [], set()]
        elif timestamp < state[0]:
            _reference_identifier(lineno, function)
            raise ParseError(lineno, f"timestamp went backwards for task {task!r}")
        else:
            state[0] = timestamp
        _, stack, entered = state
        if direction is Direction.ENTER:
            if function not in entered:
                _reference_identifier(lineno, function)
                entered.add(function)
            stack.append(function)
        elif stack and stack[-1] == function:
            stack.pop()
        else:
            _reference_identifier(lineno, function)
            if task not in mismatches:
                top = stack[-1] if stack else "<empty>"
                mismatches[task] = f"task {task!r} exits {function!r} but the stack top is {top}"
        if rows is not None:
            rows.append((timestamp, direction, function, task))
    return tasks, mismatches


def _reference_balance(tasks):
    open_calls = sorted((task, state[1]) for task, state in tasks.items() if state[1])
    if open_calls:
        raise UnbalancedTrace("; ".join(
            f"task {task!r} never exited {', '.join(sorted(set(stack)))}"
            for task, stack in open_calls
        ))


def _reference_entered(tasks, mismatches):
    for task in tasks:
        if task in mismatches:
            raise MismatchedExit(mismatches[task])
    return [(task, frozenset(state[2])) for task, state in tasks.items()]


def reference_task_graphs(text):
    tasks, mismatches = reference_replay(map(str.split, text.splitlines()))
    _reference_balance(tasks)
    return _reference_entered(tasks, mismatches)


def reference_parse_trace(text):
    rows = []
    _reference_balance(reference_replay(map(str.split, text.splitlines()), rows)[0])
    return [TraceEvent(*row) for row in rows]


def reference_build_task_graphs(events):
    return _reference_entered(*reference_replay(
        (str(e.timestamp), e.direction.value, e.function, e.task) for e in events
    ))


def repeating_trace(rng):
    """A balanced trace over two functions and up to three tasks, so most
    lines repeat an earlier line's tail (the text after its first space).
    Clocks cross a power of ten, so timestamps change length.  Some lines
    whose tail was seen before are mutated: an odd or zero-padded timestamp,
    a clock that goes backwards to a timestamp of the same or another
    length, a `#` copy in place of the line or before it, other spacing, or
    no direction."""
    tasks = [f"t{i}" for i in range(rng.randint(1, 3))]
    clocks = {task: rng.choice((0, 7, 95, 996, 99_990)) for task in tasks}
    stacks = {task: [] for task in tasks}
    rows = []
    for _ in range(rng.randint(1, 40)):
        task = rng.choice(tasks)
        clocks[task] += rng.randint(0, 4)
        if stacks[task] and rng.random() < 0.5:
            rows.append((clocks[task], "X", stacks[task].pop(), task))
        else:
            stacks[task].append(rng.choice("ab"))
            rows.append((clocks[task], "E", stacks[task][-1], task))
    for task in tasks:
        while stacks[task]:
            clocks[task] += 1
            rows.append((clocks[task], "X", stacks[task].pop(), task))
    rate = rng.choice((0.0, 0.05, 0.2))
    seen, last, lines = set(), {}, []
    for clock, direction, function, task in rows:
        stamp, sep, tail = str(clock), " ", f"{direction} {function} {task}"
        if tail in seen and rng.random() < rate:
            previous = last[task]
            kind = rng.randrange(8)
            if kind == 0:
                stamp = rng.choice(ODD_STAMPS)
            elif kind == 1:
                stamp = "0" * rng.randint(1, 25) + stamp
            elif kind == 2:  # backwards, or level at 0, with the previous stamp's length
                stamp = str(max(previous - rng.randint(1, 3), 0)).zfill(len(str(previous)))
            elif kind == 3:  # backwards to a shorter value, perhaps padded past the previous length
                below = rng.randrange(10 ** (len(str(previous)) - 1)) if previous >= 10 else 0
                stamp = "0" * rng.randint(0, 3) + str(below)
            elif kind == 4:
                copy = rng.choice(("#", "# ")) + f"{stamp} {tail}"
                if rng.random() < 0.5:
                    lines.append(copy)
                else:
                    stamp, tail = copy.split(" ", 1)
            elif kind == 5:
                sep = rng.choice(("\t", "  ", "\t ", "\x1c"))
            elif kind == 6:
                tail = rng.choice((tail + " ", tail + "\t", tail.replace(" ", "\t", 1),
                                   tail.replace(" ", "  ")))
            else:  # the tail after a tab holds no direction: a line with only that tail is bad
                lines.append(stamp + "\t" + tail)
                tail = f"{function} {task}"
        seen.add(f"{direction} {function} {task}")
        last[task] = clock
        lines.append(stamp + sep + tail)
    return "\n".join(lines) + "\n"


def trace_events(text):
    """The events of each line that makes a valid `TraceEvent`, in order: the
    clocks may go backwards, and exits may match no enter."""
    events = []
    for fields in map(str.split, text.splitlines()):
        if len(fields) == 4 and fields[0].isascii() and fields[0].isdigit():
            try:
                events.append(TraceEvent(int(fields[0]), Direction(fields[1]), *fields[2:]))
            except ValueError:
                pass
    return events


def test_cached_reader_matches_the_split_every_line_reference():
    kinds = Counter()
    rng = random.Random(21)
    for _ in range(3000):
        text = repeating_trace(rng)
        graphs = outcome(lambda trace: list(task_graphs(trace).items()), text)
        assert graphs == outcome(reference_task_graphs, text), text
        assert outcome(parse_trace, text) == outcome(reference_parse_trace, text), text
        events = trace_events(text)
        assert outcome(lambda e: list(build_task_graphs(e).items()), events) == outcome(
            reference_build_task_graphs, events
        ), text
        kinds[graphs[0] if isinstance(graphs, tuple) else "graphs"] += 1
    assert set(kinds) == {"graphs", "ParseError", "UnbalancedTrace", "MismatchedExit"}


def test_parse_error_beats_an_earlier_mismatched_exit():
    text = "1 E a t\n2 X b t\n3 X a t\n4 E c t\n5 E c% t\n"
    for read in (task_graphs, lambda trace: analyze([trace], ["a", "c"])):
        with pytest.raises(ParseError) as info:
            read(text)
        assert info.value.lineno == 5


def test_unbalanced_beats_a_mismatched_exit():
    with pytest.raises(UnbalancedTrace, match="never exited a"):
        analyze(["1 E a t\n2 X b t\n"], ["a"])


def test_mismatch_precedence_between_tasks():
    # t2 mismatches first (line 3), but t1 appears first (line 1)
    text = "1 E a t1\n2 E b t2\n3 X z t2\n4 X y t1\n5 X b t2\n6 X a t1\n"
    first_seen = "task 't1' exits 'y' but the stack top is a"
    for read in (task_graphs, lambda trace: analyze([trace], ["a", "b"])):
        with pytest.raises(MismatchedExit) as info:
            read(text)
        assert str(info.value) == first_seen
    with pytest.raises(MismatchedExit) as info:
        build_task_graphs(parse_trace(text))
    assert str(info.value) == first_seen


def test_tasks_do_not_share_stacks():
    text = "1 E a t1\n1 E b t2\n2 E c t1\n3 X c t1\n4 X a t1\n5 X b t2\n"
    per_task = build_task_graphs(parse_trace(text))
    assert per_task == {"t1": {"a", "c"}, "t2": {"b"}}
    assert list(per_task) == ["t1", "t2"]
    assert per_task == task_graphs(text)


# -- the minimal set ---------------------------------------------------------


def test_minimal_set_unions_selected_tasks():
    text = (
        "1 E a rec\n2 E b rec\n3 X b rec\n4 X a rec\n"
        "1 E c net\n2 X c net\n"
        "1 E d idle\n2 X d idle\n"
    )
    graphs = build_task_graphs(parse_trace(text))
    assert minimal_set(graphs, ["rec"]) == {"a", "b"}
    assert minimal_set(graphs, ["rec", "net"]) == {"a", "b", "c"}
    assert minimal_set(graphs, []) == set()
    with pytest.raises(UnknownTask) as info:
        minimal_set(graphs, ["rec", "ghost"])
    assert str(info.value) == "unknown task 'ghost'"


@settings(max_examples=150)
@given(balanced_trace())
def test_every_entered_function_is_required(text):
    # selecting every task must recover exactly the entered set, and each
    # task's set holds exactly what that task entered
    events = parse_trace(text)
    graphs = build_task_graphs(events)
    required = minimal_set(graphs, list(graphs))
    entered = {e.function for e in events if e.direction is Direction.ENTER}
    assert required == entered
    for task, functions in graphs.items():
        per_task = {
            e.function
            for e in events
            if e.direction is Direction.ENTER and e.task == task
        }
        assert functions == per_task


# -- reports ------------------------------------------------------------------


def test_report_one_of_three_excluded():
    report = emit_report(["a", "b", "c"], ["a", "b"])
    assert report.excluded == {"c"}
    assert report.directives == ("CFG_EXCL_C",)
    assert report.reduction_ratio == pytest.approx(1 / 3)


def test_report_nothing_excluded():
    report = emit_report(["a"], ["a"])
    assert report.excluded == frozenset()
    assert report.directives == ()
    assert report.reduction_ratio == 0.0


def test_report_empty_inventory():
    assert emit_report([], []).reduction_ratio == 0.0


def test_report_rejects_untracked_functions():
    with pytest.raises(UnknownFunction, match="mystery"):
        emit_report(["a"], ["a", "mystery"])


def test_report_refuses_a_directive_that_excludes_a_required_function():
    # CFG_EXCL_FOO, emitted for the excluded Foo, would also cut the traced foo
    clash = "CFG_EXCL_FOO for excluded Foo would exclude required foo"
    with pytest.raises(DirectiveClash, match=clash):
        analyze(["1 E foo t\n2 X foo t\n"], ["foo", "Foo"])
    with pytest.raises(DirectiveClash, match="Bar.*BAR"):
        emit_report(["bar", "Bar", "BAR", "baz"], ["BAR"])


def test_report_refuses_inventory_names_that_are_not_identifiers():
    with pytest.raises(DirectiveClash, match="'a b', 'fo-o'"):
        emit_report(["run", "fo-o", "a b"], ["run"])
    with pytest.raises(DirectiveClash, match="'fo-o'"):
        analyze(["1 E run t\n2 X run t\n"], ["run", "fo-o"])


def test_report_emits_each_directive_once():
    # foo and Foo share a directive; it is listed once, where Foo first gives it
    report = emit_report(["a", "foo", "Foo", "zed"], ["a"])
    assert report.directives == ("CFG_EXCL_FOO", "CFG_EXCL_ZED")
    assert report.excluded == {"foo", "Foo", "zed"}
    assert render_report(report).count("CFG_EXCL_FOO") == 1


def test_directive_shape():
    assert directive_for("aes_decrypt") == "CFG_EXCL_AES_DECRYPT"


def test_report_partition_properties():
    inventory = {f"fn{i}" for i in range(10)}
    required = {"fn0", "fn3", "fn7"}
    report = emit_report(inventory, required)
    assert report.required | report.excluded == report.inventory
    assert not report.required & report.excluded
    # more selected tasks can only shrink the excluded set
    wider = emit_report(inventory, required | {"fn4"})
    assert wider.excluded < report.excluded


def test_render_report_golden():
    report = emit_report(["walk", "run", "fly"], ["run"])
    assert render_report(report) == (
        "[required]\n"
        "run\n"
        "[excluded]\n"
        "fly\n"
        "walk\n"
        "[directives]\n"
        "CFG_EXCL_FLY\n"
        "CFG_EXCL_WALK\n"
        "[stats]\n"
        "inventory=3 required=1 excluded=2 ratio=0.6667"
    )


def test_analyze_merges_traces_and_selects_tasks():
    first = "1 E a rec\n2 E b rec\n3 X b rec\n4 X a rec\n"
    second = "1 E c rec\n2 X c rec\n1 E d net\n2 X d net\n"
    report = analyze([first, second], ["a", "b", "c", "d", "e"], tasks=["rec"])
    assert report.required == {"a", "b", "c"}
    assert report.excluded == {"d", "e"}
    by_default = analyze([first, second], ["a", "b", "c", "d", "e"])
    assert by_default.required == {"a", "b", "c", "d"}


def test_analyze_memory_stays_within_a_few_times_the_text():
    # 12,500 rounds of four nested calls over four tasks: 100,000 events
    lines = []
    for i in range(12_500):
        calls = [f"fn{(i + depth) % 97}" for depth in range(4)]
        lines += [f"{i} E {fn} task{i % 4}" for fn in calls]
        lines += [f"{i} X {fn} task{i % 4}" for fn in reversed(calls)]
    text = "\n".join(lines) + "\n"
    inventory = [f"fn{n}" for n in range(100)]
    tracemalloc.start()
    try:
        report = analyze([text], inventory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.required) == 97
    assert peak < 8 * len(text)
