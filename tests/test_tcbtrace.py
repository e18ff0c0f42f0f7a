"""Trace parsing, call-graph replay, and exclusion report generation."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teeguard.tcbtrace import (
    CallGraph,
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
    merge_graphs,
    minimal_set,
    parse_trace,
    reachable,
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
    # "²" used to escape as a bare ValueError from int(); "١٢" was read as 12
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


# -- graph building -----------------------------------------------------------


def test_nested_calls_build_chain():
    graph = task_graphs(NESTED)["main"]
    assert graph.nodes == {"a", "b", "c"}
    assert graph.edges == {("a", "b"): 1, ("b", "c"): 1}
    assert graph.roots == {"a"}


def test_sibling_roots():
    graph = task_graphs("1 E a t\n2 X a t\n3 E b t\n4 X b t\n")["t"]
    assert graph.roots == {"a", "b"}
    assert graph.edges == {}


def test_empty_graph():
    assert task_graphs("") == {}
    assert build_task_graphs([]) == {}


def test_repeated_calls_are_counted():
    text = "1 E a t\n2 E b t\n3 X b t\n4 E b t\n5 X b t\n6 X a t\n"
    graph = task_graphs(text)["t"]
    assert graph.edges == {("a", "b"): 2}


def test_recursion_builds_self_edge():
    text = "1 E a t\n2 E a t\n3 X a t\n4 X a t\n"
    graph = task_graphs(text)["t"]
    assert graph.edges == {("a", "a"): 1}
    assert graph.roots == {"a"}


def test_mismatched_exit_detected_at_build():
    # parsing tolerates the stray exit; replay must not
    events = parse_trace("1 E a t\n2 X b t\n3 X a t\n")
    with pytest.raises(MismatchedExit, match="'b'"):
        build_task_graphs(events)
    with pytest.raises(MismatchedExit, match="<empty>"):
        build_task_graphs([TraceEvent(1, Direction.EXIT, "a", "t")])


@settings(max_examples=150)
@given(balanced_trace())
def test_one_pass_graphs_equal_parse_then_build(text):
    graphs = task_graphs(text)
    reference = build_task_graphs(parse_trace(text))
    assert graphs == reference
    assert list(graphs) == list(reference)


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
    assert set(per_task) == {"t1", "t2"}
    assert per_task["t1"].roots == {"a"}
    assert per_task["t1"].edges == {("a", "c"): 1}
    assert per_task["t2"].roots == per_task["t2"].nodes == {"b"}
    assert per_task == task_graphs(text)


def test_callgraph_validation():
    with pytest.raises(ValueError):
        CallGraph(frozenset({"a"}), {("a", "b"): 1}, frozenset({"a"}))
    with pytest.raises(ValueError):
        CallGraph(frozenset({"a", "b"}), {("a", "b"): 0}, frozenset({"a"}))
    with pytest.raises(ValueError):
        CallGraph(frozenset({"a"}), {}, frozenset({"z"}))


# -- reachability and the minimal set ---------------------------------------------


def diamond():
    text = (
        "1 E a t\n2 E b t\n3 E d t\n4 X d t\n5 X b t\n"
        "6 E c t\n7 E d t\n8 X d t\n9 X c t\n10 X a t\n"
    )
    return task_graphs(text)["t"]


def test_reachable_covers_diamond():
    assert reachable(diamond()) == {"a", "b", "c", "d"}


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
    with pytest.raises(UnknownTask):
        minimal_set(graphs, ["rec", "ghost"])


@settings(max_examples=150)
@given(balanced_trace())
def test_every_entered_function_is_required(text):
    # each entered function sits on a call chain rooted at a task root, so
    # selecting every task must recover exactly the entered set
    events = parse_trace(text)
    graphs = build_task_graphs(events)
    required = minimal_set(graphs, list(graphs))
    entered = {e.function for e in events if e.direction is Direction.ENTER}
    assert required == entered
    for task, graph in graphs.items():
        per_task = {
            e.function
            for e in events
            if e.direction is Direction.ENTER and e.task == task
        }
        assert reachable(graph) == per_task


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


def test_merge_graphs_unions_nodes_and_adds_call_counts():
    first = build_task_graphs(parse_trace("1 E a rec\n2 E b rec\n3 X b rec\n4 X a rec\n"))
    second = build_task_graphs(
        parse_trace("1 E a rec\n2 E b rec\n3 X b rec\n4 E c rec\n5 X c rec\n6 X a rec\n"
                    "1 E d net\n2 X d net\n")
    )
    merged = merge_graphs([first, second])
    assert sorted(merged) == ["net", "rec"]
    assert merged["rec"].nodes == {"a", "b", "c"}
    assert merged["rec"].edges == {("a", "b"): 2, ("a", "c"): 1}
    assert merged["rec"].roots == {"a"}
    assert merged["net"] is second["net"]  # a task seen once keeps its graph
    assert merge_graphs([first]) == first
    assert merge_graphs([]) == {}


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
