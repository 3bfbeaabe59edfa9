"""EventSink / read_events: JSONL journaling with torn-tail tolerance."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import EventSink, read_events


def test_emit_read_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with EventSink(path) as sink:
        sink.emit({"type": "event", "name": "first", "value": 1})
        sink.emit({"type": "span", "name": "second", "nested": {"a": [1, 2]}})
        assert sink.emitted == 2
    records = read_events(path)
    assert len(records) == 2
    assert records[0]["name"] == "first"
    assert records[1]["nested"] == {"a": [1, 2]}


def test_torn_final_line_is_dropped(tmp_path):
    path = tmp_path / "trace.jsonl"
    with EventSink(path) as sink:
        sink.emit({"index": 0})
        sink.emit({"index": 1})
    # simulate a writer killed mid-record: an unterminated JSON fragment
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"index": 2, "torn')
    records = read_events(path)
    assert [r["index"] for r in records] == [0, 1]


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps({"index": 0}), "garbage{{{", json.dumps({"index": 2})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ObservabilityError, match="line 2 is corrupt"):
        read_events(path)


@pytest.mark.parametrize("line", ["[1]", "3", '"span"', "null"])
@pytest.mark.parametrize("final", [False, True])
def test_non_object_line_raises(tmp_path, line, final):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps({"index": 0}), line]
    if not final:
        lines.append(json.dumps({"index": 2}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ObservabilityError, match="line 2 is corrupt"):
        read_events(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"index": 0}\n\n{"index": 1}\n', encoding="utf-8")
    assert [r["index"] for r in read_events(path)] == [0, 1]


def test_emit_after_close_raises(tmp_path):
    sink = EventSink(tmp_path / "trace.jsonl")
    sink.emit({"index": 0})
    sink.close()
    assert sink.closed
    with pytest.raises(ObservabilityError, match="closed"):
        sink.emit({"index": 1})


def test_new_sink_starts_the_file_over(tmp_path):
    path = tmp_path / "trace.jsonl"
    with EventSink(path) as sink:
        sink.emit({"index": 0})
    with EventSink(path) as sink:
        sink.emit({"index": 9})
    assert [r["index"] for r in read_events(path)] == [9]


def test_sink_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "trace.jsonl"
    with EventSink(path) as sink:
        sink.emit({"ok": True})
    assert read_events(path) == [{"ok": True}]
