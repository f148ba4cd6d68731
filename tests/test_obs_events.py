"""Tests for the structured request-event log (``repro.obs.events``)
and the telemetry aggregation over it (``repro.obs.aggregate``)."""

import json
import threading

import pytest

from repro.obs.aggregate import (
    aggregate,
    read_events,
    reconstruct,
    render_markdown,
)
from repro.obs.events import (
    EventLog,
    NullEventLog,
    bind_rids,
    current_rids,
    disable_events,
    emit,
    enable_events,
    events_enabled,
    get_event_log,
    new_request_id,
    use_event_log,
)


# -- request ids and contextvar binding ---------------------------------------


def test_new_request_id_unique_and_prefixed():
    first = new_request_id()
    second = new_request_id()
    assert first != second
    assert first.startswith("r")
    assert new_request_id(prefix="b").startswith("b")


def test_bind_rids_nests_and_restores():
    assert current_rids() == ()
    with bind_rids("r1", "r2"):
        assert current_rids() == ("r1", "r2")
        with bind_rids("r3"):
            assert current_rids() == ("r3",)
        assert current_rids() == ("r1", "r2")
    assert current_rids() == ()


def test_bound_rids_are_task_local_across_threads():
    seen = {}

    def worker():
        seen["in_thread"] = current_rids()

    with bind_rids("r9"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # A fresh thread starts from the contextvar default, not the
    # binder's context.
    assert seen["in_thread"] == ()


# -- EventLog ring ------------------------------------------------------------


def test_event_log_ring_bounds_and_drop_count():
    log = EventLog(capacity=3)
    for n in range(5):
        log.emit("tick", rid=f"r{n}")
    records = log.recent()
    assert [r["rid"] for r in records] == ["r2", "r3", "r4"]  # oldest first
    info = log.drain_info()
    assert info["enabled"] is True
    assert info["emitted"] == 5
    assert info["dropped"] == 2
    assert info["buffered"] == 3
    assert info["capacity"] == 3


def test_event_log_recent_filters_and_limits():
    log = EventLog(capacity=16)
    for n in range(4):
        log.emit("admit", rid=f"r{n}")
        log.emit("respond", rid=f"r{n}")
    responds = log.recent(event="respond")
    assert [r["rid"] for r in responds] == ["r0", "r1", "r2", "r3"]
    assert [r["rid"] for r in log.recent(limit=2, event="respond")] == ["r2", "r3"]
    assert len(log.recent(limit=99)) == 8
    assert log.recent(limit=0) == []  # not records[-0:], the whole ring
    with pytest.raises(ValueError):
        log.recent(limit=-1)


def test_event_log_for_request_matches_direct_and_batch_rids():
    log = EventLog(capacity=16)
    log.emit("admit", rid="ra")
    log.emit("batch-execute", rids=["ra", "rb"])
    log.emit("respond", rid="rb")
    assert [r["event"] for r in log.for_request("ra")] == ["admit", "batch-execute"]
    assert [r["event"] for r in log.for_request("rb")] == ["batch-execute", "respond"]
    assert log.for_request("rz") == []


def test_event_log_records_carry_timestamp_and_attrs():
    log = EventLog(capacity=4)
    log.emit("admit", rid="r1", bytes=42)
    (record,) = log.recent()
    assert record["event"] == "admit"
    assert record["rid"] == "r1"
    assert record["bytes"] == 42
    assert record["ts"] > 0


def test_event_log_sink_is_well_formed_jsonl_under_threads(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(capacity=8, sink_path=str(path))

    def worker(worker_id: int) -> None:
        for n in range(25):
            log.emit("tick", rid=f"w{worker_id}-{n}", worker=worker_id)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.close()

    lines = path.read_text().splitlines()
    assert len(lines) == 100  # the sink keeps everything the ring drops
    records = [json.loads(line) for line in lines]  # every line parses
    rids = {record["rid"] for record in records}
    assert len(rids) == 100
    assert all(record["event"] == "tick" for record in records)
    # read_events round-trips the sink file.
    assert read_events(str(path)) == records
    # close() is idempotent and emit-after-close doesn't crash the ring.
    log.close()


def test_event_log_clear_resets_ring_and_counters():
    log = EventLog(capacity=2)
    for n in range(3):
        log.emit("tick")
    log.clear()
    assert log.recent() == []
    info = log.drain_info()
    assert info["emitted"] == 0
    assert info["dropped"] == 0
    assert info["buffered"] == 0


# -- module front door / null-object mode -------------------------------------


def test_events_disabled_by_default_and_emit_is_noop():
    assert not events_enabled()
    assert isinstance(get_event_log(), NullEventLog)
    emit("ignored", rid="r1")  # must not raise or record
    assert get_event_log().recent() == []
    assert get_event_log().drain_info()["enabled"] is False


def test_enable_disable_events_roundtrip():
    log = enable_events(capacity=8)
    try:
        assert events_enabled()
        assert get_event_log() is log
        emit("hello", rid="r1")
        assert [r["event"] for r in log.recent()] == ["hello"]
    finally:
        disable_events()
    assert not events_enabled()


def test_use_event_log_restores_previous_and_fills_bound_rid():
    log = EventLog(capacity=8)
    with use_event_log(log) as active:
        assert active is log
        with bind_rids("r7"):
            emit("deep")  # rid inferred from the binding
        with bind_rids("r8", "r9"):
            emit("batch")  # several bound: attached as a list
    assert not events_enabled()
    deep, batch = log.recent()
    assert deep["rid"] == "r7"
    assert batch["rids"] == ["r8", "r9"]


# -- aggregation --------------------------------------------------------------


def _respond(rid, outcome, seconds, status=200, **hops):
    return dict(event="respond", rid=rid, outcome=outcome,
                seconds=seconds, status=status, **hops)


def test_aggregate_splits_by_outcome_with_hop_means():
    records = [
        {"event": "admit", "rid": "r1"},
        _respond("r1", "fresh", 0.4, batch_wait_s=0.1, queue_s=0.05,
                 simulate_s=0.25),
        _respond("r2", "fresh", 0.2, batch_wait_s=0.1, queue_s=0.01,
                 simulate_s=0.09),
        _respond("r3", "memo", 0.01),
        _respond("r4", "queue-full", 0.0, status=429),
        _respond("r5", "internal", 0.0, status=500),
    ]
    summary = aggregate(records)
    assert summary["requests"] == 5
    assert summary["errors"] == 1
    assert summary["error_rate"] == pytest.approx(0.2)
    assert summary["shed"] == 1
    fresh = summary["by_outcome"]["fresh"]
    assert fresh["count"] == 2
    assert fresh["mean_s"] == pytest.approx(0.3)
    assert fresh["mean_batch_wait_s"] == pytest.approx(0.1)
    assert fresh["mean_simulate_s"] == pytest.approx(0.17)
    assert fresh["p99_s"] == pytest.approx(0.4)
    assert summary["events"]["respond"] == 5
    assert summary["events"]["admit"] == 1
    assert "metrics" not in summary
    assert aggregate(records, metrics_snapshot={"x": 1})["metrics"] == {"x": 1}


def test_aggregate_empty_records():
    summary = aggregate([])
    assert summary["requests"] == 0
    assert summary["error_rate"] == 0.0
    assert summary["by_outcome"] == {}


def test_reconstruct_matches_for_request_semantics():
    records = [
        {"event": "admit", "rid": "r1"},
        {"event": "batch-execute", "rids": ["r1", "r2"]},
        {"event": "respond", "rid": "r2"},
    ]
    assert [r["event"] for r in reconstruct(records, "r1")] == [
        "admit", "batch-execute",
    ]
    assert [r["event"] for r in reconstruct(records, "r2")] == [
        "batch-execute", "respond",
    ]


def test_render_markdown_contains_outcome_rows_and_event_counts():
    summary = aggregate([
        _respond("r1", "fresh", 0.05, batch_wait_s=0.01, queue_s=0.01,
                 simulate_s=0.03),
    ])
    text = render_markdown(summary, title="Probe")
    assert text.startswith("# Probe")
    assert "| fresh | 1 | 50.00 |" in text
    assert "- `respond`: 1" in text
