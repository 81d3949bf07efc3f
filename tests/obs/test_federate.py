"""Telemetry federation: trace merge determinism, typed registry merge.

The contracts under test (:mod:`repro.obs.federate`):

* :func:`merge_trace_files` interleaves per-shard segments by
  ``(time, segment index, seq)``, renumbers ``seq`` globally, and
  shares that sequence space with synthesized lead/tail events —
  streaming and atomic, rejecting any bad line by ``path:lineno``;
* :func:`federate_registries` merges snapshots typed: counters sum,
  gauges take the latest capture time (ties toward the highest shard),
  histograms merge bin-exactly;
* :func:`shard_segment_path` names segments so lexicographic order is
  shard order.
"""

import json

import pytest

from repro.obs.events import TraceEvent
from repro.obs.export import event_to_json, read_trace
from repro.obs.federate import (
    federate_registries,
    merge_trace_files,
    shard_segment_path,
)


def _write_segment(path, records):
    """One per-shard JSONL segment from (seq, t, type, extra) tuples."""
    lines = []
    for seq, t, type_, extra in records:
        record = {"seq": seq, "t": t, "type": type_}
        record.update(extra)
        lines.append(json.dumps(record, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestShardSegmentPath:
    def test_naming_convention(self):
        assert shard_segment_path("out/trace.jsonl", 7).name \
            == "trace.shard0007.jsonl"

    def test_lexicographic_order_is_shard_order(self):
        names = [shard_segment_path("t.jsonl", i).name for i in range(12)]
        assert names == sorted(names)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            shard_segment_path("t.jsonl", -1)


class TestMergeTraceFiles:
    def test_orders_by_time_then_shard_then_seq(self, tmp_path):
        s0 = _write_segment(tmp_path / "s0.jsonl", [
            (0, 1.0, "request.submit", {"disk": 0}),
            (1, 3.0, "request.complete", {"disk": 0}),
        ])
        s1 = _write_segment(tmp_path / "s1.jsonl", [
            (0, 1.0, "request.submit", {"disk": 4}),
            (1, 2.0, "request.complete", {"disk": 4}),
        ])
        out = tmp_path / "merged.jsonl"
        merged = merge_trace_files([s0, s1], out)
        assert merged == 4
        records = list(read_trace(out))
        # t=1.0 ties break by segment index; seq renumbered.
        assert [(r["t"], r["disk"]) for r in records] \
            == [(1.0, 0), (1.0, 4), (2.0, 4), (3.0, 0)]
        assert [r["seq"] for r in records] == [0, 1, 2, 3]

    def test_lead_and_tail_share_the_seq_space(self, tmp_path):
        seg = _write_segment(tmp_path / "s0.jsonl", [
            (0, 0.5, "request.submit", {})])
        out = tmp_path / "merged.jsonl"
        merged = merge_trace_files(
            [seg], out,
            lead=[("engine.start", 0.0, {"policy": "x", "n_disks": 4})],
            tail=[("engine.stop", 9.0, {"duration_s": 9.0, "events": 1})])
        assert merged == 1  # data records only
        records = list(read_trace(out))
        assert [r["type"] for r in records] \
            == ["engine.start", "request.submit", "engine.stop"]
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_empty_segment_is_fine(self, tmp_path):
        s0 = _write_segment(tmp_path / "s0.jsonl", [
            (0, 1.0, "request.submit", {})])
        s1 = tmp_path / "s1.jsonl"
        s1.write_text("", encoding="utf-8")
        out = tmp_path / "merged.jsonl"
        assert merge_trace_files([s0, s1], out) == 1

    def test_corrupt_segment_leaves_no_output(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match="not a JSON trace record"):
            merge_trace_files([bad], out)
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_record_without_type_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq":0,"t":1.0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="missing 'type'"):
            merge_trace_files([bad], tmp_path / "merged.jsonl")

    def test_merge_independent_of_segment_groupings(self, tmp_path):
        """The merged bytes depend on the records, not their split."""
        records = [(i, float(t), "request.submit", {"disk": 0})
                   for i, t in enumerate([1, 2, 3])]
        other = [(i, float(t), "request.submit", {"disk": 1})
                 for i, t in enumerate([1, 4])]
        a0 = _write_segment(tmp_path / "a0.jsonl", records)
        a1 = _write_segment(tmp_path / "a1.jsonl", other)
        both = _write_segment(
            tmp_path / "b0.jsonl",
            # same records re-split by seq parity: with no time ties
            # between the two files, ordering is by time, not by file
            [r for r in records if r[0] % 2 == 0])
        rest = _write_segment(
            tmp_path / "b1.jsonl",
            [r for r in records if r[0] % 2 == 1])
        out_a = tmp_path / "out_a.jsonl"
        out_b = tmp_path / "out_b.jsonl"
        merge_trace_files([a0], out_a)
        merge_trace_files([both, rest], out_b)
        # a0 split across two files with interleaved seqs merges back to
        # the identical byte stream
        assert out_a.read_bytes() == out_b.read_bytes()
        assert merge_trace_files([a0, a1], tmp_path / "c.jsonl") == 5


class TestMergeSplicesSegmentBytes:
    """The merge copies each record's bytes after its ``seq``; it must
    still validate every line, by orjson or by the stdlib."""

    @staticmethod
    def _writer_segment(path, events):
        path.write_text("".join(event_to_json(TraceEvent(*e)) + "\n"
                                for e in events), encoding="utf-8")
        return path

    def test_trailing_garbage_rejected_without_output(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq":0,"t":1.0,"type":"x"} trailing\n',
                       encoding="utf-8")
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match="bad.jsonl:1: not a JSON trace record"):
            merge_trace_files([bad], out)
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_lines_orjson_rejects_merge_byte_identically(self, tmp_path):
        # orjson rejects NaN/Infinity; the stdlib fallback reads the line
        seg = self._writer_segment(tmp_path / "s0.jsonl", [
            (0, 0.5, "request.fail", {"x": float("nan"), "y": float("-inf")}),
            (1, float("nan"), "request.fail", {"big": 2**70}),
            (2, 1.0, "request.fail", {"disk": 1})])
        out = tmp_path / "merged.jsonl"
        assert merge_trace_files([seg], out) == 3
        assert out.read_bytes() == seg.read_bytes()

    @pytest.mark.parametrize("line", [
        '{"t":1.0,"seq":0,"type":"x"}',
        '{"seq": 0, "t": 1.0, "type": "x"}',
        '{"seq":"0","t":1.0,"type":"x"}',
        '{"seq":0,"type":"x","t":1.0}',
        '{"seq":0,"type":"x"}',
        '{"seq":0,"t":null,"type":"x"}',
        '{"seq":0,"t":"abc","type":"x"}',
        '{"t":1.0,"type":"x"}',
        '{"seq":0,"t":true,"type":"x"}',
    ])
    def test_non_canonical_prefix_rejected(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"seq":0,"t":0.5,"type":"x"}}\n{line}\n',
                       encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:2: .*canonical"):
            merge_trace_files([bad], tmp_path / "merged.jsonl")

    def test_untagged_segment_keyed_by_file_index(self, tmp_path):
        # no shard tags: the file index breaks the t=1.0 tie
        s0 = self._writer_segment(tmp_path / "s0.jsonl", [
            (0, 1.0, "request.submit", {"disk": 9})])
        s1 = self._writer_segment(tmp_path / "s1.jsonl", [
            (0, 0.5, "request.submit", {"disk": 4}),
            (1, 1.0, "request.submit", {"disk": 5})])
        out = tmp_path / "merged.jsonl"
        assert merge_trace_files([s1, s0], out) == 3
        assert [r["disk"] for r in read_trace(out)] == [4, 5, 9]
        merge_trace_files([s0, s1], out)
        assert [r["disk"] for r in read_trace(out)] == [4, 9, 5]


class TestFederateRegistries:
    def test_counters_sum(self):
        snaps = [{"req": {"type": "counter", "value": 3.0}},
                 {"req": {"type": "counter", "value": 4.0}}]
        assert federate_registries(snaps)["req"]["value"] == 7.0

    def test_disjoint_label_sets_union(self):
        snaps = [{"disk0.util": {"type": "gauge", "value": 10.0}},
                 {"disk4.util": {"type": "gauge", "value": 20.0}}]
        out = federate_registries(snaps)
        assert sorted(out) == ["disk0.util", "disk4.util"]
        assert out["disk0.util"]["value"] == 10.0
        assert out["disk4.util"]["value"] == 20.0

    def test_gauge_takes_latest_capture_time(self):
        snaps = [{"g": {"type": "gauge", "value": 1.0}},
                 {"g": {"type": "gauge", "value": 2.0}}]
        out = federate_registries(snaps, at=[100.0, 50.0])
        assert out["g"]["value"] == 1.0

    def test_gauge_tie_breaks_toward_highest_shard(self):
        snaps = [{"g": {"type": "gauge", "value": 1.0}},
                 {"g": {"type": "gauge", "value": 2.0}}]
        assert federate_registries(snaps, at=[50.0, 50.0])["g"]["value"] == 2.0
        assert federate_registries(snaps)["g"]["value"] == 2.0

    def test_histograms_merge_bin_exactly(self):
        h0 = {"type": "histogram", "count": 3, "sum": 6.0, "min": 1.0,
              "max": 3.0, "bounds": [1.0, 10.0], "bucket_counts": [3, 0, 0]}
        h1 = {"type": "histogram", "count": 2, "sum": 30.0, "min": 5.0,
              "max": 25.0, "bounds": [1.0, 10.0], "bucket_counts": [0, 1, 1]}
        out = federate_registries([{"h": h0}, {"h": h1}])["h"]
        assert out["count"] == 5
        assert out["sum"] == 36.0
        assert out["min"] == 1.0
        assert out["max"] == 25.0
        assert out["bucket_counts"] == [3, 1, 1]

    def test_empty_histogram_contributes_nothing(self):
        h0 = {"type": "histogram", "count": 0, "sum": 0.0, "min": None,
              "max": None, "bounds": [1.0], "bucket_counts": [0, 0]}
        h1 = {"type": "histogram", "count": 1, "sum": 2.0, "min": 2.0,
              "max": 2.0, "bounds": [1.0], "bucket_counts": [0, 1]}
        out = federate_registries([{"h": h0}, {"h": h1}])["h"]
        assert out["min"] == 2.0 and out["max"] == 2.0

    def test_mismatched_histogram_bounds_rejected(self):
        h0 = {"type": "histogram", "count": 0, "sum": 0.0, "min": None,
              "max": None, "bounds": [1.0], "bucket_counts": [0, 0]}
        h1 = dict(h0, bounds=[2.0])
        with pytest.raises(ValueError, match="bounds differ"):
            federate_registries([{"h": h0}, {"h": h1}])

    def test_conflicting_types_rejected(self):
        snaps = [{"m": {"type": "counter", "value": 1.0}},
                 {"m": {"type": "gauge", "value": 1.0}}]
        with pytest.raises(ValueError, match="conflicting types"):
            federate_registries(snaps)

    def test_empty_shard_snapshot_is_fine(self):
        out = federate_registries([{"c": {"type": "counter", "value": 2.0}}, {}])
        assert out["c"]["value"] == 2.0

    def test_needs_at_least_one_snapshot(self):
        with pytest.raises(ValueError):
            federate_registries([])

    def test_at_length_must_match(self):
        with pytest.raises(ValueError):
            federate_registries([{}, {}], at=[1.0])

    def test_output_sorted_by_name(self):
        snaps = [{"z": {"type": "counter", "value": 1.0}},
                 {"a": {"type": "counter", "value": 1.0}}]
        assert list(federate_registries(snaps)) == ["a", "z"]
