"""Telemetry federation: trace merge determinism and segment naming.

The contracts under test (:mod:`repro.obs.federate`):

* :func:`merge_trace_files` interleaves per-shard segments by
  ``(time, segment index, seq)``, renumbers ``seq`` globally, and
  shares that sequence space with synthesized lead/tail events —
  streaming and atomic, rejecting any bad line by ``path:lineno``;
* :func:`shard_segment_path` names segments so lexicographic order is
  shard order.
"""

import json

import pytest

from repro.obs.events import TraceEvent
from repro.obs.export import event_to_json, read_trace
from repro.obs.federate import merge_trace_files, shard_segment_path


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
        '{"seq":-1,"t":1.0,"type":"x"}',
        '{"seq":1,"seq":2,"t":1.0,"type":"x"}',
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
