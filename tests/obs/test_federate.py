"""Telemetry federation: trace merge determinism and segment naming.

The contracts under test (:mod:`repro.obs.federate`):

* :func:`merge_trace_files` interleaves per-shard segments by
  ``(time, segment index, seq)``, renumbers ``seq`` globally, and
  shares that sequence space with synthesized lead/tail events —
  streaming in blocks (the bytes of a per-record ``heapq.merge``) and
  atomic, rejecting any bad line by ``path:lineno``;
* :func:`shard_segment_path` names segments so lexicographic order is
  shard order.
"""

import heapq
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import federate
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

    @pytest.mark.parametrize("payload", [{}, {"x": float("nan")}],
                             ids=["orjson", "stdlib"])
    def test_segment_out_of_time_order_rejected(self, tmp_path, payload):
        # the NaN payload makes orjson refuse the line, so the stdlib
        # parse must check the order too
        s0 = _write_segment(tmp_path / "s0.jsonl", [
            (0, 5.0, "request.submit", {}),
            (1, 1.0, "request.submit", payload)])
        s1 = _write_segment(tmp_path / "s1.jsonl", [
            (0, 3.0, "request.submit", {})])
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match=r"s0\.jsonl:2: .*sorted by \(t, seq\)"):
            merge_trace_files([s0, s1], out)
        assert not out.exists()

    @pytest.mark.parametrize("seqs", [(1, 0), (0, 0)])
    def test_time_tie_needs_rising_seq(self, tmp_path, seqs):
        seg = _write_segment(tmp_path / "s0.jsonl", [
            (seq, 2.0, "request.submit", {}) for seq in seqs])
        with pytest.raises(ValueError, match=r"s0\.jsonl:2: "):
            merge_trace_files([seg], tmp_path / "merged.jsonl")

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
            (1, 1.0, "request.fail", {"big": 2**70}),
            (2, float("inf"), "request.fail", {"disk": 1})])
        out = tmp_path / "merged.jsonl"
        assert merge_trace_files([seg], out) == 3
        assert out.read_bytes() == seg.read_bytes()

    def test_nan_time_rejected(self, tmp_path):
        # a NaN t has no place in time order: the merge names its line
        seg = self._writer_segment(tmp_path / "s0.jsonl", [
            (0, 0.5, "request.fail", {}), (1, float("nan"), "request.fail", {})])
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match=r"s0\.jsonl:2: .*NaN 't'"):
            merge_trace_files([seg], out)
        assert not out.exists()

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


def _heapq_reference(paths):
    """The merged data bytes by a per-record ``heapq.merge`` of
    ``(t, shard, seq, body)``, each line read by the stdlib."""
    runs = []
    for shard, path in enumerate(paths):
        run = []
        for line in path.read_bytes().splitlines():
            line = line.strip()
            if line:
                record = json.loads(line)
                run.append((record["t"], shard, record["seq"], line[line.index(b',"t":'):]))
        runs.append(run)
    return b"".join(b'{"seq":%d%b\n' % (n, record[3])
                    for n, record in enumerate(heapq.merge(*runs)))


#: A segment as the writer leaves it: times non-decreasing, seq 0, 1, ...;
#: few distinct times, so ties across segments are common, and blank
#: lines anywhere.
_SEGMENTS = st.lists(st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                              max_size=60), min_size=1, max_size=5)


def _corpus(folder, segments):
    paths = []
    for shard, steps in enumerate(segments):
        t, lines = 0.25, []
        for seq, (step, blank) in enumerate(steps):
            t += step / 4
            if blank:
                lines.append("")
            lines.append(event_to_json(TraceEvent(seq, t, "request.submit",
                                                  {"disk": shard, "pad": "x" * (seq % 7)})))
        path = folder / f"s{shard}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths.append(path)
    return paths


class TestBatchedMerge:
    """The merge reads each segment in blocks of about ``_READ_HINT``
    bytes and writes sorted batches; its bytes are those of a per-record
    ``heapq.merge`` whatever the block boundaries."""

    @settings(max_examples=150, deadline=None)
    @given(segments=_SEGMENTS, hint=st.sampled_from([1, 60, 200, 1000, 1 << 16]))
    def test_same_bytes_as_heapq_merge(self, tmp_path_factory, segments, hint):
        folder = tmp_path_factory.mktemp("corpus")
        paths = _corpus(folder, segments)
        out = folder / "merged.jsonl"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(federate, "_READ_HINT", hint)
            n = merge_trace_files(paths, out)
        expected = _heapq_reference(paths)
        assert n == expected.count(b"\n")
        assert out.read_bytes() == expected

    def test_tie_on_a_block_boundary(self, tmp_path, monkeypatch):
        # one line per block: each segment's t=1.0 record ends its block
        # while the other segment's t=1.0 record starts the next one
        s0 = _write_segment(tmp_path / "s0.jsonl", [
            (0, 0.5, "request.submit", {"disk": 0}), (1, 1.0, "request.submit", {"disk": 0}),
            (2, 1.0, "request.complete", {"disk": 0}), (3, 2.0, "request.submit", {"disk": 0})])
        s1 = _write_segment(tmp_path / "s1.jsonl", [
            (0, 1.0, "request.submit", {"disk": 1}), (1, 1.0, "request.complete", {"disk": 1}),
            (2, 1.5, "request.submit", {"disk": 1})])
        monkeypatch.setattr(federate, "_READ_HINT", 1)
        out = tmp_path / "merged.jsonl"
        assert merge_trace_files([s0, s1], out) == 7
        assert out.read_bytes() == _heapq_reference([s0, s1])
        assert [(r["t"], r["disk"]) for r in read_trace(out)] == [
            (0.5, 0), (1.0, 0), (1.0, 0), (1.0, 1), (1.0, 1), (1.5, 1), (2.0, 0)]

    def test_bad_line_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        good = [(seq, 0.5 * seq, "request.submit", {"disk": 0}) for seq in range(50)]
        seg = _write_segment(tmp_path / "s0.jsonl", good)
        # blank lines count: the bad record is line 54 of the file
        seg.write_text(seg.read_text() + "\n\n\n{not json\n", encoding="utf-8")
        other = _write_segment(tmp_path / "s1.jsonl", good)
        monkeypatch.setattr(federate, "_READ_HINT", 100)
        out = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match=r"s0\.jsonl:54: not a JSON trace record"):
            merge_trace_files([other, seg], out)
        assert not out.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_holds_at_most_one_block_per_segment(self, tmp_path, monkeypatch):
        """A segment reads its next block only once its last one is all
        written, so the merge holds at most k blocks however long the
        segments are."""
        paths = _corpus(tmp_path, [[(seq % 3, False) for seq in range(400)],
                                   [(seq % 2, seq % 9 == 0) for seq in range(300)],
                                   [(3, False)] * 100])
        monkeypatch.setattr(federate, "_READ_HINT", 256)
        pulled = [0] * len(paths)
        written = [0] * len(paths)
        blocks = [0] * len(paths)

        def counted(run, shard):
            for block in run:
                assert written[shard] == pulled[shard], "read ahead of the writer"
                pulled[shard] += len(block)
                blocks[shard] += 1
                yield block

        runs = [counted(federate._segment_blocks(p, i), i) for i, p in enumerate(paths)]
        merged = []
        for batch in federate._merged_batches(runs):
            for record in batch:
                written[record[1]] += 1
            merged += batch
        assert written == pulled == [400, 300, 100]
        assert min(blocks) > 10  # many blocks per segment
        assert b"".join(b'{"seq":%d%b\n' % (n, record[3]) for n, record in
                        enumerate(merged)) == _heapq_reference(paths)
