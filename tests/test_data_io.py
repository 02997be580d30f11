import copy
import csv
import json
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lanenas import data_io
from lanenas.arch_space import ArchEncoding, parse_backbone
from lanenas.errors import LaneNasError, SchemaError
from lanenas.lane_model import AnchorLayout, HeadGrid, LaneProposalSet
from lanenas.point_blend import BlendParams
from lanenas.search_engine import (
    Candidate,
    ParetoArchive,
    SearchConfig,
    SyntheticEvaluator,
    run_search,
)
from lanenas.synth import SynthSceneConfig, generate_synthetic_scenes
from conftest import make_arch


def assert_lanes(got, want):
    """Lanes read from a file: (n, 2) float64 arrays holding `want`'s points."""
    assert len(got) == len(want)
    for lane, points in zip(got, want):
        assert lane.dtype == np.float64 and lane.shape == (len(points), 2)
        assert lane.tolist() == [list(p) for p in points]


def load_replayed(path, monkeypatch):
    """`load_archive(path)` and the candidates it replayed through
    `ParetoArchive.insert`, in order."""
    replayed = []
    insert = ParetoArchive.insert

    def recording(archive, cand):
        replayed.append(cand)
        insert(archive, cand)

    with monkeypatch.context() as m:
        m.setattr(ParetoArchive, "insert", recording)
        archive = data_io.load_archive(path)
    return archive, replayed


class TestCulaneLines:
    def test_two_point_lane(self, tmp_path):
        path = tmp_path / "a.lines.txt"
        path.write_text("100.0 590 110.0 580\n")
        lanes = data_io.read_culane_lines(path)
        assert_lanes(lanes, [((110.0, 580.0), (100.0, 590.0))])

    def test_equal_rows_keep_file_order(self, tmp_path):
        path = tmp_path / "tie.lines.txt"
        path.write_text("3 20 1 10 2 10 -1 5\n\n7 1 8 0\n")
        assert_lanes(data_io.read_culane_lines(path),
                     [((1.0, 10.0), (2.0, 10.0), (3.0, 20.0)), ((8.0, 0.0), (7.0, 1.0))])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.lines.txt"
        path.write_text("")
        assert data_io.read_culane_lines(path) == []

    def test_odd_token_count(self, tmp_path):
        path = tmp_path / "odd.lines.txt"
        path.write_text("1.0 2.0 3.0\n")
        with pytest.raises(SchemaError) as exc:
            data_io.read_culane_lines(path)
        assert exc.value.path == f"{path}: line 1"
        assert str(exc.value) == f"{path}: line 1: token '3.0': odd token count"

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "bad.lines.txt"
        path.write_text("1.0 2.0 3.0 4.0\nx 4.0\n")
        with pytest.raises(SchemaError) as exc:
            data_io.read_culane_lines(path)
        assert exc.value.path == f"{path}: line 2"
        assert str(exc.value) == f"{path}: line 2: token 'x': not a number"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_token(self, tmp_path, token, where):
        path = tmp_path / "nonfinite.lines.txt"
        point = f"{token} 4.0" if where == "x" else f"3.0 {token}"
        path.write_text(f"1.0 2.0 3.0 4.0\n5.0 6.0 {point}\n")
        with pytest.raises(SchemaError) as exc:
            data_io.read_culane_lines(path)
        assert exc.value.path == f"{path}: line 2"
        assert str(exc.value) == f"{path}: line 2: token {token!r}: not finite"

    def test_huge_finite_coordinates_accepted(self, tmp_path):
        # the sum overflows, but every token is finite; the huge ones are
        # of dropped points, and the kept ones at the bound
        path = tmp_path / "huge.lines.txt"
        path.write_text("-1e308 1.0 -1e308 1e308 1e100 2.0 5.0 -1e100\n")
        assert_lanes(data_io.read_culane_lines(path), [((5.0, -1e100), (1e100, 2.0))])

    # just beyond the bound, as x or y of a kept point
    BEYOND = repr(float(np.nextafter(data_io.MAX_COORD, math.inf)))

    @pytest.mark.parametrize("point, token", [
        (f"{BEYOND} 4.0", BEYOND), (f"3.0 {BEYOND}", BEYOND), (f"3.0 -{BEYOND}", f"-{BEYOND}"),
    ])
    def test_kept_coordinate_beyond_the_bound_is_refused(self, tmp_path, point, token):
        path = tmp_path / "far.lines.txt"
        path.write_text(f"1.0 2.0 3.0 4.0\n5.0 6.0 {point}\n")
        with pytest.raises(SchemaError) as exc:
            data_io.read_culane_lines(path)
        assert exc.value.path == f"{path}: line 2"
        assert str(exc.value) == f"{path}: line 2: token {token!r}: magnitude above 1e+100"

    def test_negative_x_dropped(self, tmp_path):
        path = tmp_path / "neg.lines.txt"
        path.write_text("-2 100 50.0 90 -2 80 60.0 70\n")
        lanes = data_io.read_culane_lines(path)
        assert_lanes(lanes, [((60.0, 70.0), (50.0, 90.0))])

    @pytest.mark.parametrize("line, left", [("-2 100 -2 90", 0), ("10 5 -1 20", 1)],
                             ids=["every-point-missing", "one-point-left"])
    def test_lane_with_fewer_than_two_points_is_a_format_error(self, tmp_path, line, left):
        path = tmp_path / "short.lines.txt"
        path.write_text(f"1.0 2.0 3.0 4.0\n{line}\n")
        with pytest.raises(SchemaError) as exc:
            data_io.read_culane_lines(path)
        assert exc.value.path == f"{path}: line 2"
        assert str(exc.value) == (
            f"{path}: line 2: token {line!r}: {left} point(s) with x >= 0, need 2"
        )

    def test_write_read_round_trip(self, tmp_path):
        lanes = [((10.0, 5.0), (12.5, 9.0), (15.0, 13.0)), ((100.0, 2.0), (90.0, 8.0))]
        path = tmp_path / "rt.lines.txt"
        data_io.write_culane_lines(path, lanes)
        back = data_io.read_culane_lines(path)
        assert len(back) == 2
        for orig, got in zip(lanes, back):
            for (x1, y1), (x2, y2) in zip(sorted(orig, key=lambda p: p[1]), got):
                assert x2 == pytest.approx(x1, abs=1e-3)
                assert y2 == pytest.approx(y1, abs=1e-3)

    def test_arrays_write_the_text_of_pairs(self, tmp_path):
        lanes = [((10.0, 5.0), (12.5, 9.0), (15.0, 13.0)), (), ((1e-5, 2.0), (-0.0, 8.0))]
        pairs, arrays = tmp_path / "pairs.lines.txt", tmp_path / "arrays.lines.txt"
        data_io.write_culane_lines(pairs, lanes)
        data_io.write_culane_lines(arrays, [np.array(lane, dtype=np.float64) for lane in lanes])
        assert arrays.read_text() == pairs.read_text()


class TestFrontDoor:
    """`text_lines` and `parse_json`, through which every input is read."""

    def test_lines_split_as_text_mode_splits_them(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes("a\rb\r\nc\u00e9\nd".encode())
        assert list(data_io.text_lines(path)) == [(1, "a\n"), (2, "b\n"), (3, "c\u00e9\n"), (4, "d")]

    def test_cr_only_lane_file(self, tmp_path):
        path = tmp_path / "cr.lines.txt"
        path.write_bytes(b"100.0 590 110.0 580\r7 1 8 0\r")
        assert_lanes(data_io.read_culane_lines(path),
                     [((110.0, 580.0), (100.0, 590.0)), ((8.0, 0.0), (7.0, 1.0))])

    def test_bytes_not_utf8_are_named_at_their_line(self, tmp_path):
        """A strict decode would fail the whole 8 KiB chunk holding the
        bad bytes; the line and column named are still exact."""
        lines = [b"x" * 99 + b"\n"] * 200
        lines[150] = "\u00e9".encode() + b"\xc3(\n"
        path = tmp_path / "big.txt"
        path.write_bytes(b"".join(lines))
        with pytest.raises(SchemaError) as exc:
            list(data_io.text_lines(path))
        assert str(exc.value) == f"{path}: line 151: not UTF-8: byte 0xc3 at column 2"

    @pytest.mark.parametrize("text, reason", [
        ('{"a": 1,}', "not JSON: Expecting property name enclosed in double quotes"),
        ('{\n"a": 1,\n}\n', "not JSON: Expecting property name enclosed in double quotes: "
                           "line 3 column 1 (char 10)"),
        ('{"a": {"b": 1, "b": 2}}', "not JSON: repeated key 'b'"),
        ("1" * 5000, "not JSON: Exceeds the limit (4300 digits)"),
    ], ids=["one line", "several lines", "repeated key", "integer too long"])
    def test_parse_errors_name_where(self, text, reason):
        with pytest.raises(SchemaError) as exc:
            data_io.parse_json(text, "f.json")
        assert exc.value.path == "f.json"
        assert str(exc.value).startswith(f"f.json: {reason}")


class TestArchJson:
    def test_round_trip(self, arch):
        doc = data_io.arch_to_json(arch)
        assert data_io.arch_from_json(doc) == arch

    def test_infinite_sigma_read_from_string(self):
        doc = json.loads(
            '{"per_level": {"1": {"alpha1": 0.01, "beta1": -0.5, "alpha2": 0.002,'
            ' "center": [256.0, 144.0]}}, "score_threshold": 0.4,'
            ' "group_distance": 60.0, "locality_sigma": "inf"}'
        )
        params = data_io.blend_from_json(doc)
        assert math.isinf(params.locality_sigma)
        assert params.per_level == {1: BlendParams(0.01, -0.5, 0.002, (256.0, 144.0))}
        assert (params.score_threshold, params.group_distance) == (0.4, 60.0)

    def test_missing_fusion_field(self):
        with pytest.raises(SchemaError):
            data_io.fusion_from_json({"channels": 128})


class TestProposalsJsonl:
    def corpus(self, n=5):
        cfg = SynthSceneConfig(num_scenes=n, seed=3)
        return [(rec.image_id, props) for props, rec in generate_synthetic_scenes(cfg)]

    def test_round_trip(self, tmp_path):
        scenes = self.corpus()
        path = tmp_path / "props.jsonl"
        data_io.write_proposals(path, scenes)
        back = list(data_io.read_proposals(path))
        assert back == [(f"{path}: line {n}", *scene) for n, scene in enumerate(scenes, 1)]

    def test_nan_offsets_round_trip_as_null(self, tmp_path):
        doc = data_io.proposals_to_json(*self.corpus(1)[0])
        doc["heads"][0]["cells"][1]["offsets"][3] = None
        image_id, proposals = data_io.proposals_from_json(doc)
        assert math.isnan(proposals.heads[0].offsets[1, 3])
        assert data_io.proposals_to_json(image_id, proposals) == doc
        assert data_io.proposals_from_json(doc)[1] == proposals  # NaN equals NaN

    def test_heads_compare_by_value(self):
        (_, a), = self.corpus(1)
        (_, b), = self.corpus(1)
        assert a == b and a.heads[0] is not b.heads[0]
        b.heads[0].offsets[0, 0] += 1.0
        assert a != b and a.heads[0] != b.heads[0] and a.heads[1] == b.heads[1]

    def test_dense_head_holds_its_raw_floats(self):
        # 2,000 cells x 72 rows of float64 offsets are 1.15 MB; the parsed
        # document is dropped once read, as `read_proposals` drops it
        rows = 72
        line = json.dumps({
            "layout": {"image_size": [1640, 590], "rows": [8.0 * r for r in range(rows)]},
            "heads": [{"level": 1, "grid_w": 50, "grid_h": 40, "cells": [
                {"cx": 0.5 * i, "cy": 0.25 * i, "score": 0.5,
                 "offsets": [0.125 * (i + r) for r in range(rows)], "end_y": 0.0}
                for i in range(2000)
            ]}],
        })
        tracemalloc.start()
        try:
            _, proposals = data_io.proposals_from_json(json.loads(line))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert proposals.heads[0].offsets.shape == (2000, rows)
        assert held < 1.5e6

    def test_streaming_is_lazy(self, tmp_path):
        path = tmp_path / "props.jsonl"
        data_io.write_proposals(path, self.corpus(20))
        gen = data_io.read_proposals(path)
        first = next(gen)
        assert first[:2] == (f"{path}: line 1", "synth_00000")
        gen.close()

    def test_missing_score_field(self, tmp_path):
        doc = data_io.proposals_to_json(*self.corpus(1)[0])
        del doc["heads"][0]["cells"][2]["score"]
        with pytest.raises(SchemaError) as exc:
            data_io.proposals_from_json(doc)
        assert exc.value.path == "heads[0].cells[2].score"

    def test_version_checked(self):
        doc = data_io.proposals_to_json(*self.corpus(1)[0])
        doc["version"] = 99
        with pytest.raises(SchemaError) as exc:
            data_io.proposals_from_json(doc)
        assert exc.value.path == "version"
        assert str(exc.value) == "version: need format version 1, got 99"


class TestArchiveSnapshot:
    def archive(self, n=50, seed=0):
        """An archive and its history, the candidates inserted in order."""
        rng = np.random.default_rng(seed)
        history = [
            Candidate(
                arch=make_arch(),
                flops=int(rng.integers(1, 500)),
                score=None if i % 7 == 6 else round(float(rng.random()), 6),
                eval_id=f"e{i:04d}",
                parent=f"e{i - 1:04d}" if i else None,
                birth_step=i,
            )
            for i in range(n)
        ]
        a = ParetoArchive()
        for c in history:
            a.insert(c)
        return a, history

    def snapshot(self, archive, history, path):
        lines = [data_io.candidate_line(c) for c in history]
        data_io.snapshot_archive(archive, lines, path)

    def test_snapshot_load_snapshot_identical(self, tmp_path, monkeypatch):
        a, history = self.archive()
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        self.snapshot(a, history, p1)
        b, replayed = load_replayed(p1, monkeypatch)
        self.snapshot(b, replayed, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_members_reproduced_exactly(self, tmp_path, monkeypatch):
        a, history = self.archive(seed=5)
        path = tmp_path / "a.json"
        self.snapshot(a, history, path)
        b, replayed = load_replayed(path, monkeypatch)
        assert b.members == a.members
        assert replayed == history
        assert b.evaluations == a.evaluations

    def test_history_log_loads_like_the_snapshot(self, tmp_path, monkeypatch):
        a, history = self.archive(seed=7)
        lines = [data_io.candidate_line(c) for c in history]
        log = tmp_path / "history.jsonl"
        log.write_text("".join(line + "\n" for line in lines))
        b, replayed = load_replayed(log, monkeypatch)
        assert b.members == a.members
        assert replayed == history
        assert b.evaluations == a.evaluations

    def test_history_log_drops_only_a_torn_last_line(self, tmp_path, monkeypatch):
        a, history = self.archive(n=5)
        lines = [data_io.candidate_line(c) for c in history]
        log = tmp_path / "history.jsonl"
        log.write_text("".join(line + "\n" for line in lines[:4]) + lines[4][:-1])
        b, replayed = load_replayed(log, monkeypatch)
        assert replayed == history[:4]
        assert b.evaluations == 4
        assert b.members == self.archive(n=4)[0].members
        log.write_text("".join(line + "\n" for line in lines[:4]) + lines[4][:-1] + "\n")
        with pytest.raises(SchemaError) as exc:
            data_io.load_archive(log)
        assert exc.value.path == f"{log}: line 5"

    def test_duplicate_eval_id_rejected(self, tmp_path):
        """A repeated eval_id is refused, in a log (naming the line) and
        in `archive.json`, even where the repeat would join the front."""
        a, history = self.archive(n=3)
        repeated = history + [replace(history[0], flops=1, score=0.99)]
        log = tmp_path / "history.jsonl"
        log.write_text("".join(data_io.candidate_line(c) + "\n" for c in repeated))
        with pytest.raises(SchemaError) as exc:
            data_io.load_archive(log)
        assert str(exc.value) == f"{log}: line 4: e0000 is already recorded"
        path = tmp_path / "a.json"
        self.snapshot(a, repeated, path)
        with pytest.raises(SchemaError) as exc:
            data_io.load_archive(path)
        assert str(exc.value) == f"{path}: history[3]: e0000 is already recorded"

    def test_resume_with_zero_budget_unchanged(self, tmp_path):
        a, history = self.archive(seed=9)
        path = tmp_path / "a.json"
        self.snapshot(a, history, path)
        b = data_io.load_archive(path)
        # appending nothing leaves the front untouched
        assert {c.eval_id for c in b.members} == {c.eval_id for c in a.members}

    @pytest.mark.parametrize("source", ["inserted", "threaded-search"])
    def test_file_equals_members_encoded_afresh(self, tmp_path, source):
        """Front members' lines come from the history lines; the file is
        byte-identical to one that encodes every member again. A threaded
        search commits in eval_id order too, but draws each child from the
        front of 2N - 1 evaluations before, so its front differs from a
        one-worker run's."""
        if source == "inserted":
            a, history = self.archive(seed=3)
        else:
            cfg = SearchConfig(budget=60, init_population=8, workers=3, seed=4)
            history = []
            a = run_search(cfg, SyntheticEvaluator(), on_eval=lambda c, _: history.append(c))
        path = tmp_path / "a.json"
        self.snapshot(a, history, path)
        members = ",\n".join(data_io.candidate_line(c) for c in a.members)
        lines = ",\n".join(data_io.candidate_line(c) for c in history)
        expected = (
            f'{{"history": [\n{lines}\n],\n"members": [\n{members}\n],\n'
            f'"version": {data_io.FORMAT_VERSION}}}\n'
        )
        assert path.read_text() == expected

    def test_corrupted_member_names_eval_id(self, tmp_path):
        a, history = self.archive(n=3)
        path = tmp_path / "a.json"
        self.snapshot(a, history, path)
        doc = json.loads(path.read_text())
        del doc["history"][1]["flops"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            data_io.load_archive(path)
        assert exc.value.path == f"{path}: history[1]"
        assert str(exc.value) == f"{path}: history[1]: candidate[e0001].flops: missing field"

    def test_error_written_only_when_set(self, tmp_path, monkeypatch):
        ok = Candidate(make_arch(), 10, 0.5, "e0")
        failed = Candidate(make_arch(), 10, None, "e1", error="ProtocolError: exit 3")
        assert "error" not in data_io.candidate_to_json(ok)
        assert data_io.candidate_to_json(failed)["error"] == "ProtocolError: exit 3"
        a = ParetoArchive()
        a.insert(ok)
        a.insert(failed)
        path = tmp_path / "a.json"
        self.snapshot(a, [ok, failed], path)
        assert load_replayed(path, monkeypatch)[1] == [ok, failed]

    def test_snapshot_from_the_log_holds_one_line_at_a_time(self, tmp_path):
        """Writing `archive.json` from an open `history.jsonl` takes as
        much memory for a 2,000-line log as for a 200-line one."""
        peaks = []
        for n in (200, 2000):
            a, history = self.archive(n=n)
            log = tmp_path / f"history-{n}.jsonl"
            log.write_text("".join(data_io.candidate_line(c) + "\n" for c in history))
            tracemalloc.start()
            try:
                with open(log) as fh:
                    data_io.snapshot_archive(a, fh, tmp_path / f"archive-{n}.json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            self.snapshot(a, history, tmp_path / f"from-lines-{n}.json")
        assert peaks[1] < 1.5 * peaks[0]
        for n in (200, 2000):  # the same bytes as from a list of lines
            got = (tmp_path / f"archive-{n}.json").read_bytes()
            assert got == (tmp_path / f"from-lines-{n}.json").read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"version": 99, "members": [], "history": []}))
        with pytest.raises(SchemaError) as exc:
            data_io.load_archive(path)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: version: need format version 1, got 99"

    def test_atomic_write_no_temp_left(self, tmp_path):
        a, history = self.archive(n=3)
        self.snapshot(a, history, tmp_path / "a.json")
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".snapshot-")]
        assert leftovers == []


class TestWireProtocol:
    def test_request_fields(self, arch):
        doc = data_io.eval_request_to_json("e42", arch, (512, 288))
        assert doc["eval_id"] == "e42"
        assert doc["resolution"] == [512, 288]
        assert data_io.arch_from_json(doc["arch"]) == arch

    def test_response_validation(self):
        """The score alone is returned; a `diagnostics` field is ignored."""
        score = data_io.eval_response_from_json(
            {"eval_id": "e1", "score": 0.75, "diagnostics": {"loss": 0.2}},
            expect_eval_id="e1",
        )
        assert score == 0.75

    def test_response_missing_score(self):
        with pytest.raises(SchemaError):
            data_io.eval_response_from_json({"eval_id": "e1"})

    def test_response_score_out_of_range(self):
        with pytest.raises(SchemaError):
            data_io.eval_response_from_json({"eval_id": "e1", "score": 1.5})

    def test_response_eval_id_mismatch(self):
        with pytest.raises(SchemaError):
            data_io.eval_response_from_json(
                {"eval_id": "other", "score": 0.5}, expect_eval_id="e1"
            )


def _paths(doc, prefix=()):
    """Every path into `doc`, the root first; only the first two entries
    of a list are entered, which reaches every field of a uniform list."""
    yield prefix
    if type(doc) is dict:
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif type(doc) is list:
        for i, value in enumerate(doc[:2]):
            yield from _paths(value, prefix + (i,))


_DELETE = object()


def _edited(doc, path, value):
    """A copy of `doc` with the entry at `path` set to `value`, or
    deleted for `_DELETE` (a deleted root is an empty object)."""
    if not path:
        return {} if value is _DELETE else copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    *where, last = path
    parent = doc
    for key in where:
        parent = parent[key]
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return doc


class TestReaderFuzz:
    """Single edits to well-formed documents: each reader returns or
    raises a LaneNasError, never any other exception."""

    VALUES = [5, -1, 1e308, "x", None, True, [], {}, math.nan, math.inf]
    CASES = 300  # per document

    def documents(self, tmp_path):
        """(name, document, reader) for each JSON input the program reads."""
        cfg = SynthSceneConfig(num_scenes=1, seed=3)
        (props, rec), = generate_synthetic_scenes(cfg)
        level = {"alpha1": 0.01, "beta1": -0.5, "alpha2": 0.002, "center": [256.0, 144.0]}
        params = {"per_level": {"1": level, "2": dict(level)}, "score_threshold": 0.4,
                  "group_distance": 60.0, "locality_sigma": "inf"}
        history = []
        archive = run_search(SearchConfig(budget=2, init_population=2, seed=1),
                             SyntheticEvaluator(), on_eval=lambda c, _: history.append(c))
        archive_path = tmp_path / "archive.json"
        data_io.snapshot_archive(
            archive, [data_io.candidate_line(c) for c in history], archive_path
        )
        edited_path = tmp_path / "edited.json"
        log_path = tmp_path / "history.jsonl"

        def load_archive(doc):
            edited_path.write_text(json.dumps(doc))
            return data_io.load_archive(edited_path)

        def load_log(doc):
            entries = doc if type(doc) is list else [doc]
            log_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
            return data_io.load_archive(log_path)

        return [
            ("scene", data_io.proposals_to_json(rec.image_id, props),
             data_io.proposals_from_json),
            ("params", params, data_io.blend_from_json),
            ("fusion", data_io.fusion_to_json(make_arch().fusion), data_io.fusion_from_json),
            ("archive", json.loads(archive_path.read_text()), load_archive),
            ("history log", json.loads(archive_path.read_text())["history"], load_log),
            ("response", {"eval_id": "e1", "score": 0.5, "diagnostics": {"loss": 0.2}},
             lambda doc: data_io.eval_response_from_json(doc, expect_eval_id="e1")),
        ]

    def test_single_edits(self, tmp_path):
        rng = random.Random(11)
        for name, doc, reader in self.documents(tmp_path):
            reader(copy.deepcopy(doc))  # the unedited document reads
            paths = list(_paths(doc))
            for _ in range(self.CASES):
                path = rng.choice(paths)
                value = rng.choice(self.VALUES + [_DELETE])
                try:
                    reader(_edited(doc, path, value))
                except LaneNasError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{name} with {list(path)} set to {value!r}: {exc!r}")


class TestFrontCsv:
    def test_export(self, tmp_path):
        a = ParetoArchive()
        a.insert(Candidate(make_arch(), 100, 0.5, "a"))
        a.insert(Candidate(make_arch(), 200, 0.8, "b"))
        path = tmp_path / "front.csv"
        data_io.export_front_csv(a, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eval_id,encoding,flops,score,fusion"
        assert lines[1].startswith('a,"BB_64_13_[5,9]_[7,12]",100,0.5,"{""layers"":[{')
        assert len(lines) == 3

    def test_members_rebuilt_from_rows(self, tmp_path):
        archive = run_search(
            SearchConfig(budget=60, init_population=8, seed=4), SyntheticEvaluator()
        )
        path = tmp_path / "front.csv"
        data_io.export_front_csv(archive, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rebuilt = [
            Candidate(
                ArchEncoding(parse_backbone(row["encoding"]),
                             data_io.fusion_from_json(json.loads(row["fusion"]))),
                int(row["flops"]), float(row["score"]), row["eval_id"],
            )
            for row in rows
        ]
        members = sorted(archive.members, key=lambda c: c.flops)
        assert len(members) > 1
        assert [(c.arch, c.flops, c.score, c.eval_id) for c in members] == [
            (c.arch, c.flops, c.score, c.eval_id) for c in rebuilt
        ]
