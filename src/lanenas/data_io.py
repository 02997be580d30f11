"""On-disk formats and wire schemas.

Everything is JSON or JSON-lines with an explicit "version" field; CSV
appears only in the final front export. Coordinates are floating-point
pixels in image space. Every JSON reader checks its document against one
of the schemas below with `_check` before it builds anything from it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import uuid

import numpy as np

from .arch_space import (
    ArchEncoding,
    FusionLayer,
    FusionSpec,
    parse_backbone,
    serialize_backbone,
)
from .errors import DuplicateError, FormatError, LaneNasError, SchemaError, VersionError
from .lane_model import AnchorLayout, HeadGrid, LaneProposalSet
from .point_blend import BlendParams, BlendParamSet

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# CULane-style lane annotation files: one lane per line, alternating x y

def read_culane_lines(path):
    """Parse one .lines.txt file into a list of lanes, each an (n, 2)
    float64 array of `(x, y)` points.

    Points with negative x (the dataset's missing-point convention) are
    dropped, leaving at least 2 per lane, stably sorted by y. Coordinates
    must be finite; a FormatError names the file, line and token at fault.
    """
    lanes = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            if len(toks) % 2 != 0:
                raise FormatError(path, line_no, toks[-1], "odd token count")
            try:
                vals = list(map(float, toks))
                ok = math.isfinite(sum(vals))  # a finite sum has no NaN or inf term
            except ValueError:
                ok = False
            if not ok:  # find the token at fault
                for tok in toks:
                    try:
                        v = float(tok)
                    except ValueError:
                        raise FormatError(path, line_no, tok, "not a number") from None
                    if not math.isfinite(v):
                        raise FormatError(path, line_no, tok, "not finite")
            pts = np.array(vals).reshape(-1, 2)
            pts = pts[pts[:, 0] >= 0]
            if len(pts) < 2:
                raise FormatError(path, line_no, line.strip(), f"{len(pts)} point(s) with x >= 0, need 2")
            lanes.append(pts[np.argsort(pts[:, 1], kind="stable")])
    return lanes


def write_culane_lines(path, lanes):
    """Write lanes of `(x, y)` points, such as (n, 2) arrays, one lane
    per line, every coordinate to 4 decimals."""
    with open(path, "w") as fh:
        for lane in lanes:
            pts = np.asarray(lane, dtype=np.float64).tolist()
            fh.write(" ".join(f"{x:.4f} {y:.4f}" for x, y in pts) + "\n")


# ---------------------------------------------------------------------------
# JSON objects with a repeated key

class RepeatedKeyError(json.JSONDecodeError):
    """A JSON object names a key twice. As a `json.JSONDecodeError` it is
    reported the way each reader reports malformed JSON. It carries no
    position: `unique_keys` sees one object's pairs, not the text."""

    def __init__(self, key):
        ValueError.__init__(self, f"repeated key {key!r}")
        self.msg, self.doc, self.pos, self.lineno, self.colno = str(self), "", 0, 0, 0


def unique_keys(pairs):
    """The `object_pairs_hook` of every JSON reader: `json` alone keeps
    the last value of a repeated key, so a repeat is refused instead."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise RepeatedKeyError(next(k for i, k in enumerate(keys) if k in keys[:i]))
    return doc


# ---------------------------------------------------------------------------
# schema checks for every JSON document read

def _number(v):
    """a finite number"""
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _number_or_null(v):
    """a finite number or null"""
    return v is None or _number(v)


def _unit(v):
    """a number in [0, 1]"""
    return _number(v) and 0 <= v <= 1


def _count(v):
    """a non-negative integer"""
    return type(v) is int and v >= 0


def _text_or_null(v):
    """a string or null"""
    return v is None or type(v) is str


def _sigma(v):
    """a finite number or "inf\""""
    return v == "inf" or _number(v)


# lists of these leaves are first checked whole: all floats (or nulls)
# with a finite sum, so none is NaN or infinite
_WHOLE_LIST_TYPES = {_number: {float}, _number_or_null: {float, type(None)}}


def _check(value, schema, path):
    """Raise SchemaError at the JSON path of the first place where
    `value` breaks `schema`. A schema is one of:

    - a leaf: a type the value's type must be exactly (so `int` is a JSON
      integer and never a boolean, `dict` an object), or a predicate
      whose docstring names what it accepts;
    - an object `{key: schema}`: each key is required unless written
      with a trailing "?"; keys the schema does not name are ignored;
    - a list `[item]`, or `[item, length]` for a fixed length.

    `path` names `value`; an empty path leaves object keys unprefixed.
    """
    if type(schema) is dict:
        if type(value) is not dict:
            raise SchemaError(path, f"need an object, got {value!r:.40}")
        for key, item in schema.items():
            name = key.rstrip("?")
            at = f"{path}.{name}" if path else name
            if name in value:
                _check(value[name], item, at)
            elif name == key:
                raise SchemaError(at, "missing field")
    elif type(schema) is list:
        item, *length = schema
        if type(value) is not list or length and len(value) != length[0]:
            need = f"a list of length {length[0]}" if length else "a list"
            raise SchemaError(path, f"need {need}, got {value!r:.40}")
        types = _WHOLE_LIST_TYPES.get(item) if callable(item) else None
        if not (types and set(map(type, value)) <= types
                and math.isfinite(sum(filter(None, value)))):
            for i, v in enumerate(value):
                _check(v, item, f"{path}[{i}]")
    elif type(schema) is type:
        if type(value) is not schema:
            raise SchemaError(path, f"need {schema.__name__}, got {value!r:.40}")
    elif not schema(value):
        raise SchemaError(path, f"need {schema.__doc__}, got {value!r:.40}")


def _checked(path, make, *args, **kwargs):
    """`make(*args, **kwargs)`, a value it rejects (or cannot hold as a
    float) reported at JSON path `path`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(path, str(exc)) from exc


_FUSION = {
    "layers": [{"input_a": int, "input_b": int, "output_level": int}],
    "channels?": int,
    "heads_at": [int],
}
_ARCH = {"backbone": str, "fusion": _FUSION}
_CANDIDATE = {
    "eval_id": str,
    "arch": _ARCH,
    "flops": int,
    "score": _number_or_null,
    "parent?": _text_or_null,
    "birth_step?": int,
    "error?": _text_or_null,
}
_BLEND = {
    "per_level": dict, "score_threshold": _number, "group_distance": _number,
    "locality_sigma": _sigma,
}
_LEVEL_PARAMS = {"alpha1": _number, "beta1": _number, "alpha2": _number, "center": [_number, 2]}
_SCENE = {"image_id?": str, "layout": {"image_size": [_number, 2], "rows": [_number]}}
_RESPONSE = {"eval_id": str, "score": _unit}


def _heads_schema(num_rows):
    """A scene's heads; each cell has one offset (or null) per anchor row."""
    cell = {"cx": _number, "cy": _number, "score": _unit,
            "offsets": [_number_or_null, num_rows], "end_y": _number}
    return {"heads?": [{"level": int, "grid_w": _count, "grid_h": _count, "cells": [cell]}]}


# ---------------------------------------------------------------------------
# fusion / blend / arch JSON

def fusion_to_json(spec: FusionSpec) -> dict:
    return {
        "layers": [
            {"input_a": l.input_a, "input_b": l.input_b, "output_level": l.output_level}
            for l in spec.layers
        ],
        "channels": spec.channels,
        "heads_at": sorted(spec.heads_at),
    }


def fusion_from_json(doc: dict) -> FusionSpec:
    _check(doc, _FUSION, "fusion")
    layers = [FusionLayer(l["input_a"], l["input_b"], l["output_level"]) for l in doc["layers"]]
    return FusionSpec(layers, doc.get("channels", 128), doc["heads_at"])


def blend_from_json(doc: dict) -> BlendParamSet:
    """Read a `blend --params` document. A `locality_sigma` of "inf"
    (strict JSON has no infinity) means no locality weighting."""
    _check(doc, _BLEND, "blend")
    per_level = {}
    for lvl, p in doc["per_level"].items():
        path = f"blend.per_level.{lvl}"
        level = _checked(path, int, lvl)
        if str(level) != lvl:  # int() also reads "01", " 1" and "1_0"
            raise SchemaError(path, "need a decimal integer key")
        _check(p, _LEVEL_PARAMS, path)
        per_level[level] = BlendParams(p["alpha1"], p["beta1"], p["alpha2"], tuple(p["center"]))
    sigma = doc["locality_sigma"]
    return _checked(
        "blend", BlendParamSet, per_level, doc["score_threshold"], doc["group_distance"],
        math.inf if sigma == "inf" else float(sigma),
    )


def arch_to_json(arch: ArchEncoding) -> dict:
    return {
        "version": FORMAT_VERSION,
        "backbone": serialize_backbone(arch.backbone),
        "fusion": fusion_to_json(arch.fusion),
    }


def arch_from_json(doc: dict) -> ArchEncoding:
    _check(doc, _ARCH, "arch")
    return ArchEncoding(parse_backbone(doc["backbone"]), fusion_from_json(doc["fusion"]))


# ---------------------------------------------------------------------------
# proposal dumps: JSON-lines, one scene per line

def _offset_rows(head: HeadGrid):
    """A head's offsets as lists of floats, None where a cell has none."""
    rows = head.offsets.tolist()
    for i in np.flatnonzero(np.isnan(head.offsets).any(axis=1)).tolist():
        rows[i] = [None if math.isnan(dx) else dx for dx in rows[i]]
    return rows


def proposals_to_json(image_id, proposals: LaneProposalSet) -> dict:
    return {
        "version": FORMAT_VERSION,
        "image_id": image_id,
        "layout": {
            "image_size": list(proposals.layout.image_size),
            "rows": list(proposals.layout.rows),
        },
        "heads": [
            {
                "level": h.level,
                "grid_w": h.grid_w,
                "grid_h": h.grid_h,
                "cells": [
                    {"cx": cx, "cy": cy, "score": score, "offsets": offsets, "end_y": end_y}
                    for cx, cy, score, offsets, end_y in zip(
                        h.cx.tolist(), h.cy.tolist(), h.score.tolist(), _offset_rows(h),
                        h.end_y.tolist(),
                    )
                ],
            }
            for h in proposals.heads
        ],
    }


def proposals_from_json(doc: dict):
    _check(doc, dict, "scene")
    if doc.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise VersionError(f"unsupported proposals version {doc.get('version')}")
    _check(doc, _SCENE, "")
    layout = _checked(
        "layout.rows", AnchorLayout, tuple(doc["layout"]["image_size"]), tuple(doc["layout"]["rows"])
    )
    _check(doc, _heads_schema(len(layout.rows)), "")
    heads = [
        _checked(
            f"heads[{hi}].cells", HeadGrid, h["level"], h["grid_w"], h["grid_h"],
            **{name: [c[name] for c in h["cells"]] for name in HeadGrid.COLUMNS},  # null -> NaN
        )
        for hi, h in enumerate(doc.get("heads", []))
    ]
    return doc.get("image_id", ""), LaneProposalSet(layout, heads)


def write_proposals(path, scenes):
    """scenes: iterable of (image_id, LaneProposalSet)."""
    with open(path, "w") as fh:
        for image_id, proposals in scenes:
            fh.write(json.dumps(proposals_to_json(image_id, proposals)) + "\n")


def read_proposals(path):
    """Stream (image_id, LaneProposalSet) pairs without loading the file;
    an error names the file and the line at fault."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    scene = proposals_from_json(json.loads(line, object_pairs_hook=unique_keys))
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}: line {n}", f"not JSON: {exc.msg}") from None
                except LaneNasError as exc:
                    raise SchemaError(f"{path}: line {n}", str(exc)) from exc
                yield scene


# ---------------------------------------------------------------------------
# evaluator wire protocol: newline-delimited JSON over child stdio

def eval_request_to_json(eval_id, arch: ArchEncoding, resolution) -> dict:
    return {
        "version": FORMAT_VERSION,
        "eval_id": eval_id,
        "arch": arch_to_json(arch),
        "resolution": list(resolution),
    }


def eval_response_from_json(doc: dict, expect_eval_id=None) -> float:
    """The validated score; any other field, `diagnostics` say, is ignored."""
    _check(doc, _RESPONSE, "response")
    if expect_eval_id is not None and doc["eval_id"] != expect_eval_id:
        raise SchemaError("response.eval_id", f"expected {expect_eval_id}, got {doc['eval_id']}")
    return float(doc["score"])


# ---------------------------------------------------------------------------
# run log and archive: `history.jsonl` is the durable log of a run, one
# candidate per line, flushed as each evaluation ends; `archive.json` is
# written once, from the log, when the run ends

@contextlib.contextmanager
def _atomic_file(path):
    """A text file to write that replaces `path` when the block ends: a
    temporary file renamed over it, removed instead if the block raises.
    The temporary file gets the mode `open()` would give (0o666 less the
    umask)."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".snapshot-{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, text):
    """Replace `path` by `text`, as `_atomic_file` does; kept only because `perfbench` wraps it."""
    with _atomic_file(path) as fh:
        fh.write(text)


def candidate_to_json(cand) -> dict:
    doc = {
        "eval_id": cand.eval_id,
        "arch": arch_to_json(cand.arch),
        "flops": cand.flops,
        "score": cand.score,
        "parent": cand.parent,
        "birth_step": cand.birth_step,
    }
    if cand.error is not None:
        doc["error"] = cand.error
    return doc


def candidate_line(cand) -> str:
    """One candidate as a line of `history.jsonl` (without the newline)."""
    return json.dumps(candidate_to_json(cand), sort_keys=True)


def candidate_from_json(doc: dict):
    from .search_engine import Candidate

    _check(doc, _CANDIDATE, f"candidate[{doc.get('eval_id', '<unknown>')}]")
    return Candidate(
        arch_from_json(doc["arch"]), doc["flops"], doc["score"], doc["eval_id"],
        doc.get("parent"), doc.get("birth_step", 0), doc.get("error"),
    )


def _write_json_lines(fh, lines):
    """Write `lines` joined by ",\n", one at a time."""
    for i, line in enumerate(lines):
        if i:
            fh.write(",\n")
        fh.write(line)


def snapshot_archive(archive, history_lines, path):
    """Write `archive.json`: the history plus the front members, one
    candidate per line. `history_lines` are the lines of `history.jsonl`
    (such as the open log), the `candidate_line` texts of the candidates
    inserted into `archive` in order, each with or without its newline.
    They are copied through one at a time and the members re-encoded, so
    the write holds one line at a time, however long the run."""
    with _atomic_file(path) as fh:
        fh.write('{"history": [\n')
        _write_json_lines(fh, (line.rstrip("\n") for line in history_lines))
        fh.write('\n],\n"members": [\n')
        _write_json_lines(fh, map(candidate_line, archive.members))
        fh.write(f'\n],\n"version": {FORMAT_VERSION}}}\n')


def _history_log(path):
    """The candidate documents of a `history.jsonl` log. A last line with
    no newline was torn by a crash and is dropped unread; any other line
    that is not a JSON object is an error naming its line number."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                return
            try:
                doc = json.loads(line, object_pairs_hook=unique_keys)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"line {n}", f"not JSON: {exc.msg}") from None
            _check(doc, {}, f"line {n}")
            yield n, doc


def load_archive(path):
    """Rebuild a run's archive by replaying its history through
    `ParetoArchive.insert`, from `archive.json` or from the `*.jsonl` log
    of a finished or killed run. A repeated `eval_id` is an error."""
    from .search_engine import ParetoArchive

    archive, ids = ParetoArchive(), set()

    def insert(doc):
        cand = candidate_from_json(doc)
        if cand.eval_id in ids:
            raise DuplicateError(f"{cand.eval_id} is already recorded")
        ids.add(cand.eval_id)
        archive.insert(cand)

    if os.fspath(path).endswith(".jsonl"):
        for n, doc in _history_log(path):
            try:
                insert(doc)
            except LaneNasError as exc:
                raise SchemaError(f"line {n}", str(exc)) from exc
        return archive
    with open(path) as fh:
        doc = json.load(fh, object_pairs_hook=unique_keys)
    _check(doc, {"history?": [dict]}, "archive")
    if doc.get("version") != FORMAT_VERSION:
        raise VersionError(f"unsupported archive version {doc.get('version')}")
    for entry in doc.get("history", []):
        insert(entry)
    return archive


def export_front_csv(archive, path):
    """Final front export in FLOPS order: eval_id, encoding, flops, score
    and the fusion genome as compact JSON, CSV-quoted where a field holds
    a comma or a quote, so a member can be rebuilt from its row."""
    rows = sorted(archive.members, key=lambda c: c.flops)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["eval_id", "encoding", "flops", "score", "fusion"])
        for c in rows:
            fusion = json.dumps(fusion_to_json(c.arch.fusion), separators=(",", ":"))
            encoding = serialize_backbone(c.arch.backbone)
            out.writerow([c.eval_id, encoding, c.flops, c.score, fusion])
