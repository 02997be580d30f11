"""On-disk formats and wire schemas.

Everything is JSON or JSON-lines with an explicit "version" field; CSV
appears only in the final front export. Coordinates are floating-point
pixels in image space. Every input file is read through `text_lines`
and every JSON text parsed by `parse_json`, so a malformed input is a
SchemaError naming its file, and its line in a line-oriented file.
Every JSON reader checks its document against one of the schemas below
with `_check` before it builds anything from it.
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
from .errors import SchemaError
from .lane_model import AnchorLayout, HeadGrid, LaneProposalSet
from .point_blend import BlendParams, BlendParamSet

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# CULane-style lane annotation files: one lane per line, alternating x y

# The largest magnitude of a kept `.lines.txt` coordinate: far beyond any
# canvas, and small enough that the lane metric's squares and products of
# coordinate differences stay finite
MAX_COORD = 1e100


def read_culane_lines(path):
    """Parse one .lines.txt file into a list of lanes, each an (n, 2)
    float64 array of `(x, y)` points.

    Points with negative x (the dataset's missing-point convention) are
    dropped, leaving at least 2 per lane, stably sorted by y. Coordinates
    must be finite, and those of a kept point at most `MAX_COORD` (1e100)
    in magnitude; a SchemaError names the file, line and token at fault.
    """
    def bad(tok, reason):
        return SchemaError(f"{path}: line {n}", f"token {tok!r}: {reason}")

    lanes = []
    for n, line in text_lines(path):
        toks = line.split()
        if not toks:
            continue
        if len(toks) % 2 != 0:
            raise bad(toks[-1], "odd token count")
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
                    raise bad(tok, "not a number") from None
                if not math.isfinite(v):
                    raise bad(tok, "not finite")
        if max(map(abs, vals)) > MAX_COORD:  # find a kept point's coordinate beyond it
            for i in range(0, len(vals), 2):
                x, y = vals[i], vals[i + 1]
                if x >= 0 and max(x, abs(y)) > MAX_COORD:
                    raise bad(toks[i if x > MAX_COORD else i + 1],
                              f"magnitude above {MAX_COORD:.0e}")
        pts = np.array(vals).reshape(-1, 2)
        pts = pts[pts[:, 0] >= 0]
        if len(pts) < 2:
            raise bad(line.strip(), f"{len(pts)} point(s) with x >= 0, need 2")
        lanes.append(pts[np.argsort(pts[:, 1], kind="stable")])
    return lanes


def write_culane_lines(path, lanes):
    """Write lanes of `(x, y)` points, such as (n, 2) arrays, one lane
    per line, every coordinate to 4 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for lane in lanes:
            pts = np.asarray(lane, dtype=np.float64).tolist()
            fh.write(" ".join(f"{x:.4f} {y:.4f}" for x, y in pts) + "\n")


# ---------------------------------------------------------------------------
# the one way in: the lines of a text file, and the JSON value of a text

def text_lines(path):
    """The numbered lines of the UTF-8 text file `path`, each with its
    newline, split at LF, CRLF or CR as text mode splits them. A line
    that is not UTF-8 is a SchemaError naming the file and the line:
    a strict decode fails a whole 8 KiB chunk at once, so undecodable
    bytes are kept as lone surrogates and each non-ASCII line checked."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for n, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00  # the byte a lone surrogate stands for
                    raise SchemaError(f"{path}: line {n}", f"not UTF-8: byte 0x{byte:02x} "
                                      f"at column {exc.start + 1}") from None
            yield n, line


def _unique_keys(pairs):
    """An object's key-value pairs as a dict, for `parse_json`: `json`
    alone keeps the last value of a repeated key, so a repeat is refused."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return doc


def parse_json(text, where):
    """The JSON value of `text`, one whole input read from `where`: a
    file, a line of a JSON-lines file or an evaluator's reply. Malformed
    JSON, or an object that names a key twice, is a SchemaError at
    `where`. The reason ends with json's own position in a text of
    several lines."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also a repeated key, or an integer of over 4300 digits
        one_line = "\n" not in text.strip()  # named by `where`: json's position adds nothing
        reason = exc.msg if one_line and isinstance(exc, json.JSONDecodeError) else exc
        raise SchemaError(where, f"not JSON: {reason}") from None


def read_json(path, build):
    """`build(doc)` of the JSON value `doc` of the whole text file
    `path`; a data error `build` raises is reported at `path`."""
    return _checked(path, build, parse_json("".join(line for _, line in text_lines(path)), path))


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


def _version(v):
    """format version 1"""
    return type(v) is int and v == FORMAT_VERSION


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
    float), or a data error it raises, reported at `path`."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, OverflowError, SchemaError) as exc:
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
_SCENE = {"version?": _version, "image_id?": str,
          "layout": {"image_size": [_number, 2], "rows": [_number]}}
_RESPONSE = {"eval_id": str, "score": _unit}
_ARCHIVE = {"version": _version, "history?": list}


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


def fusion_from_json(doc: dict, path="fusion", stages=None) -> FusionSpec:
    """The fusion spec of `doc`, the JSON object at `path`; given a
    backbone's number of `stages`, it must fit them. A field the genome
    checks refuse is named by its JSON path under `path`."""
    _check(doc, _FUSION, path)
    layers = [FusionLayer(l["input_a"], l["input_b"], l["output_level"]) for l in doc["layers"]]
    try:
        fusion = FusionSpec(layers, doc.get("channels", 128), doc["heads_at"])
        if stages is not None:
            fusion.validate_against(stages)
    except SchemaError as exc:  # its path is a field of `doc`
        raise SchemaError(f"{path}.{exc.path}", exc.reason) from None
    return fusion


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


def arch_from_json(doc: dict, path="arch") -> ArchEncoding:
    """The genome of `doc`, the JSON object at `path`; a backbone string
    that breaks the grammar or an invariant is a data error at
    `<path>.backbone`, a fusion field at its path under `<path>.fusion`."""
    _check(doc, _ARCH, path)
    backbone = _checked(f"{path}.backbone", parse_backbone, doc["backbone"])
    fusion = fusion_from_json(doc["fusion"], f"{path}.fusion", backbone.num_stages)
    return ArchEncoding(backbone, fusion)


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
    with open(path, "w", encoding="utf-8") as fh:
        for n, (image_id, proposals) in enumerate(scenes, start=1):
            try:
                line = json.dumps(proposals_to_json(image_id, proposals), allow_nan=False)
            except ValueError as exc:  # a number that overflowed to inf
                raise SchemaError(f"{path}: line {n}", str(exc)) from None
            fh.write(line + "\n")


def read_proposals(path):
    """Stream (where, image_id, LaneProposalSet) triples without loading
    the file, where is the scene's place `<path>: line N`; an error names
    the file and the line at fault."""
    for n, line in text_lines(path):
        if line.strip():
            where = f"{path}: line {n}"
            yield where, *_checked(where, proposals_from_json, parse_json(line, where))


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
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
    return json.dumps(candidate_to_json(cand), sort_keys=True, allow_nan=False)


def candidate_from_json(doc: dict):
    from .search_engine import Candidate

    path = f"candidate[{doc.get('eval_id', '<unknown>')}]"
    _check(doc, _CANDIDATE, path)
    return Candidate(
        arch_from_json(doc["arch"], f"{path}.arch"), doc["flops"], doc["score"], doc["eval_id"],
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


def _logged_candidates(path):
    """(where, document) pairs of the candidates a run recorded, where
    is `<path>: line N` in a `*.jsonl` log and `<path>: history[i]` in
    `archive.json`. A log's last line with no newline was torn by a
    crash and is dropped unread."""
    if os.fspath(path).endswith(".jsonl"):
        for n, line in text_lines(path):
            if not line.endswith("\n"):
                return
            where = f"{path}: line {n}"
            yield where, parse_json(line, where)
        return
    for i, entry in enumerate(read_json(path, _archive_history)):
        yield f"{path}: history[{i}]", entry


def _archive_history(doc):
    """The history entries of an `archive.json` document."""
    _check(doc, _ARCHIVE, "")
    return doc.get("history", [])


def load_archive(path):
    """Rebuild a run's archive by replaying its history through
    `ParetoArchive.insert`, from `archive.json` or from the `*.jsonl` log
    of a finished or killed run. A repeated `eval_id` is an error."""
    from .search_engine import ParetoArchive

    archive, ids = ParetoArchive(), set()
    for where, doc in _logged_candidates(path):
        _check(doc, {}, where)
        cand = _checked(where, candidate_from_json, doc)
        if cand.eval_id in ids:
            raise SchemaError(where, f"{cand.eval_id} is already recorded")
        ids.add(cand.eval_id)
        archive.insert(cand)
    return archive


def export_front_csv(archive, path):
    """Final front export in FLOPS order: eval_id, encoding, flops, score
    and the fusion genome as compact JSON, CSV-quoted where a field holds
    a comma or a quote, so a member can be rebuilt from its row."""
    rows = sorted(archive.members, key=lambda c: c.flops)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["eval_id", "encoding", "flops", "score", "fusion"])
        for c in rows:
            fusion = json.dumps(fusion_to_json(c.arch.fusion), separators=(",", ":"),
                                allow_nan=False)
            encoding = serialize_backbone(c.arch.backbone)
            out.writerow([c.eval_id, encoding, c.flops, c.score, fusion])
