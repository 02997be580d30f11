"""On-disk formats and wire schemas.

Everything is JSON or JSON-lines with an explicit "version" field; CSV
appears only in the final front export. Coordinates are floating-point
pixels in image space.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from dataclasses import dataclass

from .arch_space import (
    ArchEncoding,
    FusionLayer,
    FusionSpec,
    parse_backbone,
    serialize_backbone,
)
from .errors import FormatError, SchemaError, VersionError
from .lane_model import AnchorLayout, GridCell, HeadGrid, LaneProposalSet
from .point_blend import BlendParams, BlendParamSet

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SceneRecord:
    image_id: str
    image_size: tuple[int, int]
    gt_lanes: tuple  # tuple of polylines, each a tuple of (x, y)


# ---------------------------------------------------------------------------
# CULane-style lane annotation files: one lane per line, alternating x y

def read_culane_lines(path):
    """Parse one .lines.txt file into a list of polylines.

    Points with negative x (the dataset's missing-point convention) are
    dropped; each lane's points are sorted by y.
    """
    lanes = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            if len(toks) % 2 != 0:
                raise FormatError(line_no, toks[-1], "odd token count")
            pts = []
            for k in range(0, len(toks), 2):
                try:
                    x, y = float(toks[k]), float(toks[k + 1])
                except ValueError as exc:
                    bad = toks[k] if _not_float(toks[k]) else toks[k + 1]
                    raise FormatError(line_no, bad, "not a number") from exc
                if x < 0:
                    continue
                pts.append((x, y))
            pts.sort(key=lambda p: p[1])
            lanes.append(tuple(pts))
    return lanes


def _not_float(tok):
    try:
        float(tok)
        return False
    except ValueError:
        return True


def write_culane_lines(path, lanes):
    with open(path, "w") as fh:
        for lane in lanes:
            fh.write(" ".join(f"{x:.4f} {y:.4f}" for x, y in lane) + "\n")


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
    try:
        layers = tuple(
            FusionLayer(l["input_a"], l["input_b"], l["output_level"])
            for l in doc["layers"]
        )
        return FusionSpec(
            layers=layers,
            channels=doc.get("channels", 128),
            heads_at=frozenset(doc["heads_at"]),
        )
    except KeyError as exc:
        raise SchemaError(f"fusion.{exc.args[0]}", "missing field") from exc


def blend_from_json(doc: dict) -> BlendParamSet:
    """Read a `blend --params` document. A `locality_sigma` of "inf"
    (strict JSON has no infinity) means no locality weighting."""
    try:
        per_level = {}
        if type(doc["per_level"]) is not dict:
            raise SchemaError("blend.per_level", "need an object")
        for lvl, p in doc["per_level"].items():
            scalars = {key: p[key] for key in ("alpha1", "beta1", "alpha2")}
            _check_numbers(
                f"blend.per_level.{lvl}", scalars, "center", p["center"], _NUMBER_TYPES, size=2
            )
            per_level[int(lvl)] = BlendParams(**scalars, center=tuple(p["center"]))
        sigma = doc["locality_sigma"]
        return BlendParamSet(
            per_level=per_level,
            score_threshold=doc["score_threshold"],
            group_distance=doc["group_distance"],
            locality_sigma=math.inf if sigma == "inf" else float(sigma),
        )
    except KeyError as exc:
        raise SchemaError(f"blend.{exc.args[0]}", "missing field") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError("blend", str(exc)) from exc


def arch_to_json(arch: ArchEncoding) -> dict:
    return {
        "version": FORMAT_VERSION,
        "backbone": serialize_backbone(arch.backbone),
        "fusion": fusion_to_json(arch.fusion),
    }


def arch_from_json(doc: dict) -> ArchEncoding:
    try:
        backbone = parse_backbone(doc["backbone"])
        fusion = fusion_from_json(doc["fusion"])
    except KeyError as exc:
        raise SchemaError(exc.args[0], "missing field") from exc
    return ArchEncoding(backbone=backbone, fusion=fusion)


# ---------------------------------------------------------------------------
# proposal dumps: JSON-lines, one scene per line

def _cell_to_json(c: GridCell) -> dict:
    return {
        "cx": c.center[0],
        "cy": c.center[1],
        "score": c.score,
        "offsets": [o for o in c.offsets],
        "end_y": c.end_y,
    }


_NUMBER_TYPES = frozenset({int, float})
_NUMBER_OR_NULL_TYPES = _NUMBER_TYPES | {type(None)}
_OBJECT_TYPES = frozenset({dict})


def _check_numbers(path, scalars, list_name, values, value_types, size=None):
    """Check in one pass that every value of `scalars` (a name -> value
    dict) is a JSON number and that `values` is a JSON list (named
    `list_name`, of length `size` when given) whose entries have types in
    `value_types`. Only a failing object is searched for the field to
    name in the SchemaError. JSON booleans are not numbers."""
    if (
        set(map(type, scalars.values())) <= _NUMBER_TYPES
        and type(values) is list
        and set(map(type, values)) <= value_types
        and (size is None or len(values) == size)
    ):
        return
    for name, value in scalars.items():
        if type(value) not in _NUMBER_TYPES:
            raise SchemaError(f"{path}.{name}", f"{value!r} is not a number")
    if type(values) is not list or (size is not None and len(values) != size):
        need = f"a list of length {size}" if size is not None else "a list"
        raise SchemaError(f"{path}.{list_name}", f"need {need}")
    for i, value in enumerate(values):
        if type(value) not in value_types:
            raise SchemaError(
                f"{path}.{list_name}[{i}]", f"{value!r} has wrong type {type(value).__name__}"
            )


def _checked(path, make, **fields):
    """`make(**fields)`, a value it rejects reported at JSON path `path`."""
    try:
        return make(**fields)
    except (TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc


def _cell_from_json(doc, path, num_rows):
    for key in ("cx", "cy", "score", "offsets", "end_y"):
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing field")
    # one offset (or null) per anchor row
    _check_numbers(
        path,
        {"cx": doc["cx"], "cy": doc["cy"], "score": doc["score"], "end_y": doc["end_y"]},
        "offsets", doc["offsets"], _NUMBER_OR_NULL_TYPES, size=num_rows,
    )
    return _checked(
        f"{path}.score", GridCell,
        center=(doc["cx"], doc["cy"]),
        score=doc["score"],
        offsets=tuple(doc["offsets"]),
        end_y=doc["end_y"],
    )


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
                "cells": [_cell_to_json(c) for c in h.cells],
            }
            for h in proposals.heads
        ],
    }


def proposals_from_json(doc: dict):
    if type(doc) is not dict:
        raise SchemaError("scene", "need an object")
    if doc.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise VersionError(f"unsupported proposals version {doc.get('version')}")
    try:
        if type(doc["layout"]) is not dict:
            raise SchemaError("layout", "need an object")
        image_size = doc["layout"]["image_size"]
        rows = doc["layout"]["rows"]
    except KeyError as exc:
        raise SchemaError(f"layout.{exc.args[0]}", "missing field") from exc
    _check_numbers("layout", {}, "image_size", image_size, _NUMBER_TYPES, size=2)
    _check_numbers("layout", {}, "rows", rows, _NUMBER_TYPES)
    layout = _checked(
        "layout.rows", AnchorLayout, image_size=tuple(image_size), rows=tuple(rows)
    )
    heads_doc = doc.get("heads", [])
    if type(heads_doc) is not list:
        raise SchemaError("heads", "need a list")
    heads = []
    for hi, h in enumerate(heads_doc):
        if type(h) is not dict:
            raise SchemaError(f"heads[{hi}]", "need an object")
        for key in ("level", "grid_w", "grid_h", "cells"):
            if key not in h:
                raise SchemaError(f"heads[{hi}].{key}", "missing field")
        _check_numbers(
            f"heads[{hi}]", {"level": h["level"], "grid_w": h["grid_w"], "grid_h": h["grid_h"]},
            "cells", h["cells"], _OBJECT_TYPES,
        )
        cells = tuple(
            _cell_from_json(c, f"heads[{hi}].cells[{ci}]", len(layout.rows))
            for ci, c in enumerate(h["cells"])
        )
        heads.append(_checked(
            f"heads[{hi}].cells", HeadGrid,
            level=h["level"], grid_w=h["grid_w"], grid_h=h["grid_h"], cells=cells,
        ))
    return doc.get("image_id", ""), LaneProposalSet(layout=layout, heads=tuple(heads))


def write_proposals(path, scenes):
    """scenes: iterable of (image_id, LaneProposalSet)."""
    with open(path, "w") as fh:
        for image_id, proposals in scenes:
            fh.write(json.dumps(proposals_to_json(image_id, proposals)) + "\n")


def read_proposals(path):
    """Stream (image_id, LaneProposalSet) pairs without loading the file."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield proposals_from_json(json.loads(line))


# ---------------------------------------------------------------------------
# evaluator wire protocol: newline-delimited JSON over child stdio

def eval_request_to_json(eval_id, arch: ArchEncoding, resolution) -> dict:
    return {
        "version": FORMAT_VERSION,
        "eval_id": eval_id,
        "arch": arch_to_json(arch),
        "resolution": list(resolution),
    }


def eval_response_from_json(doc: dict, expect_eval_id=None):
    """Validated (eval_id, score, diagnostics)."""
    if "eval_id" not in doc or "score" not in doc:
        missing = "eval_id" if "eval_id" not in doc else "score"
        raise SchemaError(missing, "missing field")
    score = doc["score"]
    if not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
        raise SchemaError("score", f"{score!r} not a number in [0, 1]")
    if expect_eval_id is not None and doc["eval_id"] != expect_eval_id:
        raise SchemaError("eval_id", f"expected {expect_eval_id}, got {doc['eval_id']}")
    return doc["eval_id"], float(score), doc.get("diagnostics")


# ---------------------------------------------------------------------------
# archive snapshots

def _atomic_write(path, text):
    """Replace `path` by a temporary file renamed over it. The temporary
    file gets the mode `open()` would give (0o666 less the umask)."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".snapshot-{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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

    for key in ("eval_id", "arch", "flops", "score"):
        if key not in doc:
            eid = doc.get("eval_id", "<unknown>")
            raise SchemaError(f"candidate[{eid}].{key}", "missing field")
    return Candidate(
        arch=arch_from_json(doc["arch"]),
        flops=doc["flops"],
        score=doc["score"],
        eval_id=doc["eval_id"],
        parent=doc.get("parent"),
        birth_step=doc.get("birth_step", 0),
        error=doc.get("error"),
    )


def snapshot_archive(archive, history_lines, path):
    """Write `archive.json`: the front members plus the history, one
    candidate per line. `history_lines` are the `candidate_line` texts of
    `archive.history`, already encoded once for `history.jsonl`; a front
    member's line is taken from them by `eval_id`, so a snapshot costs
    the size of the file, not a re-encoding of the run."""
    line_of = {c.eval_id: line for c, line in zip(archive.history, history_lines)}
    members = ",\n".join(line_of[c.eval_id] for c in archive.members)
    history = ",\n".join(history_lines)
    _atomic_write(
        path,
        f'{{"history": [\n{history}\n],\n"members": [\n{members}\n],\n'
        f'"version": {FORMAT_VERSION}}}\n',
    )


def load_archive(path):
    from .search_engine import ParetoArchive

    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != FORMAT_VERSION:
        raise VersionError(f"unsupported archive version {doc.get('version')}")
    archive = ParetoArchive()
    for entry in doc.get("history", []):
        archive.insert(candidate_from_json(entry))
    return archive


def export_front_csv(archive, path):
    """Final front export: eval_id, encoding, flops, score."""
    rows = sorted(archive.members, key=lambda c: c.flops)
    with open(path, "w") as fh:
        fh.write("eval_id,encoding,flops,score\n")
        for c in rows:
            fh.write(
                f"{c.eval_id},{serialize_backbone(c.arch.backbone)},{c.flops},{c.score}\n"
            )
