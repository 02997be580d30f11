import hashlib
import inspect
import json
import math
import os
import shutil
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lanenas import data_io
from lanenas.cli import MAX_SIDE, build_parser, main
from lanenas.cost_model import candidate_cost
from lanenas.metrics import match_and_score, tusimple_counts
from lanenas.search_engine import ExternalEvaluator, SearchConfig
from lanenas.synth import SynthSceneConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_history(out_dir):
    with open(out_dir / "history.jsonl") as fh:
        return [json.loads(line) for line in fh]


def export(capsys, archive, out):
    return run(capsys, "pareto-export", "--archive", str(archive), "--out", str(out))


def brute_force_front(entries):
    """eval_ids of the scored entries no other scored entry dominates."""
    scored = [(e["eval_id"], e["flops"], e["score"]) for e in entries
              if e["score"] is not None]
    return {
        i for i, f, s in scored
        if not any(g <= f and t >= s and (g < f or t > s) for _, g, t in scored)
    }


# one level's identity mask parameters
LEVEL = {"alpha1": 0.0, "beta1": 0.0, "alpha2": 0.0, "center": [0, 0]}


def write_params(path, **fields):
    """A `blend --params` file: identity masks on levels 1 and 2, and
    grouping wide enough to blend the noisy synthetic lanes."""
    identity = {"alpha1": 0.0, "beta1": 0.0, "alpha2": 0.0, "center": [0, 0]}
    doc = {
        "per_level": {"1": identity, "2": identity},
        "score_threshold": 0.3,
        "group_distance": 60.0,
        "locality_sigma": 60.0,
        **fields,
    }
    path.write_text(json.dumps(doc))
    return str(path)


def gen_synth(capsys, out_dir, *argv):
    code, out, _ = run(capsys, "gen-synth", "--out", str(out_dir), *argv, "--json")
    assert code == 0
    return json.loads(out)


def traced_peak(capsys, *argv):
    """Exit code, stdout and tracemalloc peak of one command."""
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        return code, out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dir_digest(path):
    """sha256 over a directory's file names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\n")
        h.update((path / name).read_bytes())
    return h.hexdigest()


# each edit to a well-formed proposals document, and the JSON path the
# error names
MALFORMED_PROPOSALS = {
    "short offsets": (lambda doc: doc["heads"][0]["cells"][0]["offsets"].pop(),
                      "heads[0].cells[0].offsets"),
    "long offsets": (lambda doc: doc["heads"][0]["cells"][0]["offsets"].append(0.0),
                     "heads[0].cells[0].offsets"),
    "score above 1": (lambda doc: doc["heads"][0]["cells"][0].update(score=1.5),
                      "heads[0].cells[0].score"),
    "rows not increasing": (lambda doc: doc["layout"]["rows"].reverse(), "layout.rows"),
    "grid size mismatch": (lambda doc: doc["heads"][0].update(grid_w=doc["heads"][0]["grid_w"] + 1),
                           "heads[0].cells"),
    # non-numeric values; the score is raised so the cell is decoded
    "offset not a number": (lambda doc: doc["heads"][0]["cells"][0].update(
        score=0.9, offsets=["a"] + doc["heads"][0]["cells"][0]["offsets"][1:]),
        "heads[0].cells[0].offsets[0]"),
    "end_y not a number": (lambda doc: doc["heads"][0]["cells"][0].update(score=0.9, end_y="top"),
                           "heads[0].cells[0].end_y"),
    "cx not a number": (lambda doc: doc["heads"][0]["cells"][0].update(score=0.9, cx="a"),
                        "heads[0].cells[0].cx"),
    "image_size one value": (lambda doc: doc["layout"].update(image_size=[512]),
                             "layout.image_size"),
    "level not a number": (lambda doc: doc["heads"][0].update(level="x"), "heads[0].level"),
    # grid fields are JSON integers, the sides non-negative
    "level not an integer": (lambda doc: doc["heads"][0].update(level=1.5), "heads[0].level"),
    "grid_w not an integer": (lambda doc: doc["heads"][0].update(
        grid_w=doc["heads"][0]["grid_w"] / 2, grid_h=2.0), "heads[0].grid_w"),
    "grid_h not an integer": (lambda doc: doc["heads"][0].update(grid_h=1.0), "heads[0].grid_h"),
    "negative grid sides": (lambda doc: doc["heads"][0].update(
        grid_w=-doc["heads"][0]["grid_w"], grid_h=-1), "heads[0].grid_w"),
    "cell not an object": (lambda doc: doc["heads"][0]["cells"].__setitem__(0, 5),
                           "heads[0].cells[0]"),
    # structure: objects and lists where the format needs them
    "layout not an object": (lambda doc: doc.update(layout=5), "layout"),
    "rows not a list": (lambda doc: doc["layout"].update(rows=5), "layout.rows"),
    "heads not a list": (lambda doc: doc.update(heads=5), "heads"),
    "head not an object": (lambda doc: doc["heads"].__setitem__(0, 5), "heads[0]"),
    # numbers must be finite
    "cx NaN": (lambda doc: doc["heads"][0]["cells"][0].update(cx=math.nan),
               "heads[0].cells[0].cx"),
    "offset Infinity": (lambda doc: doc["heads"][0]["cells"][0]["offsets"].__setitem__(
        40, math.inf), "heads[0].cells[0].offsets[40]"),
    # JSON integers no float can hold
    "cx too large for a float": (lambda doc: doc["heads"][0]["cells"][0].update(score=0.9, cx=10**400),
                                 "heads[0].cells"),
    "row too large for a float": (lambda doc: doc["layout"]["rows"].__setitem__(-1, 10**400),
                                  "layout.rows"),
}


# edits to a well-formed archive.json (at its second candidate, e000001)
# and fusion spec, and the place each error names after the file
MALFORMED_ARCHIVES = {
    "flops a string": (lambda doc: doc["history"][1].update(flops="12"),
                       "history[1]: candidate[e000001].flops"),
    "score a string": (lambda doc: doc["history"][1].update(score="0.5"),
                       "history[1]: candidate[e000001].score"),
    "score NaN": (lambda doc: doc["history"][1].update(score=math.nan),
                  "history[1]: candidate[e000001].score"),
    "history not a list": (lambda doc: doc.update(history=5), "history"),
    "entry not an object": (lambda doc: doc["history"].__setitem__(1, 5), "history[1]"),
    "heads_at not a list": (lambda doc: doc["history"][1]["arch"]["fusion"].update(heads_at=5),
                            "history[1]: candidate[e000001].arch.fusion.heads_at"),
    "backbone not a string": (lambda doc: doc["history"][1]["arch"].update(backbone=5),
                              "history[1]: candidate[e000001].arch.backbone"),
    "arch not an object": (lambda doc: doc["history"][1].update(arch=5),
                           "history[1]: candidate[e000001].arch"),
}
MALFORMED_FUSIONS = {
    "layers not a list": (lambda doc: doc.update(layers=5), "fusion.layers"),
    "level a string": (lambda doc: doc["layers"][0].update(input_a="1"),
                       "fusion.layers[0].input_a"),
    "heads_at not a list": (lambda doc: doc.update(heads_at=3), "fusion.heads_at"),
    "channels a string": (lambda doc: doc.update(channels="x"), "fusion.channels"),
}


class TestParseArch:
    def test_paper_string_json(self, capsys):
        code, out, _ = run(capsys, "parse-arch", "BB_64_13_[5,9]_[7,12]", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["base_channels"] == 64
        assert doc["downsample_at"] == [5, 9]

    def test_paper_string_text(self, capsys):
        code, out, _ = run(capsys, "parse-arch", "BB_64_13_[5,9]_[7,12]")
        assert code == 0
        assert out == ("encoding: BB_64_13_[5,9]_[7,12]\n"
                       "block_kind: bottleneck\n"
                       "base_channels: 64\n"
                       "num_blocks: 13\n"
                       "downsample_at: [5, 9]\n"
                       "double_channels_at: [7, 12]\n"
                       "num_stages: 3\n")

    def test_malformed_is_data_error(self, capsys):
        code, _, err = run(capsys, "parse-arch", "BB_64_13")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("digit", ["²", "٩"])
    def test_non_ascii_digit_is_a_data_error(self, capsys, digit):
        code, out, err = run(capsys, "parse-arch", f"BB_64_13_[5,{digit}]_[7,12]")
        assert (code, out) == (2, "")
        assert err == f"error: non-integer {digit!r} in downsample list\n"

    def test_constraint_violation(self, capsys):
        code, _, err = run(capsys, "parse-arch", "BB_50_13_[5,9]_[7,12]")
        assert code == 2
        assert "base_channels" in err

    def test_one_index_per_list_is_a_data_error(self, capsys):
        code, out, err = run(capsys, "parse-arch", "BB_64_13_[5]_[7]")
        assert (code, out) == (2, "")
        assert err == "error: downsample_at: length 1 not in {2, 3}\n"


class TestUsage:
    @pytest.fixture(scope="class")
    def lanes_dir(self, tmp_path_factory):
        """Ground-truth `.lines.txt` files, to evaluate against themselves."""
        out = tmp_path_factory.mktemp("corpus")
        assert main(["gen-synth", "--out", str(out), "--num-scenes", "2"]) == 0
        return str(out / "gt")

    @pytest.mark.parametrize("flags", [
        ["cost", "BB_64_13_[5,9]_[7,12]", "--resolution", "0x288"],
        ["cost", "BB_64_13_[5,9]_[7,12]", "--resolution", "512x-288"],
        ["cost", "BB_64_13_[5,9]_[7,12]", "--resolution", "abc"],
        ["eval-f1", "--width", "0"],
        ["eval-f1", "--width", "-30"],
        ["eval-f1", "--canvas", "0x0"],
        ["eval-f1", "--canvas", "512x0"],
        ["eval-f1", "--iou", "2"],
        ["eval-f1", "--iou", "1"],
        ["eval-f1", "--iou", "-0.5"],
        ["eval-f1", "--iou", "nan"],
        ["eval-tusimple", "--tolerance", "-5"],
        ["eval-tusimple", "--tolerance", "0"],
        ["eval-tusimple", "--tolerance", "nan"],
        ["search", "--workers", "0"],
        ["search", "--workers", "-3"],
        ["search", "--budget", "-5"],
        ["search", "--init-population", "-1"],
        ["search", "--timeout", "-1"],
        ["search", "--timeout", "0"],
        ["search", "--timeout", "nan"],
        ["search", "--timeout", "inf"],
    ], ids=lambda flags: " ".join(flags[-2:]))
    def test_out_of_range_flags_are_usage_errors(self, capsys, tmp_path, lanes_dir, flags):
        if flags[0].startswith("eval-"):
            flags = flags + ["--pred", lanes_dir, "--gt", lanes_dir]
        if flags[0] == "search":
            flags = flags + ["--out", str(tmp_path / "run")]
        code, out, err = run(capsys, *flags)
        assert code == 1
        assert "usage error" in err and out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags", [
        ["--iou", "0"], ["--width", "1"], ["--canvas", "1x1"],
        ["--width", str(int(sys.float_info.max))], ["--canvas", f"{MAX_SIDE}x{MAX_SIDE}"],
    ])
    def test_eval_f1_flag_bounds_are_accepted(self, capsys, lanes_dir, flags):
        assert run(capsys, "eval-f1", "--pred", lanes_dir, "--gt", lanes_dir, *flags)[0] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--width", str(10**400)),
        ("--width", str(int(sys.float_info.max) + 1)),
        ("--canvas", "100000000000000000000x32"),
        ("--canvas", f"{MAX_SIDE + 1}x32"),
        ("--canvas", f"32x{MAX_SIDE + 1}"),
        ("--resolution", f"{10**400}x288"),
        ("--resolution", f"512x{MAX_SIDE + 1}"),
    ], ids=["width 1e400", "width above float max", "canvas 1e20", "canvas w above max",
            "canvas h above max", "resolution 1e400", "resolution h above max"])
    def test_sizes_beyond_their_bound_are_usage_errors(self, capsys, lanes_dir, flag, value):
        """A `--width` that is no finite float, or a `--resolution` or
        `--canvas` side above `MAX_SIDE`, is refused before any output."""
        command = (["cost", "BB_64_13_[5,9]_[7,12]"] if flag == "--resolution"
                   else ["eval-f1", "--pred", lanes_dir, "--gt", lanes_dir])
        code, out, err = run(capsys, *command, flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and flag in err.splitlines()[0]

    def test_resolution_side_bound_is_accepted(self, capsys):
        code, out, _ = run(capsys, "cost", "BB_64_13_[5,9]_[7,12]",
                           "--resolution", f"{MAX_SIDE}x{MAX_SIDE}", "--json")
        assert code == 0
        assert json.loads(out)["input_resolution"] == [MAX_SIDE, MAX_SIDE]

    def test_flag_defaults_are_the_defaults_they_stand_for(self):
        parser = build_parser()
        search = parser.parse_args(["search", "--out", "run"])
        assert SearchConfig(budget=search.budget, init_population=search.init_population,
                            workers=search.workers, seed=search.seed) == SearchConfig()
        assert search.timeout == inspect.signature(ExternalEvaluator).parameters["timeout"].default
        corpus = parser.parse_args(["gen-synth", "--out", "corpus"])
        assert SynthSceneConfig(num_scenes=corpus.num_scenes, remote_noise_sigma=corpus.noise,
                                lanes_per_scene=corpus.lanes, seed=corpus.seed) == SynthSceneConfig()
        tusimple = parser.parse_args(["eval-tusimple", "--pred", "p", "--gt", "g"])
        assert tusimple.tolerance == \
            inspect.signature(tusimple_counts).parameters["x_tolerance"].default
        f1 = parser.parse_args(["eval-f1", "--pred", "p", "--gt", "g"])
        scoring = inspect.signature(match_and_score).parameters
        assert (f1.iou, f1.width, f1.canvas) == (
            scoring["iou_threshold"].default, scoring["width"].default,
            "{}x{}".format(*scoring["canvas"].default))
        cost = parser.parse_args(["cost", "BB_64_13_[5,9]_[7,12]"])
        assert cost.resolution == "{}x{}".format(
            *inspect.signature(candidate_cost).parameters["resolution"].default)

    def test_search_flag_bounds_are_accepted(self, capsys, tmp_path):
        code, out, _ = run(capsys, "search", "--workers", "1", "--budget", "0",
                           "--init-population", "0", "--timeout", "0.5",
                           "--out", str(tmp_path / "run"), "--json")
        assert code == 0
        assert json.loads(out)["evaluations"] == 0

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == 1
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "search")
        assert code == 1

    def test_closed_stdout_pipe_exits_0(self, monkeypatch):
        """A reader that closes the pipe early, `| head` say, ends the
        command quietly."""
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["space-size"]) == 0


class TestCost:
    def test_json_totals_consistent(self, capsys):
        code, out, _ = run(capsys, "cost", "BB_64_13_[5,9]_[7,12]", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_flops"] == sum(c["flops"] for c in doc["per_component"])
        assert doc["total_params"] > 0

    def test_resolution_flag(self, capsys):
        _, small, _ = run(capsys, "cost", "RB_48_10_[3,6]_[4,7]",
                          "--resolution", "256x144", "--json")
        _, large, _ = run(capsys, "cost", "RB_48_10_[3,6]_[4,7]",
                          "--resolution", "512x288", "--json")
        assert json.loads(large)["total_flops"] > json.loads(small)["total_flops"]


class TestSpaceSize:
    def test_reports_counts_and_assumptions(self, capsys):
        code, out, _ = run(capsys, "space-size", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["backbone_count"] > 10**9
        assert doc["fusion_count"] == 61440
        assert doc["assumptions"]

    def test_text_output_reports_the_json_counts(self, capsys):
        doc = json.loads(run(capsys, "space-size", "--json")[1])
        code, out, _ = run(capsys, "space-size")
        assert code == 0
        assert out == (f"backbone genomes: {doc['backbone_count']:,}\n"
                       "fusion genomes:   61,440\n"
                       "assumptions:\n"
                       + "".join(f"  - {a}\n" for a in doc["assumptions"]))


class TestPipeline:
    def test_blend_out_file_holds_the_json_document(self, tmp_path, capsys):
        proposals = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "3")["proposals"]
        out_file = tmp_path / "lanes.json"
        code, out, _ = run(capsys, "blend", "--proposals", proposals, "--out", str(out_file))
        assert (code, out) == (0, "3 scenes, 6 lanes\n")
        code, printed, _ = run(capsys, "blend", "--proposals", proposals, "--json")
        assert code == 0
        assert out_file.read_text() + "\n" == printed

    def test_eval_f1_gt_dir_without_lane_files_is_a_data_error(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        (gt / "notes.txt").write_text("no lanes here\n")
        code, out, err = run(capsys, "eval-f1", "--pred", str(tmp_path), "--gt", str(gt))
        assert (code, out, err) == (2, "", f"error: no .lines.txt files under {gt}\n")

    def test_eval_tusimple_text_reports_the_json_counts(self, tmp_path, capsys):
        gt = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "2")["gt_dir"]
        doc = json.loads(run(capsys, "eval-tusimple", "--pred", gt, "--gt", gt, "--json")[1])
        code, out, _ = run(capsys, "eval-tusimple", "--pred", gt, "--gt", gt)
        assert code == 0 and doc["gt_points"] > 0
        assert out == f"accuracy 1.0000 ({doc['gt_points']}/{doc['gt_points']})\n"

    @pytest.mark.parametrize("width", ["30", str(10**160)])
    def test_subnormal_x_gap_is_scored_without_warning(self, tmp_path, capsys, width):
        """A lane whose x gap is subnormal, scored at the default width or
        at one whose square overflows, gives F1 1 against itself."""
        lanes = tmp_path / "lanes"
        lanes.mkdir()
        (lanes / "a.lines.txt").write_text("0 10 5e-324 200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval-f1", "--pred", str(lanes), "--gt", str(lanes),
                                 "--canvas", "64x32", "--width", width)
        assert (code, out, err, caught) == (
            0, "F1 1.0000 (P 1.0000, R 1.0000, tp 1, fp 0, fn 0)\n", "", [])

    def test_gen_blend_eval(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        code, out, _ = run(capsys, "gen-synth", "--out", str(out_dir),
                           "--num-scenes", "6", "--noise", "0", "--seed", "3", "--json")
        assert code == 0
        doc = json.loads(out)

        pred_dir = tmp_path / "pred"
        code, _, _ = run(capsys, "blend", "--proposals", doc["proposals"],
                         "--plain-nms", "--culane-out", str(pred_dir))
        assert code == 0

        code, out, _ = run(capsys, "eval-f1", "--pred", str(pred_dir),
                           "--gt", doc["gt_dir"], "--canvas", "512x288", "--json")
        assert code == 0
        assert json.loads(out)["f1"] == 1.0

        code, out, _ = run(capsys, "eval-tusimple", "--pred", str(pred_dir),
                           "--gt", doc["gt_dir"], "--json")
        assert code == 0
        assert json.loads(out)["accuracy"] == 1.0

    def test_blend_without_a_document_streams_its_scenes(self, tmp_path, capsys):
        """With `--culane-out` alone, `blend` keeps no scene's lanes after
        writing them: its traced peak does not grow with the corpus."""
        peaks = []
        for n in (8, 96):
            doc = gen_synth(capsys, tmp_path / f"c{n}", "--num-scenes", str(n), "--seed", "1")
            code, out, peak = traced_peak(capsys, "blend", "--proposals", doc["proposals"],
                                          "--culane-out", str(tmp_path / f"pred{n}"))
            peaks.append(peak)
            assert code == 0
            assert out.startswith(f"{n} scenes, ")
            assert len(os.listdir(tmp_path / f"pred{n}")) == n
        assert peaks[1] < 1.5 * peaks[0]

    def test_gen_synth_streams_its_scenes(self, tmp_path, capsys):
        """`gen-synth` writes each scene as it is generated: its traced
        peak does not grow with the corpus."""
        peaks = []
        for n in (8, 96):
            out_dir = tmp_path / f"c{n}"
            code, out, peak = traced_peak(capsys, "gen-synth", "--out", str(out_dir),
                                          "--num-scenes", str(n), "--seed", "1", "--json")
            peaks.append(peak)
            assert code == 0
            assert json.loads(out)["scenes"] == n
            assert len(os.listdir(out_dir / "gt")) == n
            assert len((out_dir / "proposals.jsonl").read_text().splitlines()) == n
        assert peaks[1] < 1.5 * peaks[0]

    def test_eval_f1_streams_its_scenes(self, tmp_path, capsys):
        """`eval-f1` scores each pair of files as it reads them: its traced
        peak does not grow with the corpus."""
        peaks = []
        for n in (8, 96):
            doc = gen_synth(capsys, tmp_path / f"c{n}", "--num-scenes", str(n), "--seed", "1")
            code, out, peak = traced_peak(capsys, "eval-f1", "--pred", doc["gt_dir"],
                                          "--gt", doc["gt_dir"], "--canvas", "512x288",
                                          "--json")
            peaks.append(peak)
            assert code == 0
            doc = json.loads(out)
            assert (doc["scenes"], doc["tp"], doc["fp"]) == (n, 2 * n, 0)
        assert peaks[1] < 1.5 * peaks[0]

    def test_eval_f1_missing_pred_file(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        (gt / "scene.lines.txt").write_text("1 2 3 4\n")
        pred = tmp_path / "pred"
        pred.mkdir()
        code, _, err = run(capsys, "eval-f1", "--pred", str(pred), "--gt", str(gt))
        assert code == 2
        assert "scene.lines.txt" in err

    def test_one_process_commands_load_no_subprocess_or_thread_pool(self, tmp_path):
        """`subprocess` and `concurrent.futures` are imported only where an
        `exec:` evaluator or `--workers` above 1 uses them. Checked in a
        fresh interpreter, since pytest itself loads `subprocess`."""
        import subprocess
        import sys

        import lanenas

        corpus, pred = tmp_path / "corpus", tmp_path / "pred"
        commands = [
            ["search", "--budget", "3", "--init-population", "2", "--workers", "1",
             "--out", str(tmp_path / "run")],
            ["gen-synth", "--num-scenes", "2", "--out", str(corpus)],
            ["blend", "--proposals", str(corpus / "proposals.jsonl"), "--culane-out", str(pred)],
            ["eval-f1", "--pred", str(pred), "--gt", str(corpus / "gt")],
        ]
        script = (
            "import json, sys\n"
            "from lanenas.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "print(json.dumps([codes, sorted({'subprocess', 'concurrent.futures'}"
            " & set(sys.modules))]))\n"
        )
        src = os.path.dirname(os.path.dirname(lanenas.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0]
        assert loaded == []

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["search", "gen-synth", "blend"])
    def test_output_path_that_cannot_be_made_is_a_data_error(
        self, tmp_path, capsys, command, under
    ):
        """An output directory that is an existing file, or lies under
        one, exits 2 and names the path."""
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / "sub" if under else blocker
        argv = {
            "search": ["search", "--budget", "2", "--init-population", "2", "--out", str(out)],
            "gen-synth": ["gen-synth", "--num-scenes", "2", "--out", str(out)],
            "blend": ["blend", "--culane-out", str(out)],
        }[command]
        if command == "blend":
            argv += ["--proposals",
                     gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "2")["proposals"]]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and str(out) in err
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["eval-f1", "eval-tusimple"])
    def test_lane_file_error_names_the_file(self, tmp_path, capsys, command):
        doc = gen_synth(capsys, tmp_path / "c", "--num-scenes", "3", "--seed", "1")
        pred = tmp_path / "pred"
        shutil.copytree(doc["gt_dir"], pred)
        bad = sorted(pred.iterdir())[2]
        bad.write_text("1.0 2.0 3.0\n")
        code, _, err = run(capsys, command, "--pred", str(pred), "--gt", doc["gt_dir"])
        assert code == 2
        assert err == f"error: {bad}: line 1: token '3.0': odd token count\n"

    @pytest.mark.parametrize("command", ["eval-f1", "eval-tusimple"])
    def test_lane_with_one_point_left_names_the_file(self, tmp_path, capsys, command):
        """A lane left with fewer than 2 points once negative-x points are
        dropped is an error naming the file and line, not the metric's."""
        doc = gen_synth(capsys, tmp_path / "c", "--num-scenes", "2", "--seed", "1")
        pred = tmp_path / "pred"
        shutil.copytree(doc["gt_dir"], pred)
        bad = sorted(pred.iterdir())[1]
        bad.write_text(bad.read_text() + "10 5 -1 20\n")
        line_no = len(bad.read_text().splitlines())
        code, out, err = run(capsys, command, "--pred", str(pred), "--gt", doc["gt_dir"])
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}: line {line_no}: token '10 5 -1 20': "
                       "1 point(s) with x >= 0, need 2\n")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda line: line[: line.index('"heads": ') + 9],
                     "not JSON: Expecting value", id="cut short"),
        pytest.param(lambda line: line.replace('"score": ', '"score": 2.0, "x": ', 1),
                     "heads[0].cells[0].score: need a number in [0, 1], got 2.0",
                     id="score above 1"),
        pytest.param(lambda line: line.replace('"image_id": ', '"image_id": "a", "image_id": ', 1),
                     "not JSON: repeated key 'image_id'", id="repeated key"),
    ])
    def test_proposals_error_names_the_file_and_line(self, tmp_path, capsys, edit, message):
        """A malformed third scene stops `blend` after the first two, with
        an error naming the proposals file and its line 3."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "3")
        with open(doc["proposals"]) as fh:
            lines = fh.read().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(line + "\n" for line in [*lines[:2], edit(lines[2])]))
        pred = tmp_path / "pred"
        code, _, err = run(capsys, "blend", "--proposals", str(bad), "--culane-out", str(pred))
        assert code == 2
        assert err == f"error: {bad}: line 3: {message}\n"
        assert len(list(pred.iterdir())) == 2

    def test_blend_improves_noisy_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "noisy"
        _, out, _ = run(capsys, "gen-synth", "--out", str(out_dir),
                        "--num-scenes", "8", "--noise", "20", "--seed", "5", "--json")
        doc = json.loads(out)
        params = write_params(tmp_path / "params.json")
        f1 = {}
        for mode, extra in (("blend", []), ("plain", ["--plain-nms"])):
            pred = tmp_path / mode
            run(capsys, "blend", "--proposals", doc["proposals"],
                "--params", params, "--culane-out", str(pred), *extra)
            _, out, _ = run(capsys, "eval-f1", "--pred", str(pred),
                            "--gt", doc["gt_dir"], "--canvas", "512x288", "--json")
            f1[mode] = json.loads(out)["f1"]
        assert f1["blend"] > f1["plain"]

    @pytest.mark.parametrize("flags, blend_digest, lines_digest, f1_digest", [
        pytest.param(
            [], "157671a620fd2cb564a857d1628f7a96764324f55b7b531663d69487426ec482",
            "991a9ab6ae3040e00998eab7fdba717502182b39cb51f84a1275b29b6439e368",
            "09980cba12ef0747fc99520495b7d6dc6711fa7bdf00f0f5f7d2f7286acb380b", id="default"),
        pytest.param(
            ["--plain-nms"], "157671a620fd2cb564a857d1628f7a96764324f55b7b531663d69487426ec482",
            "991a9ab6ae3040e00998eab7fdba717502182b39cb51f84a1275b29b6439e368",
            "09980cba12ef0747fc99520495b7d6dc6711fa7bdf00f0f5f7d2f7286acb380b", id="plain-nms"),
        pytest.param(
            ["--params"], "a81f211f23da07992fb27c710582f97af048cc848fb0c551aff2ed9429724707",
            "d7c0dff06b78636693ab6ff216ae6b92cd87af21584708772ca77c29471261a0",
            "5bd7f59a585f9ba79589f0ecf7ab10d7fdf0e443a561d67656dcb464f5bd1d45", id="params"),
    ])
    def test_blend_and_eval_match_golden_digests(
        self, tmp_path, capsys, flags, blend_digest, lines_digest, f1_digest
    ):
        """`blend --json`, its `.lines.txt` files and `eval-f1 --json` are
        byte-identical across code changes. Default grouping leaves every
        lane of this corpus alone, so it reads as plain Line-NMS; the
        params file groups and blends."""
        doc = gen_synth(capsys, tmp_path / "corpus",
                        "--num-scenes", "20", "--noise", "40", "--seed", "5")
        if flags == ["--params"]:
            flags = flags + [write_params(tmp_path / "params.json")]
        pred = tmp_path / "pred"
        code, out, _ = run(capsys, "blend", "--proposals", doc["proposals"],
                           "--culane-out", str(pred), "--json", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == blend_digest
        assert dir_digest(pred) == lines_digest
        code, out, _ = run(capsys, "eval-f1", "--pred", str(pred), "--gt", doc["gt_dir"],
                           "--canvas", "512x288", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == f1_digest

    @pytest.mark.parametrize("flags, proposals_digest, gt_digest", [
        pytest.param(
            ["--num-scenes", "20", "--noise", "40", "--seed", "5"],
            "5610c8e04af099222f2d4c7ae1973bc29bcc7fff64f9430137d36b84bb05378d",
            "b9c71ccd3edce7442a088070804d3bcef8b715ed87cf03262f6ff8d915571370", id="noise-40"),
        pytest.param(
            ["--num-scenes", "5", "--noise", "0", "--lanes", "3", "--seed", "2"],
            "56e314f8a15a6f62fe58ce9bf613115ccfbb7c34b3f773fb90ea43ba31b892ea",
            "5e55cb015e663366ea610a105d5344d989c2f40bbc69d89742ebbd3bc40869c9", id="three-lanes"),
    ])
    def test_gen_synth_matches_golden_digests(
        self, tmp_path, capsys, flags, proposals_digest, gt_digest
    ):
        """`gen-synth`'s `proposals.jsonl` and `gt/` files are
        byte-identical across code changes."""
        doc = gen_synth(capsys, tmp_path / "corpus", *flags)
        proposals = (tmp_path / "corpus" / "proposals.jsonl").read_bytes()
        assert hashlib.sha256(proposals).hexdigest() == proposals_digest
        assert dir_digest(tmp_path / "corpus" / "gt") == gt_digest
        assert doc["scenes"] == int(flags[1])

    def test_integer_coordinates_are_written_as_floats(self, tmp_path, capsys):
        """Proposals whose coordinates are JSON integers: `--json` writes
        every point as floats, and the `.lines.txt` bytes are those
        `:.4f` formatting always gave. The first lane is blended from the
        second cell's points."""
        cells = [
            {"cx": 10, "cy": 40, "score": 0.9, "offsets": [0, 1, 2, None], "end_y": 0},
            {"cx": 12, "cy": 0, "score": 0.5, "offsets": [-1, 0, 1, 3], "end_y": 0},
            {"cx": 40, "cy": 8, "score": 0.7, "offsets": [0, -2, -4, -6], "end_y": 4},
        ]
        scene = {"version": 1, "image_id": "ints",
                 "layout": {"image_size": [64, 48], "rows": [0, 4, 8, 12]},
                 "heads": [{"level": 1, "grid_w": 3, "grid_h": 1, "cells": cells}]}
        proposals = tmp_path / "ints.jsonl"
        proposals.write_text(json.dumps(scene) + "\n")
        params = write_params(tmp_path / "params.json", per_level={},
                              group_distance=20.0, locality_sigma=5.0)
        pred = tmp_path / "pred"
        code, out, _ = run(capsys, "blend", "--proposals", str(proposals), "--params", params,
                           "--culane-out", str(pred), "--json")
        assert code == 0
        lanes = json.loads(out)["scenes"][0]["lanes"]
        assert lanes == [
            {"score": 0.9, "points": [[11.0, 0.0], [12.0, 4.0], [13.0, 8.0]]},
            {"score": 0.7, "points": [[38.0, 4.0], [36.0, 8.0], [34.0, 12.0]]},
        ]
        assert all(type(v) is float for lane in lanes for p in lane["points"] for v in p)
        assert (pred / "ints.lines.txt").read_bytes() == (
            b"11.0000 0.0000 12.0000 4.0000 13.0000 8.0000\n"
            b"38.0000 4.0000 36.0000 8.0000 34.0000 12.0000\n"
        )

    # the two scenes' image_ids (None: no image_id field) and the number
    # of the first scene whose id cannot name its file
    @pytest.mark.parametrize("ids, first", [
        pytest.param([None, None], 0, id="no image_id"),
        pytest.param(["a", "a"], 1, id="repeated"),
        pytest.param(["../escaped", "b"], 0, id="parent dir"),
        pytest.param(["a", "b/c"], 1, id="subdir"),
        pytest.param([".", "b"], 0, id="dot"),
        pytest.param(["..", "b"], 0, id="dot dot"),
        pytest.param(["a", "b\0c"], 1, id="NUL"),
    ])
    def test_culane_out_rejects_ids_that_name_no_file_of_their_own(
        self, tmp_path, capsys, ids, first
    ):
        """With `--culane-out`, an `image_id` names its scene's file: a
        data error names the first one that cannot, before that scene's
        file is written. Without it, the ids are only copied to stdout."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "2", "--noise", "40")
        with open(doc["proposals"]) as fh:
            scenes = [json.loads(line) for line in fh]
        for scene, image_id in zip(scenes, ids):
            if image_id is None:
                del scene["image_id"]
            else:
                scene["image_id"] = image_id
        proposals = tmp_path / "work" / "proposals.jsonl"
        proposals.parent.mkdir()
        proposals.write_text("".join(json.dumps(scene) + "\n" for scene in scenes))
        code, out, _ = run(capsys, "blend", "--proposals", str(proposals), "--json")
        assert code == 0
        assert [s["image_id"] for s in json.loads(out)["scenes"]] == [i or "" for i in ids]

        pred = tmp_path / "work" / "pred"
        code, _, err = run(capsys, "blend", "--proposals", str(proposals),
                           "--culane-out", str(pred))
        reason = ("names an earlier scene's file too" if ids == ["a", "a"]
                  else "cannot name a .lines.txt file")
        assert code == 2
        assert err == (f"error: {proposals}: line {first + 1}: "
                       f"image_id: {ids[first] or ''!r} {reason}\n")
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*.lines.txt") if "corpus" not in p.parts)
        assert written == [f"work/pred/{i}.lines.txt" for i in ids[:first]]
        if ids == ["a", "a"]:  # the first scene's file is left as it was
            alone = tmp_path / "alone.jsonl"
            alone.write_text(json.dumps(scenes[0]) + "\n")
            assert run(capsys, "blend", "--proposals", str(alone),
                       "--culane-out", str(tmp_path / "alone"))[0] == 0
            assert (pred / "a.lines.txt").read_bytes() == (tmp_path / "alone" / "a.lines.txt").read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED_PROPOSALS))
    def test_malformed_proposals_are_data_errors(self, tmp_path, capsys, case):
        edit, path = MALFORMED_PROPOSALS[case]
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        with open(doc["proposals"]) as fh:
            scene = json.loads(fh.readline())
        edit(scene)
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(scene) + "\n")
        code, _, err = run(capsys, "blend", "--proposals", str(bad))
        assert code == 2
        assert f"error: {bad}: line 1: {path}:" in err

    def test_scene_not_an_object_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("5\n")
        code, _, err = run(capsys, "blend", "--proposals", str(bad))
        assert code == 2
        assert err == f"error: {bad}: line 1: need an object, got 5\n"

    @pytest.mark.parametrize("fields, message", [
        pytest.param(fields, message, id=str(fields)) for fields, message in [
            ({"score_threshold": 2.0}, "blend: score_threshold must be in [0, 1]"),
            ({"group_distance": math.nan},
             "blend.group_distance: need a finite number, got nan"),
            ({"locality_sigma": "abc"},
             "blend.locality_sigma: need a finite number or \"inf\", got 'abc'"),
            # level keys are canonical decimal integers: int() alone reads
            # "01" as level 1 (so B would silently replace A) and "1_0" as 10
            ({"per_level": {"1": LEVEL, "01": LEVEL}},
             "blend.per_level.01: need a decimal integer key"),
            ({"per_level": {" 1": LEVEL}}, "blend.per_level. 1: need a decimal integer key"),
            ({"per_level": {"1_0": LEVEL}}, "blend.per_level.1_0: need a decimal integer key"),
            ({"per_level": {"+2": LEVEL}}, "blend.per_level.+2: need a decimal integer key"),
        ]
    ])
    def test_malformed_params_are_data_errors(self, tmp_path, capsys, fields, message):
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        params = write_params(tmp_path / "params.json", **fields)
        code, out, err = run(capsys, "blend", "--proposals", doc["proposals"], "--params", params)
        assert (code, out) == (2, "")
        assert err == f"error: {params}: {message}\n"

    def test_per_level_not_an_object_is_a_data_error(self, tmp_path, capsys):
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        params = write_params(tmp_path / "params.json", per_level=5)
        code, _, err = run(capsys, "blend", "--proposals", doc["proposals"], "--params", params)
        assert code == 2
        assert err == f"error: {params}: blend.per_level: need dict, got 5\n"

    @pytest.mark.parametrize("field,value", [("alpha1", "x"), ("center", [0, "y"])],
                             ids=["alpha1", "center"])
    def test_non_numeric_params_are_data_errors(self, tmp_path, capsys, field, value):
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        level = {"alpha1": 0.0, "beta1": 0.0, "alpha2": 0.0, "center": [0, 0], field: value}
        params = write_params(tmp_path / "params.json", per_level={"1": level, "2": level})
        code, _, err = run(capsys, "blend", "--proposals", doc["proposals"], "--params", params)
        assert code == 2
        assert err.startswith(f"error: {params}: blend.per_level.1.{field}")

    @pytest.mark.parametrize("flags", [
        ["--num-scenes", "0"], ["--lanes", "0"], ["--lanes", "-2"],
        ["--noise", "-1"], ["--noise", "nan"], ["--noise", "inf"], ["--noise", "-inf"],
    ], ids=" ".join)
    def test_gen_synth_bad_values_are_usage_errors(self, tmp_path, capsys, flags):
        code, _, err = run(capsys, "gen-synth", "--out", str(tmp_path / "corpus"), *flags)
        assert code == 1
        assert "usage" in err
        assert not (tmp_path / "corpus").exists()

    def test_gen_synth_noise_that_overflows_is_a_data_error(self, tmp_path, capsys):
        """Remote offsets that overflow to inf are refused as they are
        written, not written as `Infinity`, which no reader accepts."""
        out = tmp_path / "corpus"
        code, stdout, err = run(capsys, "gen-synth", "--out", str(out), "--noise", "1e308")
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {out / 'proposals.jsonl'}: line 1: "
                              "Out of range float values are not JSON compliant")


class TestSchemaErrors:
    """Malformed JSON inputs of every reader exit 2 and name the path."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
    def test_malformed_archive(self, tmp_path, capsys, case):
        edit, path = MALFORMED_ARCHIVES[case]
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "2", "--init-population", "2",
                         "--seed", "0", "--out", str(out_dir))
        assert code == 0
        doc = json.loads((out_dir / "archive.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "pareto-export", "--archive", str(bad),
                           "--out", str(tmp_path / "front.csv"))
        assert code == 2
        assert err.startswith(f"error: {bad}: {path}: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_FUSIONS))
    def test_malformed_fusion(self, tmp_path, capsys, case):
        edit, path = MALFORMED_FUSIONS[case]
        good = tmp_path / "good.json"
        doc = {"layers": [{"input_a": 1, "input_b": 2, "output_level": 1}],
               "channels": 128, "heads_at": [1]}
        good.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "cost", "BB_64_13_[5,9]_[7,12]", "--fusion", str(good))
        assert code == 0
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "cost", "BB_64_13_[5,9]_[7,12]", "--fusion", str(bad))
        assert code == 2
        assert err.startswith(f"error: {bad}: {path}: ")

    def test_non_finite_lane_file(self, tmp_path, capsys):
        """A bad file met after other scenes were scored still exits 2
        with nothing on stdout."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "3")
        pred = tmp_path / "pred"
        pred.mkdir()
        for name in ("synth_00000.lines.txt", "synth_00001.lines.txt"):
            (pred / name).write_bytes((tmp_path / "corpus" / "gt" / name).read_bytes())
        (pred / "synth_00002.lines.txt").write_text("nan 100.0 10.0 200.0\n")
        code, out, err = run(capsys, "eval-f1", "--pred", str(pred), "--gt", doc["gt_dir"])
        assert code == 2
        assert out == ""
        assert err == f"error: {pred / 'synth_00002.lines.txt'}: line 1: token 'nan': not finite\n"

    def test_very_negative_mask_logit(self, tmp_path, capsys):
        """A mask whose logit underflows the sigmoid scores its cells 0."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        level = {"alpha1": -1e300, "beta1": 0.0, "alpha2": 0.0, "center": [0, 0]}
        params = write_params(tmp_path / "params.json", per_level={"1": level, "2": level})
        code, out, _ = run(capsys, "blend", "--proposals", doc["proposals"],
                           "--params", params, "--json")
        assert code == 0
        assert json.loads(out)["scenes"][0]["lanes"] == []

    @pytest.mark.parametrize("level", [
        {"alpha1": 1e308, "beta1": 0.0, "alpha2": -1e308, "center": [0, 0]},
        {"alpha1": 0.0, "beta1": 0.0, "alpha2": 0.001, "center": [1e200, 0]},
    ], ids=["inf-minus-inf", "radial-overflow"])
    def test_overflowing_mask_logit_is_a_data_error(self, tmp_path, capsys, level):
        """Finite coefficients whose logit terms overflow would score
        lanes NaN; the scene's line and the level at fault are named
        instead."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "2")
        params = write_params(tmp_path / "params.json", per_level={"1": level, "2": level},
                              score_threshold=0.0)
        code, out, err = run(capsys, "blend", "--proposals", doc["proposals"],
                             "--params", params, "--json")
        assert code == 2
        assert out == ""
        assert err == (f"error: {doc['proposals']}: line 1: "
                       "blend.per_level.1: mask logit overflows\n")

    def test_identity_mask_takes_no_radial_distance(self, tmp_path, capsys):
        """Without `--params` every level's mask is the identity, whose
        radial weight is 0: a centre far from the origin, whose squared
        distance overflows a float, still masks nothing."""
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        with open(doc["proposals"]) as fh:
            scene = json.loads(fh.readline())
        for head in scene["heads"]:
            for cell in head["cells"]:
                cell["cx"] = 1e200
        far = tmp_path / "far.jsonl"
        far.write_text(json.dumps(scene) + "\n")
        code, out, err = run(capsys, "blend", "--proposals", str(far), "--json")
        assert (code, err) == (0, "")
        lanes = json.loads(out)["scenes"][0]["lanes"]
        assert lanes and {x for lane in lanes for x, _ in lane["points"]} == {1e200}

    @pytest.mark.parametrize("response, path", [
        ("{'eval_id': req['eval_id'], 'score': True}", "response.score"),
        ("5", "response"),
    ], ids=["score-true", "not-an-object"])
    def test_malformed_evaluator_response(self, tmp_path, capsys, response, path):
        """A response that breaks the schema fails its evaluation, and the
        history names the path."""
        import sys

        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            f"print(json.dumps({response}))\n"
        )
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "1", "--init-population", "1",
                         "--seed", "0", "--evaluator", f"exec:{sys.executable} {stub}",
                         "--out", str(out_dir))
        assert code == 0
        history = read_history(out_dir)
        assert len(history) == 2
        for h in history:
            assert h["score"] is None
            assert h["error"].startswith(f"SchemaError: {path}:")


class TestRepeatedKeys:
    """Every JSON reader refuses an object that names a key twice, with
    the error it gives for malformed JSON; `json` alone would keep the
    last value."""

    def test_params_level_repeated(self, tmp_path, capsys):
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        params = write_params(tmp_path / "params.json",
                              per_level={"1": LEVEL, "2": {**LEVEL, "alpha1": -50.0}})
        text = (tmp_path / "params.json").read_text()
        (tmp_path / "params.json").write_text(text.replace('"2": ', '"1": '))
        code, out, err = run(capsys, "blend", "--proposals", doc["proposals"], "--params", params)
        assert (code, out) == (2, "")
        assert err == f"error: {params}: not JSON: repeated key '1'\n"

    def test_fusion_field_repeated(self, tmp_path, capsys):
        fusion = tmp_path / "fusion.json"
        fusion.write_text('{"layers": [{"input_a": 1, "input_b": 2, "output_level": 1}], '
                          '"channels": 128, "channels": 64, "heads_at": [1]}')
        code, _, err = run(capsys, "cost", "BB_64_13_[5,9]_[7,12]", "--fusion", str(fusion))
        assert code == 2
        assert err == f"error: {fusion}: not JSON: repeated key 'channels'\n"

    def test_proposals_field_repeated(self, tmp_path, capsys):
        doc = gen_synth(capsys, tmp_path / "corpus", "--num-scenes", "1")
        with open(doc["proposals"]) as fh:
            line = fh.readline()
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line.replace('"grid_w": ', '"grid_w": 3, "grid_w": ', 1))
        code, _, err = run(capsys, "blend", "--proposals", str(bad))
        assert code == 2
        assert f"error: {bad}: line 1: not JSON: repeated key 'grid_w'" in err

    @pytest.mark.parametrize("name, where", [("archive.json", ""), ("history.jsonl", ": line 1")],
                             ids=["archive.json", "history.jsonl"])
    def test_candidate_field_repeated(self, tmp_path, capsys, name, where):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "1", "--init-population", "1",
                         "--seed", "0", "--out", str(out_dir))
        assert code == 0
        bad = tmp_path / name
        text = (out_dir / name).read_text()
        bad.write_text(text.replace('"score": ', '"score": 0.5, "score": ', 1))
        code, _, err = export(capsys, bad, tmp_path / "front.csv")
        assert code == 2
        assert err == f"error: {bad}{where}: not JSON: repeated key 'score'\n"

    def test_evaluator_response_field_repeated(self, tmp_path, capsys):
        import sys

        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            "print('{\"eval_id\": \"%s\", \"score\": 0.5, \"score\": 0.9}' % req['eval_id'])\n"
        )
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "1", "--init-population", "1",
                         "--seed", "0", "--evaluator", f"exec:{sys.executable} {stub}",
                         "--out", str(out_dir))
        assert code == 0
        history = read_history(out_dir)
        assert len(history) == 2
        for h in history:
            assert h["score"] is None
            assert h["error"] == "SchemaError: response: not JSON: repeated key 'score'"


def _last(old, new):
    """An edit replacing the last `old` of a text by `new`."""
    return lambda data: new.join(data.rsplit(old, 1))


# every reader, as (directory to copy from the inputs, file in it to
# break, whether the file is read line by line, the command's arguments
# given the copy and the inputs, and an edit of the file's broken line
# (its whole text, if not read line by line) that breaks its schema,
# with the reason the error gives)
READERS = {
    "proposals": ("corpus", "proposals.jsonl", True,
                  lambda copy, root: ["blend", "--proposals", str(copy / "proposals.jsonl")],
                  _last(b'"version": 1,', b'"version": 99,'),
                  "version: need format version 1, got 99"),
    "params": (".", "params.json", False,
               lambda copy, root: ["blend", "--proposals", str(root / "corpus/proposals.jsonl"),
                                   "--params", str(copy / "params.json")],
               _last(b'"score_threshold": 0.3', b'"score_threshold": "x"'),
               "blend.score_threshold: need a finite number, got 'x'"),
    "fusion": (".", "fusion.json", False,
               lambda copy, root: ["cost", "BB_64_13_[5,9]_[7,12]",
                                   "--fusion", str(copy / "fusion.json")],
               _last(b'"heads_at": [1]', b'"heads_at": 3'),
               "fusion.heads_at: need a list, got 3"),
    "archive.json": ("run", "archive.json", False,
                     lambda copy, root: ["pareto-export", "--archive", str(copy / "archive.json"),
                                         "--out", str(copy / "front.csv")],
                     _last(b'"version": 1}', b'"version": 99}'),
                     "version: need format version 1, got 99"),
    "history.jsonl": ("run", "history.jsonl", True,
                      lambda copy, root: ["pareto-export", "--archive", str(copy / "history.jsonl"),
                                          "--out", str(copy / "front.csv")],
                      _last(b'"score": ', b'"score": "x", "_": '),
                      "candidate[e000001].score: need a finite number or null, got 'x'"),
    "pred .lines.txt": ("corpus/gt", "synth_00001.lines.txt", True,
                        lambda copy, root: ["eval-f1", "--pred", str(copy),
                                            "--gt", str(root / "corpus/gt")],
                        lambda line: b"1.0 2.0 3.0\n", "token '3.0': odd token count"),
    "gt .lines.txt": ("corpus/gt", "synth_00001.lines.txt", True,
                      lambda copy, root: ["eval-f1", "--pred", str(root / "corpus/gt"),
                                          "--gt", str(copy)],
                      lambda line: b"1.0 2.0 3.0\n", "token '3.0': odd token count"),
}


def _edit_line(data, n, edit):
    """`data` with its line `n` (from 1) passed through `edit`, as bytes."""
    lines = data.splitlines(keepends=True)
    lines[n - 1] = edit(lines[n - 1])
    return b"".join(lines)


# faults found only once an input was read and built, each as the file
# to write and its text (given the inputs), and the command's arguments
# and its whole stderr, given that file and the inputs
FAULTS_AFTER_READING = {
    "fusion does not fit the backbone": (
        "f.json",
        lambda root: json.dumps({"layers": [{"input_a": 1, "input_b": 9, "output_level": 1}],
                                 "heads_at": [1]}),
        lambda bad, root: ["cost", "BB_64_13_[5,9]_[7,12]", "--fusion", str(bad)],
        lambda bad, root: f"error: {bad}: fusion.layers[0].input_b: level 9 outside [1, 3]\n"),
    "fusion channels not positive": (
        "f.json",
        lambda root: json.dumps({"layers": [{"input_a": 1, "input_b": 2, "output_level": 1}],
                                 "channels": 0, "heads_at": [1]}),
        lambda bad, root: ["cost", "BB_64_13_[5,9]_[7,12]", "--fusion", str(bad)],
        lambda bad, root: f"error: {bad}: fusion.channels: must be positive\n"),
    "logged backbone breaks an invariant": (
        "h.jsonl",
        lambda root: "".join(
            json.dumps({**doc, "arch": {**doc["arch"], "backbone": "BB_50_13_[5,9]_[7,12]"}}
                       if doc["eval_id"] == "e000001" else doc) + "\n"
            for doc in map(json.loads, (root / "run/history.jsonl").read_text().splitlines())),
        lambda bad, root: ["pareto-export", "--archive", str(bad),
                           "--out", str(bad.parent / "front.csv")],
        lambda bad, root: f"error: {bad}: line 2: candidate[e000001].arch.backbone: "
                          "base_channels: 50 not in (48, 64, 80, 96, 128)\n"),
    "image_id repeated": (
        "dup.jsonl",
        lambda root: "".join(
            json.dumps({**json.loads(line), "image_id": "synth_00000"}) + "\n"
            for line in (root / "corpus/proposals.jsonl").read_text().splitlines()),
        lambda bad, root: ["blend", "--proposals", str(bad),
                           "--culane-out", str(bad.parent / "pred")],
        lambda bad, root: f"error: {bad}: line 2: image_id: 'synth_00000' names an earlier "
                          "scene's file too\n"),
    "mask logit overflows": (
        "p.json",
        lambda root: json.dumps({**json.loads((root / "params.json").read_text()),
                                 "per_level": {"1": {**LEVEL, "alpha1": 1e308, "alpha2": -1e308}}}),
        lambda bad, root: ["blend", "--proposals", str(root / "corpus/proposals.jsonl"),
                           "--params", str(bad)],
        lambda bad, root: f"error: {root / 'corpus/proposals.jsonl'}: line 1: "
                          "blend.per_level.1: mask logit overflows\n"),
    "decoded x overflows": (
        "p.jsonl",
        lambda root: "".join(
            json.dumps({**scene, "heads": [{**head, "cells": [
                {**cell, "cx": 1.7e308, "offsets": [1.7e308] * len(cell["offsets"]), "end_y": 0.0}
                for cell in head["cells"]]} for head in scene["heads"]]}) + "\n"
            for scene in map(json.loads,
                             (root / "corpus/proposals.jsonl").read_text().splitlines())),
        lambda bad, root: ["blend", "--proposals", str(bad)],
        lambda bad, root: f"error: {bad}: line 1: heads[0].cells[0]: decoded x overflows\n"),
}


class TestDataErrorContract:
    """Every reader refuses malformed JSON (a bad token in a `.lines.txt`
    file), an object naming a key twice, bytes that are not UTF-8 and a
    value its schema does not allow alike: exit 2, nothing on stdout, and
    one line on stderr, `error: <file>[: line N]: <place>: <reason>`."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Well-formed inputs of every reader: a two-scene corpus whose
        ground-truth files hold two lanes each, `blend --params` and
        `cost --fusion` files, and the outputs of a two-evaluation run."""
        root = tmp_path_factory.mktemp("inputs")
        assert main(["gen-synth", "--out", str(root / "corpus"), "--num-scenes", "2"]) == 0
        write_params(root / "params.json")
        (root / "fusion.json").write_text(json.dumps(
            {"layers": [{"input_a": 1, "input_b": 2, "output_level": 1}], "heads_at": [1]}))
        assert main(["search", "--budget", "1", "--init-population", "1",
                     "--out", str(root / "run")]) == 0
        return root

    @pytest.mark.parametrize("reader, fault", [
        pytest.param(reader, fault, id=f"{reader}-{fault}")
        for reader, (_, name, *_) in READERS.items()
        for fault in ("malformed", "repeated key", "not UTF-8", "schema")
        if not (name.endswith(".lines.txt") and fault == "repeated key")
    ])
    def test_error_names_the_file_and_line(self, inputs, tmp_path, capsys, reader, fault):
        folder, name, by_line, argv, break_schema, reason = READERS[reader]
        copy = tmp_path / "copy"
        shutil.copytree(inputs / folder, copy)
        bad = copy / name
        data = bad.read_bytes()
        # a file read line by line breaks at its line 2, a JSON file at its last line
        n = 2 if by_line else len(data.splitlines())
        where = f": line {n}" if by_line else ""
        if fault == "not UTF-8":
            data = _edit_line(data, n, lambda line: b"\xff" + line)
            where, message = f": line {n}", "not UTF-8: byte 0xff at column 1"
        elif fault == "schema":
            data = _edit_line(data, n, break_schema) if by_line else break_schema(data)
            message = reason
        elif name.endswith(".lines.txt"):
            data = _edit_line(data, n, lambda line: b"1.0 2.0 x 4.0\n")
            message = "token 'x': not a number"
        elif fault == "malformed":  # the closing brace of the line or file dropped
            if by_line:
                data = _edit_line(data, n, lambda line: line.replace(b"}\n", b"\n"))
            else:
                data = data[: data.rindex(b"}")] + data[data.rindex(b"}") + 1 :]
            message = "not JSON: Expecting ',' delimiter"
        else:
            if by_line:
                data = _edit_line(data, n, lambda line: line.replace(b"{", b'{"k": 0, "k": 1, ', 1))
            else:
                data = data.replace(b"{", b'{"k": 0, "k": 1, ', 1)
            message = "not JSON: repeated key 'k'"
        bad.write_bytes(data)
        code, out, err = run(capsys, *argv(copy, inputs))
        assert (code, out) == (2, "")
        if fault == "malformed" and not by_line and b"\n" in data.strip():
            # json's own position follows in a file of several lines
            assert err.startswith(f"error: {bad}: {message}: line ") and err.count("\n") == 1
        else:
            assert err == f"error: {bad}{where}: {message}\n"

    @pytest.mark.parametrize("fault", list(FAULTS_AFTER_READING))
    def test_fault_found_after_reading_names_its_input(self, inputs, tmp_path, capsys, fault):
        """A well-formed input that the program cannot use is a data error
        at that input too, with no warning on the way."""
        name, text, argv, error = FAULTS_AFTER_READING[fault]
        bad = tmp_path / name
        bad.write_text(text(inputs))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv(bad, inputs))
        assert (code, out, caught) == (2, "", [])
        assert err == error(bad, inputs)

    def test_lanes_too_far_apart_to_measure_are_blended_without_warning(
            self, inputs, tmp_path, capsys):
        """Cells at x = -1e308 and 1e308 decode to finite lanes whose
        distance is beyond the float range: +inf, so they group with no
        lane, and no warning is printed."""
        scene = json.loads((inputs / "corpus/proposals.jsonl").read_text().splitlines()[0])
        cells = scene["heads"][0]["cells"]
        cells[0]["cx"], cells[1]["cx"] = -1e308, 1e308
        one = tmp_path / "one.jsonl"
        one.write_text(json.dumps(scene) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "blend", "--proposals", str(one))
        assert (code, out, err, caught) == (0, "1 scenes, 4 lanes\n", "", [])

    @pytest.mark.parametrize("x", [1e100, float(np.nextafter(1e100, math.inf))],
                             ids=["at", "beyond"])
    def test_pred_coordinate_bound(self, inputs, tmp_path, capsys, x):
        """A kept `.lines.txt` coordinate may be up to 1e100 in magnitude,
        which the lane metric squares without overflow; one beyond that
        is a data error at its token."""
        gt = inputs / "corpus/gt"
        pred = tmp_path / "pred"
        shutil.copytree(gt, pred)
        bad = pred / "synth_00001.lines.txt"
        bad.write_text(f"{x!r} 10 -1e308 200 5 280\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "eval-f1", "--pred", str(pred), "--gt", str(gt),
                                 "--canvas", "512x288")
        assert caught == []
        if x == 1e100:
            assert (code, err) == (0, "") and out.startswith("F1 ")
        else:
            assert (code, out) == (2, "")
            assert err == f"error: {bad}: line 1: token {repr(x)!r}: magnitude above 1e+100\n"


class TestSearchCommand:
    def test_search_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "search", "--budget", "20",
                           "--init-population", "4", "--seed", "1",
                           "--out", str(out_dir), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["evaluations"] == 24
        assert os.path.exists(doc["archive"])
        assert os.path.exists(doc["front"])
        assert os.path.exists(doc["history"])

    def test_search_outputs_share_file_mode(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "4", "--init-population",
                         "2", "--seed", "1", "--out", str(out_dir))
        assert code == 0
        modes = {name: os.stat(out_dir / name).st_mode
                 for name in ("archive.json", "history.jsonl")}
        assert modes["archive.json"] == modes["history.jsonl"]

    def test_history_deterministic_single_worker(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run(capsys, "search", "--budget", "15", "--init-population", "4",
                "--workers", "1", "--seed", "9", "--out", str(out_dir))
            blobs.append((out_dir / "history.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    # sha256 of the run's other two outputs, by seed
    OUTPUT_DIGESTS = {
        0: {"archive.json": "db2dd9fba9c9cb1b552413e4399a0ca5264589601c53bfa4cd4702bca9517012",
            "front.csv": "23017c16e81c3f15cc33f11262a0aa357a7d999c3c507e3432db766f491dbdc1"},
        1: {"archive.json": "729ba1e5db471bf52c15373d8b936aaf00ae6bce79048a7b8d36ce3f690d5930",
            "front.csv": "2610d54223e9121d8c3cd02976c456ed1af1e30e9777b3f38302bd2cd65bbfd2"},
    }

    @pytest.mark.parametrize("seed, digest", [
        (0, "2bb057dd1acacbd38772342b44cfd16877ff504ce620d6ac6e0f041443b62fbd"),
        (1, "205c1d79dd159a4b1bc4642fe9075545e7e63706c62bb7e2248e9ed026ebbf3e"),
    ])
    def test_history_matches_golden_digest(self, tmp_path, capsys, seed, digest):
        """The single-worker history, archive and front are byte-identical
        across code changes, not only between two runs of the same code."""
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "200", "--workers", "1",
                         "--seed", str(seed), "--out", str(out_dir))
        assert code == 0
        got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ("history.jsonl", *self.OUTPUT_DIGESTS[seed])}
        assert got == {"history.jsonl": digest, **self.OUTPUT_DIGESTS[seed]}

    # sha256 of a `--workers 3` run's outputs at seed 0, budget 200
    THREE_WORKER_DIGESTS = {
        "history.jsonl": "39dfb235f199d81a98a30b8d7e03957e9c721584c86ba6786e28f09ddfa65714",
        "archive.json": "7709f8e4788157a22353faa5ba28ef45a1e38c5c713663038b4e84f34afe3bf4",
        "front.csv": "17041f3c4c68d9b2a6ea97a05c343ab5ce89358d74f8717c363d4025b8130f08",
    }

    def test_three_worker_outputs_match_golden_digests(self, tmp_path, capsys):
        """Evaluations commit in eval_id order, so a `--workers 3` run's
        outputs depend only on the seed and the worker count."""
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "200", "--workers", "3",
                         "--seed", "0", "--out", str(out_dir))
        assert code == 0
        got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in self.THREE_WORKER_DIGESTS}
        assert got == self.THREE_WORKER_DIGESTS

    def test_three_workers_with_a_jittery_evaluator_write_the_same_bytes(self, tmp_path, capsys):
        """An `exec:` evaluator that sleeps a random time finishes its
        evaluations out of order; two runs still write the same files."""
        import sys

        stub = tmp_path / "jitter.py"
        stub.write_text(
            "import hashlib, json, random, sys, time\n"
            "req = json.loads(sys.stdin.readline())\n"
            "time.sleep(random.uniform(0, 0.05))\n"
            "key = json.dumps(req['arch'], sort_keys=True).encode()\n"
            "score = int(hashlib.sha256(key).hexdigest()[:8], 16) / 2**32\n"
            "print(json.dumps({'eval_id': req['eval_id'], 'score': score}))\n"
        )
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(capsys, "search", "--budget", "24", "--init-population", "4",
                             "--seed", "3", "--workers", "3",
                             "--evaluator", f"exec:{sys.executable} {stub}",
                             "--out", str(out_dir))
            assert code == 0
            outputs.append({f: (out_dir / f).read_bytes()
                            for f in ("history.jsonl", "archive.json", "front.csv")})
        assert len(outputs[0]["history.jsonl"].splitlines()) == 28
        assert outputs[0] == outputs[1]

    def test_external_evaluator_stub(self, tmp_path, capsys):
        import sys

        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            "print(json.dumps({'eval_id': req['eval_id'], 'score': 0.25}))\n"
        )
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "search", "--budget", "3",
                           "--init-population", "2", "--seed", "0",
                           "--evaluator", f"exec:{sys.executable} {stub}",
                           "--out", str(out_dir), "--json")
        assert code == 0
        assert json.loads(out)["evaluations"] == 5

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_evaluations_count_the_log_lines(self, tmp_path, capsys, workers):
        """`--json` counts every evaluation the log records, the failed
        ones too, whatever the number of workers."""
        import sys

        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            "if int(req['eval_id'][1:]) % 3 == 1: sys.exit(3)\n"
            "print(json.dumps({'eval_id': req['eval_id'], 'score': 0.25}))\n"
        )
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "search", "--budget", "6", "--init-population", "3",
                           "--seed", "0", "--workers", workers,
                           "--evaluator", f"exec:{sys.executable} {stub}",
                           "--out", str(out_dir), "--json")
        assert code == 0
        history = read_history(out_dir)
        assert json.loads(out)["evaluations"] == len(history) == 9
        assert sum(h["score"] is None for h in history) == 3

    def test_external_evaluator_receives_history_ids(self, tmp_path, capsys):
        import sys

        log = tmp_path / "ids.log"
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys, json\n"
            "req = json.loads(sys.stdin.readline())\n"
            f"open({str(log)!r}, 'a').write(req['eval_id'] + '\\n')\n"
            "print(json.dumps({'eval_id': req['eval_id'], 'score': 0.25}))\n"
        )
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "4",
                         "--init-population", "3", "--seed", "0",
                         "--evaluator", f"exec:{sys.executable} {stub}",
                         "--out", str(out_dir))
        assert code == 0
        history = read_history(out_dir)
        assert log.read_text().split() == [h["eval_id"] for h in history]
        assert len(history) == 7

    def test_failed_evaluations_record_their_cause(self, tmp_path, capsys):
        import sys

        stub = tmp_path / "fail.py"
        stub.write_text("import sys; sys.exit(3)\n")
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "2",
                         "--init-population", "2", "--seed", "0",
                         "--evaluator", f"exec:{sys.executable} {stub}",
                         "--out", str(out_dir))
        assert code == 0
        history = read_history(out_dir)
        assert len(history) == 4
        for h in history:
            assert h["score"] is None
            assert h["error"].startswith("ProtocolError: evaluator exited 3")

    def test_archive_history_equals_history_file(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "30",
                         "--init-population", "4", "--seed", "5",
                         "--out", str(out_dir))
        assert code == 0
        history = read_history(out_dir)
        doc = json.loads((out_dir / "archive.json").read_text())
        assert set(doc) == {"version", "members", "history"}
        assert doc["history"] == history
        assert {m["eval_id"] for m in doc["members"]} <= {h["eval_id"] for h in history}

    def test_search_writes_the_archive_once(self, tmp_path, capsys, monkeypatch):
        """`archive.json` is written at the end of a run and never during
        it; `history.jsonl` is the run's log."""
        writes = []
        atomic_file = data_io._atomic_file

        def counted(path):
            writes.append(os.path.basename(path))
            return atomic_file(path)

        monkeypatch.setattr(data_io, "_atomic_file", counted)
        code, _, _ = run(capsys, "search", "--budget", "120", "--seed", "3",
                         "--out", str(tmp_path / "run"))
        assert code == 0
        assert writes == ["archive.json"]

    def test_second_search_keeps_the_first_runs_log(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "400", "--seed", "2",
                         "--out", str(out_dir))
        assert code == 0
        log = (out_dir / "history.jsonl").read_bytes()
        assert len(log.splitlines()) == 416
        code, _, err = run(capsys, "search", "--budget", "5", "--seed", "3",
                           "--out", str(out_dir))
        assert code == 2
        assert str(out_dir / "history.jsonl") in err
        assert (out_dir / "history.jsonl").read_bytes() == log

    def test_bad_evaluator_spec(self, tmp_path, capsys):
        code, _, _ = run(capsys, "search", "--out", str(tmp_path / "x"),
                         "--evaluator", "magic:thing")
        assert code == 1

    @pytest.mark.parametrize("spec, reason", [
        ("exec:", "no command to run"),
        ("exec:   ", "no command to run"),
    ], ids=["empty", "blank"])
    def test_empty_exec_command_is_a_usage_error(self, tmp_path, capsys, spec, reason):
        """Refused before the run starts: no evaluation fails on it and
        no `history.jsonl` is created."""
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "search", "--out", str(out_dir), "--evaluator", spec)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: bad evaluator {spec!r}: {reason}\n")
        assert not out_dir.exists()

    def test_exec_command_that_does_not_split_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "search", "--out", str(out_dir),
                             "--evaluator", "exec:'unterminated")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: bad evaluator \"exec:'unterminated\": "
                              "No closing quotation\n")
        assert not out_dir.exists()

    def test_pareto_export_from_history_log(self, tmp_path, capsys):
        """A finished run's log gives the same front.csv as its archive."""
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "150", "--seed", "4",
                         "--out", str(out_dir))
        assert code == 0
        assert export(capsys, out_dir / "history.jsonl", tmp_path / "log.csv")[0] == 0
        assert export(capsys, out_dir / "archive.json", tmp_path / "archive.csv")[0] == 0
        front = (out_dir / "front.csv").read_bytes()
        assert (tmp_path / "log.csv").read_bytes() == front
        assert (tmp_path / "archive.csv").read_bytes() == front

    def test_killed_run_keeps_a_prefix_and_its_front(self, tmp_path, capsys):
        """A search killed mid-run leaves complete log lines that are a
        byte prefix of an uninterrupted run at the same seed, and
        pareto-export recovers the brute-force front of those lines."""
        import signal
        import subprocess
        import sys
        import time

        import lanenas

        src = os.path.dirname(os.path.dirname(lanenas.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        killed = tmp_path / "killed"
        log = killed / "history.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "lanenas", "search", "--budget", "1000000",
             "--seed", "6", "--out", str(killed)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None:
                if log.exists() and log.read_bytes().count(b"\n") >= 300:
                    break
                time.sleep(0.01)
            assert proc.poll() is None, "the search ended before it was killed"
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        data = log.read_bytes()
        complete = data[: data.rfind(b"\n") + 1]
        n = complete.count(b"\n")
        assert n >= 300

        whole = tmp_path / "whole"
        code, _, _ = run(capsys, "search", "--budget", str(n), "--seed", "6",
                         "--out", str(whole))
        assert code == 0
        assert (whole / "history.jsonl").read_bytes().startswith(complete)

        code, _, _ = export(capsys, log, tmp_path / "front.csv")
        assert code == 0
        with open(tmp_path / "front.csv") as fh:
            exported = {row.split(",")[0] for row in fh.read().splitlines()[1:]}
        assert exported == brute_force_front(json.loads(l) for l in complete.splitlines())

    def test_torn_last_line_is_dropped(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "40", "--seed", "2",
                         "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "history.jsonl").read_text().splitlines(keepends=True)
        torn = tmp_path / "torn.jsonl"
        torn.write_text("".join(lines[:-1]) + lines[-1][:25])
        shorter = tmp_path / "shorter.jsonl"
        shorter.write_text("".join(lines[:-1]))
        assert export(capsys, torn, tmp_path / "torn.csv")[0] == 0
        assert export(capsys, shorter, tmp_path / "shorter.csv")[0] == 0
        assert (tmp_path / "torn.csv").read_bytes() == (tmp_path / "shorter.csv").read_bytes()

    @pytest.mark.parametrize("second_line, message", [
        (lambda first, second: '{"eval_id": "e000001"', "line 2: not JSON: Expecting ',' delimiter"),
        (lambda first, second: "5", "line 2: need an object, got 5"),
        (lambda first, second: json.dumps({**json.loads(second), "flops": "12"}),
         "line 2: candidate[e000001].flops: need int, got '12'"),
        (lambda first, second: first, "line 2: e000000 is already recorded"),
    ], ids=["bad-json", "not-an-object", "schema-break", "repeated"])
    def test_malformed_log_line_is_a_data_error(self, tmp_path, capsys, second_line, message):
        """A complete line that does not read is an error naming it, even
        the last one."""
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "search", "--budget", "1", "--init-population", "1",
                         "--seed", "0", "--out", str(out_dir))
        assert code == 0
        first, second = (out_dir / "history.jsonl").read_text().splitlines()
        log = tmp_path / "bad.jsonl"
        log.write_text(f"{first}\n{second_line(first, second)}\n")
        code, _, err = export(capsys, log, tmp_path / "front.csv")
        assert code == 2
        assert err == f"error: {log}: {message}\n"

    def test_pareto_export(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run(capsys, "search", "--budget", "10", "--init-population", "4",
            "--seed", "2", "--out", str(out_dir))
        csv_path = tmp_path / "front2.csv"
        code, _, _ = run(capsys, "pareto-export",
                         "--archive", str(out_dir / "archive.json"),
                         "--out", str(csv_path))
        assert code == 0
        assert csv_path.read_text().startswith("eval_id,encoding,flops,score")
