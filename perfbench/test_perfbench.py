"""Tests of the benchmark itself: its output check, its tracer and its declared metrics.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent


def _run_request(workload, work, out, commands):
    codes = [run.spawn(run.cli_argv(c), work, work / "stderr.txt").code for c in commands]
    return run.check_outputs(workload, out, codes)


def _without_d(args):
    i = args.index("--d")
    return args[:i] + args[i + 2:]


@pytest.fixture(scope="module")
def shot_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("shot")
    return work, run.prepare_inputs(run.WORKLOADS["reconstruct-files-d256"], work, 7000)


def test_file_request_passes_check(shot_inputs):
    work, inputs = shot_inputs
    workload = run.WORKLOADS["reconstruct-files-d256"]
    out = work / "good"
    problems, rmse = _run_request(workload, work, out,
                                  run.request_commands(workload, out, 7001, inputs))
    assert problems == []
    assert workload.rmse[0] <= rmse <= workload.rmse[1]


def test_file_request_without_d_fails_check(shot_inputs):
    # Without --d, reconstruct takes its support radius from the default d=32.
    work, inputs = shot_inputs
    workload = run.WORKLOADS["reconstruct-files-d256"]
    out = work / "no-d"
    commands = [_without_d(c) for c in run.request_commands(workload, out, 7001, inputs)]
    problems, _ = _run_request(workload, work, out, commands)
    assert f"support_pixels 616 != illumination disc {run.disc_pixels(256)}" in problems
    assert any(p.startswith("azimuthal_slope") for p in problems)


def test_manifest_digests_are_checked(shot_inputs):
    work, inputs = shot_inputs
    workload = run.WORKLOADS["hadamard-shot-d256"]
    assert run.check_outputs(workload, inputs, [0])[0] == []
    with open(inputs / "re.gcf", "ab") as fh:
        fh.write(b"\0")
    assert run.check_outputs(workload, inputs, [0])[0] == ["manifest digest mismatch for re.gcf"]


def test_nonzero_exit_fails_check(tmp_path):
    problems, _ = run.check_outputs(run.WORKLOADS["hadamard-exact-d256"], tmp_path, [0, 3])
    assert problems == ["exit code 3"]


@pytest.mark.parametrize("d", [32, 256])
def test_disc_pixels_matches_scene(d):
    sys.path.insert(0, str(run.SRC))
    try:
        from ghostphase import scene
    finally:
        sys.path.remove(str(run.SRC))
    assert run.disc_pixels(d) == int(scene.disc_mask(d, scene.default_radius(d)).sum())


def test_self_time_subtracts_child_spans(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({
        "request": "1", "main_start_ns": 1000, "main_end_ns": 1100, "exit_code": 0,
        "spans": [["cli.main", 1000, 1100, -1, 0, 0],
                  ["cli.cmd_pipeline", 1010, 1040, 0, 0, 0],
                  ["wht.fwht2", 1020, 1030, 1, 0, 0],
                  ["formats.read_series", 1050, 1060, 0, 7, 0]]}))
    proc = run.Proc(code=0, wall_s=200e-9, maxrss_kb=1, spawn_ns=900)
    layer = run.summarize_spans([spans], [proc])
    assert layer["cli.main.self_s"] == pytest.approx(60e-9)
    assert layer["cli.cmd_pipeline.self_s"] == pytest.approx(20e-9)
    assert layer["wht.fwht2.self_s"] == pytest.approx(10e-9)
    assert layer["cli.self_s"] == pytest.approx(80e-9)
    assert layer["wht.fwht2.calls"] == 1
    assert layer["formats.bytes_read"] == 7
    assert layer["process.startup_s"] == pytest.approx(100e-9)
    assert layer["process.unspanned_s"] == pytest.approx(100e-9)


def test_traced_cli_wraps_every_binding(tmp_path):
    spans_path = tmp_path / "spans.json"
    args = ["pipeline", "--d", "16", "--kind", "azimuthal-ring-phase", "--out", str(tmp_path / "out")]
    proc = run.spawn(run.traced_argv(spans_path, "1", args), tmp_path, tmp_path / "stderr.txt")
    assert proc.code == 0
    doc = json.loads(spans_path.read_text())
    spans = doc["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    callers = {spans[parent][0] for name, _, _, parent, _, _ in spans if name == "wht.fwht2"}
    # fwht2 is reached through its bindings in both acquisition and reconstruction.
    assert {"acquisition.mask_overlaps", "reconstruction.ghost_image",
            "reconstruction.remove_artifact"} <= callers
    assert any(name == "config.RunConfig.dump" for name, *_ in spans)
    assert sum(s[5] for s in spans if s[0] == "formats.write_series") > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "traced_cli.py"):
        (bench / name).write_text((HERE / name).read_text())
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hadamard-exact-d256",
                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
