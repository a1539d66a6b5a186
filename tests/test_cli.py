import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostphase
from ghostphase import cli, formats, scene, wht
from ghostphase.config import ConfigError, RunConfig, config_from_document, load_config
from ghostphase.formats import read_field, read_series, write_field
from ghostphase.scene import KINDS

from conftest import run_cli


def run(*argv):
    return cli.main(list(argv))


def test_gen_object_outputs_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("gen-object", "--d", "32", "--kind", "pi-slit-phase", "--out", str(out)) == 0
    for name in ("object.gcf", "object_phase.pgm", "object_amplitude.pgm",
                 "resolved_config.yaml"):
        assert (a / name).is_file()
        assert (a / name).read_bytes() == (b / name).read_bytes()
    obj, kind = read_field(a / "object.gcf")
    assert kind == "complex" and obj.shape == (32, 32)


def test_gen_object_bad_kind_is_usage_error(tmp_path, capsys):
    assert run("gen-object", "--kind", "no-such-object", "--out", str(tmp_path)) == 2
    assert "kind" in capsys.readouterr().err


def test_gen_masks_single_index(tmp_path):
    assert run("gen-masks", "--d", "8", "--index", "5", "--out", str(tmp_path)) == 0
    for prefix in ("mask_basis", "mask_cos", "mask_sin"):
        assert (tmp_path / f"{prefix}_00005.txt").is_file()
    assert run("gen-masks", "--d", "8", "--index", "64", "--out", str(tmp_path)) == 2


def test_gen_masks_random_basis_exports_its_masks(tmp_path):
    assert run("gen-masks", "--d", "8", "--basis", "random", "--basis-seed", "3",
               "--index", "5", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "mask_basis_00005.txt").read_text().splitlines()
    symbols = np.array([[int(v) for v in row.split()] for row in rows[1:]])
    np.testing.assert_array_equal(symbols, np.sign(wht.OrthoMatrix(8, seed=3).mask(5)))
    assert run("gen-masks", "--d", "8", "--basis", "random", "--index", "64",
               "--out", str(tmp_path)) == 2


def test_gen_masks_memory_does_not_grow_with_count(tmp_path):
    # each mask's grids are written as they are made; none is kept for later.  Keeping them
    # holds at least one 8-byte d x d grid per mask (making every grid before writing any
    # grew by 1.15 MB for 16 more masks at d=64), while the peaks of two runs that keep none
    # differ by 0.04-0.15 MB, at d=16 and d=64 alike: garbage not yet collected
    d = 64

    def peak(count):
        wht._pixel_permutation.cache_clear()
        tracemalloc.start()
        try:
            code, stderr = run_cli(["gen-masks", "--d", str(d), "--count", str(count),
                                    "--out", str(tmp_path / str(count))])
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, stderr
        return top

    small = peak(4)
    assert peak(20) - small < (20 - 4) * 8 * d * d    # less than one grid per extra mask


def test_gen_masks_random_index_draws_one_mask(tmp_path):
    # an explicit d=32 mask matrix is 8 MB; one mask is 8 KB
    wht._pixel_permutation.cache_clear()
    tracemalloc.start()
    try:
        code, stderr = run_cli(["gen-masks", "--d", "32", "--basis", "random", "--index", "1",
                                "--out", str(tmp_path)])
        top = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, stderr
    assert top < 2 * 2 ** 20


def test_acquire_row_contract(tmp_path):
    out = tmp_path / "out"
    assert run("gen-object", "--d", "16", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    for channel in ("cos", "sin"):
        kind, _, values = read_series(out / f"series_{channel}.csv")
        assert kind == channel and values.size == 256


def test_acquire_records_the_object_size_it_measured(tmp_path):
    out, explicit = tmp_path / "out", tmp_path / "explicit"
    assert run("gen-object", "--d", "16", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    assert run("acquire", "--d", "16", "--object", str(out / "object.gcf"),
               "--out", str(explicit)) == 0
    resolved = (out / "resolved_config.yaml").read_bytes()
    assert yaml.safe_load(resolved)["d"] == read_series(out / "series_cos.csv")[1]["basis"].dim == 16
    assert resolved == (explicit / "resolved_config.yaml").read_bytes()
    # a random basis scans the sizes the hadamard basis scans, and no other
    twelve = tmp_path / "twelve.gcf"
    write_field(twelve, np.ones((12, 12), complex), "complex")
    code, stderr = run_cli(["acquire", "--basis", "random", "--object", str(twelve),
                            "--out", str(tmp_path / "random")])
    assert code == 3 and stderr.startswith(f"error: {twelve}: ") and stderr.count("\n") == 1
    assert not (tmp_path / "random").exists()


def test_acquire_missing_object_is_data_error(tmp_path):
    assert run("acquire", "--object", str(tmp_path / "nope.gcf"), "--out", str(tmp_path)) == 3


def test_reconstruct_and_analyze_heuristic(tmp_path):
    out = tmp_path / "out"
    assert run("gen-object", "--d", "32", "--kind", "pi-slit-phase", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_sin.csv"),
               "--artifact-mode", "heuristic", "--denoise-window", "3",
               "--out", str(out)) == 0
    phase, kind = read_field(out / "phase.gcf")
    assert kind == "phase" and phase.shape == (32, 32)
    assert run("analyze", "--phase", str(out / "phase.gcf"),
               "--support", str(out / "support.gcf"),
               "--truth", str(out / "object.gcf"), "--out", str(out)) == 0
    report = (out / "report.txt").read_text()
    rmse = float(dict(line.split(": ") for line in report.splitlines())["phase_rmse_rad"])
    assert rmse < 0.1
    assert (out / "cross_horizontal.csv").is_file()
    assert (out / "cross_azimuthal.csv").is_file()


def test_reconstruct_analytic_requires_truth(tmp_path):
    out = tmp_path / "out"
    run("gen-object", "--d", "8", "--out", str(out))
    run("acquire", "--object", str(out / "object.gcf"), "--out", str(out))
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_sin.csv"),
               "--artifact-mode", "analytic", "--out", str(out)) == 2
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_sin.csv"),
               "--artifact-mode", "analytic", "--object", str(out / "object.gcf"),
               "--out", str(out)) == 0


@pytest.mark.parametrize("d", [16, 64])
def test_random_mask_pipeline_removes_the_artifact_analytically(tmp_path, d):
    # seeded masks are the Hadamard masks with their pixels shuffled and pixel 0 fixed,
    # so the closed form holds for them; exact data leave only rounding error
    code, stderr = run_cli(["pipeline", "--d", str(d), "--basis", "random", "--artifact-mode", "analytic",
                            "--out", str(tmp_path)])
    assert code == 0 and stderr == ""
    report = dict(line.split(": ") for line in (tmp_path / "report.txt").read_text().splitlines())
    assert float(report["phase_rmse_rad"]) < 1e-9


def test_analytic_removal_of_a_sampled_pipeline_matches_the_heuristic(tmp_path):
    # a sampled ghost image is divided by its count total; analytic removal read 1.146 rad here
    rmse = {}
    for mode in ("analytic", "heuristic"):
        assert run("pipeline", "--d", "64", "--kind", "azimuthal-ring-phase", "--flux", "1e9",
                   "--artifact-mode", mode, "--out", str(tmp_path / mode)) == 0
        report = dict(line.split(": ") for line in (tmp_path / mode / "report.txt").read_text().splitlines())
        rmse[mode] = float(report["phase_rmse_rad"])
    assert rmse["analytic"] == pytest.approx(rmse["heuristic"], rel=0.1)
    assert rmse["heuristic"] < 0.05


# the pipeline flags of each run that a mismatched pair takes a series from
_PAIR_RUNS = {"natural": ("--d", "8"), "sequency": ("--d", "8", "--ordering", "sequency"),
              "seed7": ("--d", "8", "--flux", "1e6", "--seed", "7"),
              "seed8": ("--d", "8", "--flux", "1e6", "--seed", "8"), "d16": ("--d", "16")}
# each mismatch's cos run, sin run and the kind of the file read as the sin series
_MISMATCHES = {"swapped-kinds": ("natural", "natural", "cos"), "other-ordering": ("natural", "sequency", "sin"),
               "exact-beside-sampled": ("natural", "seed7", "sin"), "two-seeds": ("seed7", "seed8", "sin"),
               "other-size": ("natural", "d16", "sin")}


@pytest.mark.parametrize("mode", ["heuristic", "analytic"])
@pytest.mark.parametrize("mismatch", list(_MISMATCHES))
def test_reconstruct_channel_role_mismatch(tmp_path, mode, mismatch):
    # both artifact modes check the pair before either removal runs; one scan's two series
    # share its basis, flux and seed, and so its size: a pair of two sizes is checked before
    # it could become a scan
    cos_run, sin_run, sin_kind = _MISMATCHES[mismatch]
    for name in {cos_run, sin_run}:
        assert run("pipeline", *_PAIR_RUNS[name], "--out", str(tmp_path / name)) == 0
    cos = tmp_path / cos_run / "series_cos.csv"
    sin = tmp_path / sin_run / f"series_{sin_kind}.csv"
    message = ("series channel kinds do not match their roles" if mismatch == "swapped-kinds"
               else "cos and sin series headers do not match")
    out = tmp_path / "out"
    code, stderr = run_cli(["reconstruct", "--d", "8", "--artifact-mode", mode, "--cos", str(cos),
                            "--sin", str(sin), "--object", str(tmp_path / cos_run / "object.gcf"),
                            "--out", str(out)])
    assert code == 3
    assert stderr.startswith(f"error: {cos}, {sin}") and stderr.endswith(f": {message}\n"), stderr
    assert stderr.count("\n") == 1
    assert not out.exists()


def test_reconstruct_even_denoise_window_rejected(tmp_path):
    out = tmp_path / "out"
    run("gen-object", "--d", "8", "--out", str(out))
    run("acquire", "--object", str(out / "object.gcf"), "--out", str(out))
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_sin.csv"),
               "--denoise-window", "4", "--out", str(out)) == 2


def test_pipeline_manifest_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("pipeline", "--d", "16", "--kind", "azimuthal-ring-phase",
                   "--flux", "1000000", "--seed", "7",
                   "--artifact-mode", "heuristic", "--denoise-window", "3",
                   "--out", str(out)) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    names = {entry["path"] for entry in manifest["artifacts"]}
    assert {"object.gcf", "series_cos.csv", "series_sin.csv", "phase.gcf",
            "report.txt", "resolved_config.yaml"} <= names
    for entry in manifest["artifacts"]:
        assert len(entry["sha256"]) == 64
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_pipeline_into_a_used_directory_manifests_only_its_own_files(tmp_path):
    # files the run did not write stay in place and out of the manifest
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    assert run("gen-masks", "--d", "8", "--count", "1", "--out", str(used)) == 0
    for out in (used, fresh):
        assert run("pipeline", "--d", "8", "--out", str(out)) == 0
    assert (used / "manifest.json").read_text() == (fresh / "manifest.json").read_text()
    assert (fresh / "manifest.json").read_text() == _manifest_text(fresh)
    assert sorted(p.name for p in used.glob("mask_*.txt")) == [
        "mask_basis_00000.txt", "mask_cos_00000.txt", "mask_sin_00000.txt"]


_NUMBERS = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats())
_CONFIG_FIELDS = dict(
    d=st.integers(1, 2 ** 70), object_kind=st.sampled_from((*KINDS, "from-file")),
    slit_width=st.none() | st.integers(-5, 100), slit_gap=st.none() | st.integers(-5, 100),
    annulus_radii=st.none() | st.tuples(_NUMBERS, _NUMBERS),
    petals=st.integers(-5, 100), bands=st.integers(-5, 100), phase_depth=st.floats(),
    illumination_radius=st.none() | _NUMBERS, basis=st.sampled_from(["hadamard", "random"]),
    ordering=st.sampled_from(["natural", "sequency"]), basis_seed=st.integers(0, 2 ** 64 - 1),
    flux=st.none() | st.floats(), acquisition_seed=st.integers(0, 2 ** 64 - 1),
    artifact_mode=st.sampled_from(["analytic", "heuristic"]), denoise_window=st.integers(1, 99),
    analysis_row=st.none() | st.integers(-5, 300), analysis_radius=st.none() | _NUMBERS,
    analysis_samples=st.integers(0, 1000))
_CONFIGS = st.builds(RunConfig, **_CONFIG_FIELDS)


def _outcome(make):
    try:
        return repr(make())   # repr: NaN fields compare equal, and 1 and 1.0 stay apart
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None)
@given(cfg=_CONFIGS)
@example(cfg=RunConfig(d=16, object_kind="azimuthal-ring-phase", flux=1e6,
                       denoise_window=3, annulus_radii=(4.0, 6.0)))
def test_config_yaml_round_trip(tmp_path_factory, cfg):
    # every field reads back as dumped, or the dump is rejected as the config itself is
    path = tmp_path_factory.mktemp("cfg") / "run.yaml"
    cfg.dump(path)
    assert _outcome(lambda: load_config(path)) == _outcome(cfg.validate)


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_document({"dd": 16})
    with pytest.raises(ConfigError):
        config_from_document({"object": {"knid": "flat"}})
    with pytest.raises(ConfigError):
        config_from_document({"analysis": {"rows": 3}})
    with pytest.raises(ConfigError):
        config_from_document([1, 2])


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="flux"):
        config_from_document({"flux": float("nan")})
    assert config_from_document({"object": {"annulus_radii": ["2", 3]}}).annulus_radii == (2.0, 3)
    with pytest.raises(ConfigError, match="artifact_mode"):
        config_from_document({"artifact_mode": "magic"})
    with pytest.raises(ConfigError, match="flux"):
        config_from_document({"flux": -5})
    with pytest.raises(ConfigError, match="d"):
        config_from_document({"d": 12})
    with pytest.raises(ConfigError, match="d: must be a power of two"):
        config_from_document({"d": 12, "basis": "random"})


def test_cli_config_file_with_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"d": 8, "bogus_key": 1}))
    assert run("gen-object", "--config", str(bad), "--out", str(tmp_path)) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({"d": 8, "object": {"kind": "flat"}}))
    out = tmp_path / "out"
    assert run("gen-object", "--config", str(cfgfile), "--d", "16", "--out", str(out)) == 0
    obj, _ = read_field(out / "object.gcf")
    assert obj.shape == (16, 16)
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert resolved["d"] == 16 and resolved["object"]["kind"] == "flat"


@pytest.mark.parametrize("flux", ["nan", "inf"])
def test_acquire_rejects_non_finite_flux(tmp_path, capsys, flux):
    out = tmp_path / "out"
    assert run("gen-object", "--d", "8", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--flux", flux,
               "--out", str(out)) == 2
    assert "flux" in capsys.readouterr().err


def test_acquire_dark_object_at_finite_flux_is_data_error(tmp_path, capsys):
    dark = tmp_path / "dark.gcf"
    write_field(dark, np.zeros((8, 8), complex), "complex")
    out = tmp_path / "out"
    assert run("acquire", "--object", str(dark), "--flux", "1e6", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dark}: ") and "sums to zero" in err
    assert not out.exists()


def _lookup(document, dotted):
    for key in dotted.split("."):
        document = document[key]
    return document


# config text -> expected exit code and, on success, resolved values ("section.key");
# on failure, the whole error output if it is given
CONFIG_CASES = [
    pytest.param("d: 8\nflux: 1e6\n", 0, {"flux": 1000000.0}, id="flux-1e6"),
    pytest.param("d: '8'\n", 0, {"d": 8}, id="quoted-d"),
    pytest.param("d: 8\ndenoise_window: 3.0\nbasis_seed: '5'\n", 0,
                 {"denoise_window": 3, "basis_seed": 5}, id="integral-float-and-string"),
    pytest.param("d: 8\nobject: {annulus_radii: ['2', 3]}\n", 0,
                 {"object.annulus_radii": [2.0, 3]}, id="string-radius"),
    pytest.param("d: 8\nflux: lots\n", 2, None, id="flux-word"),
    pytest.param("d: 8\nflux: .nan\n", 2, None, id="flux-nan"),
    pytest.param("d: 8\nflux: .inf\n", 2, None, id="flux-inf"),
    pytest.param("d: 8\nflux: 1e300\n", 2, None, id="flux-past-poisson-limit"),
    pytest.param("d: 8.5\n", 2, None, id="fractional-d"),
    pytest.param("d: 8\nacquisition_seed: true\n", 2, None, id="bool-seed"),
    pytest.param("d: 8\nbasis_seed: [1]\n", 2, None, id="list-seed"),
    pytest.param("d: 8\nbasis: 5\n", 2, None, id="numeric-basis"),
    pytest.param("d: 8\nobject: flat\n", 2, None, id="scalar-object-section"),
    pytest.param("d: 8\nobject: {annulus_radii: 5}\n", 2, None, id="scalar-radii"),
    pytest.param("d: 8\nanalysis: {samples: 1.5}\n", 2, None, id="fractional-samples"),
    pytest.param("d: 8\nacquisition_seed: 18446744073709551616\n", 2, None, id="seed-2**64"),
    pytest.param("d: 8\nbasis_seed: -1\n", 2, None, id="negative-basis-seed"),
    pytest.param("d: [8\n", 2, None, id="yaml-parse-error"),
    pytest.param("d: 1\nbasis: random\n", 2, None, id="d-below-2"),
    pytest.param("d: 8\nbasis: random\nordering: sequency\n", 2,
                 "error: ordering: a random basis scans natural order, got 'sequency'\n",
                 id="random-basis-in-sequency-order"),
    pytest.param("d: 16\ndenoise_window: -1\n", 2, None, id="negative-denoise-window"),
    pytest.param("d: 8\nanalysis: {samples: 0}\n", 2, None, id="zero-samples"),
    pytest.param("d: 8\nanalysis: {samples: 1}\n", 2, None, id="one-sample"),
    pytest.param("d: 16\nanalysis: {row: 99}\n", 2, None, id="row-off-grid"),
    pytest.param("d: 16\nanalysis: {row: 0}\n", 2,
                 "error: analysis.row: row 0 has no valid support pixels\n",
                 id="row-outside-support"),
    pytest.param("d: 16\nanalysis: {radius: 99}\n", 2, None, id="radius-off-grid"),
    pytest.param("d: 32\nobject: {kind: azimuthal-ring-phase, annulus_radii: [4, 16]}\n"
                 "analysis: {radius: 15.5}\n", 2,
                 "error: analysis.radius: the circle of radius 15.5 leaves the support\n",
                 id="radius-outside-support"),
    pytest.param("d: 16\nanalysis: {radius: -2}\n", 2, None, id="negative-radius"),
    pytest.param("d: 16\nobject: {kind: azimuthal-ring-phase, annulus_radii: [10, 16]}\n", 2, None,
                 id="annulus-radius-off-grid"),
    pytest.param("d: 16\nobject: {kind: spiral-flower-phase, bands: 0}\n", 2, None, id="zero-bands"),
    pytest.param("d: 16\nobject: {kind: spiral-flower-phase, bands: -3}\n", 2, None,
                 id="negative-bands"),
    pytest.param("d: 8\nobject: {phase_depth: .inf}\n", 2, None, id="phase-depth-inf"),
    pytest.param("d: 8\nobject: {phase_depth: .nan}\n", 2, None, id="phase-depth-nan"),
]


@pytest.mark.parametrize("text, code, resolved", CONFIG_CASES)
def test_pipeline_config_value_types(tmp_path, capsys, text, code, resolved):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    assert run("pipeline", "--config", str(cfgfile), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert resolved is None or err == resolved
        assert not out.exists()
        return
    document = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert {key: _lookup(document, key) for key in resolved} == resolved
    if "flux" in resolved:
        assert "flux: 1000000.0\n" in (out / "resolved_config.yaml").read_text()


@pytest.mark.parametrize("text, error", [
    ("denoise_window: -1", "denoise_window: must be odd and at least 1, got -1"),
    ("analysis: {samples: -5}", "analysis.samples: must be at least 2, got -5"),
    ("object: {kind: spiral-flower-phase, bands: 0}", "object.bands: must be at least 1, got 0"),
    ("object: {kind: spiral-flower-phase, bands: -3}", "object.bands: must be at least 1, got -3"),
    ("object: {phase_depth: .inf}", "object.phase_depth: must be finite, got inf"),
    ("illumination_radius: -1", "illumination_radius: must be nonnegative, got -1"),
    ("illumination_radius: .nan", "illumination_radius: must be nonnegative, got nan"),
    ("object: {kind: from-file}", "object.path: a from-file object needs a path"),
    # argparse's choices reject these as flags first, so only a config file reaches the checks
    ("basis: foo", "basis: must be 'hadamard' or 'random', got 'foo'"),
    ("ordering: foo", "ordering: must be 'natural' or 'sequency', got 'foo'"),
    ("object: {kind: pi-slit-phase, slit_width: 0}", "slit width must be at least 1, got 0"),
    ("object: {kind: pi-slit-phase, slit_width: -3}", "slit width must be at least 1, got -3"),
    ("object: {kind: double-slit-amplitude, slit_width: 0}", "slit width must be at least 1, got 0"),
    ("object: {kind: double-slit-amplitude, slit_width: -3}", "slit width must be at least 1, got -3"),
])
def test_pipeline_rejects_config_limits_before_any_file(tmp_path, capsys, text, error):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(f"d: 16\n{text}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert run("pipeline", "--config", str(cfgfile), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(out.iterdir()) == []


def test_analyze_row_off_the_grid_of_its_file_names_the_key(tmp_path, capsys):
    # row 20 fits the default d=32 but not the d=16 phase map analyze reads
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text("analysis: {row: 20}\n")
    assert run("gen-object", "--d", "16", "--out", str(tmp_path)) == 0
    obj = str(tmp_path / "object.gcf")
    assert run("analyze", "--config", str(cfgfile), "--phase", obj, "--truth", obj,
               "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: analysis.row: must be in [0, d), got 20 for d=16\n"


@pytest.mark.parametrize("text, error", [
    ("analysis: {radius: 99}", "analysis.radius: must be in [0, d/2], got 99 for d=16"),
    ("analysis: {radius: -2}", "analysis.radius: must be in [0, d/2], got -2 for d=16"),
    ("object: {kind: azimuthal-ring-phase, annulus_radii: [10, 16]}",
     "object.annulus_radii: their mean (the azimuthal radius) must be in [0, d/2], got 13.0 for d=16"),
])
def test_pipeline_radius_off_the_grid_names_its_key(tmp_path, capsys, text, error):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(f"d: 16\n{text}\n")
    assert run("pipeline", "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


# common flag, its value, the resolved_config.yaml key it sets and the value recorded there
COMMON_FLAGS = [
    ("--d", "4", "d", 4),
    ("--kind", "flat", "object.kind", "flat"),
    ("--illumination-radius", "5.5", "illumination_radius", 5.5),
    ("--basis", "random", "basis", "random"),
    ("--ordering", "sequency", "ordering", "sequency"),
    ("--basis-seed", "9", "basis_seed", 9),
    ("--flux", "1e6", "flux", 1e6),
    ("--seed", "7", "acquisition_seed", 7),
    ("--artifact-mode", "analytic", "artifact_mode", "analytic"),
    ("--denoise-window", "5", "denoise_window", 5),
]


def test_every_common_flag_sets_a_run_config_field():
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_common(parser)
    common = {action.dest for action in parser._actions}
    assert common - {"config"} <= fields
    assert {flag for action in parser._actions for flag in action.option_strings} == {
        "--config", "--out", *(flag for flag, *_ in COMMON_FLAGS)}
    # a subcommand's own options must not be mistaken for config overrides
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a.choices, dict))
    for sub in subparsers.choices.values():
        assert not ({action.dest for action in sub._actions} - common) & fields


@pytest.mark.parametrize("flag, value, key, recorded", COMMON_FLAGS, ids=[r[0] for r in COMMON_FLAGS])
def test_common_flag_lands_under_its_config_key(tmp_path, flag, value, key, recorded):
    expected = RunConfig(d=8).to_document()
    section, _, name = key.rpartition(".")
    target = expected[section] if section else expected
    assert target[name] != recorded
    target[name] = recorded
    out = tmp_path / "out"
    assert run("gen-object", "--d", "8", flag, value, "--out", str(out)) == 0
    assert yaml.safe_load((out / "resolved_config.yaml").read_text()) == expected


def test_out_flag_is_not_recorded(tmp_path):
    out = tmp_path / "somewhere-else"
    assert run("pipeline", "--d", "8", "--out", str(out)) == 0
    text = (out / "resolved_config.yaml").read_text()
    assert "output_dir" not in text and "somewhere-else" not in text
    assert yaml.safe_load(text) == RunConfig(d=8).to_document()


SEED_CASES = [
    pytest.param(("--seed", str(2 ** 64)), id="seed-2**64"),
    pytest.param(("--basis-seed", str(2 ** 64)), id="basis-seed-2**64"),
    pytest.param(("--basis-seed", "-1"), id="negative-basis-seed"),
    pytest.param(("--seed", "-1", "--flux", "1e6"), id="negative-seed-sampled"),
]


@pytest.mark.parametrize("flags", SEED_CASES)
def test_pipeline_rejects_out_of_range_seeds(tmp_path, capsys, flags):
    assert run("pipeline", "--d", "8", *flags, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("basis", ["hadamard", "random"])
@pytest.mark.parametrize("d", ["1", "0", "-4"])
def test_pipeline_d_below_two_is_usage_error_before_any_file(tmp_path, capsys, d, basis):
    out = tmp_path / "out"
    out.mkdir()
    assert run("pipeline", "--d", d, "--basis", basis, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: d: must be a power of two and at least 2, got {d}\n"
    assert list(out.iterdir()) == []


def test_pipeline_empty_sampled_series_prints_one_error_line(tmp_path):
    # flux 1e-300 samples zero counts everywhere; run as a process to see every warning
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from ghostphase.cli import main; sys.exit(main())"
    result = subprocess.run([sys.executable, "-c", code, "pipeline", "--d", "32", "--flux", "1e-300",
                             "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr == "error: the sampled cos series is empty: its counts sum to zero\n"


def test_pipeline_accepts_largest_seeds(tmp_path):
    top = str(2 ** 64 - 1)
    assert run("pipeline", "--d", "8", "--basis", "random", "--basis-seed", top,
               "--flux", "1e6", "--seed", top, "--out", str(tmp_path)) == 0
    header = (tmp_path / "series_cos.csv").read_text().splitlines()[0]
    assert f"basis=permuted:{top}" in header and f"seed={top}" in header


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


def _resize(d):
    """The series cut to its first d*d rows under a `# d=<d>` header."""
    return lambda text: "".join(text.replace("# d=4 ", f"# d={d} ", 1).splitlines(True)[:d * d + 1])


def _sin_only(corrupt):
    return lambda text: corrupt(text) if " kind=sin " in text else text


# READ: reading the cos file fails; SIN: reading the sin file fails; STAGE: reconstruct fails on
# both files' values.  A header's basis and d are checked as the file is read
READ, SIN, STAGE = ("cos",), ("sin",), ("cos", "sin")

# series-file corruption -> reconstruct must exit 3, naming the files to blame, without a traceback
MALFORMED_SERIES = [
    pytest.param(_replace("\n1,", "\n1;"), READ, id="row-without-comma"),
    pytest.param(_replace("\n1,", "\n1,x"), READ, id="row-bad-number"),
    pytest.param(_replace(" kind=", " kind "), READ, id="header-token-without-equals"),
    pytest.param(_replace("seed=none", "seed=abc"), READ, id="header-bad-seed"),
    pytest.param(_replace("hadamard:natural", "hadamard:bogus"), READ, id="hadamard-bogus"),
    # the random family's descriptor is permuted:<seed>; random:<seed> named an older mask set
    pytest.param(_replace("hadamard:natural", "permuted:abc"), READ, id="random-abc"),
    pytest.param(_replace("hadamard:natural", "permuted:-1"), READ, id="random-negative"),
    pytest.param(_replace("hadamard:natural", f"permuted:{2 ** 64}"), READ, id="random-2**64"),
    pytest.param(_replace("hadamard:natural", "random:3"), READ, id="retired-random-descriptor"),
    pytest.param(_resize(3), READ, id="hadamard-d3"),
    pytest.param(_resize(1), READ, id="d-1"),
    pytest.param(lambda text: text.splitlines(True)[0], READ, id="header-only"),
    pytest.param(_sin_only(_replace("hadamard:natural", "hadamard:bogus")), SIN, id="sin-hadamard-bogus"),
    # each header is well formed, but the two name different bases
    pytest.param(_sin_only(_replace("hadamard:natural", "hadamard:sequency")), STAGE,
                 id="sin-other-ordering"),
]


@pytest.mark.parametrize("corrupt, blamed", MALFORMED_SERIES)
def test_reconstruct_malformed_series_is_data_error(tmp_path, capsys, recwarn, corrupt, blamed):
    out = tmp_path / "out"
    assert run("gen-object", "--d", "4", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    for channel in ("cos", "sin"):
        path = out / f"series_{channel}.csv"
        path.write_text(corrupt(path.read_text()))
    capsys.readouterr()
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_sin.csv"), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    files = ", ".join(str(out / f"series_{channel}.csv") for channel in blamed)
    assert err.startswith(f"error: {files}: "), err
    assert not recwarn.list   # a warning would print to stderr outside pytest


def _analyze(bad):
    return "analyze", "--phase", bad, "--truth", bad


def _acquire(bad):
    return "acquire", "--object", bad


def _support_of(phase, flag="--support"):
    """analyze of the 8x8 field ``phase`` beside the bad file, with the bad file as a support."""
    def command(bad):
        here = os.path.dirname(bad)
        return ("analyze", "--phase", os.path.join(here, phase), "--truth",
                os.path.join(here, "object.gcf"), flag, bad)
    return command


def _field(d, kind="complex"):
    dtype = "<c16" if kind == "complex" else "<f8"
    return f"GCF1\nd={d} kind={kind}\n".encode() + np.ones((d, d), dtype).tobytes()


# field-file bytes -> the command reading them must exit 3 with one error line
MALFORMED_FIELDS = [
    pytest.param(b"GCF1\nd=2 kind=r\xffeal\n" + bytes(32), _analyze, id="header-not-utf8"),
    pytest.param(b"GCF1\nd=-2 kind=real\n" + bytes(32), _analyze, id="negative-d"),
    pytest.param(b"GCF1\nd=0 kind=real\n", _analyze, id="zero-d"),
    # a well-formed real field, such as gi_cos.gcf, is not a phase map
    pytest.param(b"GCF1\nd=2 kind=real\n" + bytes(32), _analyze, id="real-kind-phase-map"),
    # acquire measures an object at its own size, which the hadamard basis cannot scan
    pytest.param(_field(6), _acquire, id="hadamard-object-6x6"),
    pytest.param(_field(1), _acquire, id="hadamard-object-1x1"),
    pytest.param(_field(12), _acquire, id="hadamard-object-12x12"),
    # analyze records its map's size as d, so it takes the same rule
    pytest.param(_field(6), _analyze, id="phase-map-6x6"),
    # a support must be the size of its map: a 1x1 one used to index out of bounds (phase map),
    # broadcast over the map (complex map), or skew phase_rmse_rad (truth)
    pytest.param(_field(1, "real"), _support_of("phase.gcf"), id="support-1x1-of-phase-map"),
    pytest.param(_field(1, "real"), _support_of("object.gcf"), id="support-1x1-of-complex-map"),
    pytest.param(_field(1, "real"), _support_of("object.gcf", "--truth-support"),
                 id="truth-support-1x1"),
]


@pytest.mark.parametrize("raw, command", MALFORMED_FIELDS)
def test_analyze_malformed_field_is_data_error(tmp_path, capsys, raw, command):
    bad = tmp_path / "bad.gcf"
    bad.write_bytes(raw)
    (tmp_path / "phase.gcf").write_bytes(_field(8, "phase"))
    (tmp_path / "object.gcf").write_bytes(_field(8))
    out = tmp_path / "out"
    assert run(*command(str(bad)), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(cfg=_CONFIGS)
def test_config_dump_matches_yaml_safe_dump(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "resolved_config.yaml"
    cfg.dump(path)
    assert path.read_text() == yaml.safe_dump(cfg.to_document(), sort_keys=True)


@pytest.mark.parametrize("value, text", [
    (math.inf, ".inf"), (-math.inf, "-.inf"), (math.nan, ".nan"), (1e16, "1.0e+16"),
    (5e-324, "5.0e-324"), (10 ** 20, "100000000000000000000"), (1e6, "1000000.0")])
def test_config_dump_number_spellings(tmp_path, value, text):
    RunConfig(illumination_radius=value).dump(tmp_path / "c.yaml")
    assert f"\nillumination_radius: {text}\n" in (tmp_path / "c.yaml").read_text()


def test_config_dump_with_object_path_round_trips(tmp_path):
    cfg = RunConfig(object_kind="from-file", object_path=str(tmp_path / "a b:c #d.gcf"))
    cfg.dump(tmp_path / "c.yaml")
    assert load_config(tmp_path / "c.yaml").object_path == cfg.object_path


def test_importing_the_cli_does_not_import_yaml():
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ghostphase.cli; sys.exit('yaml' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_only_the_pipeline_loads_openssl(tmp_path):
    # hashlib loads OpenSSL (_hashlib, +3.5 MB RSS), and only the pipeline's manifest hashes
    assert run("pipeline", "--d", "16", "--out", str(tmp_path)) == 0
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy; loaded = ['_hashlib' in sys.modules]\n"
            "from ghostphase import cli; loaded.append('_hashlib' in sys.modules)\n"
            "out = sys.argv[1]\n"
            "for argv in (['reconstruct', '--d', '16', '--cos', out + '/series_cos.csv',\n"
            "              '--sin', out + '/series_sin.csv', '--out', out + '/r'],\n"
            "             ['analyze', '--phase', out + '/r/phase.gcf', '--support', out + '/r/support.gcf',\n"
            "              '--truth', out + '/object.gcf', '--out', out + '/a']):\n"
            "    assert cli.main(argv) == 0\n"
            "    loaded.append('_hashlib' in sys.modules)\n"
            "print(loaded)\n")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1]
    if loaded.startswith("[True"):
        pytest.skip("this numpy release loads OpenSSL on import")
    assert loaded == "[False, False, False, False]"


def test_pipeline_frees_its_stage_results_before_hashing(tmp_path, monkeypatch):
    # with the object, series and reconstruction alive, OpenSSL loaded on top of 4.8 MB at d=256
    live = []
    sha256 = hashlib.sha256

    def recording(*args):
        if not live:
            live.append(tracemalloc.get_traced_memory()[0])
        return sha256(*args)

    monkeypatch.setattr(hashlib, "sha256", recording)
    tracemalloc.start()
    try:
        code, stderr = run_cli(["pipeline", "--d", "256", "--out", str(tmp_path)])
    finally:
        tracemalloc.stop()
    assert code == 0, stderr
    assert live[0] < 2 ** 20


def test_no_cli_run_loads_numpy_random(tmp_path):
    # wht computes the Philox words of the basis permutation and of the shot-noise counts
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy; loaded = ['numpy.random' in sys.modules]\n"
            "from ghostphase import cli\n"
            "out, basis = sys.argv[1], ['--d', '16', '--basis', 'random', '--basis-seed', '5']\n"
            "for argv in (['pipeline', *basis, '--out', out + '/p'],\n"
            "             ['acquire', *basis, '--object', out + '/p/object.gcf', '--out', out + '/a'],\n"
            "             ['reconstruct', '--d', '16', '--cos', out + '/a/series_cos.csv',\n"
            "              '--sin', out + '/a/series_sin.csv', '--out', out + '/r'],\n"
            "             ['gen-masks', *basis, '--count', '5', '--out', out + '/m'],\n"
            "             ['pipeline', *basis, '--flux', '1e6', '--out', out + '/f']):\n"
            "    assert cli.main(argv) == 0\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "print(loaded)\n")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.splitlines()[-1]
    if loaded.startswith("[True"):
        pytest.skip("this numpy release imports numpy.random on import")
    assert loaded == "[False, False, False, False, False, False]"


# sha256 of the text artifacts, recorded from the row-by-row series writer
# and the PyYAML config dump; the sampled series from the package's own Philox
# sampler, so they pin the counts across numpy releases
GOLDEN_TEXT_ARTIFACTS = {
    (): {
        "series_cos.csv": "00b3b4830d4502c3866a156d2bf9535c6ab9a798c75f3ec1b60b6edfebe4f592",
        "series_sin.csv": "bf5036535cb2aac454feab8cf42a6e3f7b471737c5526eb41373b8b3d1c92a25",
        "resolved_config.yaml": "033e5e598c93d91392f0ee44b1fbff94ee74624e50f8bcee009132265abc6b81",
    },
    ("--flux", "1e6"): {
        "series_cos.csv": "c7852680eb3ba856743cb753548426ebf29d9ccdd3c43efcfd18e767e6593f4b",
        "series_sin.csv": "1e68f39a94f6a2be54a8a19506f1f7f3940412de9b7d736676c1c417a679c6a1",
        "resolved_config.yaml": "282da9c17976a511c42ac161db7a76a1cc9f7795ea51bc273624eccd71099c40",
    },
}


@pytest.mark.parametrize("flags", list(GOLDEN_TEXT_ARTIFACTS), ids=["exact", "flux-1e6"])
def test_pipeline_text_artifacts_match_golden_digests(tmp_path, flags):
    assert run("pipeline", "--d", "32", *flags, "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_TEXT_ARTIFACTS[flags]}
    assert digests == GOLDEN_TEXT_ARTIFACTS[flags]


# sha256 of the series of the benchmark's exact request, recorded from the
# writer that called repr once per distinct value. No BLAS routine runs, so
# they hold for any BLAS library and thread count
GOLDEN_EXACT_D256_SERIES = {
    "series_cos.csv": "184359f3b24e98cc1b13acfe60f192fcabc833a27c9447edf7fff2e50984aca7",
    "series_sin.csv": "c41ab91edf413e09e578d9a29468d3e8a60beb354259f49ed86f619e836a170a",
}


def test_exact_d256_ring_series_match_golden_digests(tmp_path):
    assert run("pipeline", "--d", "256", "--kind", "azimuthal-ring-phase", "--denoise-window", "3",
               "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_EXACT_D256_SERIES}
    assert digests == GOLDEN_EXACT_D256_SERIES


@pytest.mark.parametrize("d", ["128", "256"])
def test_exact_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, d):
    # BLAS splits a dot product of ~10,000 or more elements across its threads, and
    # d=128 is the first grid above that; one BLAS thread must write the same bytes
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    one = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    inherited, one_thread = tmp_path / "inherited", tmp_path / "one-thread"
    for out, run_env in ((inherited, env), (one_thread, one)):
        argv = ["pipeline", "--d", d, "--kind", "azimuthal-ring-phase", "--denoise-window", "3",
                "--out", str(out)]
        result = subprocess.run([sys.executable, "-m", "ghostphase.cli", *argv], env=run_env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
    names = sorted(os.listdir(inherited))
    assert names == sorted(os.listdir(one_thread))
    assert [n for n in names if (inherited / n).read_bytes() != (one_thread / n).read_bytes()] == []


def test_src_calls_no_blas_or_lapack_routine():
    # numpy's dot products and linear algebra go through BLAS and LAPACK, whose threads
    # change the bits of a sum and whose code pages add to every process's RSS
    pattern = re.compile(r"np\.linalg\.|\.dot\(|np\.(vdot|matmul|einsum|tensordot)| @ ")
    calls = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(pathlib.Path(ghostphase.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert calls == []


def test_src_names_no_random_module():
    # counts and masks come from wht's own Philox words, the same with every numpy release;
    # numpy.random's streams may change between releases, and its import costs ~5 MB of RSS
    pattern = re.compile(r"random\.|import random|numpy import .*\brandom\b")
    uses = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(pathlib.Path(ghostphase.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert uses == []


def test_exact_pipeline_does_not_load_fractions_or_decimal(tmp_path):
    # the series formatter builds its powers of ten from ints; either module costs every process
    src = os.path.dirname(os.path.dirname(ghostphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy; names = {'fractions', 'decimal'}; print(sorted(names & set(sys.modules)))\n"
            "from ghostphase import cli\n"
            "assert cli.main(['pipeline', '--d', '16', '--kind', 'azimuthal-ring-phase', '--out', sys.argv[1]]) == 0\n"
            "print(sorted(names & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    with_numpy, after_pipeline = lines[0], lines[-1]
    if with_numpy != "[]":
        pytest.skip(f"this numpy release imports {with_numpy} on import")
    assert after_pipeline == "[]"


def test_pipeline_builds_random_basis_once(tmp_path):
    # acquire and reconstruct each name the basis; its permutation is drawn once
    wht._pixel_permutation.cache_clear()
    assert run("pipeline", "--d", "8", "--basis", "random", "--basis-seed", "3",
               "--out", str(tmp_path)) == 0
    assert wht._pixel_permutation.cache_info().misses == 1


@pytest.mark.parametrize("descriptor, attr", [("permuted:3", "perm")])
def test_cached_basis_arrays_are_read_only(descriptor, attr):
    basis = wht.OrthoMatrix.from_descriptor(descriptor, 8)
    again = wht.OrthoMatrix.from_descriptor(descriptor, 8)
    assert again == basis == wht.OrthoMatrix(8, seed=3)
    assert getattr(again, attr) is getattr(basis, attr)
    assert not getattr(basis, attr).flags.writeable


@pytest.mark.parametrize("basis", [wht.OrthoMatrix(8), wht.OrthoMatrix(8, "sequency"),
                                   wht.OrthoMatrix(8, seed=5)], ids=["natural", "sequency", "permuted"])
def test_config_records_and_rebuilds_a_basis(basis):
    # a Hadamard basis names no seed, so the configured one stays; d is the config's own
    cfg = RunConfig(d=32, basis_seed=9).with_scan(basis=basis, flux=None, seed=None)
    assert cfg.validate().d == 32 and cfg.basis_seed == (9 if basis.seed is None else 5)
    assert dataclasses.replace(cfg, d=8).scan_basis() == basis


@pytest.mark.parametrize("series_flags, flags, recorded", [
    (("--basis", "random", "--basis-seed", "4"), (),
     {"basis": "random", "basis_seed": 4, "ordering": "natural"}),
    (("--basis", "random", "--basis-seed", "4"), ("--ordering", "sequency", "--basis-seed", "7"),
     {"basis": "random", "basis_seed": 4, "ordering": "natural"}),
    (("--ordering", "sequency"), ("--basis-seed", "5"),
     {"basis": "hadamard", "basis_seed": 5, "ordering": "sequency"}),
], ids=["permuted", "permuted-other-flags", "hadamard-sequency"])
def test_reconstruct_records_the_basis_its_series_name(tmp_path, series_flags, flags, recorded):
    # the series header picks the basis, so resolved_config.yaml records that basis, not the flags;
    # a Hadamard series names no seed, so the configured one stays
    series = tmp_path / "series"
    assert run("pipeline", "--d", "8", *series_flags, "--out", str(series)) == 0
    out = tmp_path / "out"
    assert run("reconstruct", "--d", "8", *flags, "--cos", str(series / "series_cos.csv"),
               "--sin", str(series / "series_sin.csv"), "--out", str(out)) == 0
    assert (out / "phase.gcf").read_bytes() == (series / "phase.gcf").read_bytes()
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert {key: resolved[key] for key in recorded} == recorded


@pytest.mark.parametrize("flags", [(), ("--flux", "1e9", "--seed", "2")], ids=["flagless", "other-flags"])
def test_reconstruct_records_the_flux_and_seed_its_series_carry(tmp_path, flags):
    # the header says how the series were sampled, so resolved_config.yaml records that, not the flags
    series = tmp_path / "series"
    assert run("pipeline", "--d", "16", "--flux", "1e6", "--seed", "5", "--out", str(series)) == 0
    out = tmp_path / "out"
    assert run("reconstruct", "--d", "16", *flags, "--cos", str(series / "series_cos.csv"),
               "--sin", str(series / "series_sin.csv"), "--out", str(out)) == 0
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert (resolved["flux"], resolved["acquisition_seed"]) == (1e6, 5)
    # the record replays the stage byte for byte, its own record included
    again = tmp_path / "again"
    assert run("reconstruct", "--config", str(out / "resolved_config.yaml"), "--cos",
               str(series / "series_cos.csv"), "--sin", str(series / "series_sin.csv"),
               "--out", str(again)) == 0
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("sampling", ["flux=-5.0 seed=5", "flux=nan seed=5", "flux=1000000.0 seed=-1",
                                      "flux=exact seed=5", "flux=1000000.0 seed=none"])
def test_reconstruct_rejects_a_header_its_record_cannot_hold(tmp_path, sampling):
    # recorded as it stood, such a header gave a resolved_config.yaml that did not run again;
    # an exact header that names a seed, or a sampled one that names none, recorded a seed never drawn
    series = tmp_path / "series"
    assert run("pipeline", "--d", "8", "--flux", "1e6", "--seed", "5", "--out", str(series)) == 0
    text = (series / "series_cos.csv").read_text()
    assert text.startswith("# d=8 basis=hadamard:natural kind=cos flux=1000000.0 seed=5\n")
    cos = tmp_path / "cos.csv"
    cos.write_text(text.replace("flux=1000000.0 seed=5", sampling, 1))
    out = tmp_path / "out"
    code, stderr = run_cli(["reconstruct", "--d", "8", "--cos", str(cos), "--sin", str(series / "series_sin.csv"),
                            "--out", str(out)])
    assert code == 3 and stderr.startswith(f"error: {cos}: ") and stderr.count("\n") == 1, stderr
    assert not out.exists()


def test_reconstruct_records_no_flux_for_exact_series(tmp_path):
    series = tmp_path / "series"
    assert run("pipeline", "--d", "8", "--out", str(series)) == 0
    out = tmp_path / "out"
    assert run("reconstruct", "--d", "8", "--flux", "1e6", "--seed", "3", "--cos",
               str(series / "series_cos.csv"), "--sin", str(series / "series_sin.csv"), "--out", str(out)) == 0
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    # an exact series names no sampling seed, so the configured one stays
    assert (resolved["flux"], resolved["acquisition_seed"]) == (None, 3)
    assert (out / "phase.gcf").read_bytes() == (series / "phase.gcf").read_bytes()


@pytest.mark.parametrize("flags", [(), ("--d", "64"), ("--d", "16")], ids=["default-d", "same-d", "other-d"])
def test_analyze_records_the_d_of_its_phase_map(tmp_path, flags):
    # the map's size is what gets analysed, so resolved_config.yaml records it, as acquire does
    series = tmp_path / "series"
    assert run("pipeline", "--d", "64", "--out", str(series)) == 0
    out = tmp_path / "out"
    assert run("analyze", *flags, "--phase", str(series / "phase.gcf"), "--support",
               str(series / "support.gcf"), "--truth", str(series / "object.gcf"), "--out", str(out)) == 0
    assert (out / "report.txt").read_bytes() == (series / "report.txt").read_bytes()
    assert yaml.safe_load((out / "resolved_config.yaml").read_text())["d"] == 64
    # the recorded config runs the same analysis again
    again = tmp_path / "again"
    assert run("analyze", "--config", str(out / "resolved_config.yaml"), "--phase",
               str(series / "phase.gcf"), "--support", str(series / "support.gcf"),
               "--truth", str(series / "object.gcf"), "--out", str(again)) == 0
    assert (again / "report.txt").read_bytes() == (series / "report.txt").read_bytes()


@pytest.mark.parametrize("d, seed", [(2, 1), (4, 12)], ids=["d2-seed1", "d4-seed12"])
def test_pipeline_runs_random_seeds_that_drew_singular_sets(tmp_path, d, seed):
    # i.i.d. sign masks were singular (d=2) or rank-deficient (d=4) for these seeds;
    # shuffled Hadamard masks are orthonormal for every seed
    code, stderr = run_cli(["pipeline", "--d", str(d), "--basis", "random", "--basis-seed", str(seed),
                            "--kind", "azimuthal-ring-phase", "--out", str(tmp_path)])
    assert code == 0 and stderr == ""
    report = dict(line.split(": ") for line in (tmp_path / "report.txt").read_text().splitlines())
    if d == 4:
        assert float(report["phase_rmse_rad"]) < 1e-12


def test_run_that_drew_a_singular_random_set_writes_every_output(tmp_path):
    # with i.i.d. sign masks this run failed in reconstruct and left no output directory;
    # it now writes the same files as a Hadamard run
    random_out, hadamard_out = tmp_path / "random", tmp_path / "hadamard"
    code, stderr = run_cli(["pipeline", "--d", "2", "--basis", "random", "--basis-seed", "1",
                            "--out", str(random_out)])
    assert code == 0 and stderr == ""
    assert run("pipeline", "--d", "2", "--out", str(hadamard_out)) == 0
    names = sorted(p.name for p in hadamard_out.iterdir())
    assert "series_cos.csv" in names and "manifest.json" in names
    assert sorted(p.name for p in random_out.iterdir()) == names


def test_pipeline_honours_yaml_object_and_analysis_keys(tmp_path):
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "d": 32, "object": {"kind": "annulus-amplitude", "annulus_radii": [4, 9]},
        "analysis": {"row": 10, "samples": 32}}))
    staged, piped = tmp_path / "gen-object", tmp_path / "pipeline"
    assert run("gen-object", "--config", str(cfgfile), "--out", str(staged)) == 0
    assert run("pipeline", "--config", str(cfgfile), "--out", str(piped)) == 0
    for name in ("object.gcf", "resolved_config.yaml"):
        assert (piped / name).read_bytes() == (staged / name).read_bytes()
    resolved = yaml.safe_load((piped / "resolved_config.yaml").read_text())
    assert resolved["object"]["annulus_radii"] == [4, 9]
    report = dict(line.split(": ") for line in (piped / "report.txt").read_text().splitlines())
    assert report["cross_section_row"] == "10" and report["azimuthal_radius"] == "6.5"
    assert len((piped / "cross_azimuthal.csv").read_text().splitlines()) == 1 + 32


@pytest.mark.parametrize("kind", ["from-file", "annulus-amplitude"])
def test_pipeline_rerun_from_its_resolved_config_reproduces_the_manifest(tmp_path, kind):
    assert run("gen-object", "--d", "8", "--kind", "spiral-flower-phase",
               "--out", str(tmp_path / "source")) == 0
    document = {
        "d": 8, "illumination_radius": 3.5, "basis": "random", "ordering": "natural",
        "basis_seed": 5, "flux": 1e6, "acquisition_seed": 4, "artifact_mode": "heuristic",
        "denoise_window": 3, "output_dir": str(tmp_path / "unused"),
        "object": {"kind": kind, "slit_width": 2, "slit_gap": 3, "annulus_radii": [1.5, 3],
                   "petals": 5, "bands": 2, "phase_depth": 2.5,
                   "path": str(tmp_path / "source" / "object.gcf")},
        "analysis": {"row": 3, "radius": 2.5, "samples": 16},
    }
    if kind != "from-file":
        del document["object"]["path"]
    cfgfile = tmp_path / "run.yaml"
    cfgfile.write_text(yaml.safe_dump(document))
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("pipeline", "--config", str(cfgfile), "--out", str(first)) == 0
    assert run("pipeline", "--config", str(first / "resolved_config.yaml"),
               "--out", str(second)) == 0
    assert (first / "manifest.json").read_text() == (second / "manifest.json").read_text()
    assert not (tmp_path / "unused").exists()
    del document["output_dir"]
    document["object"].setdefault("path", None)
    assert yaml.safe_load((first / "resolved_config.yaml").read_text()) == document


def test_pipeline_reads_none_of_its_files(tmp_path, monkeypatch):
    def refuse(path, *args):
        raise AssertionError(f"pipeline read {path}")

    monkeypatch.setattr(formats, "read_series", refuse)
    monkeypatch.setattr(formats, "read_field", refuse)
    assert run("pipeline", "--d", "16", "--kind", "azimuthal-ring-phase",
               "--denoise-window", "3", "--out", str(tmp_path)) == 0
    assert (tmp_path / "manifest.json").is_file()


def _manifest_text(out):
    artifacts = [{"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                 for p in sorted(out.iterdir()) if p.name != "manifest.json"]
    return json.dumps({"artifacts": artifacts}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("flags", [
    pytest.param(("--d", "32"), id="d32-exact"),
    pytest.param(("--d", "32", "--flux", "1e6", "--seed", "5"), id="d32-flux"),
    pytest.param(("--d", "8", "--basis", "random", "--basis-seed", "5"), id="d8-random"),
    pytest.param(("--d", "32", "--artifact-mode", "analytic"), id="d32-analytic"),
    pytest.param(("--d", "32", "--artifact-mode", "analytic", "--flux", "1e6", "--seed", "5"), id="d32-analytic-flux"),
])
def test_pipeline_manifest_matches_stage_by_stage_run(tmp_path, flags):
    flags = (*flags, "--kind", "azimuthal-ring-phase", "--denoise-window", "3")
    piped, staged = tmp_path / "pipeline", tmp_path / "stages"
    assert run("pipeline", *flags, "--out", str(piped)) == 0
    s = str(staged)
    assert run("gen-object", *flags, "--out", s) == 0
    assert run("acquire", *flags, "--object", f"{s}/object.gcf", "--out", s) == 0
    assert run("reconstruct", *flags, "--cos", f"{s}/series_cos.csv",
               "--sin", f"{s}/series_sin.csv", "--object", f"{s}/object.gcf", "--out", s) == 0
    assert run("analyze", *flags, "--phase", f"{s}/phase.gcf", "--support", f"{s}/support.gcf",
               "--truth", f"{s}/object.gcf", "--out", s) == 0
    assert (piped / "manifest.json").read_text() == _manifest_text(staged)


def _assert_clean_failure(code, stderr, out):
    """Exit 2 or 3 with one error line and no output directory."""
    assert code in (2, 3) and stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert not out.exists()


# each fails in a late stage, after earlier stages have run
@pytest.mark.parametrize("argv, config", [
    # a flux this small draws no counts, so ghost_image fails after the object and series are made
    pytest.param(("pipeline", "--d", "16", "--flux", "1e-300"), None, id="flux-draws-no-counts"),
    pytest.param(("pipeline",), "d: 16\nanalysis: {radius: 30}\n", id="radius-off-grid"),
    pytest.param(("gen-masks", "--d", "8", "--index", "64"), None, id="mask-index-off-range"),
    pytest.param(("gen-masks", "--d", "8", "--count", "0"), None, id="mask-count-zero"),
    pytest.param(("gen-masks", "--d", "8", "--count", "-3"), None, id="mask-count-negative"),
    pytest.param(("gen-masks", "--d", "8", "--count", "65"), None, id="mask-count-past-N"),
])
def test_failing_run_writes_no_output_directory(tmp_path, argv, config):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.yaml").write_text(config)
        argv = (*argv, "--config", str(tmp_path / "run.yaml"))
    code, stderr = run_cli([*argv, "--out", str(out)])
    assert code == 2
    _assert_clean_failure(code, stderr, out)
    if "--count" in argv:
        assert stderr.startswith("error: --count: must be in [1, 64], got ")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("d", [3000000, 2 ** 32])
@pytest.mark.parametrize("command", ["analyze", "acquire"])
def test_forged_field_header_read_through_a_pipe_is_data_error(tmp_path, command, d):
    # a pipe cannot be sized before its array is allocated, so a d too large to allocate
    # (65.5 TiB, or more elements than numpy can index) is the file's fault.  The message's
    # tail is left open: where the allocation succeeds, the payload size check fails instead
    r, w = os.pipe()
    try:
        os.write(w, f"GCF1\nd={d} kind=real\n".encode())
        os.close(w)
        path = f"/dev/fd/{r}"
        inputs = ["--phase", path, "--truth", path] if command == "analyze" else ["--object", path]
        out = tmp_path / "out"
        code, stderr = run_cli([command, *inputs, "--out", str(out)])
    finally:
        os.close(r)
    assert code == 3 and stderr.startswith(f"error: {path}: "), stderr
    _assert_clean_failure(code, stderr, out)


@pytest.mark.parametrize("argv, module, name", [
    (("pipeline", "--d", "16"), scene, "make_object"),
    (("gen-masks", "--d", "16", "--count", "1"), wht.OrthoMatrix, "mask"),
], ids=["pipeline", "gen-masks"])
def test_a_size_too_large_for_memory_is_usage_error(tmp_path, monkeypatch, argv, module, name):
    # the patched function stands in for a grid too large to allocate (d=1048576 asks for
    # 8 TiB); a test never allocates one, since an overcommitting host would touch its pages
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(module, name, out_of_memory)
    out = tmp_path / "out"
    code, stderr = run_cli([*argv, "--out", str(out)])
    assert code == 2 and stderr == "error: out of memory: Unable to allocate 8.00 TiB\n"
    _assert_clean_failure(code, stderr, out)


@pytest.mark.parametrize("command", ["gen-object", "pipeline"])
def test_from_file_object_that_overflows_is_data_error(tmp_path, command):
    # a norm that overflows, is zero, or underflows to zero cannot normalize the object;
    # a phase or real field is not an object at all
    fields = [(np.full((8, 8), value, complex), "complex") for value in (1e300, 0.0, 1e-320)]
    fields += [(np.full((8, 8), 0.5), "phase"), (np.full((8, 8), 0.5), "real")]
    for i, (data, kind) in enumerate(fields):
        path = tmp_path / f"object-{i}-{kind}.gcf"
        write_field(path, data, kind)
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(yaml.safe_dump({"d": 8, "object": {"kind": "from-file",
                                                              "path": str(path)}}))
        out = tmp_path / "out"
        code, stderr = run_cli([command, "--config", str(cfgfile), "--out", str(out)])
        assert code == 3 and str(path) in stderr, (i, kind, stderr)
        _assert_clean_failure(code, stderr, out)


def test_from_file_object_of_the_wrong_size_names_its_key(tmp_path, capsys):
    assert run("gen-object", "--d", "8", "--kind", "flat", "--out", str(tmp_path / "src")) == 0
    path = tmp_path / "src" / "object.gcf"
    (tmp_path / "run.yaml").write_text(yaml.safe_dump({"d": 16, "object": {"kind": "from-file",
                                                                           "path": str(path)}}))
    capsys.readouterr()
    assert run("pipeline", "--config", str(tmp_path / "run.yaml"), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: object.path: {path} is 8x8, expected 16x16\n"
    assert not (tmp_path / "out").exists()


def test_a_non_finite_field_value_is_data_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.gcf").write_bytes(b"GCF1\nd=2 kind=phase\n" + np.array([np.nan, 0, 0, 0]).tobytes())
    code, stderr = run_cli(["analyze", "--phase", "nan.gcf", "--truth", "nan.gcf", "--out", "out"])
    assert (code, stderr) == (3, "error: nan.gcf: field values must be finite\n")
    assert not (tmp_path / "out").exists()


def test_analyze_of_a_phase_map_and_a_truth_of_different_sizes_names_both(tmp_path):
    phase, truth = str(tmp_path / "d8" / "object.gcf"), str(tmp_path / "d16" / "object.gcf")
    assert run("gen-object", "--d", "8", "--out", str(tmp_path / "d8")) == 0
    assert run("gen-object", "--d", "16", "--out", str(tmp_path / "d16")) == 0
    code, stderr = run_cli(["analyze", "--phase", phase, "--truth", truth,
                            "--out", str(tmp_path / "out")])
    assert code == 3
    assert stderr == f"error: {phase}, {truth}: phase and truth grids have different sizes\n"
    assert not (tmp_path / "out").exists()


def test_analyze_phase_map_without_a_support_file_is_supported_everywhere(tmp_path):
    # the flat truth lights every pixel, so the joint support is the phase map's
    assert run("gen-object", "--d", "8", "--kind", "flat", "--out", str(tmp_path)) == 0
    write_field(tmp_path / "phase.gcf", np.zeros((8, 8)), "phase")
    out = tmp_path / "out"
    assert run("analyze", "--phase", str(tmp_path / "phase.gcf"),
               "--truth", str(tmp_path / "object.gcf"), "--out", str(out)) == 0
    report = dict(line.split(": ") for line in (out / "report.txt").read_text().splitlines())
    assert (report["support_pixels"], report["phase_rmse_rad"]) == ("64", "0.0")


def test_analyze_complex_phase_map_honours_its_support_file(tmp_path):
    assert run("gen-object", "--d", "16", "--kind", "flat", "--out", str(tmp_path)) == 0
    left = np.zeros((16, 16))
    left[:, :8] = 1.0
    write_field(tmp_path / "left.gcf", left, "real")
    for name, support in (("all", ()), ("left", ("--support", str(tmp_path / "left.gcf")))):
        out = tmp_path / name
        assert run("analyze", "--phase", str(tmp_path / "object.gcf"), *support,
                   "--truth", str(tmp_path / "object.gcf"), "--out", str(out)) == 0
        report = dict(line.split(": ") for line in (out / "report.txt").read_text().splitlines())
        assert report["support_pixels"] == ("256" if name == "all" else "128")
    # a support must be a real field of the map's size
    write_field(tmp_path / "small.gcf", left[:8, :8], "real")
    write_field(tmp_path / "phase.gcf", np.full((16, 16), 0.25), "phase")
    for name in ("small", "phase", "object"):
        support = str(tmp_path / f"{name}.gcf")
        code, stderr = run_cli(["analyze", "--phase", str(tmp_path / "object.gcf"), "--support",
                                support, "--truth", str(tmp_path / "object.gcf"),
                                "--out", str(tmp_path / "bad")])
        assert code == 3 and support in stderr, stderr
        _assert_clean_failure(code, stderr, tmp_path / "bad")
        if name != "small":
            assert stderr == f"error: {support}: support must be a real field\n"


@settings(max_examples=200, deadline=None)
@given(cfg=st.builds(RunConfig, **{**_CONFIG_FIELDS, "d": st.integers(1, 8)}))
# flux times the reference sample overflowed with a RuntimeWarning
@example(cfg=RunConfig(d=2, object_kind="flat", flux=8.988465674311582e307))
def test_pipeline_completes_or_fails_cleanly(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("run")
    cfg.dump(work / "run.yaml")
    out = work / "out"
    code, stderr = run_cli(["pipeline", "--config", str(work / "run.yaml"), "--out", str(out)])
    if code == 0:
        assert stderr == "" and (out / "manifest.json").is_file()
    else:
        _assert_clean_failure(code, stderr, out)


def test_commands_peak_within_their_working_set_bounds(tmp_path):
    # Traced memory above what is held when main starts, in N-sized float64 arrays (8 d^2
    # bytes), exact ring object, window 3.  At d=512 this code read 11.80 N for the pipeline,
    # in analyze, and 8.80 N for reconstruct, as it writes its grids.  Whole-grid temporaries
    # read 14.87 N (write_series) and 12.45 N (denoise).  At d=256 the series writer's fixed
    # block buffers (~2.3 MB) are 4.5 N, so the bounds are read at d=512
    d = 512
    n_bytes = 8 * d * d
    common = ["--d", str(d), "--kind", "azimuthal-ring-phase", "--denoise-window", "3"]
    series = tmp_path / "pipeline"

    def peak(argv):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, stderr = run_cli(argv + common)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, stderr
        return (top - base) / n_bytes

    assert peak(["pipeline", "--out", str(series)]) <= 12.0
    assert peak(["reconstruct", "--cos", str(series / "series_cos.csv"),
                 "--sin", str(series / "series_sin.csv"), "--out", str(tmp_path / "rec")]) <= 9.5
