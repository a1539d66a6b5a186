import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostphase
from ghostphase import cli, formats, projections
from ghostphase.config import ConfigError, RunConfig, config_from_document, load_config
from ghostphase.formats import read_field, read_series, write_field
from ghostphase.scene import KINDS


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
    np.testing.assert_array_equal(symbols, np.sign(projections.random_basis(64, 8, 3).mask(5)))
    assert run("gen-masks", "--d", "8", "--basis", "random", "--index", "64",
               "--out", str(tmp_path)) == 2


def test_acquire_row_contract(tmp_path):
    out = tmp_path / "out"
    assert run("gen-object", "--d", "16", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    for channel in ("cos", "sin"):
        series = read_series(out / f"series_{channel}.csv")
        assert series.kind == channel and series.values.size == 256


def test_acquire_records_the_object_size_it_measured(tmp_path):
    out, explicit = tmp_path / "out", tmp_path / "explicit"
    assert run("gen-object", "--d", "16", "--out", str(out)) == 0
    assert run("acquire", "--object", str(out / "object.gcf"), "--out", str(out)) == 0
    assert run("acquire", "--d", "16", "--object", str(out / "object.gcf"),
               "--out", str(explicit)) == 0
    resolved = (out / "resolved_config.yaml").read_bytes()
    assert yaml.safe_load(resolved)["d"] == read_series(out / "series_cos.csv").dim == 16
    assert resolved == (explicit / "resolved_config.yaml").read_bytes()


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


def test_reconstruct_channel_role_mismatch(tmp_path):
    out = tmp_path / "out"
    run("gen-object", "--d", "8", "--out", str(out))
    run("acquire", "--object", str(out / "object.gcf"), "--out", str(out))
    assert run("reconstruct", "--cos", str(out / "series_cos.csv"),
               "--sin", str(out / "series_cos.csv"), "--out", str(out)) == 3


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


_NUMBERS = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats())
_CONFIGS = st.builds(
    RunConfig, d=st.integers(1, 2 ** 70), object_kind=st.sampled_from(KINDS),
    slit_width=st.none() | st.integers(-5, 100), slit_gap=st.none() | st.integers(-5, 100),
    annulus_radii=st.none() | st.tuples(_NUMBERS, _NUMBERS),
    petals=st.integers(-5, 100), bands=st.integers(-5, 100), phase_depth=st.floats(),
    illumination_radius=st.none() | _NUMBERS, basis=st.sampled_from(["hadamard", "random"]),
    ordering=st.sampled_from(["natural", "sequency"]), basis_seed=st.integers(0, 2 ** 64 - 1),
    flux=st.none() | st.floats(), acquisition_seed=st.integers(0, 2 ** 64 - 1),
    artifact_mode=st.sampled_from(["analytic", "heuristic"]), denoise_window=st.integers(1, 99),
    analysis_row=st.none() | st.integers(-5, 300), analysis_radius=st.none() | _NUMBERS,
    analysis_samples=st.integers(0, 1000))


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
    assert config_from_document({"d": 12, "basis": "random"}).d == 12


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


def test_acquire_dark_object_at_finite_flux_is_usage_error(tmp_path, capsys):
    dark = tmp_path / "dark.gcf"
    write_field(dark, np.zeros((8, 8), complex), "complex")
    assert run("acquire", "--object", str(dark), "--flux", "1e6", "--out", str(tmp_path)) == 2
    assert "sums to zero" in capsys.readouterr().err


def _lookup(document, dotted):
    for key in dotted.split("."):
        document = document[key]
    return document


# config text -> expected exit code and, on success, resolved values ("section.key")
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
    pytest.param("d: 16\ndenoise_window: -1\n", 2, None, id="negative-denoise-window"),
    pytest.param("d: 8\nanalysis: {samples: 0}\n", 2, None, id="zero-samples"),
    pytest.param("d: 8\nanalysis: {samples: 1}\n", 2, None, id="one-sample"),
    pytest.param("d: 16\nanalysis: {row: 99}\n", 2, None, id="row-off-grid"),
    pytest.param("d: 16\nanalysis: {radius: 99}\n", 2, None, id="radius-off-grid"),
    pytest.param("d: 16\nanalysis: {radius: -2}\n", 2, None, id="negative-radius"),
    pytest.param("d: 16\nobject: {kind: azimuthal-ring-phase, annulus_radii: [10, 16]}\n", 2, None,
                 id="annulus-radius-off-grid"),
    pytest.param("d: 16\nobject: {kind: spiral-flower-phase, bands: 0}\n", 2, None, id="zero-bands"),
    pytest.param("d: 16\nobject: {kind: spiral-flower-phase, bands: -3}\n", 2, None,
                 id="negative-bands"),
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
    assert err == f"error: d: must be at least 2 (a power of two for the hadamard basis), got {d}\n"
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
    assert f"basis=random:{top}" in header and f"seed={top}" in header


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


# series-file corruption -> reconstruct must exit 3 without a traceback
MALFORMED_SERIES = [
    pytest.param(_replace("\n1,", "\n1;"), id="row-without-comma"),
    pytest.param(_replace("\n1,", "\n1,x"), id="row-bad-number"),
    pytest.param(_replace(" kind=", " kind "), id="header-token-without-equals"),
    pytest.param(_replace("seed=none", "seed=abc"), id="header-bad-seed"),
    pytest.param(_replace("hadamard:natural", "hadamard:bogus"), id="hadamard-bogus"),
    pytest.param(_replace("hadamard:natural", "random:abc"), id="random-abc"),
    pytest.param(_replace("hadamard:natural", "random:-1"), id="random-negative"),
    pytest.param(_replace("hadamard:natural", f"random:{2 ** 64}"), id="random-2**64"),
    pytest.param(lambda text: "".join(text.replace("# d=4 ", "# d=3 ", 1).splitlines(True)[:10]),
                 id="hadamard-d3"),
    pytest.param(lambda text: text.splitlines(True)[0], id="header-only"),
]


@pytest.mark.parametrize("corrupt", MALFORMED_SERIES)
def test_reconstruct_malformed_series_is_data_error(tmp_path, capsys, recwarn, corrupt):
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
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not recwarn.list   # a warning would print to stderr outside pytest


# field-file bytes -> analyze must exit 3 with one error line
MALFORMED_FIELDS = [
    pytest.param(b"GCF1\nd=2 kind=r\xffeal\n" + bytes(32), id="header-not-utf8"),
    pytest.param(b"GCF1\nd=-2 kind=real\n" + bytes(32), id="negative-d"),
    pytest.param(b"GCF1\nd=0 kind=real\n", id="zero-d"),
]


@pytest.mark.parametrize("raw", MALFORMED_FIELDS)
def test_analyze_malformed_field_is_data_error(tmp_path, capsys, raw):
    bad = tmp_path / "bad.gcf"
    bad.write_bytes(raw)
    assert run("analyze", "--phase", str(bad), "--truth", str(bad), "--out", str(tmp_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


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


# sha256 of the text artifacts, recorded from the row-by-row series writer
# and the PyYAML config dump
GOLDEN_TEXT_ARTIFACTS = {
    (): {
        "series_cos.csv": "00b3b4830d4502c3866a156d2bf9535c6ab9a798c75f3ec1b60b6edfebe4f592",
        "series_sin.csv": "bf5036535cb2aac454feab8cf42a6e3f7b471737c5526eb41373b8b3d1c92a25",
        "resolved_config.yaml": "033e5e598c93d91392f0ee44b1fbff94ee74624e50f8bcee009132265abc6b81",
    },
    ("--flux", "1e6"): {
        "series_cos.csv": "0c2186a0a4b00d5bbc8b913e4c94be9b99e562e9faf901be044def1a2cf87d37",
        "series_sin.csv": "fd3049915fa2b7d532eaf454ffc1208d205cc9ab700b0ba9268589ce0041d7bb",
        "resolved_config.yaml": "282da9c17976a511c42ac161db7a76a1cc9f7795ea51bc273624eccd71099c40",
    },
}


@pytest.mark.parametrize("flags", list(GOLDEN_TEXT_ARTIFACTS), ids=["exact", "flux-1e6"])
def test_pipeline_text_artifacts_match_golden_digests(tmp_path, flags):
    assert run("pipeline", "--d", "32", *flags, "--out", str(tmp_path)) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_TEXT_ARTIFACTS[flags]}
    assert digests == GOLDEN_TEXT_ARTIFACTS[flags]


def test_pipeline_builds_random_basis_once(tmp_path, monkeypatch):
    calls = []
    build = projections.random_basis

    def counting(*args):
        calls.append(args)
        return build(*args)

    cli._basis_from_descriptor.cache_clear()
    monkeypatch.setattr(projections, "random_basis", counting)
    assert run("pipeline", "--d", "8", "--basis", "random", "--basis-seed", "3",
               "--out", str(tmp_path)) == 0
    assert calls == [(64, 8, 3)]


@pytest.mark.parametrize("descriptor, attr", [("random:3", "matrix"), ("hadamard:sequency", "entries")])
def test_cached_basis_arrays_are_read_only(descriptor, attr):
    basis = cli._basis_from_descriptor(descriptor, 8)
    assert cli._basis_from_descriptor(descriptor, 8) is basis
    assert not getattr(basis, attr).flags.writeable


def test_pipeline_singular_random_basis_is_usage_error(tmp_path, capsys):
    assert run("pipeline", "--d", "2", "--basis", "random", "--basis-seed", "1",
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "basis seed 1, d=2" in err and "singular" in err and "Traceback" not in err


def test_pipeline_rank_deficient_random_basis_is_usage_error(tmp_path, capsys):
    # LU solves this rank-deficient set without error; the residual check rejects it
    assert run("pipeline", "--d", "4", "--basis", "random", "--basis-seed", "12",
               "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "basis seed 12, d=4" in err and "singular" in err and "Traceback" not in err


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
        "d": 8, "illumination_radius": 3.5, "basis": "random", "ordering": "sequency",
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
