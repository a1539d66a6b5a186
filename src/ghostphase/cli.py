"""Command-line pipeline: gen-object, gen-masks, acquire, reconstruct, analyze, pipeline."""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import acquisition, analysis, formats, projections, reconstruction, scene, wht
from .config import ConfigError, RunConfig, load_config
from .formats import DataError
from .scene import SpecError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for field in dataclasses.fields(cfg):  # every common flag's dest is a field name
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    return cfg.validate()


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg.dump(os.path.join(cfg.output_dir, "resolved_config.yaml"))
    return cfg.output_dir


def _make_basis(cfg: RunConfig):
    arg = cfg.ordering if cfg.basis == "hadamard" else cfg.basis_seed
    return _basis_from_descriptor(f"{cfg.basis}:{arg}", cfg.d)


@functools.lru_cache(maxsize=1)
def _basis_from_descriptor(descriptor: str, d: int):
    """Build the scan basis a series header names; `pipeline` builds it once.

    The arrays of the returned basis are read-only, so stages can share it.
    """
    family, _, arg = descriptor.partition(":")
    if family == "hadamard" and arg in (wht.NATURAL, wht.SEQUENCY):
        try:
            basis = wht.hadamard_matrix(d, arg)
        except wht.DimensionError as exc:
            raise DataError(f"basis {descriptor!r} with d={d}: {exc}") from None
        basis.entries.flags.writeable = False
    elif family == "random" and arg.isascii() and arg.isdigit() and int(arg) < 2 ** 64:
        basis = projections.random_basis(d * d, d, int(arg))
    else:
        raise DataError(f"unknown basis descriptor {descriptor!r}")
    return basis


# A stage maps in-memory inputs to in-memory results under one RunConfig and
# a writer puts one stage's results into the output directory.  Subcommands
# read their inputs from files; `pipeline` hands each result to the next stage.

Reconstruction = collections.namedtuple("Reconstruction", "gi_cos gi_sin re im phase")
Analysis = collections.namedtuple("Analysis", "horizontal azimuthal report")


def acquire(cfg: RunConfig, obj: np.ndarray) -> tuple:
    """The (cos, sin) detection series of an object, exact or Poisson-sampled."""
    pair = acquisition.measure_exact(obj, _make_basis(cfg))
    if cfg.flux is not None:
        pair = tuple(acquisition.sample_counts(s, cfg.flux, cfg.acquisition_seed) for s in pair)
    return pair


def reconstruct(cfg: RunConfig, series_cos, series_sin, obj=None) -> Reconstruction:
    """Channels, artifact-free channels and denoised phase; analytic mode needs ``obj``."""
    if series_cos.dim != series_sin.dim or series_cos.basis != series_sin.basis:
        raise DataError("cos and sin series headers do not match")
    if series_cos.kind != "cos" or series_sin.kind != "sin":
        raise DataError("series channel kinds do not match their roles")
    d = series_cos.dim
    basis = _basis_from_descriptor(series_cos.basis, d)
    gi_cos = reconstruction.ghost_image(series_cos, basis)
    gi_sin = reconstruction.ghost_image(series_sin, basis)
    if cfg.artifact_mode == "analytic":
        re, im = reconstruction.remove_artifact_analytic(gi_cos, gi_sin, obj, basis)
    else:
        re, im = reconstruction.remove_artifact(series_cos, series_sin, basis)
    # the support radius follows cfg.d, not the series dimension
    radius = cfg.illumination_radius
    if radius is None:
        radius = scene.default_radius(cfg.d)
    phase = reconstruction.combine_phase(re, im, scene.disc_mask(d, min(radius, d)))
    return Reconstruction(gi_cos, gi_sin, re, im,
                          reconstruction.denoise(phase, cfg.denoise_window))


def analyze(cfg: RunConfig, recovered, truth) -> Analysis:
    """Phase error and cross-sections of a recovered phase map against the truth."""
    if recovered.entries.shape != truth.entries.shape:
        raise DataError("phase and truth grids have different sizes")
    d = recovered.entries.shape[0]
    rmse = analysis.phase_rmse(recovered, truth)
    row = cfg.analysis_row if cfg.analysis_row is not None else d // 2
    if not 0 <= row < d:
        raise ConfigError(f"analysis.row: must be in [0, d), got {row} for d={d}")
    radius, what = cfg.analysis_radius, "analysis.radius:"
    if radius is None:
        radii = cfg.annulus_radii or (d / 4, 3 * d / 8)
        radius, what = (radii[0] + radii[1]) / 2, "object.annulus_radii: their mean (the azimuthal radius)"
    if not 0 <= radius <= d / 2:
        raise ConfigError(f"{what} must be in [0, d/2], got {radius} for d={d}")
    horizontal = analysis.cross_section_horizontal(recovered, row)
    azimuthal = analysis.cross_section_azimuthal(recovered, radius, cfg.analysis_samples)
    return Analysis(horizontal, azimuthal, {
        "phase_rmse_rad": repr(rmse),
        "cross_section_row": row,
        "azimuthal_radius": repr(float(radius)),
        "azimuthal_slope": repr(analysis.azimuthal_slope(azimuthal)),
        "support_pixels": int((recovered.support & truth.support).sum()),
    })


def write_object(out, obj, kind) -> None:
    formats.write_field(os.path.join(out, "object.gcf"), obj, "complex")
    formats.write_pgm(os.path.join(out, "object_phase.pgm"), np.angle(obj),
                      lo=-np.pi, hi=np.pi)
    formats.write_pgm(os.path.join(out, "object_amplitude.pgm"), np.abs(obj), lo=0.0)
    print(f"wrote {out}/object.gcf ({obj.shape[0]}x{obj.shape[0]} {kind})")


def write_series_pair(out, series_cos, series_sin) -> None:
    for series in (series_cos, series_sin):
        formats.write_series(os.path.join(out, f"series_{series.kind}.csv"), series)
    print(f"wrote {out}/series_cos.csv and {out}/series_sin.csv ({series_cos.size} rows each)")


def write_reconstruction(out, rec: Reconstruction) -> None:
    phase = rec.phase
    formats.write_field(os.path.join(out, "gi_cos.gcf"), rec.gi_cos, "real")
    formats.write_field(os.path.join(out, "gi_sin.gcf"), rec.gi_sin, "real")
    formats.write_field(os.path.join(out, "re.gcf"), rec.re, "real")
    formats.write_field(os.path.join(out, "im.gcf"), rec.im, "real")
    formats.write_field(os.path.join(out, "phase.gcf"), phase.entries, "phase")
    formats.write_field(os.path.join(out, "support.gcf"), phase.support.astype(float), "real")
    formats.write_pgm(os.path.join(out, "phase.pgm"), phase.entries,
                      lo=-np.pi, hi=np.pi, invalid=~phase.support)
    formats.write_pgm(os.path.join(out, "gi_cos.pgm"), rec.gi_cos)
    formats.write_pgm(os.path.join(out, "gi_sin.pgm"), rec.gi_sin)
    print(f"wrote reconstruction outputs to {out}")


def write_analysis(out, result: Analysis) -> None:
    formats.write_cross_section_csv(os.path.join(out, "cross_horizontal.csv"), result.horizontal)
    formats.write_cross_section_csv(os.path.join(out, "cross_azimuthal.csv"), result.azimuthal)
    formats.write_metrics(os.path.join(out, "report.txt"), result.report)
    print(f"phase_rmse_rad: {result.report['phase_rmse_rad']}")


def _read_complex(path, role: str) -> np.ndarray:
    entries, kind = formats.read_field(path)
    if kind != "complex":
        raise DataError(f"{path}: {role} must be a complex field")
    return entries


def _phase_image(entries, kind, support=None) -> reconstruction.PhaseImage:
    """A field as a phase map; a complex field gives its angle where it is nonzero."""
    if kind == "complex":
        support = np.abs(entries) > 1e-12 * max(np.abs(entries).max(), 1e-300)
        entries = np.angle(entries)
    elif support is None:
        support = np.ones(entries.shape, bool)
    return reconstruction.PhaseImage(entries=entries, support=support)


def _read_phase_image(path, support_path=None) -> reconstruction.PhaseImage:
    entries, kind = formats.read_field(path)
    support = formats.read_field(support_path)[0] > 0.5 if support_path else None
    return _phase_image(entries, kind, support)


@contextlib.contextmanager
def _blame_files(paths, errors):
    """Report ``errors`` that a stage raises on values read from ``paths`` as malformed data.

    Floating-point overflow and invalid operations raise (FloatingPointError) instead of
    warning, so values too large to compute with are reported too.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ConfigError, DataError):
        raise
    except errors as exc:
        raise DataError(f"{', '.join(paths)}: {exc}") from None


def cmd_gen_object(args, cfg: RunConfig, out: str) -> None:
    write_object(out, scene.make_object(cfg.object_spec(), cfg.d), cfg.object_kind)


def cmd_gen_masks(args, cfg: RunConfig, out: str) -> None:
    basis = _make_basis(cfg)
    indices = range(args.count) if args.index is None else [args.index]
    for j in indices:
        masks = {"basis": basis.mask(j), "cos": projections.cos_mask(j, basis),
                 "sin": projections.sin_mask(j, basis)}
        for kind, mask in masks.items():
            formats.write_mask_text(os.path.join(out, f"mask_{kind}_{j:05d}.txt"),
                                    projections.export_mask_symbols(mask, kind), kind, j)
    print(f"wrote {3 * len(list(indices))} mask files to {out}")


def cmd_acquire(args, cfg: RunConfig, out: str) -> None:
    obj = _read_complex(args.object, "acquisition object")
    if obj.shape[0] != cfg.d:
        # the object's size is what gets measured; record it in place of cfg.d
        cfg.d = obj.shape[0]
        cfg.validate()
        cfg.dump(os.path.join(out, "resolved_config.yaml"))
    # a ValueError here is the config's: sampling a dark object at a finite flux
    with _blame_files([args.object], FloatingPointError):
        series = acquire(cfg, obj)
    write_series_pair(out, *series)


def cmd_reconstruct(args, cfg: RunConfig, out: str) -> None:
    series_cos = formats.read_series(args.cos)
    series_sin = formats.read_series(args.sin)
    obj = None
    if cfg.artifact_mode == "analytic":
        if not args.object:
            raise ConfigError("analytic artifact mode needs --object (ground truth)")
        obj = _read_complex(args.object, "ground truth")
    inputs = [args.cos, args.sin] + ([args.object] if obj is not None else [])
    with _blame_files(inputs, (ValueError, FloatingPointError)):
        rec = reconstruct(cfg, series_cos, series_sin, obj)
    write_reconstruction(out, rec)


def cmd_analyze(args, cfg: RunConfig, out: str) -> None:
    recovered = _read_phase_image(args.phase, args.support)
    truth = _read_phase_image(args.truth, args.truth_support)
    inputs = [p for p in (args.phase, args.support, args.truth, args.truth_support) if p]
    with _blame_files(inputs, (ValueError, FloatingPointError)):
        result = analyze(cfg, recovered, truth)
    write_analysis(out, result)


def cmd_pipeline(args, cfg: RunConfig, out: str) -> None:
    """Run every stage in memory; each stage's files are written and none is read back."""
    obj = scene.make_object(cfg.object_spec(), cfg.d)
    write_object(out, obj, cfg.object_kind)
    series = acquire(cfg, obj)
    write_series_pair(out, *series)
    rec = reconstruct(cfg, *series, obj)
    write_reconstruction(out, rec)
    write_analysis(out, analyze(cfg, rec.phase, _phase_image(obj, "complex")))

    manifest = {"artifacts": []}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest["artifacts"].append({"path": name, "sha256": digest})
    with open(os.path.join(out, "manifest.json"), "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pipeline complete; manifest at {out}/manifest.json")


def _add_common(parser) -> None:
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--d", type=int, help="grid dimension")
    parser.add_argument("--kind", dest="object_kind", help="object kind")
    parser.add_argument("--illumination-radius", dest="illumination_radius", type=float)
    parser.add_argument("--basis", choices=("hadamard", "random"))
    parser.add_argument("--ordering", choices=("natural", "sequency"))
    parser.add_argument("--basis-seed", dest="basis_seed", type=int)
    parser.add_argument("--flux", type=float, help="expected total counts (omit for exact)")
    parser.add_argument("--seed", dest="acquisition_seed", type=int, help="acquisition sampling seed")
    parser.add_argument("--artifact-mode", dest="artifact_mode", choices=("analytic", "heuristic"))
    parser.add_argument("--denoise-window", dest="denoise_window", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostphase",
        description="Single-pixel ghost imaging simulator with paired cos/sin phase projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-object", help="generate a test object field")
    _add_common(p)
    p.set_defaults(func=cmd_gen_object)

    p = sub.add_parser("gen-masks", help="export projection masks as text grids")
    _add_common(p)
    p.add_argument("--index", type=int, help="single mask index")
    p.add_argument("--count", type=int, default=4, help="export masks 0..count-1")
    p.set_defaults(func=cmd_gen_masks)

    p = sub.add_parser("acquire", help="measure cos and sin series for an object")
    _add_common(p)
    p.add_argument("--object", required=True, help="object field file")
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("reconstruct", help="reconstruct channels and phase from series")
    _add_common(p)
    p.add_argument("--cos", required=True, help="cos series file")
    p.add_argument("--sin", required=True, help="sin series file")
    p.add_argument("--object", help="ground-truth object (analytic artifact mode)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("analyze", help="compare a phase image against ground truth")
    _add_common(p)
    p.add_argument("--phase", required=True, help="recovered phase field file")
    p.add_argument("--support", help="support field for the recovered phase")
    p.add_argument("--truth", required=True, help="ground-truth field file")
    p.add_argument("--truth-support", dest="truth_support", help="support field for the truth")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="run all stages from one config")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_cfg(args)
        args.func(args, cfg, _outdir(cfg))
        return EXIT_OK
    except (ConfigError, SpecError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
