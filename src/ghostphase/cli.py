"""Command-line pipeline: gen-object, gen-masks, acquire, reconstruct, analyze, pipeline."""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import acquisition, analysis, formats, reconstruction, scene
from .config import ConfigError, RunConfig, load_config
from .formats import DataError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
# Bytes per read when hashing an artifact for the manifest.
_HASH_CHUNK = 2 ** 16


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


# A stage maps in-memory inputs to in-memory results under one RunConfig and
# a writer puts one stage's results into the output directory.  Subcommands
# read their inputs from files; `pipeline` hands each result to the next stage.
# Every subcommand runs all of its stages before it creates the output
# directory, so a run that fails writes nothing.  A stage raises ValueError on
# values it cannot work with; `_blame_files` decides whose fault that is.

Reconstruction = collections.namedtuple("Reconstruction", "gi_cos gi_sin re im phase support")
Analysis = collections.namedtuple("Analysis", "horizontal azimuthal report")


def acquire(cfg: RunConfig, obj: np.ndarray) -> acquisition.Scan:
    """The scan of an object, exact or Poisson-sampled."""
    scan = acquisition.measure_exact(obj, cfg.scan_basis())
    if cfg.flux is not None:
        scan = acquisition.sample_counts(scan, cfg.flux, cfg.acquisition_seed)
    return scan


def _channels(cfg: RunConfig, scan: acquisition.Scan, obj=None) -> tuple:
    """(gi_cos, gi_sin, re, im): the ghost images and the artifact-free channels.  Nothing
    after this step reads the scan; analytic mode needs ``obj``."""
    gi_cos, gi_sin = reconstruction.ghost_image(scan)
    if cfg.artifact_mode == "analytic":
        re, im = reconstruction.remove_artifact_analytic(gi_cos, gi_sin, obj, scan)
    else:
        re, im = reconstruction.remove_artifact(scan)
    return gi_cos, gi_sin, re, im


def _phase(cfg: RunConfig, gi_cos, gi_sin, re, im) -> Reconstruction:
    """The channels with the denoised phase over the support disc of their grid."""
    # the support radius follows cfg.d, not the series dimension
    radius = cfg.illumination_radius
    if radius is None:
        radius = scene.default_radius(cfg.d)
    phase, support = reconstruction.combine_phase(re, im, scene.disc_mask(re.shape[0], radius))
    return Reconstruction(gi_cos, gi_sin, re, im,
                          reconstruction.denoise(phase, support, cfg.denoise_window), support)


def reconstruct(cfg: RunConfig, scan: acquisition.Scan, obj=None) -> Reconstruction:
    """Channels, artifact-free channels and denoised phase; analytic mode needs ``obj``."""
    return _phase(cfg, *_channels(cfg, scan, obj))


def analyze(cfg: RunConfig, recovered, truth) -> Analysis:
    """Phase error and cross-sections of a recovered (phase, support) pair against the truth's."""
    (phase, support), (truth_phase, truth_support) = recovered, truth
    if phase.shape != truth_phase.shape:
        raise ValueError("phase and truth grids have different sizes")
    d = phase.shape[0]
    both = support & truth_support
    rmse = analysis.phase_rmse(phase, truth_phase, both)
    row = cfg.analysis_row if cfg.analysis_row is not None else d // 2
    if not 0 <= row < d:
        raise ConfigError(f"analysis.row: must be in [0, d), got {row} for d={d}")
    if cfg.analysis_row is not None and not support[row].any():
        raise ConfigError(f"analysis.row: row {row} has no valid support pixels")
    radius, what = cfg.analysis_radius, "analysis.radius:"
    if radius is None:
        radii = cfg.annulus_radii or (d / 4, 3 * d / 8)
        radius, what = (radii[0] + radii[1]) / 2, "object.annulus_radii: their mean (the azimuthal radius)"
    if not 0 <= radius <= d / 2:
        raise ConfigError(f"{what} must be in [0, d/2], got {radius} for d={d}")
    horizontal = analysis.cross_section_horizontal(phase, support, row)
    azimuthal = analysis.cross_section_azimuthal(phase, radius, cfg.analysis_samples)
    if cfg.analysis_radius is not None:
        # the support, sampled at the same pixels as the phase
        if not analysis.cross_section_azimuthal(support, radius, cfg.analysis_samples)[1].all():
            raise ConfigError(f"analysis.radius: the circle of radius {radius} leaves the support")
    return Analysis(horizontal, azimuthal, {
        "phase_rmse_rad": repr(rmse),
        "cross_section_row": row,
        "azimuthal_radius": repr(float(radius)),
        "azimuthal_slope": repr(analysis.azimuthal_slope(*azimuthal)),
        "support_pixels": int(both.sum()),
    })


# Each writer returns the names of the files it wrote, for the pipeline's manifest.

def write_object(out, obj, kind) -> tuple:
    formats.write_field(os.path.join(out, "object.gcf"), obj, "complex")
    formats.write_pgm(os.path.join(out, "object_phase.pgm"), np.angle(obj),
                      lo=-np.pi, hi=np.pi)
    formats.write_pgm(os.path.join(out, "object_amplitude.pgm"), np.abs(obj), lo=0.0)
    print(f"wrote {out}/object.gcf ({obj.shape[0]}x{obj.shape[0]} {kind})")
    return "object.gcf", "object_phase.pgm", "object_amplitude.pgm"


def write_scan(out, scan) -> tuple:
    for kind in ("cos", "sin"):
        formats.write_series(os.path.join(out, f"series_{kind}.csv"), scan, kind)
    print(f"wrote {out}/series_cos.csv and {out}/series_sin.csv ({scan.basis.size} rows each)")
    return "series_cos.csv", "series_sin.csv"


def write_reconstruction(out, rec: Reconstruction) -> tuple:
    formats.write_field(os.path.join(out, "gi_cos.gcf"), rec.gi_cos, "real")
    formats.write_field(os.path.join(out, "gi_sin.gcf"), rec.gi_sin, "real")
    formats.write_field(os.path.join(out, "re.gcf"), rec.re, "real")
    formats.write_field(os.path.join(out, "im.gcf"), rec.im, "real")
    formats.write_field(os.path.join(out, "phase.gcf"), rec.phase, "phase")
    formats.write_field(os.path.join(out, "support.gcf"), rec.support.astype(float), "real")
    formats.write_pgm(os.path.join(out, "phase.pgm"), rec.phase,
                      lo=-np.pi, hi=np.pi, invalid=~rec.support)
    formats.write_pgm(os.path.join(out, "gi_cos.pgm"), rec.gi_cos)
    formats.write_pgm(os.path.join(out, "gi_sin.pgm"), rec.gi_sin)
    print(f"wrote reconstruction outputs to {out}")
    return ("gi_cos.gcf", "gi_sin.gcf", "re.gcf", "im.gcf", "phase.gcf", "support.gcf",
            "phase.pgm", "gi_cos.pgm", "gi_sin.pgm")


def write_analysis(out, result: Analysis) -> tuple:
    for kind in ("horizontal", "azimuthal"):
        formats.write_cross_section_csv(os.path.join(out, f"cross_{kind}.csv"), kind, *getattr(result, kind))
    formats.write_metrics(os.path.join(out, "report.txt"), result.report)
    print(f"phase_rmse_rad: {result.report['phase_rmse_rad']}")
    return "cross_horizontal.csv", "cross_azimuthal.csv", "report.txt"


def _read_role(path, role: str, kinds=("complex",)) -> np.ndarray:
    """A field file's entries, if its kind is one that ``role`` accepts."""
    entries, kind = formats.read_field(path)
    if kind not in kinds:
        raise DataError(f"{path}: {role} must be a {' or '.join(kinds)} field")
    return entries


def _read_phase_image(path, support_path=None) -> tuple:
    """A phase or complex field as a (phase, support) pair; a complex field is `combine_phase`
    of its two channels.  A support is a real field, true where it exceeds 0.5."""
    entries = _read_role(path, "phase map", ("phase", "complex"))
    support = _read_role(support_path, "support", ("real",)) > 0.5 if support_path else None
    if support is not None and support.shape != entries.shape:
        raise DataError(f"{support_path}: support is {support.shape[0]}x{support.shape[1]},"
                        f" its phase map {path} is {entries.shape[0]}x{entries.shape[1]}")
    if np.iscomplexobj(entries):
        return reconstruction.combine_phase(entries.real, entries.imag, support)
    if support is None:
        support = np.ones(entries.shape, bool)
    return entries, support


@contextlib.contextmanager
def _blame_files(paths):
    """Report a ValueError that a stage raises on values read from ``paths`` as malformed data.

    Floating-point overflow and invalid operations raise (FloatingPointError) instead of
    warning, so values too large to compute with are reported too.  A ConfigError stays
    the config's, and a DataError already names its file.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ConfigError, DataError):
        raise
    except (ValueError, FloatingPointError) as exc:
        raise DataError(f"{', '.join(paths)}: {exc}") from None


def _make_object(cfg: RunConfig) -> np.ndarray:
    """The configured object.  A from-file object is a complex d x d field, normalized here;
    one that cannot be normalized is malformed data."""
    if cfg.object_kind != "from-file":
        return scene.make_object(d=cfg.d, **cfg.object_spec())
    if cfg.object_path is None:
        raise ConfigError("object.path: a from-file object needs a path")
    obj = _read_role(cfg.object_path, "from-file object")
    if obj.shape != (cfg.d, cfg.d):
        raise ConfigError(f"object.path: {cfg.object_path} is {obj.shape[0]}x{obj.shape[1]},"
                          f" expected {cfg.d}x{cfg.d}")
    with _blame_files([cfg.object_path]):
        return scene.normalize(obj)


def cmd_gen_object(args, cfg: RunConfig) -> None:
    obj = _make_object(cfg)
    write_object(_outdir(cfg), obj, cfg.object_kind)


def cmd_gen_masks(args, cfg: RunConfig) -> None:
    """Write each mask's sign grids as soon as they are made: memory does not grow with --count.
    The cos mask (M_j + M_0)/sqrt(2) is open where M_j > 0; the sin mask (M_j + i M_0)/sqrt(2)
    is in the 1+i state there and in the 1-i state elsewhere."""
    basis = cfg.scan_basis()
    N = basis.size
    if args.index is not None and not 0 <= args.index < N:
        raise ConfigError(f"--index: must be in [0, {N}), got {args.index}")
    if args.index is None and not 1 <= args.count <= N:
        raise ConfigError(f"--count: must be in [1, {N}], got {args.count}")
    indices = range(args.count) if args.index is None else [args.index]
    for n, j in enumerate(indices):
        signs = np.where(basis.mask(j) > 0, 1, -1)
        out = out if n else _outdir(cfg)    # after one grid: a size too big for memory writes nothing
        for kind, grid in (("basis", signs), ("cos", (signs > 0).astype(int)), ("sin", signs)):
            formats.write_mask_text(os.path.join(out, f"mask_{kind}_{j:05d}.txt"), grid, kind, j)
    print(f"wrote {3 * len(indices)} mask files to {out}")


def _taken_from(path, cfg: RunConfig, **facts) -> RunConfig:
    """The config with the ``facts`` that the input at ``path`` states, which runs and is recorded.
    A fact it cannot hold, such as a size the basis cannot scan, is the file's fault, not the config's."""
    try:
        return dataclasses.replace(cfg, **facts).validate()
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_acquire(args, cfg: RunConfig) -> None:
    obj = _read_role(args.object, "acquisition object")
    cfg = _taken_from(args.object, cfg, d=obj.shape[0])
    with _blame_files([args.object]):
        scan = acquire(cfg, obj)
    write_scan(_outdir(cfg), scan)


def cmd_reconstruct(args, cfg: RunConfig) -> None:
    kind_cos, header, cos = formats.read_series(args.cos)
    kind_sin, header_sin, sin = formats.read_series(args.sin)
    obj = None
    if cfg.artifact_mode == "analytic":
        if not args.object:
            raise ConfigError("analytic artifact mode needs --object (ground truth)")
        obj = _read_role(args.object, "ground truth")
    # the record is the cos header's, so a value it cannot hold is the cos file's fault;
    # the two files are then one scan's if their headers agree and each kind is its role's
    cfg = _taken_from(args.cos, cfg.with_scan(**header))
    if header_sin != header:
        raise DataError(f"{args.cos}, {args.sin}: cos and sin series headers do not match")
    if (kind_cos, kind_sin) != ("cos", "sin"):
        raise DataError(f"{args.cos}, {args.sin}: series channel kinds do not match their roles")
    scan = acquisition.Scan(cos=cos, sin=sin, **header)
    inputs = [args.cos, args.sin] + ([args.object] if obj is not None else [])
    with _blame_files(inputs):
        channels = _channels(cfg, scan, obj)
        # nothing reads the two series after artifact removal: free them before the phase
        # is combined and the grids are written
        del scan, cos, sin
        rec = _phase(cfg, *channels)
    write_reconstruction(_outdir(cfg), rec)


def cmd_analyze(args, cfg: RunConfig) -> None:
    inputs = [p for p in (args.phase, args.support, args.truth, args.truth_support) if p]
    with _blame_files(inputs):
        recovered = _read_phase_image(args.phase, args.support)
        cfg = _taken_from(args.phase, cfg, d=recovered[0].shape[0])
        result = analyze(cfg, recovered, _read_phase_image(args.truth, args.truth_support))
    write_analysis(_outdir(cfg), result)


def _run_pipeline(cfg: RunConfig) -> tuple:
    """Run every stage in memory, then write each stage's files; none is read back.
    Returns the output directory and the names of the files written there."""
    obj = _make_object(cfg)
    scan = acquire(cfg, obj)
    rec = reconstruct(cfg, scan, obj)
    result = analyze(cfg, (rec.phase, rec.support), reconstruction.combine_phase(obj.real, obj.imag))
    out = _outdir(cfg)
    return out, ("resolved_config.yaml", *write_object(out, obj, cfg.object_kind),
                 *write_scan(out, scan), *write_reconstruction(out, rec),
                 *write_analysis(out, result))


def cmd_pipeline(args, cfg: RunConfig) -> None:
    """Write every stage's files, then a manifest of their sha256 digests.  Other files in the
    output directory stay as they are and are not listed."""
    out, names = _run_pipeline(cfg)    # the stage results are freed before OpenSSL loads

    import hashlib  # loads OpenSSL (+3.2 MB RSS); only the manifest hashes, so only pipeline pays

    manifest = {"artifacts": []}
    for name in sorted(names):
        digest = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as fh:
            for chunk in iter(functools.partial(fh.read, _HASH_CHUNK), b""):
                digest.update(chunk)
        manifest["artifacts"].append({"path": name, "sha256": digest.hexdigest()})
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
        args.func(args, cfg)
        return EXIT_OK
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, IndexError) as exc:   # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:                # a size the config asks for that does not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
