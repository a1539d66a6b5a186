"""Command-line pipeline: gen-object, gen-masks, acquire, reconstruct, analyze, pipeline."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import acquisition, analysis, formats, projections, reconstruction, scene, wht
from .config import ConfigError, RunConfig, config_from_document, load_config
from .formats import DataError
from .scene import SpecError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {
        "d": getattr(args, "d", None),
        "object_kind": getattr(args, "kind", None),
        "illumination_radius": getattr(args, "illumination_radius", None),
        "basis": getattr(args, "basis", None),
        "ordering": getattr(args, "ordering", None),
        "basis_seed": getattr(args, "basis_seed", None),
        "flux": getattr(args, "flux", None),
        "acquisition_seed": getattr(args, "seed", None),
        "artifact_mode": getattr(args, "artifact_mode", None),
        "denoise_window": getattr(args, "denoise_window", None),
        "output_dir": getattr(args, "out", None),
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg.dump(os.path.join(cfg.output_dir, "resolved_config.yaml"))
    return cfg.output_dir


def _illumination_radius(cfg: RunConfig) -> float:
    if cfg.illumination_radius is not None:
        return cfg.illumination_radius
    return scene.default_radius(cfg.d)


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
        basis = wht.hadamard_matrix(d, arg)
        basis.entries.flags.writeable = False
    elif family == "random" and arg.isascii() and arg.isdigit() and int(arg) < 2 ** 64:
        basis = projections.random_basis(d * d, d, int(arg))
        basis.masks.flags.writeable = False
    else:
        raise DataError(f"unknown basis descriptor {descriptor!r}")
    return basis


def cmd_gen_object(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    obj = scene.make_object(cfg.object_spec(), cfg.d)
    formats.write_field(os.path.join(out, "object.gcf"), obj, "complex")
    formats.write_pgm(os.path.join(out, "object_phase.pgm"), np.angle(obj),
                      lo=-np.pi, hi=np.pi)
    formats.write_pgm(os.path.join(out, "object_amplitude.pgm"), np.abs(obj), lo=0.0)
    print(f"wrote {out}/object.gcf ({cfg.d}x{cfg.d} {cfg.object_kind})")
    return EXIT_OK


def cmd_gen_masks(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    basis = _make_basis(cfg)
    indices = range(args.count) if args.index is None else [args.index]
    for j in indices:
        if cfg.basis == "hadamard":
            M = wht.basis_mask(j, basis)
            cosm = projections.cos_mask(j, basis).entries
            sinm = projections.sin_mask(j, basis).entries
        else:
            if not 0 <= j < basis.size:
                raise IndexError(f"mask index {j} out of range for N={basis.size}")
            M = basis.masks[j]
            cosm = (M + basis.masks[0]) / np.sqrt(2)
            sinm = (M + 1j * basis.masks[0]) / np.sqrt(2)
        formats.write_mask_text(os.path.join(out, f"mask_basis_{j:05d}.txt"),
                                projections.export_mask_symbols(M, "basis"), "basis", j)
        formats.write_mask_text(os.path.join(out, f"mask_cos_{j:05d}.txt"),
                                projections.export_mask_symbols(cosm, "cos"), "cos", j)
        formats.write_mask_text(os.path.join(out, f"mask_sin_{j:05d}.txt"),
                                projections.export_mask_symbols(sinm, "sin"), "sin", j)
    print(f"wrote {3 * len(list(indices))} mask files to {out}")
    return EXIT_OK


def cmd_acquire(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    obj, kind = formats.read_field(args.object)
    if kind != "complex":
        raise DataError(f"{args.object}: acquisition needs a complex object field")
    if obj.shape[0] != cfg.d:
        cfg.d = obj.shape[0]
        cfg.validate()
    basis = _make_basis(cfg)
    for channel in ("cos", "sin"):
        series = acquisition.measure_exact(obj, basis, channel)
        if cfg.flux is not None:
            series = acquisition.sample_counts(series, cfg.flux, cfg.acquisition_seed)
        formats.write_series(os.path.join(out, f"series_{channel}.csv"), series)
    print(f"wrote {out}/series_cos.csv and {out}/series_sin.csv ({cfg.d * cfg.d} rows each)")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    series_cos = formats.read_series(args.cos)
    series_sin = formats.read_series(args.sin)
    if series_cos.dim != series_sin.dim or series_cos.basis != series_sin.basis:
        raise DataError("cos and sin series headers do not match")
    if series_cos.kind != "cos" or series_sin.kind != "sin":
        raise DataError("series channel kinds do not match their roles")
    d = series_cos.dim
    basis = _basis_from_descriptor(series_cos.basis, d)

    gi_cos = reconstruction.ghost_image(series_cos, basis)
    gi_sin = reconstruction.ghost_image(series_sin, basis)

    obj = None
    if cfg.artifact_mode == "analytic":
        if not args.object:
            raise ConfigError("analytic artifact mode needs --object (ground truth)")
        obj, kind = formats.read_field(args.object)
        if kind != "complex":
            raise DataError(f"{args.object}: ground truth must be a complex field")
    context = reconstruction.ArtifactContext(
        basis=basis, obj=obj, series_cos=series_cos, series_sin=series_sin)
    re, im = reconstruction.remove_artifact(gi_cos, gi_sin, cfg.artifact_mode, context)

    support = scene.disc_mask(d, min(_illumination_radius(cfg), d))
    phase = reconstruction.combine_phase(re, im, support)
    phase = reconstruction.denoise(phase, cfg.denoise_window)

    formats.write_field(os.path.join(out, "gi_cos.gcf"), gi_cos.entries, "real")
    formats.write_field(os.path.join(out, "gi_sin.gcf"), gi_sin.entries, "real")
    formats.write_field(os.path.join(out, "re.gcf"), re, "real")
    formats.write_field(os.path.join(out, "im.gcf"), im, "real")
    formats.write_field(os.path.join(out, "phase.gcf"), phase.entries, "phase")
    formats.write_field(os.path.join(out, "support.gcf"), phase.support.astype(float), "real")
    formats.write_pgm(os.path.join(out, "phase.pgm"), phase.entries,
                      lo=-np.pi, hi=np.pi, invalid=~phase.support)
    formats.write_pgm(os.path.join(out, "gi_cos.pgm"), gi_cos.entries)
    formats.write_pgm(os.path.join(out, "gi_sin.pgm"), gi_sin.entries)
    print(f"wrote reconstruction outputs to {out}")
    return EXIT_OK


def _phase_image_from_files(phase_path, support_path=None) -> reconstruction.PhaseImage:
    entries, kind = formats.read_field(phase_path)
    if kind == "complex":
        support = np.abs(entries) > 1e-12 * max(np.abs(entries).max(), 1e-300)
        return reconstruction.PhaseImage(entries=np.angle(entries), support=support)
    if support_path:
        sup, _ = formats.read_field(support_path)
        support = sup > 0.5
    else:
        support = np.ones(entries.shape, bool)
    return reconstruction.PhaseImage(entries=entries, support=support)


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)
    recovered = _phase_image_from_files(args.phase, args.support)
    truth = _phase_image_from_files(args.truth, args.truth_support)
    if recovered.entries.shape != truth.entries.shape:
        raise DataError("phase and truth grids have different sizes")
    d = recovered.entries.shape[0]

    rmse = analysis.phase_rmse(recovered, truth)
    row = cfg.analysis_row if cfg.analysis_row is not None else d // 2
    radius = cfg.analysis_radius
    if radius is None:
        radii = cfg.annulus_radii or (d / 4, 3 * d / 8)
        radius = (radii[0] + radii[1]) / 2
    horizontal = analysis.cross_section_horizontal(recovered, row)
    azimuthal = analysis.cross_section_azimuthal(recovered, radius, cfg.analysis_samples)
    formats.write_cross_section_csv(os.path.join(out, "cross_horizontal.csv"), horizontal)
    formats.write_cross_section_csv(os.path.join(out, "cross_azimuthal.csv"), azimuthal)
    formats.write_metrics(os.path.join(out, "report.txt"), {
        "phase_rmse_rad": repr(rmse),
        "cross_section_row": row,
        "azimuthal_radius": repr(float(radius)),
        "azimuthal_slope": repr(analysis.azimuthal_slope(azimuthal)),
        "support_pixels": int((recovered.support & truth.support).sum()),
    })
    print(f"phase_rmse_rad: {rmse!r}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    out = _outdir(cfg)

    ns = argparse.Namespace(config=None, object=None, cos=None, sin=None,
                            phase=None, truth=None, support=None, truth_support=None)
    ns.__dict__.update({k: None for k in ("d", "kind", "illumination_radius", "basis",
                                          "ordering", "basis_seed", "flux", "seed",
                                          "artifact_mode", "denoise_window")})
    base = cfg

    def stage(**kw):
        sub = argparse.Namespace(**vars(ns))
        sub.__dict__.update(kw)
        return sub

    cfg.output_dir = out
    cmd_gen_object(stage(config=None, out=out, **_cfg_overrides(base)))
    cmd_acquire(stage(object=os.path.join(out, "object.gcf"), out=out, **_cfg_overrides(base)))
    cmd_reconstruct(stage(cos=os.path.join(out, "series_cos.csv"),
                          sin=os.path.join(out, "series_sin.csv"),
                          object=os.path.join(out, "object.gcf"),
                          out=out, **_cfg_overrides(base)))
    cmd_analyze(stage(phase=os.path.join(out, "phase.gcf"),
                      support=os.path.join(out, "support.gcf"),
                      truth=os.path.join(out, "object.gcf"),
                      out=out, **_cfg_overrides(base)))

    manifest = {"artifacts": []}
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        path = os.path.join(out, name)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        manifest["artifacts"].append({"path": name, "sha256": digest})
    with open(os.path.join(out, "manifest.json"), "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pipeline complete; manifest at {out}/manifest.json")
    return EXIT_OK


def _cfg_overrides(cfg: RunConfig) -> dict:
    # pass the resolved config through the per-stage override slots
    return {
        "d": cfg.d, "kind": cfg.object_kind, "illumination_radius": cfg.illumination_radius,
        "basis": cfg.basis, "ordering": cfg.ordering, "basis_seed": cfg.basis_seed,
        "flux": cfg.flux, "seed": cfg.acquisition_seed, "artifact_mode": cfg.artifact_mode,
        "denoise_window": cfg.denoise_window,
    }


def _add_common(parser) -> None:
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--d", type=int, help="grid dimension")
    parser.add_argument("--kind", help="object kind")
    parser.add_argument("--illumination-radius", dest="illumination_radius", type=float)
    parser.add_argument("--basis", choices=("hadamard", "random"))
    parser.add_argument("--ordering", choices=("natural", "sequency"))
    parser.add_argument("--basis-seed", dest="basis_seed", type=int)
    parser.add_argument("--flux", type=float, help="expected total counts (omit for exact)")
    parser.add_argument("--seed", type=int, help="acquisition sampling seed")
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
        return args.func(args)
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
