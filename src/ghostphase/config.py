"""Run configuration: YAML document with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .scene import KINDS, ObjectSpec


class ConfigError(ValueError):
    pass


# YAML key -> (RunConfig attribute, expected type), per document section
_TOP_FIELDS = {
    "d": ("d", int), "illumination_radius": ("illumination_radius", float),
    "basis": ("basis", str), "ordering": ("ordering", str), "basis_seed": ("basis_seed", int),
    "flux": ("flux", float), "acquisition_seed": ("acquisition_seed", int),
    "artifact_mode": ("artifact_mode", str), "denoise_window": ("denoise_window", int),
    "output_dir": ("output_dir", str),
}
_OBJECT_FIELDS = {
    "kind": ("object_kind", str), "slit_width": ("slit_width", int),
    "slit_gap": ("slit_gap", int), "annulus_radii": ("annulus_radii", tuple),
    "petals": ("petals", int), "bands": ("bands", int),
    "phase_depth": ("phase_depth", float), "path": ("object_path", str),
}
_ANALYSIS_FIELDS = {
    "row": ("analysis_row", int), "radius": ("analysis_radius", float),
    "samples": ("analysis_samples", int),
}
_SECTIONS = (("object", _OBJECT_FIELDS), ("analysis", _ANALYSIS_FIELDS))


@dataclass
class RunConfig:
    d: int = 32
    object_kind: str = "pi-slit-phase"
    slit_width: Optional[int] = None
    slit_gap: Optional[int] = None
    annulus_radii: Optional[Tuple[float, float]] = None
    petals: int = 6
    bands: int = 3
    phase_depth: float = 3.141592653589793
    object_path: Optional[str] = None
    illumination_radius: Optional[float] = None
    basis: str = "hadamard"            # "hadamard" | "random"
    ordering: str = "natural"          # "natural" | "sequency"
    basis_seed: int = 0
    flux: Optional[float] = None       # None = exact probabilities
    acquisition_seed: int = 0
    artifact_mode: str = "heuristic"   # "analytic" | "heuristic"
    denoise_window: int = 1
    output_dir: str = "out"
    analysis_row: Optional[int] = None
    analysis_radius: Optional[float] = None
    analysis_samples: int = 64

    def validate(self) -> "RunConfig":
        if self.object_kind not in KINDS:
            raise ConfigError(f"object.kind: unknown kind {self.object_kind!r}")
        if self.bands < 1:
            raise ConfigError(f"object.bands: must be at least 1, got {self.bands}")
        if self.basis not in ("hadamard", "random"):
            raise ConfigError(f"basis: must be 'hadamard' or 'random', got {self.basis!r}")
        if self.ordering not in ("natural", "sequency"):
            raise ConfigError(f"ordering: must be 'natural' or 'sequency', got {self.ordering!r}")
        if self.artifact_mode not in ("analytic", "heuristic"):
            raise ConfigError(f"artifact_mode: must be 'analytic' or 'heuristic', got {self.artifact_mode!r}")
        if self.d < 2 or self.d & (self.d - 1) and self.basis == "hadamard":
            raise ConfigError(f"d: must be at least 2 (a power of two for the hadamard basis), got {self.d}")
        if self.flux is not None and not (math.isfinite(self.flux) and self.flux > 0):
            raise ConfigError(f"flux: must be positive and finite, got {self.flux}")
        for key in ("basis_seed", "acquisition_seed"):
            if not 0 <= getattr(self, key) < 2 ** 64:
                raise ConfigError(f"{key}: must be in [0, 2**64), got {getattr(self, key)}")
        if self.denoise_window < 1 or self.denoise_window % 2 == 0:
            raise ConfigError(f"denoise_window: must be odd and at least 1, got {self.denoise_window}")
        if self.analysis_samples < 2:
            # azimuthal_slope fits a slope and an intercept
            raise ConfigError(f"analysis.samples: must be at least 2, got {self.analysis_samples}")
        return self

    def object_spec(self) -> ObjectSpec:
        spec = _section(self, _OBJECT_FIELDS)
        if spec["annulus_radii"] is not None:
            spec["annulus_radii"] = tuple(spec["annulus_radii"])
        return ObjectSpec(**spec, illumination_radius=self.illumination_radius)

    def to_document(self) -> dict:
        doc = _section(self, _TOP_FIELDS)
        # output_dir is deliberately omitted: the document should not
        # depend on where it is written, so runs stay byte-reproducible
        del doc["output_dir"]
        for where, fields in _SECTIONS:
            doc[where] = _section(self, fields)
        doc["object"]["annulus_radii"] = list(self.annulus_radii) if self.annulus_radii else None
        return doc

    def dump(self, path) -> None:
        """Write `to_document` as ``yaml.safe_dump(..., sort_keys=True)`` would."""
        doc = self.to_document()
        with open(path, "w", newline="\n") as fh:
            if self.object_path is None:
                fh.writelines(_yaml_lines(doc))
            else:
                # a free-form path may need quoting or folding; leave that to PyYAML
                import yaml

                yaml.safe_dump(doc, fh, sort_keys=True)


def _yaml_scalar(value) -> str:
    """A None, number or keyword string as PyYAML's safe dumper writes it."""
    if value is None:
        return "null"
    if isinstance(value, float):
        if math.isnan(value):
            return ".nan"
        if math.isinf(value):
            return ".inf" if value > 0 else "-.inf"
        text = repr(value).lower()
        return text.replace("e", ".0e", 1) if "." not in text else text
    return str(value)


def _yaml_lines(doc: dict, indent: str = ""):
    """Block-style lines of a mapping whose strings need no quoting."""
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            yield f"{indent}{key}:\n"
            yield from _yaml_lines(value, indent + "  ")
        elif isinstance(value, list):
            yield f"{indent}{key}:\n"
            yield from (f"{indent}- {_yaml_scalar(item)}\n" for item in value)
        else:
            yield f"{indent}{key}: {_yaml_scalar(value)}\n"


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        # YAML keys need not be strings: 1: 2 is an int key
        raise ConfigError(f"unknown {where} key(s): {', '.join(sorted(map(str, unknown)))}")


def _convert(value, key: str, kind: type):
    """Check one config value against its expected type.

    Numbers pass through as written, so configs that loaded before resolve
    to the same document.  Numeric strings are converted: PyYAML reads
    ``1e6`` (no decimal point) as a string.
    """
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if kind is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{key}: expected a pair of numbers, got {value!r}")
        return tuple(_convert(v, key, float) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, int) or (kind is float and isinstance(value, float)):
        return value
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(number)


def load_config(path) -> RunConfig:
    import yaml

    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            # PyYAML's message spans several lines; keep the CLI's error to one
            raise ConfigError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None
    return config_from_document(doc)


def _section(cfg: RunConfig, fields: dict) -> dict:
    return {key: getattr(cfg, attr) for key, (attr, _) in fields.items()}


def _apply(cfg: RunConfig, section: dict, fields: dict, prefix: str = "") -> None:
    for key, (attr, kind) in fields.items():
        if section.get(key) is not None:
            setattr(cfg, attr, _convert(section[key], prefix + key, kind))


def config_from_document(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    _check_keys(doc, {*_TOP_FIELDS, *dict(_SECTIONS)}, "config")
    cfg = RunConfig()
    _apply(cfg, doc, _TOP_FIELDS)
    for where, fields in _SECTIONS:
        section = doc.get(where) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"{where}: expected a mapping, got {section!r}")
        _check_keys(section, fields, where)
        _apply(cfg, section, fields, where + ".")
    return cfg.validate()
