"""Single-pixel ghost imaging simulator with paired cos/sin phase projections."""

from .wht import NATURAL, SEQUENCY, OrthoMatrix, fwht2
from .scene import KINDS, apply_illumination, default_radius, disc_mask, make_object, normalize
from .acquisition import Scan, measure_exact, sample_counts
from .reconstruction import (ClosedFormTerms, SINE_CHANNEL_SIGN, closed_form_gi, combine_phase,
                             denoise, estimate_spectrum, ghost_image, remove_artifact,
                             remove_artifact_analytic)
from .analysis import (azimuthal_slope, cross_section_azimuthal, cross_section_horizontal,
                       phase_rmse, wrap)

__version__ = "0.1.0"
