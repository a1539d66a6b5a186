"""Single-pixel ghost imaging simulator with paired cos/sin phase projections."""

from .wht import NATURAL, SEQUENCY, DimensionError, OrthoMatrix, basis_mask, fwht2, hadamard_matrix
from .scene import (KINDS, ObjectSpec, SpecError, SpectralDecomposition, apply_illumination,
                    compose, decompose, default_radius, disc_mask, make_object, normalize)
from .projections import RandomBasis, cos_mask, random_basis, sin_mask
from .acquisition import (MeasurementSeries, closed_form_values, decompose_probability,
                          measure_exact, sample_counts)
from .reconstruction import (ClosedFormTerms, PhaseImage, SINE_CHANNEL_SIGN, closed_form_gi,
                             combine_phase, denoise, estimate_spectrum, ghost_image,
                             remove_artifact, remove_artifact_analytic)
from .analysis import (CrossSection, azimuthal_slope, cross_section_azimuthal,
                       cross_section_horizontal, phase_pearson, phase_rmse, wrap)

__version__ = "0.1.0"
