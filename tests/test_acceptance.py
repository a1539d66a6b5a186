"""End-to-end acceptance checks.

Each test exercises one numbered contract of the simulator at its stated
tolerance and prints a single pass/fail line (run with -s to see them
inline).
"""

import time

import numpy as np
import pytest

from ghostphase import (OrthoMatrix, closed_form_gi, combine_phase, denoise, disc_mask,
                        fwht2, ghost_image, make_object, measure_exact, phase_rmse,
                        remove_artifact, remove_artifact_analytic, sample_counts)
from ghostphase.analysis import azimuthal_slope, cross_section_azimuthal, cross_section_horizontal, wrap
from ghostphase.scene import default_radius
from ghostphase.reconstruction import PhaseImage

from conftest import (decompose_probability, naive_mask_series, phase_pearson,
                      random_complex_object)

ALL_KINDS = ["flat", "double-slit-amplitude", "annulus-amplitude",
             "pi-slit-phase", "azimuthal-ring-phase", "spiral-flower-phase"]


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _object(kind, d):
    radii = (d / 4, 3 * d / 8) if d >= 8 else (1.0, 2.2)
    return make_object(kind, d, annulus_radii=radii)


def _truth_phase(obj):
    support = np.abs(obj) > 0
    return PhaseImage(entries=np.where(support, np.angle(obj), 0.0), support=support)


def _recover_heuristic(obj, basis, flux=None, seed=0, window=1, support=None):
    """Measured-data pipeline: series -> channels -> artifact removal -> phase."""
    scan = measure_exact(obj, basis)
    if flux is not None:
        scan = sample_counts(scan, flux, seed)
    re, im = remove_artifact(scan)
    if support is None:
        support = np.abs(obj) > 0
    return denoise(combine_phase(re, im, support), window)


def test_criterion_01_closed_form_identity():
    start = time.perf_counter()
    worst = 0.0
    for d in (4, 8, 16):
        H = OrthoMatrix(d)
        for kind in ALL_KINDS:
            obj = _object(kind, d)
            for gi, terms in zip(ghost_image(measure_exact(obj, H)), closed_form_gi(obj, H)):
                cf = terms.total
                worst = max(worst, float(np.max(np.abs(gi - cf))))
    elapsed = time.perf_counter() - start
    _report(1, "closed-form identity", worst <= 1e-10 and elapsed < 5.0,
            f"max|diff|={worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_exact_phase_recovery_analytic():
    worst = {}
    for kind in ("pi-slit-phase", "azimuthal-ring-phase"):
        start = time.perf_counter()
        d = 32
        H = OrthoMatrix(d)
        obj = _object(kind, d)
        scan = measure_exact(obj, H)
        gic, gis = ghost_image(scan)
        re, im = remove_artifact_analytic(gic, gis, obj, scan)
        phase = combine_phase(re, im, np.abs(obj) > 0)
        rmse = phase_rmse(phase, _truth_phase(obj))
        elapsed = time.perf_counter() - start
        worst[kind] = (rmse, elapsed)
    ok = all(r <= 1e-6 and t < 2.0 for r, t in worst.values())
    _report(2, "exact analytic phase recovery", ok,
            " ".join(f"{k}: rmse={r:.2e} ({t:.2f}s)" for k, (r, t) in worst.items()))


def test_criterion_03_step_fidelity():
    d = 32
    obj = _object("pi-slit-phase", d)
    phase = _recover_heuristic(obj, OrthoMatrix(d), window=3)
    trace = cross_section_horizontal(phase, d // 2)
    values = trace.values
    hi = values[np.abs(values) > np.pi / 2]
    lo = values[np.abs(values) <= np.pi / 2]
    # circular distance between the two level medians
    sep = abs(float(wrap(np.median(hi) - np.median(lo))))
    spread = max(np.ptp(np.abs(hi)), np.ptp(lo)) if hi.size and lo.size else np.inf
    ok = hi.size > 0 and lo.size > 0 and abs(sep - np.pi) <= 0.05 and spread <= 0.05
    _report(3, "pi-step cross-section", ok, f"separation={sep:.4f} rad spread={spread:.2e}")


def test_criterion_04_gradient_fidelity():
    d = 32
    radii = (8.0, 12.0)
    obj = make_object("azimuthal-ring-phase", d, annulus_radii=radii)
    phase = _recover_heuristic(obj, OrthoMatrix(d))
    trace = cross_section_azimuthal(phase, radius=sum(radii) / 2)
    slope = azimuthal_slope(trace)
    _report(4, "azimuthal gradient", abs(slope - 1.0) <= 0.05, f"slope={slope:.4f}")


def test_criterion_05_amplitude_baseline():
    d = 32
    H = OrthoMatrix(d)
    obj = _object("double-slit-amplitude", d)
    # compare across the whole illuminated disc: inside the slits and the
    # blocked regions between them (the object support alone is constant)
    support = disc_mask(d, default_radius(d))
    re, im = remove_artifact(measure_exact(obj, H))
    intensity = np.abs(obj) ** 2
    r = float(np.corrcoef(re[support], intensity[support])[0, 1])
    phase = combine_phase(re, im, support)
    max_phase = float(np.abs(phase.entries[phase.support]).max())
    ok = r >= 0.99 and max_phase <= 0.05
    _report(5, "amplitude-only baseline", ok, f"pearson={r:.4f} |sin phase|max={max_phase:.2e}")


def test_criterion_06_random_basis_parity():
    d = 16
    obj = _object("pi-slit-phase", d)
    truth = _truth_phase(obj)
    ph_random = _recover_heuristic(obj, OrthoMatrix(d, seed=42))
    ph_hadamard = _recover_heuristic(obj, OrthoMatrix(d))
    rmse = phase_rmse(ph_random, truth)
    r = phase_pearson(ph_hadamard, ph_random)
    ok = rmse <= 0.3 and r >= 0.9
    _report(6, "random-basis parity", ok, f"rmse={rmse:.3f} rad pearson={r:.4f}")


def test_criterion_07_shot_noise_robustness():
    d = 16
    obj = _object("pi-slit-phase", d)
    H = OrthoMatrix(d)
    truth = _truth_phase(obj)
    medians = {}
    for flux in (1e5, 1e6, 1e7, 1e9):
        errors = [phase_rmse(_recover_heuristic(obj, H, flux=flux, seed=seed, window=3), truth)
                  for seed in range(10)]
        medians[flux] = float(np.median(errors))
    values = [medians[f] for f in (1e5, 1e6, 1e7, 1e9)]
    ok = medians[1e6] <= 0.3 and all(a > b for a, b in zip(values, values[1:]))
    _report(7, "shot-noise robustness", ok,
            " ".join(f"{f:.0e}:{m:.3f}" for f, m in medians.items()))


def test_criterion_08_measurement_count_contract():
    counts = {}
    for d in (4, 16, 128):
        H = OrthoMatrix(d)
        obj = make_object("flat", d)
        scan = measure_exact(obj, H)
        counts[d] = (scan.cos.size, scan.sin.size)
    ok = all(counts[d] == (d * d, d * d) for d in counts)
    _report(8, "d^2 records per channel", ok,
            " ".join(f"d={d}:{c[0]}" for d, c in counts.items()))


def test_criterion_09_performance_and_correctness_anchor():
    d = 128
    start = time.perf_counter()
    obj = _object("azimuthal-ring-phase", d)
    phase = _recover_heuristic(obj, OrthoMatrix(d), window=3)
    elapsed = time.perf_counter() - start
    assert phase.entries.shape == (d, d)

    H16 = OrthoMatrix(16)
    obj16 = _object("pi-slit-phase", 16)
    scan16 = measure_exact(obj16, H16)
    agree = max(
        float(np.max(np.abs(getattr(scan16, ch) - naive_mask_series(obj16, H16, ch))))
        for ch in ("cos", "sin"))
    ok = elapsed < 10.0 and agree <= 1e-12
    _report(9, "128x128 pipeline performance", ok,
            f"elapsed={elapsed:.2f}s naive-agreement={agree:.1e}")


def test_criterion_10_convention_oracle():
    H = OrthoMatrix(8)
    implemented_worst = 0.0
    rejected_hits = {"cos delta+": 0, "sin cross+": 0, "sin full-coeff": 0}
    trials = 50
    for seed in range(trials):
        obj = random_complex_object(8, seed=seed)
        coeffs = fwht2(obj, H).ravel()
        scan = measure_exact(obj, H)
        implemented_worst = max(implemented_worst,
                                decompose_probability(scan, "cos", coeffs),
                                decompose_probability(scan, "sin", coeffs))
        if decompose_probability(scan, "cos", coeffs, delta_sign="plus") > 1e-3:
            rejected_hits["cos delta+"] += 1
        if decompose_probability(scan, "sin", coeffs, cross_sign="plus") > 1e-3:
            rejected_hits["sin cross+"] += 1
        if decompose_probability(scan, "sin", coeffs, sin_coeff="full") > 1e-3:
            rejected_hits["sin full-coeff"] += 1
    ok = implemented_worst <= 1e-10 and all(v >= 45 for v in rejected_hits.values())
    _report(10, "sign-convention oracle", ok,
            f"worst={implemented_worst:.1e} rejected={rejected_hits}")
