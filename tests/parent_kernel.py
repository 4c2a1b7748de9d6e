"""A frozen copy of the dense-psi analyzer kernel, kept as an independent
oracle for the quadratic form that replaced it.

The kernel builds the dense ``psi[pol, ell, pol_h, ell_h]`` (hologram arm
last), contracts it with each polarizer transmission vector, prunes and
renormalizes, then contracts with each conjugated sector vector.
``analyzer_probabilities`` and ``theta_scans`` are copied verbatim, and so
are the element helpers they called: ``transmission_state``, whose body has
since changed, and ``sector_coefficients`` and ``binary_coupling``, copied
only to freeze them.
Nothing here may be edited to follow the package: the properties in
``test_experiment.py`` and ``test_properties.py`` compare the package's
grids against these within 1e-12 (the two sum in different orders).
"""

import math

import numpy as np

from oam_eraser.elements import binary_mask_overlap
from oam_eraser.experiment import (
    TWO_PI,
    NullOutcomeError,
    ScanSeries,
    run_pipeline,
)
from oam_eraser.hilbert import NULL_TOL, PRUNE_TOL, checked_probability


class el:
    """The element helpers the kernel called, as they were."""

    @staticmethod
    def transmission_state(alpha, extinction: float) -> np.ndarray:
        alpha = np.asarray(alpha, dtype=float)
        ca, sa = np.cos(alpha), np.sin(alpha)
        e = extinction
        scale = 1.0 / math.sqrt(1.0 + e * e)
        return np.stack(((ca - e * sa) * scale, (sa + e * ca) * scale), axis=-1)

    @staticmethod
    def sector_coefficients(theta) -> np.ndarray:
        two = 2.0 * np.asarray(theta, dtype=float)
        root = 1.0 / math.sqrt(2.0)
        minus = root * (np.cos(two) + 1j * np.sin(two))
        return np.stack((np.full_like(minus, root), minus), axis=-1)

    @staticmethod
    def binary_coupling(ell: int) -> float:
        return abs(binary_mask_overlap(2 * abs(ell), 0.0, abs(ell), 0))


def analyzer_probabilities(state, polarizer, hologram, alphas, thetas):
    if polarizer is not None and polarizer.arm == hologram.arm:
        raise ValueError("polarizer and hologram must sit on different arms")
    ell = hologram.ell
    px, lx, py, ly = (0, 1, 2, 3) if hologram.arm == "B" else (2, 3, 0, 1)
    amps = state.amplitudes
    at_x = {e: i for i, e in enumerate(sorted({k[lx] for k in amps}))}
    at_y = {e: i for i, e in enumerate(sorted({k[ly] for k in amps} | {ell, -ell}))}
    psi = np.zeros((2, len(at_x), 2, len(at_y)), dtype=complex)
    for k, amp in amps.items():
        psi[k[px], at_x[k[lx]], k[py], at_y[k[ly]]] = amp
    passed, p_pol = psi[None], np.ones(1)
    if polarizer is not None:
        t = el.transmission_state(alphas, polarizer.extinction).reshape(-1, 2)
        passed = np.einsum("ap,pxqy->axqy", t, psi)[:, None] * t[:, :, None, None, None]
        passed[np.abs(passed) < PRUNE_TOL] = 0.0
        p_pol = np.sum(np.abs(passed) ** 2, axis=(1, 2, 3, 4))
        if np.any(p_pol < NULL_TOL):
            raise NullOutcomeError("polarizer[analyzer_a]")
        passed = passed * (1.0 / np.sqrt(p_pol))[:, None, None, None, None]
    sector = el.sector_coefficients(thetas).reshape(-1, 2)
    scale = el.binary_coupling(ell) if hologram.mode == "binary" else 1.0
    overlap = np.einsum("ty,apxqy->atpxq", sector.conj(),
                        passed[..., [at_y[ell], at_y[-ell]]])
    detected = scale * sector[:, None, None, None, :] * overlap[..., None]
    detected[np.abs(detected) < PRUNE_TOL] = 0.0
    p_holo = np.sum(np.abs(detected) ** 2, axis=(2, 3, 4, 5))
    return p_pol[:, None] * p_holo, checked_probability(p_holo)


def conditional_grid(config, alphas, thetas):
    state, _ = run_pipeline(config)
    return analyzer_probabilities(state, config.analyzer_a, config.analyzer_b,
                                  alphas, thetas)


def theta_scans(config, alphas, thetas=None, points: int = 72) -> list:
    if thetas is None:
        thetas = np.linspace(0.0, TWO_PI, points, endpoint=False)
    joint, cond = conditional_grid(config, alphas, thetas)
    settings = tuple(float(t) for t in thetas)
    return [ScanSeries(settings=settings,
                       probabilities=tuple(float(p) for p in row_cond),
                       joint_probabilities=tuple(float(p) for p in row_joint))
            for row_joint, row_cond in zip(joint, cond)]
