"""Dense density matrices over the sparse states, kept as an independent
oracle for the package's which-path knowledge.

The package reads which-path knowledge from the path amplitudes directly
(``analysis.distinguishability``); this partial trace builds the same
reduced states the long way, label by label, so the tests can check one
against the other.  It came out of ``oam_eraser.hilbert`` unchanged, and
nothing here may be edited to follow the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from oam_eraser.hilbert import ARMS, JointKet

_NORM_TOL = 1e-9


# ---------------------------------------------------------------------------
# density matrices (dense oracle for the sparse pipeline)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian matrix over an explicitly ordered basis."""

    basis: tuple
    matrix: np.ndarray

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def density_matrix(basis: Sequence, matrix: np.ndarray) -> DensityMatrix:
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (len(basis), len(basis)):
        raise ValueError("basis/matrix dimension mismatch")
    if not np.all(np.isfinite(mat)):
        raise ValueError("non-finite density matrix")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(mat).real - 1.0) > 1e-12:
        raise ValueError("density matrix trace is not 1")
    if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")
    return DensityMatrix(tuple(basis), mat)


def reduced_density(state: JointKet, arm: str, dof: str = "both",
                    basis: Sequence | None = None) -> DensityMatrix:
    """Partial trace down to one arm (optionally one degree of freedom);
    the tests' which-path oracle uses it."""
    if arm not in ARMS:
        raise ValueError("empty or unknown arm selector")
    if dof not in ("both", "pol", "oam"):
        raise ValueError(f"unknown degree-of-freedom selector {dof!r}")
    if abs(state.norm() - 1.0) > _NORM_TOL:
        raise ValueError("state must be normalized")
    kept: dict = {}
    for key, amp in state.amplitudes.items():
        here, other = (key[:2], key[2:]) if arm == "A" else (key[2:], key[:2])
        # trace over the other arm entirely, and over the unselected dof
        if dof == "both":
            slot, traced = here, other
        elif dof == "pol":
            slot, traced = here[:1], other + here[1:]
        else:
            slot, traced = here[1:], other + here[:1]
        group = kept.setdefault(traced, {})
        group[slot] = group.get(slot, 0.0 + 0.0j) + amp
    if basis is None:
        labels = sorted({slot for group in kept.values() for slot in group})
    else:
        labels = list(basis)
    index = {lbl: i for i, lbl in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for group in kept.values():
        for slot_i, a_i in group.items():
            for slot_j, a_j in group.items():
                mat[index[slot_i], index[slot_j]] += a_i * a_j.conjugate()
    return density_matrix(labels, mat)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of the difference; 0 for equal, 1 for orthogonal."""
    if rho1.basis != rho2.basis:
        raise ValueError("density matrices live on different bases")
    eigs = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    return float(0.5 * np.sum(np.abs(eigs)))
