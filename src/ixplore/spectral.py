"""Gram-matrix accumulation and spectral diversity of played features."""

import numpy as np

from .errors import NumericalError

TOL_EIG = 1e-9  # eigenvalues in [-TOL_EIG, 0) clamp to 0; below raises


class GramAccumulator:
    """Running sums of feature outer products for a stack of `batch`
    histories advanced together: each absorb takes one (batch, d) feature
    per history, and the spectral reductions return one value per history.
    """

    def __init__(self, dim: int, batch: int):
        self.dim = int(dim)
        self.matrix = np.zeros((batch, self.dim, self.dim))
        self.count = 0

    def absorb(self, feature) -> "GramAccumulator":
        f = np.asarray(feature, dtype=float)
        if f.shape != self.matrix.shape[:-1]:
            raise ValueError(f"feature shape {f.shape} does not match {self.matrix.shape[:-1]}")
        self.matrix += f[:, :, None] * f[:, None, :]
        self.count += 1
        return self

    def min_eigen(self) -> np.ndarray:
        """Smallest eigenvalue of each accumulated matrix, clamped to >= 0.
        A sum of outer products is exactly symmetric (f_i f_j = f_j f_i)."""
        try:
            lam = np.linalg.eigvalsh(self.matrix)[:, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "eigen solver failed to converge: "
                f"trace={np.trace(self.matrix, axis1=-2, axis2=-1).max():.6g}, "
                f"max|entry|={np.abs(self.matrix).max():.6g}, count={self.count}"
            ) from exc
        if np.any(lam < -TOL_EIG):
            worst = int(np.argmin(lam))
            raise NumericalError(
                f"Gram matrix reports eigenvalue {lam[worst]:.3e} < -{TOL_EIG:g}; "
                "a sum of outer products cannot be meaningfully negative "
                f"(count={self.count}, trace={np.trace(self.matrix[worst]):.6g})"
            )
        return np.where(0.0 > lam, 0.0, lam)  # max(lam, 0.0), keeping a -0.0

    def diag_min(self) -> np.ndarray:
        """Minimum diagonal entry of each matrix (the Hadamard-with-identity
        variant)."""
        return np.diagonal(self.matrix, axis1=-2, axis2=-1).min(axis=-1)
