"""Gram-matrix accumulation and spectral diversity of played features."""

import numpy as np

from .errors import NumericalError

TOL_EIG = 1e-9  # eigenvalues in [-TOL_EIG, 0) clamp to 0; below raises


class GramAccumulator:
    """Running sum of feature outer products, for one history or, with
    `batch=n`, a stack of n histories advanced together (features (n, d),
    eigenvalues and diagonals (n,)).
    """

    def __init__(self, dim: int, batch: "int | None" = None):
        self.dim = int(dim)
        shape = (self.dim, self.dim) if batch is None else (batch, self.dim, self.dim)
        self.matrix = np.zeros(shape)
        self.count = 0

    def absorb(self, feature) -> "GramAccumulator":
        f = np.asarray(feature, dtype=float)
        if f.shape != self.matrix.shape[:-1]:
            raise ValueError(f"feature shape {f.shape} does not match dim {self.dim}")
        self.matrix += f[..., :, None] * f[..., None, :]
        self.count += 1
        return self

    def min_eigen(self):
        """Smallest eigenvalue of the accumulated matrix, clamped to >= 0."""
        sym = 0.5 * (self.matrix + np.swapaxes(self.matrix, -1, -2))
        try:
            lam = np.linalg.eigvalsh(sym)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "eigen solver failed to converge: "
                f"trace={np.trace(sym, axis1=-2, axis2=-1).max():.6g}, "
                f"max|entry|={np.abs(sym).max():.6g}, count={self.count}"
            ) from exc
        if np.any(lam < -TOL_EIG):
            worst = np.unravel_index(np.argmin(lam), lam.shape)
            raise NumericalError(
                f"Gram matrix reports eigenvalue {lam[worst]:.3e} < -{TOL_EIG:g}; "
                "a sum of outer products cannot be meaningfully negative "
                f"(count={self.count}, trace={np.trace(sym[worst]):.6g})"
            )
        lam = np.where(0.0 > lam, 0.0, lam)  # max(lam, 0.0), keeping a -0.0
        return float(lam) if lam.ndim == 0 else lam

    def diag_min(self):
        """Minimum diagonal entry (the Hadamard-with-identity variant)."""
        low = np.diagonal(self.matrix, axis1=-2, axis2=-1).min(axis=-1)
        return float(low) if low.ndim == 0 else low
