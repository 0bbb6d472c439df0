"""Dense linear algebra and proximal operators for the structure optimizer.

Matrices throughout this package are dense two-dimensional float64 ndarrays
(row-major). Public operations validate that inputs and results are finite.
All randomness flows through :func:`make_rng`, a seeded PCG64 generator: the
same seed reproduces the identical stream within one build.

Dense problems are capped at a side of 2,000 (``_MAX_DENSE_SIDE``), where one
float64 matrix takes 32 MB: :func:`require_square` raises ValueError naming
the dense ceiling above it. ``flows.build_snapshot`` checks a graph's
device count before it allocates the adjacency, ``gsl.fit`` the observed
adjacency when it starts, and every factorization its input.
``gsl.refine_structure`` reads a ``GraphSnapshot``, whose adjacency was
checked when the snapshot was built, so it checks only the side against
the ceiling, with the same message.

The structure matrices the optimizer works on are symmetric, so the spectral
operators of the opt-in nuclear-norm prior, :func:`svt` and
:func:`nuclear_norm`, factor with the symmetric eigensolvers (LAPACK syevd)
instead of a general SVD. They reject an input that is not symmetric instead
of symmetrizing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# Dense matrices, and so graphs, are only meant for desk-scale problems.
_MAX_DENSE_SIDE = 2000

# Largest asymmetry, relative to the largest entry, that the symmetric
# operators accept; the eigensolvers read only the lower triangle.
_SYMMETRY_RTOL = 1e-10


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seeds yield identical streams."""
    return np.random.default_rng(int(seed))


def require_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise ValueError."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD factors; ``u @ diag(singular_values) @ vt`` rebuilds the input."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def _symmetric_svd(arr: np.ndarray) -> SvdResult:
    # SVD of a symmetric matrix via its eigendecomposition: for S = Q L Q^T,
    # the singular values are |L| and U picks up the eigenvalue signs. The
    # syevd path converges on iterates that occasionally defeat gesdd.
    eigvals, eigvecs = np.linalg.eigh(arr)
    order = np.argsort(np.abs(eigvals))[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    signs = np.where(eigvals < 0.0, -1.0, 1.0)
    return SvdResult(u=eigvecs * signs, singular_values=np.abs(eigvals),
                     vt=eigvecs.T)


def svd(m) -> SvdResult:
    """Thin SVD with singular values sorted non-increasing.

    Backed by LAPACK's gesdd driver. When gesdd fails to converge on a
    symmetric input (a known weakness of the divide-and-conquer driver),
    the factorization is recovered from the symmetric eigendecomposition
    instead; only an unsalvageable failure raises NumericError.
    """
    arr = require_matrix(m, "svd input")
    if min(arr.shape) > _MAX_DENSE_SIDE:
        raise ValueError(
            f"svd supports min(rows, cols) <= {_MAX_DENSE_SIDE}, got shape {arr.shape}"
        )
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        if arr.shape[0] == arr.shape[1] and np.array_equal(arr, arr.T):
            try:
                return _symmetric_svd(arr)
            except np.linalg.LinAlgError:
                pass
        raise NumericError(
            "svd did not converge within the LAPACK gesdd iteration cap"
        ) from exc
    return SvdResult(u=u, singular_values=s, vt=vt)


def soft_threshold(m, tau: float) -> np.ndarray:
    """Elementwise shrinkage sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"soft_threshold needs tau >= 0, got {tau}")
    arr = require_matrix(m, "soft_threshold input")
    if tau == 0:
        return arr.copy()
    return np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0)


def _check_dense_side(side: int, name: str) -> None:
    """Raise ValueError naming the dense ceiling if ``side`` is above it."""
    if side > _MAX_DENSE_SIDE:
        raise ValueError(
            f"{name} side {side} is above the dense ceiling of {_MAX_DENSE_SIDE}"
        )


def require_square(m, name: str = "matrix") -> np.ndarray:
    """A finite, square matrix within the dense ceiling, or ValueError."""
    arr = require_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    _check_dense_side(arr.shape[0], name)
    return arr


def _require_symmetric(m, name: str) -> np.ndarray:
    """A finite, square, symmetric matrix within the dense ceiling, or ValueError."""
    arr = require_square(m, name)
    asym = float(np.abs(arr - arr.T).max(initial=0.0))
    if asym > _SYMMETRY_RTOL * max(float(np.abs(arr).max(initial=0.0)), 1.0):
        raise ValueError(f"{name} must be symmetric, got max|m - m^T| = {asym:.3e}")
    return arr


def svt(m, tau: float) -> np.ndarray:
    """Singular value thresholding of a symmetric matrix by tau.

    For M = Q diag(l) Q^T the singular values are |l|, so the result is
    Q diag(sign(l) * max(|l| - tau, 0)) Q^T.
    """
    if tau < 0:
        raise ValueError(f"svt needs tau >= 0, got {tau}")
    arr = _require_symmetric(m, "svt input")
    if tau == 0:
        return arr.copy()
    try:
        eigvals, eigvecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError("svt: the symmetric eigensolver did not converge") from exc
    shrunk = np.sign(eigvals) * np.maximum(np.abs(eigvals) - tau, 0.0)
    out = (eigvecs * shrunk) @ eigvecs.T
    if not np.all(np.isfinite(out)):
        raise NumericError("svt produced non-finite entries")
    return out


def nuclear_norm(m) -> float:
    """Sum of the singular values of a symmetric matrix: sum |eigenvalues|."""
    arr = _require_symmetric(m, "nuclear_norm input")
    try:
        eigvals = np.linalg.eigvalsh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "nuclear_norm: the symmetric eigensolver did not converge"
        ) from exc
    return float(np.abs(eigvals).sum())


def symmetrize_clamp(s) -> np.ndarray:
    """Average with the transpose, clamp entries to [0, 1], zero the diagonal."""
    arr = require_matrix(s, "symmetrize_clamp input")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"symmetrize_clamp needs a square matrix, got {arr.shape}")
    out = np.clip((arr + arr.T) / 2.0, 0.0, 1.0)
    np.fill_diagonal(out, 0.0)
    return out
