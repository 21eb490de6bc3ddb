"""Product quantization (PQ) with asymmetric distance computation.

PQ (Jégou et al., ref [24] of the paper) splits a d-dimensional vector
into ``M`` sub-vectors of d/M dimensions each and quantizes every
sub-space independently with its own ``CB``-entry codebook, compressing
each vector to ``M`` small integers. The paper's entire cluster-searching
phase runs on PQ codes:

* **LC (LUT construction)** — for a (query, cluster) pair, compute the
  squared distance between the query-residual's sub-vectors and every
  codebook entry: an ``(M, CB)`` table.
* **DC (distance calculation)** — per point: gather M table entries by
  the point's codes and sum.

This module is the reference implementation; ``repro.pim.kernels``
re-implements LC/DC with DPU cost accounting on top of the same
codebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ann.distance import adc_lookup_distances, l2_sq
from repro.ann.kmeans import kmeans_fit
from repro.utils import check_2d, spawn_rngs


@dataclass
class ProductQuantizer:
    """A trained product quantizer.

    Attributes
    ----------
    codebooks: ``(M, CB, dsub)`` float32 — per-sub-space centroids.
    """

    codebooks: np.ndarray

    def __post_init__(self) -> None:
        cb = np.asarray(self.codebooks, dtype=np.float32)
        if cb.ndim != 3:
            raise ValueError(f"codebooks must be 3-D (M, CB, dsub), got {cb.shape}")
        self.codebooks = cb
        # The LC operand, cast once (the codebooks are never edited in
        # place; a pickled instance carries it).
        self._books_f64 = cb.astype(np.float64)

    # ----- shape properties -------------------------------------------------
    @property
    def num_subspaces(self) -> int:
        """M — sub-vectors per point."""
        return self.codebooks.shape[0]

    @property
    def codebook_size(self) -> int:
        """CB — entries per sub-space codebook."""
        return self.codebooks.shape[1]

    @property
    def dsub(self) -> int:
        return self.codebooks.shape[2]

    @property
    def dim(self) -> int:
        return self.num_subspaces * self.dsub

    @property
    def code_dtype(self) -> np.dtype:
        return np.dtype(np.uint8 if self.codebook_size <= 256 else np.uint16)

    # ----- train / encode / decode ------------------------------------------
    @classmethod
    def train(
        cls,
        x: np.ndarray,
        num_subspaces: int,
        codebook_size: int = 256,
        *,
        max_iter: int = 20,
        sample_size: Optional[int] = 65536,
        seed=None,
    ) -> "ProductQuantizer":
        """Train per-sub-space codebooks with independent k-means runs."""
        x = check_2d(x, "x").astype(np.float64, copy=False)
        d = x.shape[1]
        if d % num_subspaces != 0:
            raise ValueError(
                f"dimension {d} not divisible by num_subspaces {num_subspaces}"
            )
        if codebook_size > x.shape[0]:
            raise ValueError(
                f"codebook_size {codebook_size} exceeds training points {x.shape[0]}"
            )
        dsub = d // num_subspaces
        rngs = spawn_rngs(seed, num_subspaces)
        books = np.empty((num_subspaces, codebook_size, dsub), dtype=np.float32)
        for m in range(num_subspaces):
            sub = x[:, m * dsub : (m + 1) * dsub]
            km = kmeans_fit(
                sub,
                codebook_size,
                max_iter=max_iter,
                sample_size=sample_size,
                seed=rngs[m],
            )
            books[m] = km.centroids
        return cls(codebooks=books)

    def encode(self, x: np.ndarray, block: int = 8192) -> np.ndarray:
        """Quantize rows of ``x`` to ``(n, M)`` codes."""
        x = check_2d(x, "x").astype(np.float64, copy=False)
        if x.shape[1] != self.dim:
            raise ValueError(f"x dim {x.shape[1]} != pq dim {self.dim}")
        n = x.shape[0]
        m, dsub = self.num_subspaces, self.dsub
        codes = np.empty((n, m), dtype=self.code_dtype)
        for i0 in range(0, n, block):
            i1 = min(i0 + block, n)
            for j in range(m):
                sub = x[i0:i1, j * dsub : (j + 1) * dsub]
                d = l2_sq(sub, self.codebooks[j])
                codes[i0:i1, j] = np.argmin(d, axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes, ``(n, d)`` float32."""
        codes = check_2d(codes, "codes")
        if codes.shape[1] != self.num_subspaces:
            raise ValueError(
                f"codes have {codes.shape[1]} sub-codes, expected {self.num_subspaces}"
            )
        parts = [
            self.codebooks[j, codes[:, j].astype(np.intp)]
            for j in range(self.num_subspaces)
        ]
        return np.concatenate(parts, axis=1)

    # ----- ADC --------------------------------------------------------------
    def build_lut(self, residual: np.ndarray) -> np.ndarray:
        """LC phase for one query residual: ``(M, CB)`` partial distances.

        ``residual`` is the (query - centroid) vector of length d.
        Entry ``[j, c]`` is the squared L2 distance between the j-th
        sub-vector of the residual and codebook entry c of sub-space j.
        """
        residual = np.asarray(residual, dtype=np.float64).ravel()
        if residual.shape[0] != self.dim:
            raise ValueError(f"residual dim {residual.shape[0]} != {self.dim}")
        m, dsub = self.num_subspaces, self.dsub
        sub = residual.reshape(m, dsub)
        diff = sub[:, None, :] - self._books_f64
        return np.einsum("mcd,mcd->mc", diff, diff)

    def build_luts(self, residuals: np.ndarray) -> np.ndarray:
        """Vectorized LC for a batch: ``(q, d)`` residuals → ``(q, M, CB)``."""
        residuals = check_2d(residuals, "residuals").astype(np.float64, copy=False)
        if residuals.shape[1] != self.dim:
            raise ValueError(f"residual dim {residuals.shape[1]} != {self.dim}")
        m, dsub = self.num_subspaces, self.dsub
        sub = residuals.reshape(-1, m, dsub)
        diff = sub[:, :, None, :] - self._books_f64[None]
        return np.einsum("qmcd,qmcd->qmc", diff, diff)

    def adc_distances(self, residual: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """LUT build + gather-sum: approximate distances for one query."""
        lut = self.build_lut(residual)
        return adc_lookup_distances(lut, codes)

    def quantization_error(self, x: np.ndarray) -> float:
        """Mean squared reconstruction error over rows of ``x``."""
        codes = self.encode(x)
        rec = self.decode(codes).astype(np.float64)
        diff = x.astype(np.float64) - rec
        return float(np.mean(np.einsum("ij,ij->i", diff, diff)))

    # ----- SDC --------------------------------------------------------------
    def sdc_tables(self) -> np.ndarray:
        """Symmetric-distance tables: ``(M, CB, CB)`` float64.

        ``table[j, a, b]`` is the squared L2 distance between codebook
        entries a and b of sub-space j. SDC (paper §II-A) quantizes the
        *query* too and looks distances up between code pairs — cheaper
        at query time (no per-query LUT construction) but strictly less
        accurate than ADC because the query inherits quantization
        error. DRIM-ANN adopts ADC; SDC is provided for comparison.
        """
        cb = self.codebooks.astype(np.float64)
        diff = cb[:, :, None, :] - cb[:, None, :, :]
        return np.einsum("mabd,mabd->mab", diff, diff)

    def sdc_distances(
        self, query_codes: np.ndarray, codes: np.ndarray, tables: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """SDC distances between one encoded query and ``(n, M)`` codes.

        ``tables`` may be passed to amortize :meth:`sdc_tables` across
        queries.
        """
        query_codes = np.asarray(query_codes).ravel()
        codes = check_2d(codes, "codes")
        m = self.num_subspaces
        if query_codes.shape[0] != m:
            raise ValueError(
                f"query has {query_codes.shape[0]} sub-codes, expected {m}"
            )
        if codes.shape[1] != m:
            raise ValueError(f"codes have {codes.shape[1]} sub-codes, expected {m}")
        if tables is None:
            tables = self.sdc_tables()
        sel = tables[np.arange(m), query_codes.astype(np.intp)]  # (M, CB)
        return sel[np.arange(m)[None, :], codes.astype(np.intp)].sum(
            axis=1, dtype=np.float64
        )
