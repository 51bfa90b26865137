"""Fitted quantile stacks on an interpolation axis.

Both fitted surrogates — the fleet's window-tail model
(:mod:`repro.fleet.surrogate`) and the surrogate fidelity tier's UIPC
model (:mod:`repro.cpu.surrogate`) — keep the same thing per grid point:
the sorted replicate outcomes of an exact simulator, i.e. an empirical
distribution.  :class:`QuantileTable` is that recipe once: the mean
interpolates linearly along the axis, draws blend the two neighbouring
stacks and pick an order statistic by inverse CDF, and a held-out check
measures the mean's worst error.

Layout is part of the contract.  ``stacks`` is indexed ``(row, rep,
axis)``, but its *memory* order is whatever the caller fitted or
decoded, and :attr:`QuantileTable.mean` reduces in that order: NumPy adds
a contiguous axis pairwise and a strided one sequentially, which differ
in the last bit from eight replicates up.  Keeping each surrogate's
stored layout therefore keeps its predictions — and the error bounds
measured from them — bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantileTable"]


@dataclass(frozen=True)
class QuantileTable:
    """Sorted replicate stacks on an increasing axis.

    ``stacks`` has shape ``(n_rows, n_reps, n_axis)`` and is sorted along
    the replicate axis; a row is one independent curve (a perf factor, a
    hardware thread).
    """

    axis: tuple[float, ...]
    stacks: np.ndarray  # (n_rows, n_reps, n_axis), sorted on axis 1

    @classmethod
    def fit(cls, axis, samples) -> "QuantileTable":
        """Sort ``samples`` (``(n_rows, n_reps, n_axis)``) into stacks."""
        return cls(tuple(axis), np.sort(samples, axis=1))

    @property
    def mean(self) -> np.ndarray:
        """Mean per grid point — shape ``(n_rows, n_axis)``."""
        return self.stacks.mean(axis=1)

    def predict(self, x, rows) -> np.ndarray:
        """Mean interpolated linearly at ``x``, per element's row."""
        x = np.asarray(x, dtype=float)
        rows = np.broadcast_to(rows, x.shape)
        mean = self.mean
        out = np.empty(x.shape)
        for r in np.unique(rows):
            mask = rows == r
            out[mask] = np.interp(x[mask], self.axis, mean[r])
        return out

    def sample(self, x, rows, u) -> np.ndarray:
        """Draw by inverse CDF over uniforms ``u`` in [0, 1), elementwise.

        The stacks at the two neighbouring axis points are blended
        linearly (sortedness is preserved), then ``u`` picks an order
        statistic with midpoint plotting positions — so draws reproduce
        the replicates' distribution, not just its mean.  ``x``, ``rows``
        and ``u`` are equal-length vectors.
        """
        x = np.asarray(x, dtype=float)
        axis = np.asarray(self.axis)
        li = np.clip(
            np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2
        )
        span = axis[li + 1] - axis[li]
        weight = np.clip((x - axis[li]) / span, 0.0, 1.0)
        lower = self.stacks[rows, :, li]  # (n, n_reps)
        upper = self.stacks[rows, :, li + 1]
        stack = lower * (1.0 - weight)[:, None] + upper * weight[:, None]

        n_reps = stack.shape[1]
        position = np.clip(
            np.asarray(u, dtype=float) * n_reps - 0.5, 0.0, n_reps - 1.0
        )
        j0 = np.floor(position).astype(np.int64)
        j1 = np.minimum(j0 + 1, n_reps - 1)
        fraction = position - j0
        v0 = np.take_along_axis(stack, j0[:, None], axis=1)[:, 0]
        v1 = np.take_along_axis(stack, j1[:, None], axis=1)[:, 0]
        return v0 * (1.0 - fraction) + v1 * fraction

    def heldout_error(self, xs, exact) -> float:
        """Worst ``|predict - exact|`` over held-out points ``xs``.

        ``exact`` has shape ``(..., n_rows, len(xs))``; leading axes (held-out
        replicates) broadcast against the prediction grid.  No points give 0.
        """
        xs = np.asarray(xs, dtype=float)
        predicted = np.stack([
            self.predict(xs, r) for r in range(self.stacks.shape[0])
        ])
        return float(np.max(np.abs(predicted - exact), initial=0.0))
