"""Split-R-hat convergence diagnostic.

Each chain is split in half; with m half-chains of length n, B is n times
the variance of the half-chain means, W the mean of the half-chain
variances, and

    R-hat = sqrt( ((n-1)/n * W + B/n) / W ).

This is the plain (non-rank-normalized) split variant. Values near 1
indicate the chains mix; the default pass threshold is 1.05 and is
configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLD = 1.05
MIN_DRAWS = 4  # per chain: each half-chain needs two draws for its variance


def split_rhat(chains) -> float:
    """Split-R-hat for one scalar; ``chains`` is (n_chains, n_draws).

    Needs at least 2 chains of at least ``MIN_DRAWS`` draws (an odd draw
    count loses its last draw). Conventions: identical draws everywhere
    give 1.0; zero within-chain variance with spread between chains gives
    +inf.
    """
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < MIN_DRAWS:
        raise ValueError(f"need at least 2 chains with at least {MIN_DRAWS} draws each")
    n2 = arr.shape[1] // 2
    halves = np.concatenate([arr[:, :n2], arr[:, n2 : 2 * n2]], axis=0)
    m, n = halves.shape
    means = halves.mean(axis=1)
    W = halves.var(axis=1, ddof=1).mean()
    B = n * means.var(ddof=1)
    if W == 0.0:
        return 1.0 if B == 0.0 else float("inf")
    return float(np.sqrt(((n - 1) / n * W + B / n) / W))


@dataclass(frozen=True)
class RhatReport:
    names: tuple[str, ...]
    values: np.ndarray
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.values < self.threshold))

    def rows(self):
        for name, value in zip(self.names, self.values):
            yield name, float(value), bool(value < self.threshold)


def rhat_report(draws, quantity: str, threshold: float = DEFAULT_THRESHOLD) -> RhatReport:
    """Split-R-hat per scalar coordinate of ``quantity``, whose ``draws`` are (chain, draw, ...)."""
    arr = np.asarray(draws)
    flat = arr.reshape(arr.shape[0], arr.shape[1], -1)
    n_scalar = flat.shape[2]
    values = np.array([split_rhat(flat[:, :, k]) for k in range(n_scalar)])
    if n_scalar == 1:
        names = (quantity,)
    else:
        names = tuple(f"{quantity}[{k}]" for k in range(n_scalar))
    return RhatReport(names=names, values=values, threshold=threshold)
