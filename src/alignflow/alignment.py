"""Monotonic alignment search between token prior distributions and frames.

Frames j get log-likelihoods under each token's diagonal Gaussian
(mu_i, sigma_i); a forward dynamic program finds the monotonic surjective
token-to-frame alignment maximizing the total log-likelihood, with optional
per-cell Gaussian exploration noise that anneals away over training. The
brute-force enumerator here is the search's correctness oracle.

All of this is discrete search and runs outside the gradient tape; training
losses differentiate the likelihood terms at the chosen cells downstream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import LOG_2PI, NON_NEGATIVE, NumericError, Rng, check


# exploration-noise schedule: scale starts at 0.01 and loses 2e-6 per global
# step, hitting exactly 0 at step 5000
NOISE_START = 0.01
NOISE_DECREMENT = 2e-6


class InfeasibleAlignmentError(ValueError):
    """More tokens than frames: no monotonic surjective alignment exists."""


class GridSizeError(ValueError):
    """Grid too large for exhaustive enumeration."""


class GridError(ValueError):
    """A grid CSV is malformed; the message names the file and the row."""


class NonFiniteGridError(ValueError):
    """A grid holds a NaN or an inf: it was given one, or the frames and token
    statistics it was computed from overflowed it."""


@dataclass
class LogProbGrid:
    """I x J matrix of frame-given-token log-likelihoods: row i = token, column j = frame."""

    P: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        if self.P.ndim != 2 or self.P.size == 0:
            raise ValueError(f"grid must be 2-D and non-empty, got shape {self.P.shape}")
        if not np.logical_and.reduce(np.isfinite(self.P), axis=None):  # np.all, unwrapped
            raise NonFiniteGridError("grid has non-finite entries")

    # the token and frame counts, I and J; perfbench counts MAS cells with them
    @property
    def valid_i(self) -> int:
        return self.P.shape[0]

    @property
    def valid_j(self) -> int:
        return self.P.shape[1]


@dataclass
class Alignment:
    """Monotonic surjective frame-to-token map stored as per-token durations."""

    durations: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=np.int64)
        if self.durations.ndim != 1 or self.durations.size == 0:
            raise ValueError("durations must be a non-empty 1-D integer vector")
        if (self.durations < 1).any():
            raise ValueError(f"every duration must be >= 1, got {self.durations}")

    def frame_tokens(self) -> np.ndarray:
        """Token index owning each frame, length sum(durations)."""
        return np.repeat(np.arange(self.durations.size), self.durations)


def read_lines(path, error: type[ValueError]) -> list[str]:
    """The lines of the UTF-8 text file ``path``, as ``readlines`` gives them;
    raises ``error`` naming the file if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text ({e.reason})") from None


def read_csv_matrix(path, error: type[ValueError], what: str) -> np.ndarray:
    """Read a CSV of finite numbers into an (rows, cells) float64 array.

    Blank lines and ``#`` comments are skipped, as ``np.loadtxt`` does. Every
    row must hold the same number of cells, each a finite number; a
    one-column file is (rows, 1). The file must be UTF-8 text. Raises
    ``error`` naming the file and, for a bad cell, the line, the ``what`` row
    and the column.
    """
    rows: list[list[float]] = []
    for lineno, raw in enumerate(read_lines(path, error), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}: {what} row {len(rows)}"
        cells = line.split(",")
        if rows and len(cells) != len(rows[0]):
            raise error(f"{where} has {len(cells)} cells, row 0 has {len(rows[0])}")
        row = []
        for col, cell in enumerate(cells):
            try:
                row.append(float(cell))
            except ValueError:
                raise error(f"{where}, column {col}: {cell!r} is not a number") from None
            if not math.isfinite(row[-1]):
                raise error(f"{where}, column {col}: {cell!r} is not finite")
        rows.append(row)
    if not rows:
        raise error(f"{path}: {what} has no rows")
    return np.array(rows)


def load_grid(path) -> LogProbGrid:
    """Read a grid CSV: row i = token, one comma-separated cell per frame.

    The format and its checks are ``read_csv_matrix``'s; a one-column file is
    an I x 1 grid. Raises ``GridError``.
    """
    return LogProbGrid(read_csv_matrix(path, GridError, "grid"))


def noise_scale_at(step: int) -> float:
    """Linear annealing schedule: max(0, 0.01 - 2e-6 * step)."""
    return max(0.0, NOISE_START - NOISE_DECREMENT * step)


def log_prob_grid(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> LogProbGrid:
    """Diagonal-Gaussian log-likelihood of every frame under every token.

    z: (J, C) frames; mu, sigma: (I, C) per-token statistics, sigma > 0.
    P[i, j] = sum_c [ -log sigma_ic - log(2 pi)/2 - (z_jc - mu_ic)^2 / (2 sigma_ic^2) ].
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if z.ndim != 2 or mu.ndim != 2 or sigma.ndim != 2:
        raise ValueError(f"expected 2-D z, mu, sigma, got {z.shape}, {mu.shape}, {sigma.shape}")
    if mu.shape != sigma.shape or z.shape[1] != mu.shape[1]:
        raise ValueError(f"channel mismatch: z {z.shape}, mu {mu.shape}, sigma {sigma.shape}")
    if (sigma <= 0).any():
        raise ValueError("sigma must be strictly positive")
    # one (I, J, C) buffer: the same IEEE ops as diff * diff / (2 sigma^2)
    quad = z[None, :, :] - mu[:, None, :]
    quad *= quad
    quad /= 2.0 * sigma[:, None, :] ** 2
    const = (-np.log(sigma) - 0.5 * LOG_2PI).sum(axis=1)  # (I,)
    P = const[:, None] - quad.sum(axis=2)
    return LogProbGrid(P)


def alignment_score(grid: LogProbGrid, alignment: Alignment) -> float:
    """Total log-likelihood of an alignment, summed frame by frame in j order.

    Both the DP and the brute-force oracle score candidates through here, so
    equal alignments produce bitwise-equal totals.
    """
    tokens = alignment.frame_tokens()
    vj = grid.P.shape[1]
    if tokens.size != vj:
        raise ValueError(f"alignment covers {tokens.size} frames, grid has {vj}")
    total = 0.0
    for j in range(vj):
        total += grid.P[tokens[j], j]
    return total


def _std(a: np.ndarray) -> float:
    """``a.std()`` as the ufuncs numpy's ``_methods._std`` calls, without its
    Python wrappers: the same operations in the same order, so the same bits."""
    n = a.size
    mean = np.add.reduce(a, axis=None, keepdims=True)
    np.true_divide(mean, n, out=mean)
    dev = np.subtract(a, mean)
    np.square(dev, out=dev)
    return math.sqrt(np.add.reduce(dev, axis=None) / n)


def mas_search(
    grid: LogProbGrid, noise_scale: float = 0.0, rng: Rng | None = None
) -> tuple[Alignment, float]:
    """Forward DP with optional exploration noise, then backtrack to durations.

    Recurrence: Q[i, j] = max(Q[i-1, j-1], Q[i, j-1]) + P[i, j] + eps[i, j],
    where eps is fresh standard-normal noise scaled by std(P) times
    ``noise_scale``. With noise_scale = 0 the result maximizes
    the exact total log-likelihood; ties prefer advancing the token.

    Frame j's column depends only on frame j-1's, so the DP runs one column
    at a time (the column-wise layout of Super Monotonic Alignment Search):
    one ``np.maximum`` of the previous column against itself shifted down a
    token, then ``+ P`` and, with noise on, ``+ eps``. Each cell sees the
    same IEEE operations in the same order as a per-cell loop,
    ``(max + P) + eps``, so the result is bit-identical to it. With noise
    off there is no eps grid: a zero eps would only turn a ``-0.0`` cell
    into ``+0.0``, and comparisons ignore the sign of zero, so the
    durations never depend on it. Only the returned best_Q gets that
    ``+ 0.0``, which gives it the per-cell loop's bits. A ``-inf``
    sentinel in front of token 0 stands in for its missing diagonal
    predecessor, and cells with i > j stay ``-inf``.

    Returns (alignment, Q at the terminal cell). A grid whose scores
    overflow float64 (or whose std does, with noise on) gives a non-finite
    best_Q and raises ``NumericError``. A ``noise_scale`` that is NaN,
    infinite or negative raises ``ValueError``.
    """
    check(NON_NEGATIVE, noise_scale, "noise_scale")
    P = grid.P
    vi, vj = P.shape
    if vi > vj:
        raise InfeasibleAlignmentError(
            f"{vi} tokens cannot align onto {vj} frames monotonically"
        )
    eps = None
    if noise_scale > 0.0:
        if rng is None:
            raise ValueError("noise_scale > 0 requires an rng")
        eps = rng.normal((vi, vj)) * _std(P) * noise_scale

    # frame-major: Q[j, i + 1] holds the score of token i at frame j, so a
    # frame's column is one contiguous row; Q[:, 0] is the -inf sentinel
    Q = np.full((vj, vi + 1), -np.inf)
    Q[0, 1] = P[0, 0] if eps is None else P[0, 0] + eps[0, 0]
    stay, diag = Q[:, 1:], Q[:, :-1]
    noise = itertools.repeat(None) if eps is None else eps.T[1:]
    columns = zip(stay[:-1], diag[:-1], stay[1:], P.T[1:], noise)
    for prev_stay, prev_diag, cur, p, e in columns:
        # np.maximum returns its second argument on ties, as max(diag, stay) does
        np.maximum(prev_stay, prev_diag, out=cur)
        cur += p
        if e is not None:
            cur += e

    best_q = Q[vj - 1, vi]
    if not math.isfinite(best_q):
        raise NumericError(f"alignment search overflowed: best_Q = {float(best_q)!r}")
    if eps is None:
        best_q += 0.0  # the zero noise term's one effect: -0.0 becomes +0.0

    # byte i*(J-1) + j-1 of advance is 1 if token i holds frame j and token i-1
    # frame j-1. Each token's row is contiguous, so where the path leaves a
    # token is one rfind back from its last frame. A NaN or +inf in Q would
    # reach best_Q, so here every token i holds a 1 at frame i, its first
    # feasible one (there the stay cell is -inf).
    advance = (diag[:-1] >= stay[:-1]).T.tobytes()
    durations = [0] * vi
    last = vj - 1  # the last frame of token i
    for i in range(vi - 1, 0, -1):
        row = i * (vj - 1)
        k = advance.rfind(b"\x01", row, row + last) - row  # token i-1's last frame
        durations[i], last = last - k, k
    durations[0] = last + 1
    return Alignment(durations), float(best_q)


def brute_force_align(grid: LogProbGrid) -> tuple[Alignment, float]:
    """Exhaustive argmax over all compositions of J frames into I positive runs.

    Guarded to I <= 6, J <= 10; candidate counts explode beyond that and the
    point is to stay obviously correct.
    """
    vi, vj = grid.P.shape
    if vi > 6 or vj > 10:
        raise GridSizeError(
            f"brute force limited to I<=6, J<=10; got I={vi}, J={vj}"
        )
    if vi > vj:
        raise InfeasibleAlignmentError(
            f"{vi} tokens cannot align onto {vj} frames monotonically"
        )
    best: Alignment | None = None
    best_score = -np.inf
    for cuts in itertools.combinations(range(1, vj), vi - 1):
        bounds = (0, *cuts, vj)
        durations = np.diff(bounds)
        cand = Alignment(durations)
        score = alignment_score(grid, cand)
        if score > best_score:
            best, best_score = cand, score
    assert best is not None
    return best, float(best_score)
