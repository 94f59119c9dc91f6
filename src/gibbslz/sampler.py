"""Occupancy-string samplers: independent modes and fixed-total conditioning.

Grand sampling draws every mode independently from its marginal law by
inverse transform, one uniform per site.

Canonical sampling conditions the same product law on a fixed total
occupancy n.  The sites are the leaves of a balanced binary tree, and each
node holds the law of its subtree's total.  A draw runs from the root, which
holds n, down to the leaves: a node holding total t hands its left child s
with probability

    P(S_L = s | S_L + S_R = t)  proportional to  L(s) * R(t - s),

one vectorised step per tree level (exact splitting of a conditioned sum,
Arratia & DeSalvo 2016).  The tree is built bottom-up, one level at a time,
with batched FFT convolutions.

Before the build the site laws are tilted to the saddle point: site j's
law p_j(k) becomes proportional to p_j(k) e^{theta k}, with theta chosen so
the tilted means sum to n (as in conditional Bernoulli sampling, Chen,
Dempster & Liu 1994).  Tilting leaves the conditional law unchanged and puts
every node's conditioned total near the centre of its tilted law, where the
FFT results are accurate to double precision even when n is far in the tail
of the untilted sum.  Each node law is kept only on a window of
_WINDOW_SIGMAS standard deviations plus one leaf width around its tilted
mean; the tilted mass cut off by the windows is added to the reported
truncation tail.  Leaves are cut at n, which is exact: larger totals cannot
occur.

The same tree gives the exact entropy cost of conditioning: one root-to-leaf
pass turns the node laws into the site laws given the total, and the
conditional entropy follows from those and the root's probability of n.

Determinism: each (seed, ell, replica) triple owns a counter-based random
stream.  A replica reads ell uniforms from it and uses one per merge node of
the tree (ell - 1 of them; the last uniform is unused).  Replicas are drawn
in chunks whose size a fixed cell budget sets, and each replica's arithmetic
is confined to its own rows, so a string is a pure function of (ensemble,
ell, n, seed, replica), independent of chunking, batching and process count.

Bose marginals are truncated once their tail mass drops below a tolerance;
the summed truncation bound is reported in the string provenance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .disttab import LN2, DistTable
from .ensemble import (
    EnsembleSpec,
    Statistics,
    _fermi_mean,
    entropy_of_mean,
    eval_dispersion,
    site_means,
)
from .errors import (
    DomainError,
    ImpossibleConditionError,
    NumericError,
)

_DEFAULT_TAIL_TOL = 1e-12
# Node windows reach this many tilted standard deviations, plus one leaf
# width, to each side of the node's tilted mean.
_WINDOW_SIGMAS = 12.0
# Float cells (leaf columns plus node windows) one sampler may hold; larger
# instances fail fast with NumericError instead of running unbounded.
_MAX_CELLS = 1 << 25
# Split-weight cells one chunk of replicas may hold at once.
_CHUNK_CELLS = 1 << 20
# Newton steps allowed for the saddle-point tilt.
_TILT_STEPS = 100


@dataclass(frozen=True)
class ParticleTarget:
    """Total occupancy n = round(r * ell), rounding halves away from zero."""

    ell: int
    r: float
    n: int


def choose_n(r: float, ell: int) -> ParticleTarget:
    if not (ell >= 1):
        raise DomainError("ell must be at least 1")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"target density must be positive, got {r}")
    n = math.floor(r * ell + 0.5)
    return ParticleTarget(ell, r, n)


@dataclass(frozen=True)
class Provenance:
    spec_label: str
    kind: str
    ell: int
    n: int | None
    seed: int
    replica: int
    truncation_tail: float = 0.0


@dataclass(frozen=True)
class OccupancyString:
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("occupancy string must be a nonempty vector")
        if np.any(arr < 0):
            raise DomainError("occupancies must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def ell(self) -> int:
        return self.values.size


def make_rng(seed: int, ell: int, replica: int) -> np.random.Generator:
    """Counter-based stream owned by the (seed, ell, replica) triple."""
    if not (0 <= int(seed) < 2**63):
        raise DomainError("seed must be a nonnegative 63-bit integer")
    if replica < 0:
        raise DomainError("replica index must be nonnegative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(ell), int(replica)))
    return np.random.Generator(np.random.Philox(ss))


def marginal_tables(spec: EnsembleSpec, ell: int,
                    tail_tol: float = _DEFAULT_TAIL_TOL) -> list[DistTable]:
    """Occupancy laws of all ell sites; site j is the mode at y = j/ell."""
    means = site_means(spec, ell).tolist()
    if spec.stats is Statistics.FERMI:
        return [DistTable.bernoulli(mean) for mean in means]
    return [DistTable.geometric(mean, tail_tol=tail_tol) for mean in means]


def sample_grand(spec: EnsembleSpec, ell: int, seed: int,
                 replica: int = 0) -> OccupancyString:
    """Independent draw of every site from its marginal law."""
    if ell < 1:
        raise DomainError("ell must be at least 1")
    rng = make_rng(seed, ell, replica)
    u = rng.random(ell)
    x = spec.beta * (spec.dispersion.base_energy(np.arange(ell) / ell) - spec.mu)
    if spec.stats is Statistics.FERMI:
        vals = (u < _fermi_mean(x)).astype(np.int64)
    else:
        # Geometric inverse transform: smallest k with 1 - q^{k+1} > u.
        logq = -x
        vals = np.floor(np.log1p(-u) / logq).astype(np.int64)
    prov = Provenance(spec.label(), "grand", ell, None, int(seed), int(replica))
    return OccupancyString(vals, prov)


def _site_laws(spec: EnsembleSpec, ell: int, n: int,
               tail_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every site law as a truncated geometric: p_j(k) is proportional to
    e^{a_j k} on k = 0..top_j.  Returns (a, top, dropped tail mass).

    a_j = -beta * omega(j/ell) is the log-odds of a Fermi site and the log
    ratio of a Bose site.  Bose supports end where DistTable.geometric ends
    them, at the smallest top with q^{top+1} < tail_tol, and every support
    is cut at n, which is exact: no site of a string with total n holds more.
    """
    a = -spec.beta * np.asarray(eval_dispersion(spec, np.arange(ell) / ell))
    if spec.stats is Statistics.FERMI:
        return a, np.full(ell, min(1, n), dtype=np.int64), np.zeros(ell)
    top = _geometric_tops(a, tail_tol)
    return a, np.minimum(top, n).astype(np.int64), np.exp((top + 1.0) * a)


def _geometric_tops(logq: np.ndarray, tail_tol: float) -> np.ndarray:
    """Last kept k of geometric laws with log ratios logq, truncated as
    DistTable.geometric truncates them: the smallest top with
    q^{top+1} < tail_tol."""
    if not (0.0 < tail_tol < 0.1):
        raise DomainError("tail tolerance must be a small positive mass")
    log_tol = math.log(tail_tol)
    top = np.maximum(np.ceil(log_tol / logq) - 1.0, 0.0)
    top += (top + 1.0) * logq >= log_tol
    return top


def _free_entropy(spec: EnsembleSpec, ell: int, tail_tol: float) -> float:
    """Summed entropy, in bits, of the unconditioned site laws as
    marginal_tables gives them, in closed form.

    A Bose law is (1 - q) q^k on k = 0..top with q = mean / (1 + mean), on
    its uncut support and not renormalised, as DistTable.geometric leaves
    it: its mass is 1 - q^{top+1} and its first moment is
    mean (1 - (top + 1) q^top + top q^{top+1}).
    """
    mean = site_means(spec, ell)
    if spec.stats is Statistics.FERMI:
        return float(entropy_of_mean(spec.stats, mean).sum())
    logq = np.log(mean) - np.log1p(mean)
    top = _geometric_tops(logq, tail_tol)
    qtop = np.exp(top * logq)
    qnext = np.exp((top + 1.0) * logq)
    moment = mean * (1.0 - (top + 1.0) * qtop + top * qnext)
    nats = (1.0 - qnext) * np.log1p(mean) - logq * moment
    return float(nats.sum()) / LN2


def _tilted_laws(a: np.ndarray, top: np.ndarray,
                 theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ell, K) matrix of the site laws tilted by theta, each normalised,
    with their means and variances."""
    k = np.arange(int(top.max()) + 1, dtype=float)
    laws = np.multiply.outer(a + theta, k)
    laws[k > top[:, None]] = -np.inf
    laws -= laws.max(axis=1, keepdims=True)
    np.exp(laws, out=laws)
    laws /= laws.sum(axis=1, keepdims=True)
    mean = laws @ k
    var = np.maximum(laws @ (k * k) - mean * mean, 0.0)
    return laws, mean, var


def _saddle_tilt(a: np.ndarray, top: np.ndarray, n: int):
    """theta whose tilted site means sum to n, found by safeguarded Newton
    steps; returns (theta, tilted laws, their means, their variances)."""
    theta, lo, hi = 0.0, -math.inf, math.inf
    laws, mean, var = _tilted_laws(a, top, theta)
    for _ in range(_TILT_STEPS):
        excess, spread = float(mean.sum()) - n, float(var.sum())
        if abs(excess) <= 1e-9 * max(1.0, n) or spread <= 0.0:
            break
        if excess > 0.0:
            hi = theta
        else:
            lo = theta
        step = theta + min(8.0, max(-8.0, -excess / spread))
        theta = step if lo < step < hi else 0.5 * (lo + hi)
        laws, mean, var = _tilted_laws(a, top, theta)
    return theta, laws, mean, var


def _window_plan(top: np.ndarray, mean: np.ndarray, var: np.ndarray,
                 n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(offset, width) of every node window, level by level from the leaves
    to the root.  A level pairs adjacent nodes; an odd last node moves up
    unmerged, so the tree has ell - 1 merges."""
    pad = float(top.max())
    off = np.zeros(top.size, dtype=np.int64)
    wid = top + 1
    plan = [(off, wid)]
    while off.size > 1:
        pairs = off.size // 2
        lo = off[0:2 * pairs:2] + off[1:2 * pairs:2]
        hi = lo + wid[0:2 * pairs:2] + wid[1:2 * pairs:2] - 2
        m = mean[0:2 * pairs:2] + mean[1:2 * pairs:2]
        v = var[0:2 * pairs:2] + var[1:2 * pairs:2]
        half = _WINDOW_SIGMAS * np.sqrt(v) + pad
        lo = np.maximum(lo, np.floor(m - half).astype(np.int64))
        hi = np.minimum(np.minimum(hi, n), np.ceil(m + half).astype(np.int64))
        if off.size % 2:
            lo = np.append(lo, off[-1])
            hi = np.append(hi, off[-1] + wid[-1] - 1)
            m = np.append(m, mean[-1])
            v = np.append(v, var[-1])
        off, wid, mean, var = lo, hi - lo + 1, m, v
        plan.append((off, wid))
    return plan


@dataclass(frozen=True)
class _Level:
    """Node windows of one tree level: row i of law holds the law of node
    i's total at off[i], off[i] + 1, ...; columns past a node's own window
    are zero."""

    off: np.ndarray
    law: np.ndarray

    @property
    def width(self) -> int:
        return self.law.shape[1]


def _merge_level(child: _Level, off: np.ndarray, wid: np.ndarray,
                 n: int) -> tuple[_Level, float]:
    """Laws of the next level up, cut to the planned windows (off, wid),
    and the tilted mass the cut removed."""
    w = child.width
    pairs = child.off.size // 2
    size = 2 * w - 1
    nfft = 1 << (size - 1).bit_length()
    spec = np.fft.rfft(child.law[0:2 * pairs:2], nfft, axis=1)
    spec *= np.fft.rfft(child.law[1:2 * pairs:2], nfft, axis=1)
    conv = np.fft.irfft(spec, nfft, axis=1)[:, :size]
    del spec
    np.maximum(conv, 0.0, out=conv)
    base = child.off[0:2 * pairs:2] + child.off[1:2 * pairs:2]
    reachable = float(conv.sum(where=base[:, None] + np.arange(size) <= n))

    width = int(wid.max())
    cols = np.arange(width)
    idx = np.minimum((off[:pairs] - base)[:, None] + cols, size - 1)
    win = np.take_along_axis(conv, idx, axis=1)
    win *= cols < wid[:pairs, None]
    law = np.zeros((off.size, width))
    law[:pairs] = win
    if off.size > pairs:
        law[pairs, :wid[pairs]] = child.law[-1, :wid[pairs]]
    return _Level(off, law), max(0.0, reachable - float(win.sum()))


def _split_level(child: _Level, off: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Conditional weights of the child level's nodes from the weights w of
    the level above, whose row i covers totals off[i], off[i] + 1, ...

    A node's weight is w(t) = P(S_node = t | S = n) / P(S_node = t) under
    the tree's laws.  A merge hands its left child
    w_L(s) = sum_t w(t) R(t - s) and its right child
    w_R(u) = sum_t w(t) L(t - u): per side, one batched FFT convolution of
    w with the reversed sibling laws.  An odd last node keeps its w.
    """
    cw = child.width
    pairs = child.off.size // 2
    size = w.shape[1] + cw - 1
    nfft = 1 << (size - 1).bit_length()
    # Entry cw - 1 - d + i of a convolution weighs child total
    # off_child + i, where d = off_parent - off_left - off_right >= 0.
    d = off[:pairs] - child.off[0:2 * pairs:2] - child.off[1:2 * pairs:2]
    out = np.zeros((child.off.size, cw))
    # Merges go in chunks of at most _CHUNK_CELLS transform cells.
    rows = max(1, _CHUNK_CELLS // nfft)
    for lo in range(0, pairs, rows):
        hi = min(pairs, lo + rows)
        idx = (cw - 1 - d[lo:hi])[:, None] + np.arange(cw)
        inside = (idx >= 0) & (idx < size)
        np.clip(idx, 0, size - 1, out=idx)
        wspec = np.fft.rfft(w[lo:hi], nfft, axis=1)
        for side in (0, 1):
            conv = np.fft.rfft(child.law[2 * lo + 1 - side:2 * hi:2, ::-1], nfft, axis=1)
            conv *= wspec
            conv = np.fft.irfft(conv, nfft, axis=1)
            out[2 * lo + side:2 * hi:2] = np.take_along_axis(conv, idx, axis=1) * inside
    if child.off.size % 2:
        keep = min(cw, w.shape[1])
        out[-1, :keep] = w[pairs, :keep]
    return out


class CanonicalSampler:
    """Fixed-total draws at one (ensemble, ell, n) from a tree of sub-sum laws.

    Building the tree is the expensive part; do it once and draw any number
    of replicas from it.  Degenerate targets (n = 0, or a full Fermi string)
    bypass the tree entirely.

    `entropy_gap` is the exact per-string entropy cost of conditioning on
    n, from one further pass over the tree.

    Diagnostics: `tilt` is the saddle-point theta, `cells` the float cells
    held by the leaves and node windows (at most _MAX_CELLS), and
    `truncation_tail` the Bose tail mass dropped from the site laws plus the
    tilted mass the node windows cut off.
    """

    def __init__(self, spec: EnsembleSpec, ell: int, n: int,
                 tail_tol: float = _DEFAULT_TAIL_TOL):
        if ell < 1:
            raise DomainError("ell must be at least 1")
        if n < 0:
            raise DomainError("target total must be nonnegative")
        self.spec = spec
        self.ell = int(ell)
        self.n = int(n)
        self.tail_tol = tail_tol

        if spec.stats is Statistics.FERMI and n > ell:
            raise ImpossibleConditionError(
                f"Fermi string of length {ell} cannot hold {n} particles"
            )
        a, top, tails = _site_laws(spec, self.ell, self.n, tail_tol)
        self.truncation_tail = float(tails.sum())
        if int(top.sum()) < n:
            raise ImpossibleConditionError(
                f"total {n} exceeds the summed (truncated) site supports"
            )
        self.tilt = 0.0
        self.cells = 0
        self._levels: list[_Level] = []
        self._split_cells = 1

        if self.n == 0:
            self._degenerate = np.zeros(ell, dtype=np.int64)
            return
        if spec.stats is Statistics.FERMI and self.n == self.ell:
            self._degenerate = np.ones(ell, dtype=np.int64)
            return
        self._degenerate = None

        self._check_budget(self.ell * (int(top.max()) + 1))
        self.tilt, laws, mean, var = _saddle_tilt(a, top, self.n)
        plan = _window_plan(top, mean, var, self.n)
        self.cells = sum(off.size * int(wid.max()) for off, wid in plan)
        self._check_budget(self.cells)

        self._levels = [_Level(plan[0][0], laws)]
        for off, wid in plan[1:]:
            level, cut = _merge_level(self._levels[-1], off, wid, self.n)
            self._levels.append(level)
            self.truncation_tail += cut
        self._split_cells = max(
            [(lv.off.size // 2) * lv.width for lv in self._levels[:-1]] + [1])

        root = self._levels[-1]
        at = self.n - int(root.off[0])
        if not (0 <= at < root.width and root.law[0, at] > 0.0):
            raise NumericError(
                f"total {n} has no probability under the tilted tree; it is "
                "too deep in the tail of the site laws"
            )

    @staticmethod
    def _check_budget(cells: int) -> None:
        if cells > _MAX_CELLS:
            raise NumericError(
                f"canonical sampler would need {cells} cells (budget "
                f"{_MAX_CELLS}); the site laws are too wide for this (ell, n)"
            )

    def _split_weights(self, h: int, t: np.ndarray) -> np.ndarray:
        """Unnormalised split weights L(s) R(t - s) of the merges at level h.

        t has shape (m, P): the totals of the P merged nodes of level h for
        m replicas.  Entry [r, p, i] of the result weighs left-child total
        s = off + i, with off the left child's window offset.
        """
        child = self._levels[h - 1]
        w = child.width
        pairs = child.off.size // 2
        # R(t - s) for s = off_L, off_L + 1, ... is a length-w slice of the
        # right law reversed and zero-padded by w on each side.
        rpad = np.zeros((pairs, 3 * w))
        rpad[:, w:2 * w] = child.law[1:2 * pairs:2, ::-1]
        start = 2 * w - 1 - (t - child.off[0:2 * pairs:2] - child.off[1:2 * pairs:2])
        np.clip(start, 0, 2 * w, out=start)
        slices = np.lib.stride_tricks.sliding_window_view(rpad, w, axis=1)
        weights = slices[np.arange(pairs), start]
        weights *= child.law[0:2 * pairs:2]
        return weights

    def _draw(self, U: np.ndarray) -> np.ndarray:
        """Top-down pass for one chunk of replicas; merges take uniforms
        column by column, root first."""
        t = np.full((U.shape[0], 1), self.n, dtype=np.int64)
        col = 0
        for h in range(len(self._levels) - 1, 0, -1):
            child = self._levels[h - 1]
            pairs = child.off.size // 2
            c = np.cumsum(self._split_weights(h, t[:, :pairs]), axis=2)
            tot = c[:, :, -1]
            if not np.all(tot > 0.0):
                raise NumericError(
                    "split weights vanished; a conditioned node total fell "
                    "outside its children's windows"
                )
            # Keeping the threshold below tot makes the pick land on an
            # entry of positive weight even when u * tot rounds up.
            thr = np.minimum(U[:, col:col + pairs] * tot, np.nextafter(tot, 0.0))
            left = child.off[0:2 * pairs:2] + np.count_nonzero(
                c <= thr[:, :, None], axis=2)
            col += pairs
            nxt = np.empty((U.shape[0], child.off.size), dtype=np.int64)
            nxt[:, 0:2 * pairs:2] = left
            nxt[:, 1:2 * pairs:2] = t[:, :pairs] - left
            if child.off.size % 2:
                nxt[:, -1] = t[:, -1]
            t = nxt
        return t

    def _conditional_laws(self) -> np.ndarray:
        """(ell, K) matrix of the site laws given the total n, from one
        root-to-leaf pass.  The weights start at the root as 1 / P(S = n)
        on total n; a leaf's conditional law is its tilted law times its
        weight.  The pass holds about one tree level at a time and stores
        nothing on the sampler."""
        root = self._levels[-1]
        at = self.n - int(root.off[0])
        w = np.zeros((1, root.width))
        w[0, at] = 1.0 / root.law[0, at]
        for h in range(len(self._levels) - 1, 0, -1):
            w = _split_level(self._levels[h - 1], self._levels[h].off, w)
        w *= self._levels[0].law
        w /= w.sum(axis=1, keepdims=True)
        return w

    def conditional_entropy(self) -> float:
        """Joint entropy, in bits, of the string given its total n.

        The leaves are the tilted site laws p_j(k) = e^{(a_j + theta) k} / Z_j,
        and tilting leaves the conditional law unchanged, so it is
        prod_j p_j(k_j) / P(S = n) and, in nats,

            H(K | S = n) = -sum_j E[log p_j(K_j) | S = n] + log P(S = n)
                         = sum_j log Z_j - sum_j a_j m_j - theta n + log P(S = n),

        with m_j the conditional means and P(S = n) the root's entry at n.
        """
        if self._degenerate is not None:
            return 0.0
        laws = self._conditional_laws()
        leaves = self._levels[0].law
        logp = np.log(leaves, where=leaves > 0.0, out=np.zeros_like(leaves))
        root = self._levels[-1]
        log_total = math.log(root.law[0, self.n - int(root.off[0])])
        # einsum, not a BLAS dot: a threaded BLAS call leaves its worker
        # threads spinning, which costs CPU time for nothing.
        return (log_total - float(np.einsum("ij,ij->", laws, logp))) / LN2

    def entropy_gap(self) -> float:
        """Conditional joint entropy minus the summed entropies of the
        unconditioned site laws, in bits; nonpositive."""
        return self.conditional_entropy() - _free_entropy(self.spec, self.ell,
                                                          self.tail_tol)

    def sample_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Draw one string per row of uniforms; uniforms has shape (m, ell).

        Column c feeds the c-th merge node (root first, level by level);
        the last column is unused.  Every drawn string is checked to sum to n.
        """
        U = np.asarray(uniforms, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.ell:
            raise DomainError(f"uniforms must have shape (m, {self.ell})")
        m = U.shape[0]
        if self._degenerate is not None:
            return np.tile(self._degenerate, (m, 1))
        rows = max(1, _CHUNK_CELLS // self._split_cells)
        out = np.empty((m, self.ell), dtype=np.int64)
        for i in range(0, m, rows):
            out[i:i + rows] = self._draw(U[i:i + rows])
        if not np.all(out.sum(axis=1) == self.n):
            raise NumericError("draws failed to consume the target total exactly")
        return out

    def sample_batch(self, seed: int, replicas) -> list[OccupancyString]:
        """Deterministic per-replica draws; output depends only on
        (ensemble, ell, n, seed, replica), never on the batch composition."""
        reps = [int(r) for r in replicas]
        U = np.empty((len(reps), self.ell))
        for i, rep in enumerate(reps):
            U[i] = make_rng(seed, self.ell, rep).random(self.ell)
        vals = self.sample_from_uniforms(U)
        return [OccupancyString(vals[i], Provenance(
                    self.spec.label(), "canonical", self.ell, self.n, int(seed),
                    rep, self.truncation_tail))
                for i, rep in enumerate(reps)]
