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

The build ends by tabulating split CDFs cumsum(L(s) R(t - s)) over the
merges and parent totals t of each level, root first, whose table still
fits in one block, so replicas gather entries instead of rebuilding them.
A table is stored by column: row i holds entry i of every CDF, flat over
(total, merge) at (t - off) * pairs + p, and one more row holds each CDF's
cap nextafter(tot, 0).  A draw gathers its totals and caps, then counts
the entries at or below its threshold one column at a time; the last
column is tot itself, which exceeds every threshold, so the count skips
it.  Each entry, threshold and comparison is the one the untabulated draw
makes, and no draw writes to the sampler.

The build also gives the exact entropy cost of conditioning.  Each node
carries, beside its law P, the cost moment G(t) = sum over its subtree's
occupancies k with total t of P(k) (-log P(k)): a leaf has G = -p log p,
and a merge gives G = G_L * R + L * G_R from the same transforms as the law
(the product rule of the expectation semiring, Li & Eisner 2009).  The
root's entries at n give the conditional entropy, and no pass runs back
down the tree.

Determinism: each (seed, ell, replica) triple owns a counter-based random
stream.  A replica reads ell uniforms from it and uses one per merge node of
the tree (ell - 1 of them; the last uniform is unused).  Every transient
array is cut to a block of _BLOCK_CELLS cells: a draw runs over blocks of
replicas (CanonicalSampler.draw_blocks), an untabulated level draws its
merges in blocks, and a block's uniforms are read from its replicas'
streams just before it is drawn.  Each merge's arithmetic is confined to
its own row and merge, so a string is a pure function of (ensemble, ell, n,
seed, replica), independent of blocking, tabulation, batching and process
count.

Site energies have one source, _site_energies: the read-only array
x_j = beta omega(j/ell) of one length, cached for the last length asked for.
Grand draws read it a block at a time, lzparse's word classification
derives site means and entropies from it, and so do the site laws of
_site_laws: site j's law is proportional to e^{a_j k}, a_j = -x_j, on
k = 0..top_j, where Fermi supports end at 1 and Bose supports end once the
tail mass drops below a tolerance (geometric_tops).  The tree,
marginal_tables (the tables of the exact DP oracle) and the free entropy of
the gap all read the site laws; the summed Bose tail is truncation_tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .disttab import DistTable
from .ensemble import LN2, EnsembleSpec, Statistics, _fermi_mean, eval_dispersion
from .errors import (
    DomainError,
    ImpossibleConditionError,
    NumericError,
)

_DEFAULT_TAIL_TOL = 1e-12
# Node windows reach this many tilted standard deviations, plus one leaf
# width, to each side of the node's tilted mean.
_WINDOW_SIGMAS = 12.0
# Float cells one sampler, marginal_tables call or grand string may hold;
# larger instances fail fast with NumericError instead of running unbounded.
_MAX_CELLS = 1 << 25
# Cells of one block: a draw's split weights for a block of replicas and
# merges, the build's transforms for a batch of merges, all of one
# sampler's split tables, and a run of sites of the site energies, of a
# grand string or of lzparse's word classification.  2^17 float cells
# (1 MiB) fit a core's L2 cache.
_BLOCK_CELLS = 1 << 17
# Newton steps allowed for the saddle-point tilt.
_TILT_STEPS = 100


@dataclass(frozen=True)
class ParticleTarget:
    """Total occupancy n = round(r * ell), rounding halves away from zero."""

    ell: int
    r: float
    n: int


def _blocks(count: int, cells: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges that cover 0..count in order, each of at least one
    item and at most _BLOCK_CELLS cells when one item holds `cells`."""
    step = max(1, _BLOCK_CELLS // max(1, cells))
    return [(lo, min(count, lo + step)) for lo in range(0, count, step)]


def choose_n(r: float, ell: int) -> ParticleTarget:
    if not (ell >= 1):
        raise DomainError("ell must be at least 1")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"target density must be positive, got {r}")
    n = math.floor(r * ell + 0.5)
    return ParticleTarget(ell, r, n)


def make_rng(seed: int, ell: int, replica: int) -> "np.random.Generator":
    """Counter-based stream owned by the (seed, ell, replica) triple."""
    if not (0 <= int(seed) < 2**63):
        raise DomainError("seed must be a nonnegative 63-bit integer")
    if replica < 0:
        raise DomainError("replica index must be nonnegative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(ell), int(replica)))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=1)
def _site_energies(spec: EnsembleSpec, ell: int) -> np.ndarray:
    """Read-only x_j = beta omega(j/ell), j = 0..ell-1: the scaled site
    energies of one length, 8 bytes a site.

    A run handles every string of a length before moving to the next, so
    one cached length serves all its replicas, and forked workers inherit
    it.  It is filled in blocks of sites, so nothing else of length ell is
    allocated; each entry is the one the whole-length expression gives.
    """
    x = np.empty(ell)
    for lo, hi in _blocks(ell, 1):
        x[lo:hi] = spec.beta * eval_dispersion(spec, np.arange(lo, hi) / ell)
    x.flags.writeable = False
    return x


def marginal_tables(spec: EnsembleSpec, ell: int,
                    tail_tol: float = _DEFAULT_TAIL_TOL) -> list[DistTable]:
    """Occupancy laws of all ell sites, each on its own support 0..top_j.

    Rows use the untruncated normaliser: a Bose table is not renormalised
    and records its dropped mass as its truncation tail.
    """
    a, top, tail = _site_laws(spec, ell, tail_tol)
    if top.sum() + ell > _MAX_CELLS:
        raise NumericError(f"site tables would need more than {_MAX_CELLS} cells; "
                           "the ensemble is too close to condensation")
    if spec.stats is Statistics.FERMI:
        log0 = -np.logaddexp(0.0, a)
    else:
        log0 = np.log(-np.expm1(a))
    return [DistTable(z + aj * np.arange(t + 1), truncation_tail=d)
            for z, aj, t, d in zip(log0.tolist(), a.tolist(),
                                   top.astype(np.int64).tolist(), tail.tolist())]


def sample_grand(spec: EnsembleSpec, ell: int, seed: int,
                 replica: int = 0) -> np.ndarray:
    """Independent draw of every site from its marginal law, as a length-ell
    array of the narrowest unsigned dtype that holds it (uint8 unless a Bose
    occupancy passes 255); a length over the cell budget is refused first.

    Sites are drawn in blocks of _BLOCK_CELLS, each from the next uniforms
    of the replica's stream and its run of the site energies, so the string
    does not depend on the block size and only the output and the cached
    energies are ell cells long.  A Bose block whose maximum does not fit
    widens the array once, to the dtype of that maximum."""
    if ell < 1:
        raise DomainError("ell must be at least 1")
    if ell > _MAX_CELLS:
        raise NumericError(f"grand length {ell} exceeds the cell budget ({_MAX_CELLS})")
    energies = _site_energies(spec, ell)
    rng = make_rng(seed, ell, replica)
    out = np.empty(ell, dtype=np.uint8)
    for lo, hi in _blocks(ell, 1):
        u = rng.random(hi - lo)
        x = energies[lo:hi]
        if spec.stats is Statistics.FERMI:
            out[lo:hi] = u < _fermi_mean(x)
        else:
            # Geometric inverse transform: smallest k with 1 - q^{k+1} > u.
            k = np.floor(np.log1p(-u) / -x)
            peak = float(k.max())
            if not peak < 2.0**63:
                raise DomainError("a Bose occupancy overflows int64; the "
                                  "ensemble is too close to condensation")
            if peak > np.iinfo(out.dtype).max:
                out = out.astype(np.min_scalar_type(int(peak)))
            out[lo:hi] = k
    return out


def geometric_tops(logq: np.ndarray, tail_tol: float) -> np.ndarray:
    """Last kept k of geometric laws with log ratios logq < 0, truncated at
    the smallest top with q^{top+1} < tail_tol, as floats."""
    if not (0.0 < tail_tol < 0.1):
        raise DomainError("tail tolerance must be a small positive mass")
    log_tol = math.log(tail_tol)
    top = np.maximum(np.ceil(log_tol / logq) - 1.0, 0.0)
    top += (top + 1.0) * logq >= log_tol
    return top


def _site_laws(spec: EnsembleSpec, ell: int,
               tail_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, top, dropped tail mass) of every site law, tops as floats.

    a_j = -x_j is the log-odds of a Fermi site and the log ratio of a Bose
    site, whose support ends at geometric_tops.
    """
    a = -_site_energies(spec, ell)
    if spec.stats is Statistics.FERMI:
        return a, np.ones(ell), np.zeros(ell)
    top = geometric_tops(a, tail_tol)
    return a, top, np.exp((top + 1.0) * a)


def _free_entropy(stats: Statistics, a: np.ndarray, top: np.ndarray,
                  tail: np.ndarray) -> float:
    """Summed entropy, in bits, of the site laws as marginal_tables gives
    them, in closed form and O(ell) however long the supports are.

    A Fermi law has entropy log(1 + e^a) - a sigma(a).  A Bose law
    (1 - q) q^k, q = e^a, on k = 0..top has mass 1 - tail and first moment
    m (1 - (top + 1) q^top + top q^{top+1}), with m = q / (1 - q) and
    -log(1 - q) = log(1 + m).
    """
    if stats is Statistics.FERMI:
        nats = np.logaddexp(0.0, a) - a * _fermi_mean(-a)
    else:
        mean = np.exp(a) / -np.expm1(a)
        moment = mean * (1.0 - (top + 1.0) * np.exp(top * a) + top * tail)
        nats = (1.0 - tail) * np.log1p(mean) - a * moment
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
        del laws  # hold one (ell, K) matrix, not two, while rebuilding
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


def _merge_level(child: _Level, cost: np.ndarray, off: np.ndarray,
                 wid: np.ndarray, n: int) -> tuple[_Level, np.ndarray, float]:
    """Laws and cost moments of the next level up, cut to the planned
    windows (off, wid), and the tilted mass the cut removed: the reachable
    entries (totals at most n) outside each window, summed directly.  cost
    holds the child level's moments, and a merge gives G = G_L * R + L * G_R.
    Merges go in batches of at most _BLOCK_CELLS transform cells."""
    w = child.width
    pairs = child.off.size // 2
    size = 2 * w - 1
    nfft = 1 << (size - 1).bit_length()
    base = child.off[0:2 * pairs:2] + child.off[1:2 * pairs:2]
    width = int(wid.max())
    cols = np.arange(width)
    span = np.arange(size)
    law = np.zeros((off.size, width))
    moment = np.zeros((off.size, width))
    cut = 0.0
    for lo, hi in _blocks(pairs, nfft):
        spec = np.fft.rfft(child.law[2 * lo:2 * hi:2], nfft, axis=1)
        rspec = np.fft.rfft(child.law[2 * lo + 1:2 * hi:2], nfft, axis=1)
        gspec = np.fft.rfft(cost[2 * lo:2 * hi:2], nfft, axis=1) * rspec
        gspec += np.fft.rfft(cost[2 * lo + 1:2 * hi:2], nfft, axis=1) * spec
        spec *= rspec
        conv = np.fft.irfft(spec, nfft, axis=1)[:, :size]
        gconv = np.fft.irfft(gspec, nfft, axis=1)[:, :size]
        del spec, rspec, gspec
        np.maximum(conv, 0.0, out=conv)
        start = (off[lo:hi] - base[lo:hi])[:, None]
        outside = (span < start) | (span >= start + wid[lo:hi, None])
        cut += float(conv.sum(where=outside & (base[lo:hi, None] + span <= n)))
        idx = np.minimum(start + cols, size - 1)
        inside = cols < wid[lo:hi, None]
        law[lo:hi] = np.take_along_axis(conv, idx, axis=1) * inside
        moment[lo:hi] = np.take_along_axis(gconv, idx, axis=1) * inside
    if off.size > pairs:
        law[pairs, :wid[pairs]] = child.law[-1, :wid[pairs]]
        moment[pairs, :wid[pairs]] = cost[-1, :wid[pairs]]
    return _Level(off, law), moment, cut


class CanonicalSampler:
    """Fixed-total draws at one (ensemble, ell, n) from a tree of sub-sum laws.

    Building the tree is the expensive part; do it once and draw any number
    of replicas from it.  Degenerate targets (n = 0, or a full Fermi string)
    bypass the tree entirely.

    `entropy_gap` is the exact per-string entropy cost of conditioning on
    n, from cost moments the build carries with the laws.

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
        self.ell = int(ell)
        self.n = int(n)

        full = spec.stats is Statistics.FERMI and self.n == self.ell
        if self.n > 0 and not full:
            # The tree's leaves alone hold at least 2 ell cells; refuse
            # before the site laws allocate anything of that size.
            self._check_budget(2 * self.ell)
        a, top, tails = _site_laws(spec, self.ell, tail_tol)
        self.truncation_tail = float(tails.sum())
        self._free = _free_entropy(spec.stats, a, top, tails)
        # Cut at n, which is exact: no site of a string with total n holds more.
        top = np.minimum(top, self.n).astype(np.int64)
        if int(top.sum()) < n:
            raise ImpossibleConditionError(
                f"total {n} exceeds the summed (truncated) site supports"
            )
        self.tilt = 0.0
        self.cells = 0
        self._entropy = 0.0
        self._levels: list[_Level] = []
        # Split CDFs of the tabulated levels, keyed by the parent level h.
        self._tables: dict[int, np.ndarray] = {}

        # No leaf exceeds the widest support, so strings are stored in the
        # narrowest dtype that holds it.
        self._peak = int(top.max())
        self._dtype = np.min_scalar_type(self._peak)
        if self.n == 0:
            self._degenerate = np.zeros(ell, dtype=self._dtype)
            return
        if full:
            self._degenerate = np.ones(ell, dtype=self._dtype)
            return
        self._degenerate = None

        self._check_budget(self.ell * (int(top.max()) + 1))
        self.tilt, laws, mean, var = _saddle_tilt(a, top, self.n)
        plan = _window_plan(top, mean, var, self.n)
        self.cells = sum(off.size * int(wid.max()) for off, wid in plan)
        self._check_budget(self.cells)

        self._levels = [_Level(plan[0][0], laws)]
        cost = np.log(laws, where=laws > 0.0, out=np.zeros_like(laws))
        cost *= -laws
        for off, wid in plan[1:]:
            level, cost, cut = _merge_level(self._levels[-1], cost, off, wid, self.n)
            self._levels.append(level)
            self.truncation_tail += cut

        root = self._levels[-1]
        at = self.n - int(root.off[0])
        if not (0 <= at < root.width and root.law[0, at] > 0.0):
            raise NumericError(
                f"total {n} has no probability under the tilted tree; it is "
                "too deep in the tail of the site laws"
            )
        total = root.law[0, at]
        self._entropy = float(cost[0, at] / total + math.log(total)) / LN2
        self._tabulate()

    @staticmethod
    def _check_budget(cells: int) -> None:
        if cells > _MAX_CELLS:
            raise NumericError(
                f"canonical sampler would need {cells} cells (budget "
                f"{_MAX_CELLS}); the site laws are too wide for this (ell, n)"
            )

    def _split_weights(self, h: int, t: np.ndarray, lo: int = 0) -> np.ndarray:
        """Unnormalised split weights L(s) R(t - s) of merges lo, lo + 1, ...
        at level h.

        t has shape (m, P): the totals of the P merged nodes from merge lo
        on, for m replicas.  Entry [r, p, i] of the result weighs merge
        lo + p's left-child total s = off + i, with off the left child's
        window offset.
        """
        child = self._levels[h - 1]
        w = child.width
        left = slice(2 * lo, 2 * (lo + t.shape[1]), 2)
        right = slice(2 * lo + 1, 2 * (lo + t.shape[1]), 2)
        # R(t - s) for s = off_L, off_L + 1, ... is a length-w slice of the
        # right law reversed and zero-padded by w on each side.
        rpad = np.zeros((t.shape[1], 3 * w))
        rpad[:, w:2 * w] = child.law[right, ::-1]
        start = 2 * w - 1 - (t - child.off[left] - child.off[right])
        np.clip(start, 0, 2 * w, out=start)
        slices = np.lib.stride_tricks.sliding_window_view(rpad, w, axis=1)
        weights = slices[np.arange(t.shape[1]), start]
        weights *= child.law[left]
        return weights

    def _tabulate(self) -> None:
        """Tabulate the split CDFs of each level, root first, whose table
        fits beside the tables already made in _BLOCK_CELLS cells.  A
        table is a (w_child + 1, W_parent * pairs) array: entry
        [i, row * pairs + p] is merge p's cumsum at s = off + i given total
        off + row, so row w_child - 1 holds the totals, and the last row
        holds their caps nextafter(tot, 0)."""
        held = 0
        for h in range(len(self._levels) - 1, 0, -1):
            parent, child = self._levels[h], self._levels[h - 1]
            pairs = child.off.size // 2
            cells = (child.width + 1) * parent.width * pairs
            if held + cells > _BLOCK_CELLS:
                continue
            t = parent.off[:pairs] + np.arange(parent.width)[:, None]
            tab = np.empty((child.width + 1, parent.width * pairs))
            cdfs = tab[:-1].reshape(child.width, parent.width, pairs)
            cdfs[:] = np.cumsum(self._split_weights(h, t), axis=2).transpose(2, 0, 1)
            tab[-1] = np.nextafter(tab[-2], 0.0)
            self._tables[h] = tab
            held += cells

    @staticmethod
    def _thresholds(u: np.ndarray, tot: np.ndarray, cap: np.ndarray) -> np.ndarray:
        """u * tot, kept at or below cap = nextafter(tot, 0) so the pick
        lands on an entry of positive weight even when u * tot rounds up."""
        if not np.all(tot > 0.0):
            raise NumericError(
                "split weights vanished; a conditioned node total fell "
                "outside its children's windows"
            )
        return np.minimum(u * tot, cap)

    def _draw(self, U: np.ndarray) -> np.ndarray:
        """Top-down pass for one block of replicas; merges take uniforms
        column by column, root first.  An untabulated level draws its merges
        in blocks of at most _BLOCK_CELLS split weights."""
        t = np.full((U.shape[0], 1), self.n, dtype=np.int64)
        col = 0
        for h in range(len(self._levels) - 1, 0, -1):
            child = self._levels[h - 1]
            pairs = child.off.size // 2
            u = U[:, col:col + pairs]
            if h in self._tables:
                parent = self._levels[h]
                row = t[:, :pairs] - parent.off[:pairs]
                if not np.all((row >= 0) & (row < parent.width)):
                    raise NumericError("a conditioned node total fell outside "
                                       "its window")
                tab = self._tables[h]
                idx = row * pairs + np.arange(pairs)
                thr = self._thresholds(u, tab[-2].take(idx), tab[-1].take(idx))
                # The last CDF column is tot > thr, so it never counts.
                picked = np.zeros(idx.shape, dtype=np.int64)
                for cdf in tab[:-2]:
                    picked += cdf.take(idx) <= thr
            else:
                picked = np.empty((U.shape[0], pairs), dtype=np.int64)
                for lo, hi in _blocks(pairs, U.shape[0] * child.width):
                    c = np.cumsum(self._split_weights(h, t[:, lo:hi], lo), axis=2)
                    tot = c[:, :, -1]
                    thr = self._thresholds(u[:, lo:hi], tot, np.nextafter(tot, 0.0))
                    picked[:, lo:hi] = np.count_nonzero(c <= thr[:, :, None], axis=2)
            left = child.off[0:2 * pairs:2] + picked
            col += pairs
            nxt = np.empty((U.shape[0], child.off.size), dtype=np.int64)
            nxt[:, 0:2 * pairs:2] = left
            nxt[:, 1:2 * pairs:2] = t[:, :pairs] - left
            if child.off.size % 2:
                nxt[:, -1] = t[:, -1]
            t = nxt
        return t

    def conditional_entropy(self) -> float:
        """Joint entropy, in bits, of the string given its total n.

        Tilting leaves the conditional law unchanged, so it is
        P(k) / P(S = n) with P the product of the tilted leaf laws, and, in
        nats,

            H(K | S = n) = G(n) / P(S = n) + log P(S = n),

        where G is the root's cost moment, built up by G = G_L * R + L * G_R
        from G = -p log p at the leaves.
        """
        return self._entropy

    def entropy_gap(self) -> float:
        """Conditional joint entropy minus the summed entropies of the
        unconditioned site laws, in bits; nonpositive."""
        return self._entropy - self._free

    def sample_from_uniforms(self, uniforms: np.ndarray) -> np.ndarray:
        """Draw one string per row of uniforms; uniforms has shape (m, ell).

        Column c feeds the c-th merge node (root first, level by level);
        the last column is unused.  Every drawn string is checked to sum
        to n with each site between 0 and the widest site support.
        """
        U = np.asarray(uniforms, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.ell:
            raise DomainError(f"uniforms must have shape (m, {self.ell})")
        return self._sample(U.shape[0], lambda lo, hi: U[lo:hi])

    def sample_batch(self, seed: int, replicas) -> np.ndarray:
        """Deterministic per-replica draws as a (len(replicas), ell) matrix
        of the narrowest unsigned dtype that holds the largest leaf; row i
        depends only on (ensemble, ell, n, seed, replicas[i]), never on the
        batch composition."""
        streams = [make_rng(seed, self.ell, int(r)) for r in replicas]

        def uniforms(lo: int, hi: int) -> np.ndarray:
            U = np.empty((hi - lo, self.ell))
            for row, rng in zip(U, streams[lo:hi]):
                rng.random(out=row)
            return U

        return self._sample(len(streams), uniforms)

    def draw_blocks(self, m: int) -> list[tuple[int, int]]:
        """The blocks of replicas that m draws take.

        A replica's draw holds about 6 ell cells at once: its uniforms, and
        by tracemalloc 5.5 to 5.75 ell more for the node totals, indices,
        thresholds and picks of its widest level and the checks of its
        string.  A block also costs about 0.08 ms a tabulated level and 0.2
        to 0.35 ms a level without tables.  On a fully tabulated tree the
        strings are short and hundreds fit in a block, so a block holds one
        block of those cells, and the heap is not trimmed and refaulted
        after every block (na-empirical and sampler-tv of both bench specs
        took 17k minor faults so, 143k in blocks of ell cells a replica).
        A tree with a level without tables draws long strings, and its
        fixed cost dominates (the ladder-fermi bench ran 12% slower in
        blocks of 6 ell cells a replica), so a block takes as many replicas
        as keep each array within one block: ell cells a replica, or one
        merge of an untabulated level if wider."""
        widths = [self._levels[h - 1].width for h in range(1, len(self._levels))
                  if h not in self._tables]
        return _blocks(m, max([self.ell] + widths) if widths else 6 * self.ell)

    def _sample(self, m: int, uniforms) -> np.ndarray:
        """Draw m strings in the blocks of draw_blocks; uniforms(lo, hi)
        gives the uniform rows of replicas lo..hi - 1."""
        if self._degenerate is not None:
            return np.tile(self._degenerate, (m, 1))
        out = np.empty((m, self.ell), dtype=self._dtype)
        for lo, hi in self.draw_blocks(m):
            block = self._draw(uniforms(lo, hi))
            if not (np.all(block.sum(axis=1) == self.n)
                    and np.all((block >= 0) & (block <= self._peak))):
                raise NumericError("draws failed to consume the target total "
                                   "exactly with occupancies inside the site "
                                   "supports")
            out[lo:hi] = block
        return out
