"""Regenerative simulation of the controlled process.

The process regenerates at every boundary hit, so cycles that start at the
same boundary state are iid (Crane & Iglehart 1975; Glynn & Iglehart
1987). The simulator draws a pool of cycles per boundary state, steps the
cycles of a pool in numpy lockstep, and stitches the pools into one path.
`simulate` and `sample_trajectory` run this one kernel.

* Every replication starts at boundary 0, a regeneration point, so its
  first step is a restart drawn from alpha0.
* A cycle runs from one boundary hit to the next. Its income is the
  transfer cost d_l of the chosen restart state, plus c_l once for every
  step spent in an internal state, the restart (arrival) state included,
  boundary states excluded, summed in path order.
* Next states are drawn by inverse CDF over ascending state labels
  (boundary 0, boundary 1, then internal labels), restart states over
  ascending internal labels: exactly `bisect_right` on the cumulative row.
* Streams: replication s of seed k draws from the PCG64 streams
  SeedSequence(k, spawn_key=(s, j)); j = 0 and 1 feed the pools of
  boundary 0 and 1; one replication is s = 0.
* Boundary b draws its cycles in pools of 1, 16, 256, 4096, 4096 and then
  8192 cycles each. A pool draws one uniform per restart, then one per
  running cycle per step, its running cycles kept in id order. The
  schedule does not depend on the request, so `simulate` with any cycle
  count and `sample_trajectory` see prefixes of the same cycles. Its
  first 8465 cycles per boundary (1 + 16 + 256 + 4096 + 4096) are those
  of the schedule that stayed at 4096, so a run within them keeps its bits.
* Stitching: the i-th visit to boundary b takes the i-th cycle of pool b.
  Buffered cycles are stitched as far as they reach, folded into the
  totals, and only the pool that ran out is refilled.
* ``segment_limit`` bounds the internal states of every drawn segment,
  used or not: a longer one raises CycleLimitError. A run can draw up to
  8192 segments per boundary that it does not use.
  `sample_trajectory` cuts segments at ``max_steps`` states instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CycleLimitError, NumericOverflowError
from .model import ChainSpec, Strategy, _check_count, _check_strategy

DEFAULT_SEGMENT_LIMIT = 10**9
_POOLS = (1, 16, 256, 4096, 4096, 8192)  # cycles per draw of a pool; the last size repeats

FREE_MOVE = "free_move"
ABSORPTION = "absorption"
TRANSFER = "transfer"


@dataclass(frozen=True, slots=True)
class TrajectoryEvent:
    """One step of a sampled path.

    ``income_delta`` is the income recognized at this step: c_l for a free
    move to internal state l, 0 for an absorption, and
    d_l + c_l for a transfer restarting at internal state l (the arrival
    step counts as time spent in l).
    """

    step: int
    state: int
    event_kind: str
    income_delta: float


@dataclass(frozen=True)
class SimulationStats:
    """Aggregates over completed cycles.

    ``boundary_counts[j]`` counts cycles that started at boundary state j,
    so the two entries sum to ``cycles``. ``i_hat`` is total_income /
    cycles exactly; ``std_error`` is the sample standard error of the
    per-cycle incomes taken as iid (0.0 when cycles == 1). On a boundary
    chain that persists on one side it understates the spread of ``i_hat``
    (5.4-5.9 times on n = 2, p01 = [[.88, .02], [.02, .88]]); on the
    reference model it is calibrated. See ROADMAP.md, item 4.
    """

    cycles: int
    total_income: float
    i_hat: float
    std_error: float
    boundary_counts: tuple[int, int]


class _Picker:
    """Exact inverse CDF over the rows of a probability table.

    The pick for a uniform u from row s is bisect_right(cum[s], u), the
    number of entries <= u of the cumulative row. That row is clipped to 1
    and is exactly 1 from the last state with mass on, so it never falls
    and no zero-mass state is drawn. Rows are padded to a power of two
    with 2.0, above every u, so one branch-free binary search serves all.
    """

    def __init__(self, probs: np.ndarray) -> None:
        k, m = probs.shape
        self.cum = np.minimum(np.cumsum(probs, axis=1), 1.0)
        self.cum[np.arange(m) >= m - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)[:, None]] = 1.0
        self.width = 1 << (m - 1).bit_length()
        table = np.full((k, self.width), 2.0)
        table[:, :m] = self.cum
        # per search level: the step and the table viewed from step - 1 on
        self.levels = [(s, table.ravel()[s - 1:]) for s in 2 ** np.arange(self.width.bit_length() - 1)[::-1]]

    def __call__(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        pos = rows * self.width
        for step, shifted in self.levels:
            pos += (shifted[pos] <= u) * step
        return pos - rows * self.width


class _Moments:
    """Count, sequential total, mean and scatter of per-cycle incomes."""

    def __init__(self) -> None:
        self.count, self.total, self.mean, self.m2 = 0, 0.0, 0.0, 0.0
        self.counts = np.zeros(2, dtype=np.int64)

    def fold(self, starts: np.ndarray, incomes: np.ndarray) -> None:
        """Add the next cycles in path order; the total is summed left to
        right, so it equals a loop over the trajectory's cycle incomes."""
        self.total = float(np.add.accumulate(np.concatenate(([self.total], incomes)))[-1])
        self.counts = self.counts + np.bincount(starts, minlength=2)
        # Chan et al.'s pairwise update; the cross term is 0, not inf * 0, when empty
        count, mean = incomes.size, float(incomes.mean())
        total, delta = self.count + count, mean - self.mean
        self.mean += delta * count / total
        self.m2 += float(np.square(incomes - mean).sum()) + delta * (self.count * count / total) * delta
        self.count = total

    def std_error(self) -> float:
        return math.sqrt(self.m2 / (self.count - 1) / self.count) if self.count > 1 else 0.0


def _stitch(at: int, exits: list[np.ndarray]) -> tuple[np.ndarray, list[int], int]:
    """Visit order of the buffered cycles of both pools, from boundary ``at``.

    A run at boundary b takes pool-b cycles up to the first one that exits
    to the other boundary, and runs alternate between the pools: cycle i of
    pool b is in run 2k + (b != at), k counting the earlier pool-b cycles
    that switch. The order ends with the first run its pool cannot finish.
    Returns the length of the prefix of each pool that the order takes,
    indices into the two prefixes concatenated, and that run's boundary.
    """
    keys = [2 * (np.cumsum(e != b, dtype=np.int32) - (e != b)) + (b != at) for b, e in enumerate(exits)]
    stop = min(2 * np.count_nonzero(e != b) + (b != at) for b, e in enumerate(exits))
    cut = [int(k.searchsorted(stop, side="right")) for k in keys]
    order = np.argsort(np.concatenate([k[:n] for k, n in zip(keys, cut)]), kind="stable")
    return order, cut, at if stop % 2 == 0 else 1 - at


class _Kernel:
    """One replication: the stitched pools, from boundary 0.

    A pool is a dict of per-cycle arrays, "exit" and "income"; recording
    adds the "restart" state and the "path" of later internal states, and
    cuts a segment at ``segment_limit`` states instead of raising.
    """

    def __init__(self, spec: ChainSpec, strategy: Strategy, seed: int, stream: int,
                 segment_limit: int, record: bool = False) -> None:
        self.step = _Picker(np.hstack([spec.p01, spec.p00]))
        self.restart = _Picker(np.vstack([strategy.alpha0, strategy.alpha1]))
        self.c, self.d = spec.c, np.vstack([spec.d0, spec.d1])
        self.limit, self.record = segment_limit, record
        _check_count("seed", seed, 0)
        self.rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, j))) for j in (0, 1)]

    def _draw(self, at: int, size: int) -> dict:
        """Draw ``size`` cycles from boundary ``at`` on its stream: the
        restarts, then steps in lockstep until each cycle hits the boundary."""
        rng = self.rngs[at]
        state = self.restart(np.full(size, at), rng.random(size))
        pool = {"exit": np.zeros(size, dtype=np.int8), "income": self.d[at, state] + self.c[state]}
        if self.record:
            pool["restart"] = state
        ids, inc, moves, steps = np.arange(size), pool["income"], [], 1
        while ids.size and steps <= self.limit:
            j = self.step(state, rng.random(ids.size))
            live = (j >= 2).nonzero()[0]
            if live.size < ids.size:
                # write every lane: a running lane's entries (its exit a label wrapped to int8) are rewritten
                pool["exit"][ids], pool["income"][ids] = j, inc
                ids, j, inc = ids.take(live), j.take(live), inc.take(live)
            state = j - 2
            inc = inc + self.c.take(state)
            steps += 1
            if self.record:
                moves.append((ids, state))
        if ids.size and not self.record:
            raise CycleLimitError(f"a segment exceeded {self.limit} steps without absorption")
        if self.record:
            ids = np.concatenate([i for i, _ in moves] + [np.zeros(0, dtype=np.intp)])
            order = np.argsort(ids, kind="stable")
            to = np.concatenate([s for _, s in moves] + [np.zeros(0, dtype=np.intp)])[order]
            parts = np.split(to, np.cumsum(np.bincount(ids, minlength=size))[:-1])
            pool["path"] = np.fromiter(parts, dtype=object, count=size)
        return pool

    def cycles(self):
        """Yield consecutive stitched cycles from boundary 0, in batches:
        the pool arrays in visit order plus "start", True at boundary 1."""
        at, sizes = 0, [itertools.chain(_POOLS, itertools.repeat(_POOLS[-1])) for _ in range(2)]
        pools = [self._draw(0, 0)] * 2  # empty: a draw of no cycles takes no uniforms
        while True:
            if not pools[at]["exit"].size:
                pools[at] = self._draw(at, next(sizes[at]))
            order, cut, at = _stitch(at, [pool["exit"] for pool in pools])
            batch = {key: np.concatenate([pools[0][key][:cut[0]], pools[1][key][:cut[1]]])[order] for key in pools[0]}
            batch["start"] = order >= cut[0]
            yield batch
            pools = [{key: v[n:] for key, v in pool.items()} for pool, n in zip(pools, cut)]


def simulate(
    spec: ChainSpec,
    strategy: Strategy,
    cycles: int,
    seed: int,
    replications: int = 1,
    *,
    segment_limit: int = DEFAULT_SEGMENT_LIMIT,
) -> SimulationStats:
    """Simulate ``replications`` independent streams of exactly ``cycles`` cycles and pool them.

    Replication r uses the (seed, r) streams, and the cycles of all
    replications are folded into one total in replication order, so the
    outcome is deterministic; the default is replication 0 alone. Raises
    NumericOverflowError when the total or the scatter of the incomes
    leaves the float range.
    """
    _check_count("cycles", cycles, 1)
    _check_count("replications", replications, 1)
    _check_count("segment_limit", segment_limit, 1)
    _check_strategy(strategy, spec.n_internal)
    pooled = _Moments()
    with np.errstate(over="ignore", invalid="ignore"):
        for stream in range(replications):
            for batch in _Kernel(spec, strategy, seed, stream, segment_limit).cycles():
                take = (stream + 1) * cycles - pooled.count
                pooled.fold(batch["start"][:take], batch["income"][:take])
                if take <= batch["income"].size:
                    break
    if not (math.isfinite(pooled.total) and math.isfinite(pooled.m2)):
        raise NumericOverflowError(f"income total {pooled.total!r} or scatter {pooled.m2!r} overflowed")
    return SimulationStats(
        cycles=pooled.count,
        total_income=pooled.total,
        i_hat=pooled.total / pooled.count,
        std_error=pooled.std_error(),
        boundary_counts=(int(pooled.counts[0]), int(pooled.counts[1])),
    )


def sample_trajectory(
    spec: ChainSpec,
    strategy: Strategy,
    max_steps: int,
    seed: int,
) -> list[TrajectoryEvent]:
    """Record ``max_steps`` raw steps of the controlled process (replication 0).

    Step 0 is the first transfer from boundary 0. The path is built from
    the same cycles as `simulate` with the same seed, so summing
    income_delta over the events of each completed cycle (a transfer up to
    the next absorption) reproduces the per-cycle incomes exactly.
    """
    _check_count("max_steps", max_steps, 1)
    _check_strategy(strategy, spec.n_internal)
    c, d = spec.c.tolist(), [spec.d0.tolist(), spec.d1.tolist()]

    def events():
        step = itertools.count()
        for batch in _Kernel(spec, strategy, seed, 0, max_steps, record=True).cycles():
            for b, r, path, exit_ in zip(batch["start"].tolist(), batch["restart"].tolist(),
                                         batch["path"], batch["exit"].tolist()):
                delta = d[b][r] + c[r]
                if not math.isfinite(delta):
                    raise NumericOverflowError(f"transfer income {delta!r} overflowed the float range")
                yield TrajectoryEvent(next(step), r + 2, TRANSFER, delta)
                for s in path.tolist():
                    yield TrajectoryEvent(next(step), s + 2, FREE_MOVE, c[s])
                yield TrajectoryEvent(next(step), exit_, ABSORPTION, 0.0)

    with np.errstate(over="ignore", invalid="ignore"):
        return list(itertools.islice(events(), max_steps))
