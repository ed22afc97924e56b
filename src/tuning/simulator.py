"""Regenerative simulation of the controlled process.

The process regenerates at every boundary hit, so cycles that start at the
same boundary state are iid (Crane & Iglehart 1975; Glynn & Iglehart
1987). The simulator draws a pool of cycles per boundary state, steps the
cycles of a pool in numpy lockstep, and stitches the pools into one path.
`simulate` and `sample_trajectory` run this one kernel.

* The process starts at the smallest internal label. The warm-up segment
  (start to first boundary hit) is excluded from all accounting.
* A cycle runs from one boundary hit to the next. Its income is the
  transfer cost d_l of the chosen restart state, plus c_l once for every
  step spent in an internal state, the restart (arrival) state included,
  boundary states excluded, summed in path order.
* Next states are drawn by inverse CDF over ascending state labels
  (boundary 0, boundary 1, then internal labels), restart states over
  ascending internal labels: exactly `bisect_right` on the cumulative row.
* Streams: replication s of seed k draws from the PCG64 streams
  SeedSequence(k, spawn_key=(s, j)); j = 0 and 1 feed the pools of
  boundary 0 and 1, j = 2 the warm-up. `simulate` is replication 0.
* Pool b grows in chunks of 1, 16, 256 and then 4096 cycles each. A chunk
  draws one uniform per restart, then one per running cycle per step.
  The schedule does not depend on the request, so `simulate` with any
  cycle count and `sample_trajectory` see prefixes of the same cycles.
* Stitching: the i-th visit to boundary b takes the i-th cycle of pool b.
  Buffered cycles are stitched as far as they reach, folded into the
  totals, and only the pool that ran out is refilled.
* ``segment_limit`` bounds the internal states of every drawn segment,
  warm-up included, used or not: a longer one raises CycleLimitError.
  `sample_trajectory` cuts segments at ``max_steps`` states instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CycleLimitError, NumericOverflowError
from .model import ChainSpec, Strategy

DEFAULT_SEGMENT_LIMIT = 10**9
_CHUNK_CAP = 4096

FREE_MOVE = "free_move"
ABSORPTION = "absorption"
TRANSFER = "transfer"


@dataclass(frozen=True, slots=True)
class TrajectoryEvent:
    """One step of a sampled path.

    ``income_delta`` is the income recognized at this step: c_l for a free
    move to (or start at) internal state l, 0 for an absorption, and
    d_l + c_l for a transfer restarting at internal state l (the arrival
    step counts as time spent in l).
    """

    step: int
    state: int
    event_kind: str
    income_delta: float


@dataclass(frozen=True)
class SimulationStats:
    """Aggregates over completed cycles; the warm-up segment is excluded.

    ``boundary_counts[j]`` counts cycles that started at boundary state j,
    so the two entries sum to ``cycles``. ``i_hat`` is total_income /
    cycles exactly; ``std_error`` is the sample standard error of the
    per-cycle incomes (0.0 when cycles == 1).
    """

    cycles: int
    total_income: float
    i_hat: float
    std_error: float
    boundary_counts: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "total_income": self.total_income,
            "i_hat": self.i_hat,
            "std_error": self.std_error,
            "boundary_counts": list(self.boundary_counts),
        }


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
        mean = float(incomes.mean())
        self.merge(incomes.size, mean, float(np.square(incomes - mean).sum()))

    def merge(self, count: int, mean: float, m2: float) -> None:
        """Chan et al.'s pairwise update of mean and scatter."""
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * count / total
        self.m2 += m2 + delta * (self.count * count / total) * delta  # 0, not inf * 0, when empty
        self.count = total

    def std_error(self) -> float:
        return math.sqrt(self.m2 / (self.count - 1) / self.count) if self.count > 1 else 0.0


def _stitch(at: int, exits: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Visit order of the buffered cycles of both pools, from boundary ``at``.

    A run at boundary b takes pool-b cycles up to the first one that exits
    to the other boundary, and runs alternate between the pools: cycle i of
    pool b is in run 2k + (b != at), k counting the earlier pool-b cycles
    that switch. The order ends with the first run its pool cannot finish.
    Returns indices into the concatenated pools and that run's boundary.
    """
    keys = [2 * (np.cumsum(e != b) - (e != b)) + (b != at) for b, e in enumerate(exits)]
    stop = min(2 * np.count_nonzero(e != b) + (b != at) for b, e in enumerate(exits))
    key = np.concatenate(keys)
    take = np.flatnonzero(key <= stop)
    order = take[np.argsort(key[take].astype(np.int32), kind="stable")]
    return order, at if stop % 2 == 0 else 1 - at


class _Kernel:
    """One replication: the warm-up, drawn here, then the stitched pools.

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
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        seeds = [np.random.SeedSequence(seed, spawn_key=(stream, j)) for j in range(3)]
        self.rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        start = np.zeros(1, dtype=np.intp)
        self.warm = self._draw(self.rngs[2], start, self.c[start])

    def _draw(self, rng: np.random.Generator, state: np.ndarray, income: np.ndarray) -> dict:
        """Step segments from internal states to the boundary in lockstep.
        ``income`` holds each segment's income so far."""
        pool = {"exit": np.zeros(state.size, dtype=np.intp), "income": income}
        if self.record:
            pool["restart"] = state
        ids, inc, moves, steps = np.arange(state.size), income, [], 1
        while ids.size:
            j = self.step(state, rng.random(ids.size))
            hit = j < 2
            if hit.any():
                done, live = ids[hit], ~hit
                pool["exit"][done], income[done] = j[hit], inc[hit]
                ids, j, inc = ids[live], j[live], inc[live]
            state = j - 2
            inc = inc + self.c[state]
            steps += 1
            if self.record:
                moves.append((ids, state))
            if ids.size and steps > self.limit:
                if self.record:
                    break
                raise CycleLimitError(f"a segment exceeded {self.limit} steps without absorption")
        if self.record:
            ids = np.concatenate([i for i, _ in moves] + [np.zeros(0, dtype=np.intp)])
            order = np.argsort(ids, kind="stable")
            to = np.concatenate([s for _, s in moves] + [np.zeros(0, dtype=np.intp)])[order]
            parts = np.split(to, np.cumsum(np.bincount(ids, minlength=income.size))[:-1])
            pool["path"] = np.fromiter(parts, dtype=object, count=income.size)
        return pool

    def cycles(self):
        """Yield consecutive stitched cycles after the warm-up, in batches:
        the pool arrays in visit order plus "start", True at boundary 1."""
        at, sizes = int(self.warm["exit"][0]), [1, 1]
        pools = [self._draw(None, np.zeros(0, dtype=np.intp), np.zeros(0))] * 2  # empty
        while True:
            if not pools[at]["exit"].size:
                size, rng = sizes[at], self.rngs[at]
                sizes[at] = min(16 * size, _CHUNK_CAP)
                restart = self.restart(np.full(size, at), rng.random(size))
                pools[at] = self._draw(rng, restart, self.d[at, restart] + self.c[restart])
            order, at = _stitch(at, [pool["exit"] for pool in pools])
            batch = {key: np.concatenate([pools[0][key], pools[1][key]])[order] for key in pools[0]}
            batch["start"] = order >= pools[0]["exit"].size
            yield batch
            taken = np.bincount(batch["start"], minlength=2)
            pools = [{key: v[n:] for key, v in pool.items()} for pool, n in zip(pools, taken)]


def _run_stream(spec: ChainSpec, strategy: Strategy, cycles: int, seed: int, stream: int,
                segment_limit: int) -> _Moments:
    """One independent replication of ``cycles`` cycles."""
    kernel = _Kernel(spec, strategy, seed, stream, segment_limit)
    moments = _Moments()
    for batch in kernel.cycles():
        take = cycles - moments.count
        moments.fold(batch["start"][:take], batch["income"][:take])
        if moments.count == cycles:
            return moments


def simulate(
    spec: ChainSpec,
    strategy: Strategy,
    cycles: int,
    seed: int,
    *,
    segment_limit: int = DEFAULT_SEGMENT_LIMIT,
) -> SimulationStats:
    """Simulate exactly ``cycles`` boundary-to-boundary cycles (replication 0)."""
    return simulate_replicated(spec, strategy, cycles, seed, 1, segment_limit=segment_limit)


def simulate_replicated(
    spec: ChainSpec,
    strategy: Strategy,
    cycles: int,
    seed: int,
    replications: int = 1,
    *,
    segment_limit: int = DEFAULT_SEGMENT_LIMIT,
) -> SimulationStats:
    """Run ``replications`` independent streams of ``cycles`` each and pool.

    Replication r uses the (seed, r) streams, and partial results are
    merged in replication order, so the outcome is deterministic and
    replication 0 alone is `simulate`. Raises NumericOverflowError when the
    total or the scatter of the incomes leaves the float range.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if segment_limit < 1:
        raise ValueError(f"segment_limit must be >= 1, got {segment_limit}")
    pooled = _Moments()
    with np.errstate(over="ignore", invalid="ignore"):
        for stream in range(replications):
            part = _run_stream(spec, strategy, cycles, seed, stream, segment_limit)
            pooled.merge(part.count, part.mean, part.m2)
            pooled.total += part.total
            pooled.counts = pooled.counts + part.counts
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

    Step 0 is the start at the smallest internal label. The path is built
    from the same cycles as `simulate` with the same seed, so summing
    income_delta over the events of each completed cycle (first transfer
    after an absorption up to the next absorption) reproduces the
    per-cycle incomes exactly.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    c, d = spec.c.tolist(), [spec.d0.tolist(), spec.d1.tolist()]
    events: list[TrajectoryEvent] = []

    def segment(head: int, kind: str, delta: float, path: np.ndarray, exit_: int) -> None:
        events.append(TrajectoryEvent(len(events), head + 2, kind, delta))
        for s in path.tolist():
            events.append(TrajectoryEvent(len(events), s + 2, FREE_MOVE, c[s]))
        events.append(TrajectoryEvent(len(events), exit_, ABSORPTION, 0.0))

    with np.errstate(over="ignore", invalid="ignore"):
        kernel = _Kernel(spec, strategy, seed, 0, max_steps, record=True)
        segment(0, FREE_MOVE, c[0], kernel.warm["path"][0], int(kernel.warm["exit"][0]))
        batches = kernel.cycles()
        while len(events) < max_steps:
            batch = next(batches)
            for b, r, path, exit_ in zip(batch["start"].tolist(), batch["restart"].tolist(),
                                         batch["path"], batch["exit"].tolist()):
                segment(r, TRANSFER, d[b][r] + c[r], path, exit_)
                if len(events) >= max_steps:
                    break
    return events[:max_steps]
