"""Discrete-time simulation of a deployment under policy, energy and attack.

One kernel steps a group of runs in lockstep, tick by tick, until each
run's dead count reaches the death threshold M or the tick budget runs
out. ``run_many`` steps its runs in groups of ``LOCKSTEP_SLOTS // N``
(at least one) and keeps only their death ticks; ``run_one`` is the
kernel on a single run, recording its per-tick counts. The kernel reads
what one node is under the scenario (its policy rows, their battery
costs, the attack window and reach, the death mode) from a
:class:`NodeModel` built once from the config. Every run is a pure
function of (config, run_index): the attacker's target set and the
node stepping each draw from their own PCG64 substreams (see
:mod:`sleepwatch.rng`), so traces are byte-stable across platforms and a
no-op attack cannot shift any draw. In a group, each running run reads
one uniform per live node per tick from its own substream. The reads
come from a pool of about ``DRAW_POOL`` values: each run's row holds a
few ticks of its draws and is topped up with one call when it runs
short, and a tick's draws are gathered in run order with one index (a
slice of the pool for a group of one run). PCG64 ``random()`` is
split-invariant, so a run sees the same uniforms in any group and under
any pool width, and a run that reaches M is never refilled.

The kernel keeps only the live nodes, in run order, in compacted arrays:
state and attack row offset, one byte each, and battery; a group of more
than one run adds each node's bincount bin, and a recording run its node
index. It rebuilds them only on a tick where a node died, which
includes the tick a run reaches M and drops all its nodes, one array at
a time, so old and new copies are never held together. On other ticks
nothing is gathered or scattered, except the live batteries a recording
run writes back for its battery column once its first rebuild has
happened; before it, the live battery array is every node's, in node
order. A draw is compared with a row's third cumulative edge (DEAD) only
when some live row has one below 1.0, since uniforms lie in [0, 1).

Tick ordering is fixed: transform policy, draw next states, pay drain,
apply battery deaths, count, check, stop at M. Dead-count monotonicity
and node-count conservation are checked for every run inside the loop
(InvariantViolated), also under ``python -O``; a run's dead count is
its nodes dropped by earlier rebuilds plus those that died this tick.
A group of more than one run counts its states with one ``bincount``
over the nodes' bins and keeps its counts in arrays. A group of one run
(every ``run_one``) counts each state with ``count_nonzero`` and keeps
its dead count, checks, stop at M and records in Python ints: bincount
would copy its int8 states to intp every tick.

``simulate_chain_trajectory`` runs the (M+1)-state dead-count chain
itself instead of individual nodes. The node-level death process is not
that chain (dead nodes never revive), so the chain mode exists to check
the closed-form death times and the online detector in isolation.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackModel, affected_set, attacked_count, no_attack, transform_policy
from .errors import (ConfigInvalid, InvariantViolated, require_count, require_fraction, require_int,
                     require_non_negative, require_real, require_type)
from .lifecycle import (
    DeathMode,
    EnergyModel,
    NodePolicy,
    NodeState,
    strip_death_transitions,
)
from .network import NetworkChainParams, _check_threshold, step_probs
from .rng import AFFECTED_STREAM, CHAIN_STREAM, STEP_STREAM, substream

DEAD = int(NodeState.DEAD)
SLEEP = int(NodeState.SLEEP)

#: Node slots stepped together by :func:`run_many`: a lockstep group holds
#: ``max(1, LOCKSTEP_SLOTS // N)`` runs, which bounds its temporaries.
LOCKSTEP_SLOTS = 8192

#: Uniforms a lockstep group holds drawn ahead (256 KB): each run's row holds
#: ``max(1, DRAW_POOL // (runs * N))`` ticks of N draws, and never more
#: ticks than ``max_ticks``.
DRAW_POOL = 1 << 15

#: Largest total of N full batteries a scenario may have. A recorded trace's
#: battery column sums every node's battery; half the largest float leaves
#: ample room for the rounding of that sum.
BATTERY_TOTAL_MAX = sys.float_info.max / 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation experiment.

    N and M come from ``network`` and are stored nowhere else. Every run
    starts with all N nodes asleep; ``network.initial_dead`` is the chain
    start state of the detector's baseline and is not simulated. No
    attacker is ``no_attack()``, the default. ``max_ticks`` and ``runs``
    are integers in [1, ``errors._MAX_ITEMS``], so the tick budget is a
    finite float wherever it is read as elapsed time; ``seed`` is a
    non-negative integer. N full batteries may total at most
    ``BATTERY_TOTAL_MAX``. So may N batteries that each hold a full charge
    plus a tick's largest cost (the top drain plus the attack's extra
    drain) times the ticks a node can keep paying it: one in energy mode,
    where a dead node undershoots zero by at most one tick's cost, and
    ``max_ticks`` in probabilistic mode, where a live node pays every
    tick. So a trace's battery column stays finite.
    """

    network: NetworkChainParams
    max_ticks: int
    seed: int
    policy: NodePolicy
    energy: EnergyModel
    attack: AttackModel = field(default_factory=no_attack)
    death_mode: DeathMode = DeathMode.ENERGY
    runs: int = 1

    def __post_init__(self) -> None:
        for name, kind in (("network", NetworkChainParams), ("policy", NodePolicy), ("energy", EnergyModel),
                           ("attack", AttackModel), ("death_mode", DeathMode)):
            require_type(name, getattr(self, name), kind)
        object.__setattr__(self, "max_ticks", require_count("max_ticks", self.max_ticks))
        object.__setattr__(self, "runs", require_count("runs", self.runs))
        object.__setattr__(self, "seed", require_non_negative("seed", self.seed))
        capacity, n = self.energy.capacity, self.network.n_deployed
        if not capacity * n <= BATTERY_TOTAL_MAX:
            raise ConfigInvalid(
                f"battery capacity {capacity!r} is too large for {n} nodes: their total "
                f"battery must be at most {BATTERY_TOTAL_MAX!r}"
            )
        # Python floats, which overflow to inf without a numpy warning
        cost = float(max(self.energy.drain)) + float(self.attack.extra_drain)
        ticks = 1 if self.death_mode is DeathMode.ENERGY else self.max_ticks
        if not n * (float(capacity) + cost * ticks) <= BATTERY_TOTAL_MAX:
            raise ConfigInvalid(
                f"a drain of up to {cost!r} per tick for {ticks} tick(s) is too large for {n} "
                f"nodes of capacity {capacity!r}: their total battery must stay within "
                f"{BATTERY_TOTAL_MAX!r} of zero"
            )


@dataclass(frozen=True)
class TickRecord:
    tick: int
    dead: int
    sleep: int
    active: int
    inactive: int
    battery: float


@dataclass(frozen=True)
class SimulationTrace:
    """One run's per-tick records, from which its death tick and N derive.

    ``per_tick`` is a non-empty tuple of ``TickRecord``s with integer
    counts and a finite battery, as a run gives them: record k is at tick
    k, record 0 has no dead node, every record's four counts add up to
    record 0's, and the dead count never falls. Records may go on past
    the first that reaches ``m_threshold``; ``network_death_tick`` is that
    record's tick, or None. ``n_deployed`` is record 0's four counts.
    """

    per_tick: tuple[TickRecord, ...]
    m_threshold: int
    run_index: int
    network_death_tick: int | None = field(init=False)
    n_deployed: int = field(init=False)

    def __post_init__(self) -> None:
        records = require_type("per_tick", self.per_tick, tuple)
        if not records:
            raise ConfigInvalid("per_tick must hold at least one record")
        n = prev_dead = 0
        for k, rec in enumerate(records):
            require_type("per_tick record", rec, TickRecord)
            for name in ("tick", "dead", "sleep", "active", "inactive"):
                require_int(name, getattr(rec, name))
            require_real("battery", rec.battery, finite=True)
            tick, dead = rec.tick, rec.dead
            total = dead + rec.sleep + rec.active + rec.inactive
            if tick != k:
                raise ConfigInvalid(f"record {k} is at tick {tick}, not {k}")
            if k == 0:
                n = total
                if dead:
                    raise ConfigInvalid(f"record 0 has {dead} dead nodes, not 0")
            if dead < prev_dead:
                raise ConfigInvalid(f"dead count falls from {prev_dead} to {dead} at tick {k}")
            if total != n:
                raise ConfigInvalid(f"record {k} counts {total} nodes, record 0 {n}")
            prev_dead = dead
        m = require_count("m_threshold", self.m_threshold)
        for name, value in (
            ("m_threshold", m),
            ("run_index", require_non_negative("run_index", self.run_index)),
            ("network_death_tick", next((k for k, r in enumerate(records) if r.dead >= m), None)),
            ("n_deployed", int(n)),
        ):
            object.__setattr__(self, name, value)

    @property
    def elapsed_ticks(self) -> int:
        return int(self.per_tick[-1].tick)


@dataclass(frozen=True)
class RunSummary:
    """Aggregate over the runs of one scenario, built from their death ticks alone.

    A censored run (no network death within max_ticks) has tick None. The
    run and censored counts, mean and standard deviation derive from the
    ticks. Censored runs are excluded from the mean and standard deviation;
    ``mean_death_tick`` is None when every run was censored,
    ``std_death_tick`` needs at least two uncensored runs. ``traces`` is
    empty unless ``run_many`` was asked to keep them; if given, trace k
    has the k-th death tick and runs at most max_ticks. Each tick is None
    or an integer in [1, max_ticks], and max_ticks is bounded as in
    :class:`ScenarioConfig`, so the mean and deviation are finite.
    """

    max_ticks: int
    death_ticks: tuple[int | None, ...]
    traces: tuple[SimulationTrace, ...] = field(repr=False, default=())
    runs: int = field(init=False)
    censored_count: int = field(init=False)
    mean_death_tick: float | None = field(init=False)
    std_death_tick: float | None = field(init=False)

    def __post_init__(self) -> None:
        max_ticks = require_count("max_ticks", self.max_ticks)
        ticks = tuple(None if t is None else require_int("death tick", t)
                      for t in require_type("death_ticks", self.death_ticks, Sequence))
        observed = [t for t in ticks if t is not None]
        late = [t for t in observed if not 1 <= t <= max_ticks]
        if late:
            raise ConfigInvalid(f"death tick {late[0]} outside [1, {max_ticks}]")
        traces = require_type("traces", self.traces, tuple)
        if traces and len(traces) != len(ticks):
            raise ConfigInvalid(f"one trace per death tick: got {len(traces)} for {len(ticks)}")
        for k, (trace, tick) in enumerate(zip(traces, ticks)):
            require_type("trace", trace, SimulationTrace)
            if trace.network_death_tick != tick:
                raise ConfigInvalid(f"trace {k} has death tick {trace.network_death_tick}, not {tick}")
            if trace.elapsed_ticks > max_ticks:
                raise ConfigInvalid(f"trace {k} runs {trace.elapsed_ticks} ticks, past max_ticks {max_ticks}")
        for name, value in (
            ("max_ticks", max_ticks),
            ("death_ticks", ticks),
            ("runs", len(ticks)),
            ("censored_count", len(ticks) - len(observed)),
            ("mean_death_tick", float(np.mean(observed)) if observed else None),
            ("std_death_tick", float(np.std(observed, ddof=1)) if len(observed) >= 2 else None),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class NodeModel:
    """What one node is under a scenario, built once by :meth:`of` for the stepping kernel.

    ``probs`` holds 8 policy rows: row ``s`` is a node in state ``s``
    outside the attack, row ``4 + s`` an attacked node in state ``s``
    inside the window, whose policy is ``transform_policy`` of the plain
    one. In energy mode the plain policy has its Dead column stripped and
    its rows renormalized, since a node then dies of its battery alone.
    ``costs`` is the battery a tick costs in each row: the state's drain,
    plus the attack's extra drain on an attacked node that is awake.
    ``window`` is the range of ticks the attack is on, clipped to
    ``max_ticks``; ``attacked`` is how many nodes the attacker reaches,
    ``attack.attacked_count``.
    """

    probs: np.ndarray
    costs: np.ndarray
    window: range
    attacked: int
    energy_death: bool

    @classmethod
    def of(cls, config: ScenarioConfig) -> NodeModel:
        attack, energy_death = config.attack, config.death_mode is DeathMode.ENERGY
        base = strip_death_transitions(config.policy) if energy_death else config.policy
        s, in_attack = np.tile(np.arange(4), 2), np.arange(8) >= 4
        end = config.max_ticks if attack.end_tick is None else min(attack.end_tick, config.max_ticks)
        return cls(np.vstack((base.probs, transform_policy(base, attack).probs)),
                   config.energy.drain[s] + attack.extra_drain * (in_attack & (s != SLEEP)),
                   range(attack.start_tick, end + 1),
                   attacked_count(attack, config.network.n_deployed), energy_death)


class _DrawPool:
    """Each run's next uniforms from its own STEP_STREAM, drawn a few ticks ahead.

    Row r of a ``runs x width`` buffer holds run r's unread uniforms from
    column ``pos[r]`` on. A run whose unread values cannot cover its live
    count moves them to the front of its row and tops the row up with one
    ``random(out=...)`` call; a stopped run (live count 0) is never
    refilled. A group of one run reads a slice of its row; a larger
    group's draws are gathered in run order with one index. PCG64 doubles
    are split-invariant, so each run reads the same uniforms in the same
    order as with one ``random(c)`` call per tick.
    """

    def __init__(self, streams: list[np.random.Generator], n: int, max_ticks: int) -> None:
        ticks = min(max(1, DRAW_POOL // (len(streams) * n)), max_ticks)
        self.streams = streams
        self.rows = np.empty((len(streams), n * ticks))
        self.pos = np.full(len(streams), n * ticks)  # nothing drawn yet

    def take(self, live: np.ndarray) -> np.ndarray:
        """The next ``live[r]`` uniforms of every run r, concatenated in run order."""
        rows, pos = self.rows, self.pos
        width = rows.shape[1]
        if len(pos) == 1:  # a group of one run reads a slice of its row
            c, start = int(live[0]), int(pos[0])
            if width - start < c:
                self._refill(0, start)
                start = 0
            pos[0] = start + c
            return rows[0, start:start + c]
        for r in np.flatnonzero(width - pos < live).tolist():
            self._refill(r, pos[r])
            pos[r] = 0
        first = np.cumsum(live) - live  # where each run's draws start in the result
        at = np.repeat(pos + width * np.arange(len(pos)) - first, live)
        pos += live
        return rows.ravel()[at + np.arange(at.size)]

    def _refill(self, r: int, start: int) -> None:
        """Move run r's unread values (from column ``start`` on) to the front; top the row up."""
        row = self.rows[r]
        tail = row.size - start
        row[:tail] = row[start:]
        self.streams[r].random(out=row[tail:])


def _count_states(states: np.ndarray) -> list[int]:
    """How many of a group of one run's live nodes are in each of the four states."""
    return [int(np.count_nonzero(states == s)) for s in range(4)]


def _violation(tick: int, run_indices: range, prev_dead, dead, total, n: int) -> InvariantViolated:
    """The first broken invariant: a run whose dead count fell, else one whose nodes are not n."""
    prev_dead, dead, total = np.atleast_1d(prev_dead, dead, total)
    fell = np.flatnonzero(dead < prev_dead)
    if fell.size:
        s = fell[0]
        return InvariantViolated(
            f"dead count fell from {prev_dead[s]} to {dead[s]} at tick {tick} in run {run_indices[s]}"
        )
    s = np.flatnonzero(total != n)[0]
    return InvariantViolated(f"{total[s]} nodes counted at tick {tick} in run {run_indices[s]}, {n} deployed")


def _step_runs(
    config: ScenarioConfig, run_indices: range, record: bool = False
) -> tuple[list[int | None], list[TickRecord]]:
    """Step the runs ``run_indices`` in lockstep; their death ticks and records.

    The kernel reads what one node is from ``NodeModel.of(config)``, built
    once per call: its 8 rows, their costs, the attack window and reach,
    and the death mode. Only the group's live nodes are stepped. Their
    state and attack row offset (4 on an attacked node), both int8, and
    battery sit in compacted arrays, run by run, so a tick's draws are
    each running run's next uniforms from its own STEP_STREAM in run
    order, read from a ``_DrawPool``. A group of more than one run also
    keeps each live node's bincount bin, ``4 * slot + state``, and its
    per-run counts in arrays; a group of one counts its states with
    ``_count_states`` and does its per-tick accounting in Python ints.
    The arrays are rebuilt one at a time, dropping the dead nodes and the
    nodes of runs that reached M, only on a tick where a node died or a
    run stopped; a run's live count is read from the rebuilt arrays, and
    its dead count is the nodes dropped so far plus its nodes that died
    this tick. The DEAD edge is compared only when some live row's is
    below 1.0 (float slack after renormalization, or a death
    probability). With ``record``, which only a group of one run takes,
    the run's per-tick records are kept, its battery column summed over
    all N nodes in node order: the live battery array until the first
    rebuild, then the array that rebuild left behind, into which the live
    batteries are scattered by node index, which only a recording run
    keeps.
    """
    n, m = config.network.n_deployed, config.network.m_threshold
    size = len(run_indices)
    if record and size != 1:
        raise ValueError(f"only a group of one run records its ticks, got {size} runs")
    attack, model = config.attack, NodeModel.of(config)
    # A node's next state is the number of its row's first three cumulative
    # edges at or below its uniform; the rows never decrease, so a uniform
    # past the last edge (float slack in a row sum) also lands on DEAD.
    cum = np.cumsum(model.probs, axis=1)
    edge0, edge1, edge2 = cum[:, :DEAD].T.copy()

    offsets = np.zeros(size * n, dtype=np.int8)
    if model.attacked:
        for slot, k in enumerate(run_indices):
            ids = affected_set(attack, n, substream(config.seed, k, AFFECTED_STREAM))
            offsets[slot * n + ids] = 4

    pool = _DrawPool([substream(config.seed, k, STEP_STREAM) for k in run_indices], n,
                     config.max_ticks)
    # Rows 3 and 7 are never read: a node that dies leaves the live arrays that
    # tick. A uniform lies in [0, 1), so it reaches a live row's third edge only
    # when that edge is below 1.0.
    dead_edge = bool((edge2.reshape(2, 4)[:, :DEAD] < 1.0).any())
    states = np.full(size * n, SLEEP, dtype=np.int8)
    batteries = np.full(size * n, config.energy.capacity, dtype=float)
    # a node's bincount bin is 4 * slot + state; a group of one counts its states in ints
    bins = np.repeat(4 * np.arange(size), n) if size > 1 else None
    nodes = np.arange(size * n) if record else None
    run_bins = 4 * np.arange(size + 1)
    live = np.full(size, n)  # per run, its nodes in the live arrays
    # per run, nodes dropped from the live arrays and its last dead count: Python
    # ints in a group of one
    removed = prev_dead = 0 if size == 1 else np.zeros(size, dtype=np.int64)

    # Every node's battery in node order, for the records: the live array itself
    # until the first rebuild, then that tick's array, updated from the live one.
    all_batteries = batteries if record else None
    records = [TickRecord(0, 0, n, 0, 0, float(all_batteries.sum()))] if record else []
    death_at = np.zeros(size, dtype=np.int64)  # 0 until the run reaches M

    for tick in range(1, config.max_ticks + 1):
        row = (states + offsets if tick in model.window else states).astype(np.intp)
        u = pool.take(live)
        states = (u >= edge0.take(row)).view(np.int8)
        states += u >= edge1.take(row)
        if dead_edge:
            states += u >= edge2.take(row)
        batteries -= model.costs.take(row)
        if model.energy_death:
            states[batteries <= 0.0] = DEAD
        if record and all_batteries is not batteries:
            all_batteries[nodes] = batteries

        if bins is None:  # a group of one run keeps its accounting in Python ints
            counts = _count_states(states)
            died = counts[DEAD]
            dead, total = removed + died, removed + sum(counts)
            if dead < prev_dead or total != n:
                raise _violation(tick, run_indices, prev_dead, dead, total, n)
            prev_dead = dead
            if record:
                records.append(TickRecord(tick, dead, counts[SLEEP], counts[NodeState.ACTIVE],
                                          counts[NodeState.INACTIVE], float(all_batteries.sum())))
            if dead >= m:
                death_at[0] = tick
                break
            if not died:
                continue
            keep = states != DEAD
        else:
            counts = np.bincount(states + bins, minlength=4 * size).reshape(size, 4)
            died = counts[:, DEAD]
            dead, total = removed + died, removed + counts.sum(axis=1)
            if (dead < prev_dead).any() or (total != n).any():
                raise _violation(tick, run_indices, prev_dead, dead, total, n)
            prev_dead = dead
            stopped = (dead >= m) & (death_at == 0)
            if stopped.any():
                death_at[stopped] = tick
                if death_at.all():
                    break
            if not died.any():  # a run reaching M has a death this tick
                continue
            keep = states != DEAD
            if stopped.any():
                keep &= np.repeat(death_at == 0, live)
        # A node died: rebuild the live arrays, one per statement, so that each
        # old array is freed before the next is copied.
        states = states[keep]
        offsets = offsets[keep]
        batteries = batteries[keep]
        if bins is None:
            removed = n - states.size
            live = np.array([states.size])
        else:
            bins = bins[keep]
            live = np.diff(np.searchsorted(bins, run_bins))
            removed = n - live
        if record:
            nodes = nodes[keep]

    return [t or None for t in death_at.tolist()], records


def run_one(config: ScenarioConfig, run_index: int = 0) -> SimulationTrace:
    """Simulate one run; fully determined by (config.seed, run_index), an integer."""
    run_index = require_int("run_index", run_index)
    if not 0 <= run_index < config.runs:
        raise ConfigInvalid(f"run_index {run_index} outside [0, {config.runs})")
    _, records = _step_runs(config, range(run_index, run_index + 1), record=True)
    return SimulationTrace(tuple(records), config.network.m_threshold, run_index)


def run_many(config: ScenarioConfig, keep_traces: bool = False) -> RunSummary:
    """Run all configured replications and summarize their death ticks.

    The runs are stepped in lockstep groups of ``LOCKSTEP_SLOTS // N``
    (at least one); only ``keep_traces`` steps them one by one through
    :func:`run_one` and keeps their traces.
    """
    traces: tuple[SimulationTrace, ...] = ()
    if keep_traces:
        traces = tuple(run_one(config, k) for k in range(config.runs))
        death_ticks = tuple(t.network_death_tick for t in traces)
    else:
        size = max(1, LOCKSTEP_SLOTS // config.network.n_deployed)
        death_ticks = tuple(
            tick
            for start in range(0, config.runs, size)
            for tick in _step_runs(config, range(start, min(start + size, config.runs)))[0]
        )
    return RunSummary(config.max_ticks, death_ticks, traces)


def simulate_chain_trajectory(
    m: int,
    initial_dead: int,
    step_prob: float,
    seed: int,
    max_ticks: int,
    run_index: int = 0,
) -> np.ndarray:
    """Tick-indexed dead-count view of a thinned chain run.

    Each tick performs one chain step with probability ``step_prob`` and
    otherwise dwells, so ``step_prob`` is the chain-steps-per-tick rate
    the online detector is expected to recover. The trajectory starts at
    tick 0 and stops at absorption or after ``max_ticks`` ticks, and is
    only as long as the run. Every argument but ``step_prob`` is an integer.
    """
    m, initial_dead = _check_threshold(require_int("m", m)), require_int("initial_dead", initial_dead)
    seed, max_ticks, run_index = (
        require_non_negative(name, value)
        for name, value in (("seed", seed), ("max_ticks", max_ticks), ("run_index", run_index)))
    step_prob = require_fraction("step_prob", step_prob)
    if not 0 <= initial_dead <= m:
        raise ConfigInvalid(f"initial_dead {initial_dead} outside [0, {m}]")
    move = step_probs(m)[0]
    rng = substream(seed, run_index, CHAIN_STREAM)
    i = initial_dead
    view = [i]
    while 0 < i < m and len(view) <= max_ticks:
        if rng.random() < step_prob:
            u = rng.random()
            if u < move[i]:
                i += 1
            elif u < 2.0 * move[i]:
                i -= 1
        view.append(i)
    return np.array(view, dtype=np.int64)
