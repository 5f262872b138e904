"""Tests for per-key schedule generation: paper examples, optimality
(Theorems 1-2) against brute force, vectorized/scalar agreement, and
the holder-column kernel against a frozen segmented reduction."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import (
    both_direction_plans,
    generate_schedules,
    migrate_and_broadcast,
    optimal_schedule,
    selective_broadcast_cost,
)
from repro.core.tracking import TrackingTable
from repro.errors import ScheduleError

from conftest import exec_scope, tracking_from_dicts


class TestPaperExamples:
    """The worked examples of Figures 1 and 2 (M = 0)."""

    R1 = {0: 2.0, 2: 4.0}
    S1 = {1: 3.0, 3: 1.0}

    def test_figure1_two_phase(self):
        assert selective_broadcast_cost(self.R1, self.S1, scheduler_node=4) == 12

    def test_figure1_three_phase(self):
        assert selective_broadcast_cost(self.S1, self.R1, scheduler_node=4) == 8

    def test_figure1_four_phase(self):
        schedule = optimal_schedule(self.R1, self.S1, scheduler_node=4)
        assert schedule.plan.cost == 6
        assert schedule.direction == "SR"
        # R tuples from node 0 consolidate onto node 2 before S broadcasts.
        assert schedule.plan.migrating_nodes == (0,)
        assert schedule.plan.destination == 2

    R2 = {1: 4.0, 2: 8.0, 3: 9.0, 4: 6.0}
    S2 = {1: 2.0, 2: 5.0, 3: 3.0, 4: 1.0}

    def test_figure2_initial_broadcast(self):
        assert selective_broadcast_cost(self.S2, self.R2, scheduler_node=0) == 33

    def test_figure2_migrations(self):
        plan = migrate_and_broadcast(self.S2, self.R2, scheduler_node=0)
        assert plan.cost == 24
        assert plan.migration_cost == 10  # |R1| + |R4| = 4 + 6
        assert plan.migrating_nodes == (1, 4)
        assert plan.destination == 2  # forced-stay node with max |R|+|S|

    def test_figure2_node3_rejected(self):
        """Migrating node 3 (R=9) would raise the cost (13+16 vs 4+24)."""
        plan = migrate_and_broadcast(self.S2, self.R2, scheduler_node=0)
        assert 3 not in plan.migrating_nodes


def brute_force_minimum(sizes_r: dict[int, float], sizes_s: dict[int, float], n: int) -> float:
    """Exhaustive minimum transfer cost for one key's cartesian join.

    Every holder of either side sends its tuples to any subset of the
    other nodes; local data is free; a valid plan meets every (R_i, S_j)
    pair at some common node.  Reach sets are node bitmasks, and each
    side's plans are enumerated in ascending cost, so both loops stop at
    the first plan that cannot beat the best valid one: every cheaper
    combination has been tried by then.
    """
    r_nodes = [i for i in range(n) if sizes_r.get(i, 0) > 0]
    s_nodes = [j for j in range(n) if sizes_s.get(j, 0) > 0]
    if not r_nodes or not s_nodes:
        return 0.0

    def plans(sources, sizes):
        """Every per-source choice of remote destinations, as ``(cost,
        reach bitmasks)`` in ascending cost."""
        choices = [
            [
                (bin(dests).count("1") * sizes[src], dests | 1 << src)
                for dests in range(1 << n)
                if not dests >> src & 1
            ]
            for src in sources
        ]
        return sorted(
            (
                (sum(cost for cost, _ in combo), [reach for _, reach in combo])
                for combo in itertools.product(*choices)
            ),
            key=lambda plan: plan[0],
        )

    r_plans, s_plans = plans(r_nodes, sizes_r), plans(s_nodes, sizes_s)
    everyone = (1 << len(r_nodes)) - 1
    best = float("inf")
    for r_cost, r_reach in r_plans:
        if r_cost >= best:
            break
        # met[mask]: bitmask of the R holders reaching some node of mask.
        met = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            met[mask] = met[mask ^ low] | sum(
                1 << i for i, reach in enumerate(r_reach) if reach & low
            )
        for s_cost, s_reach in s_plans:
            if r_cost + s_cost >= best:
                break
            if all(met[reach] == everyone for reach in s_reach):
                best = r_cost + s_cost
    return best


class TestOptimality:
    """Theorem 2: the optimized direction minimum is the global optimum."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 9), min_size=3, max_size=3),
        st.lists(st.integers(0, 9), min_size=3, max_size=3),
    )
    def test_three_nodes_exhaustive(self, r_raw, s_raw):
        sizes_r = {i: float(v) for i, v in enumerate(r_raw) if v > 0}
        sizes_s = {i: float(v) for i, v in enumerate(s_raw) if v > 0}
        schedule = optimal_schedule(sizes_r, sizes_s, scheduler_node=0, location_width=0)
        expected = brute_force_minimum(sizes_r, sizes_s, 3)
        if not sizes_r or not sizes_s:
            expected = 0.0
        assert schedule.plan.cost == pytest.approx(expected)

    @pytest.mark.parametrize(
        "sizes_r,sizes_s",
        [
            ({0: 2, 2: 4}, {1: 3, 3: 1}),  # Figure 1
            ({1: 4, 2: 8, 3: 9}, {1: 2, 2: 5, 3: 3}),
            ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1, 2: 1, 3: 1}),
            ({0: 100}, {1: 1, 2: 1, 3: 1}),
            ({0: 1, 3: 50}, {0: 50, 3: 1}),
        ],
    )
    def test_four_nodes_cases(self, sizes_r, sizes_s):
        sizes_r = {k: float(v) for k, v in sizes_r.items()}
        sizes_s = {k: float(v) for k, v in sizes_s.items()}
        schedule = optimal_schedule(sizes_r, sizes_s, scheduler_node=0, location_width=0)
        assert schedule.plan.cost == pytest.approx(
            brute_force_minimum(sizes_r, sizes_s, 4)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 4), st.integers(1, 20), max_size=5),
        st.dictionaries(st.integers(0, 4), st.integers(1, 20), max_size=5),
        st.integers(0, 4),
    )
    def test_migration_never_hurts(self, sizes_r, sizes_s, scheduler):
        """Theorem 1: optimized broadcast <= plain selective broadcast."""
        sizes_r = {k: float(v) for k, v in sizes_r.items()}
        sizes_s = {k: float(v) for k, v in sizes_s.items()}
        plain = selective_broadcast_cost(sizes_r, sizes_s, scheduler, location_width=1)
        optimized = migrate_and_broadcast(sizes_r, sizes_s, scheduler, location_width=1)
        assert optimized.cost <= plain + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 4), st.integers(1, 20), max_size=5),
        st.dictionaries(st.integers(0, 4), st.integers(1, 20), min_size=1, max_size=5),
        st.integers(0, 4),
        st.floats(0.0, 5.0),
    )
    def test_forced_stay_choice_is_optimal(self, sizes_r, sizes_s, scheduler, width):
        """The chosen stay node beats forcing any other holder to stay.

        Enumerates every possible forced-stay holder and recomputes the
        independent migration decisions; the implementation's plan must
        match the best of them (this is where the scheduler-local
        message discount makes the naive max-size tie-break suboptimal).
        """
        sizes_r = {k: float(v) for k, v in sizes_r.items()}
        sizes_s = {k: float(v) for k, v in sizes_s.items()}
        plan = migrate_and_broadcast(sizes_r, sizes_s, scheduler, width)
        r_all = sum(sizes_r.values())
        r_nodes = sum(1 for i, v in sizes_r.items() if v > 0 and i != scheduler)
        base = selective_broadcast_cost(sizes_r, sizes_s, scheduler, width)
        holders = [i for i, v in sizes_s.items() if v > 0]
        best = float("inf")
        for stay in holders:
            cost = base
            for i in holders:
                if i == stay:
                    continue
                delta = sizes_r.get(i, 0.0) + sizes_s[i] - r_all - r_nodes * width
                if i != scheduler:
                    delta += width
                if delta < 0:
                    cost += delta
            best = min(best, cost)
        assert plan.cost == pytest.approx(best)

    def test_empty_sides_cost_zero(self):
        schedule = optimal_schedule({}, {0: 5.0}, scheduler_node=0)
        assert schedule.plan.cost == 0
        assert schedule.plan.migrating_nodes == ()


@st.composite
def key_population(draw):
    """A list of per-key size dictionaries plus scheduler nodes."""
    num_keys = draw(st.integers(1, 6))
    per_key = []
    t_nodes = []
    for _ in range(num_keys):
        sizes_r = draw(st.dictionaries(st.integers(0, 4), st.integers(1, 30), max_size=5))
        sizes_s = draw(st.dictionaries(st.integers(0, 4), st.integers(1, 30), max_size=5))
        if not sizes_r and not sizes_s:
            sizes_r = {0: 1}
        per_key.append((sizes_r, sizes_s))
        t_nodes.append(draw(st.integers(0, 4)))
    return per_key, t_nodes


def draw_keys(data, max_entries: int):
    """Per-key ``(counts_r, counts_s)`` of 1..``max_entries`` holders among
    nodes 0-4, and T nodes 0-5."""
    entry = st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(any)
    per_key = data.draw(
        st.lists(
            st.dictionaries(st.integers(0, 4), entry, min_size=1, max_size=max_entries),
            min_size=1,
            max_size=9,
        )
    )
    t_nodes = data.draw(
        st.lists(st.integers(0, 5), min_size=len(per_key), max_size=len(per_key))
    )
    sides = [
        tuple({n: float(e[side]) for n, e in key.items() if e[side]} for side in (0, 1))
        for key in per_key
    ]
    return sides, t_nodes


class TestVectorizedAgainstScalar:
    @settings(max_examples=80, deadline=None)
    @given(key_population(), st.floats(0.0, 4.0))
    def test_costs_match_scalar(self, population, location_width):
        per_key, t_nodes = population
        tracking = tracking_from_dicts(per_key, t_nodes)
        schedules = generate_schedules(tracking, location_width=location_width)
        for key, (sizes_r, sizes_s) in enumerate(per_key):
            scalar = optimal_schedule(
                {k: float(v) for k, v in sizes_r.items()},
                {k: float(v) for k, v in sizes_s.items()},
                scheduler_node=t_nodes[key],
                location_width=location_width,
            )
            assert schedules.cost[key] == pytest.approx(scalar.plan.cost), (
                f"key {key}: vectorized {schedules.cost[key]} != scalar "
                f"{scalar.plan.cost} for {sizes_r} vs {sizes_s}"
            )

    @settings(max_examples=30, deadline=None)
    @given(key_population())
    def test_directions_match_scalar(self, population):
        per_key, t_nodes = population
        tracking = tracking_from_dicts(per_key, t_nodes)
        schedules = generate_schedules(tracking, location_width=1.0)
        for key, (sizes_r, sizes_s) in enumerate(per_key):
            scalar = optimal_schedule(
                {k: float(v) for k, v in sizes_r.items()},
                {k: float(v) for k, v in sizes_s.items()},
                scheduler_node=t_nodes[key],
                location_width=1.0,
            )
            got = "RS" if schedules.direction_rs[key] else "SR"
            # Directions may legitimately differ only at exact cost ties.
            if scalar.plan.cost != scalar.alternative.cost:
                assert got == scalar.direction

    @settings(max_examples=30, deadline=None)
    @given(key_population())
    def test_three_phase_is_min_of_plain_directions(self, population):
        per_key, t_nodes = population
        tracking = tracking_from_dicts(per_key, t_nodes)
        schedules = generate_schedules(tracking, location_width=1.0, allow_migration=False)
        for key, (sizes_r, sizes_s) in enumerate(per_key):
            rs = selective_broadcast_cost(
                {k: float(v) for k, v in sizes_r.items()},
                {k: float(v) for k, v in sizes_s.items()},
                t_nodes[key],
                1.0,
            )
            sr = selective_broadcast_cost(
                {k: float(v) for k, v in sizes_s.items()},
                {k: float(v) for k, v in sizes_r.items()},
                t_nodes[key],
                1.0,
            )
            assert schedules.cost[key] == pytest.approx(min(rs, sr))

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(),
        st.sampled_from([2, 5]),
        st.sampled_from([0.0, 1.0, 2.5]),
        st.booleans(),
        st.sampled_from([None, "RS", "SR"]),
    )
    def test_holder_gate_matches_oracle_and_ungated(
        self, data, max_entries, location_width, allow_migration, forced
    ):
        """Gated consolidation is the scalar oracle's plan, key by key.

        That holds for the keys the holder gate consolidates and for
        the ungated ones it skips (fewer than two target-side holders).
        ``max_entries=2`` keeps every key on the paired path, 5 takes
        the generic one; either way a block mixes keys with 0, 1 and 2+
        target-side holders, and scheduler node 5 is outside every
        holder set.  Two-key blocks make the gate's subsets cross block
        bounds.
        """
        sides, t_nodes = draw_keys(data, max_entries)
        tracking = tracking_from_dicts(sides, t_nodes)
        with exec_scope(workers=2, chunk_rows=2):
            gated = generate_schedules(tracking, location_width, allow_migration, forced)
            (cost_rs, _, _), (cost_sr, _, _) = both_direction_plans(
                tracking, location_width, allow_migration
            )

        ends = np.append(tracking.key_starts[1:], tracking.num_entries)
        for key, (sizes_r, sizes_s) in enumerate(sides):
            plans = {
                "RS": migrate_and_broadcast(sizes_r, sizes_s, t_nodes[key], location_width),
                "SR": migrate_and_broadcast(sizes_s, sizes_r, t_nodes[key], location_width),
            }
            entries = slice(tracking.key_starts[key], ends[key])
            migrating = tuple(tracking.nodes[entries][gated.migrate[entries]])
            direction = "RS" if gated.direction_rs[key] else "SR"
            if not allow_migration:
                plain = selective_broadcast_cost(
                    *((sizes_r, sizes_s) if direction == "RS" else (sizes_s, sizes_r)),
                    t_nodes[key],
                    location_width,
                )
                assert gated.cost[key] == pytest.approx(plain)
                assert migrating == () and gated.dest_node[key] == -1
                continue
            assert cost_rs[key] == pytest.approx(plans["RS"].cost)
            assert cost_sr[key] == pytest.approx(plans["SR"].cost)
            if forced is not None:
                assert direction == forced
            else:
                # Integer sizes and half-integer widths keep every cost
                # exact, so ties are exact too and go S -> R as in the
                # paper's pseudocode.
                assert direction == ("RS" if plans["RS"].cost < plans["SR"].cost else "SR")
            plan = plans[direction]
            assert migrating == plan.migrating_nodes
            assert gated.dest_node[key] == (
                -1 if plan.destination is None else plan.destination
            )

    def test_forced_direction(self):
        tracking = tracking_from_dicts([({0: 5}, {1: 3})], [0])
        rs = generate_schedules(tracking, 0.0, allow_migration=False, forced_direction="RS")
        sr = generate_schedules(tracking, 0.0, allow_migration=False, forced_direction="SR")
        assert rs.cost[0] == 5.0  # move R to S's node
        assert sr.cost[0] == 3.0  # move S to R's node

    def test_invalid_forced_direction(self):
        tracking = tracking_from_dicts([({0: 1}, {1: 1})], [0])
        with pytest.raises(ScheduleError):
            generate_schedules(tracking, forced_direction="XY")

    def test_empty_tracking_table(self):
        schedules = generate_schedules(TrackingTable.empty())
        assert schedules.num_keys == 0


def reference_plans(tracking, location_width, allow_migration):
    """Both directions' plans by segmented ``reduceat`` reductions.

    The generic schedule kernel as it stood before the holder-column
    kernel replaced it, frozen here as the reference: per-entry arrays,
    one segment per key, the forced stay as the first maximal delta of
    its segment.
    """
    counts = tracking.entries_per_key
    seg, starts, nodes = tracking.seg, tracking.key_starts, tracking.nodes
    size_r, size_s = tracking.size_r(), tracking.size_s()
    has_r, has_s = size_r > 0, size_s > 0
    not_scheduler = nodes != tracking.t_nodes[seg]
    r_all = np.add.reduceat(size_r, starts)
    s_all = np.add.reduceat(size_s, starts)
    r_holders = np.add.reduceat(has_r, starts, dtype=np.int64)
    s_holders = np.add.reduceat(has_s, starts, dtype=np.int64)
    r_nodes = np.add.reduceat(has_r & not_scheduler, starts, dtype=np.int64)
    s_nodes = np.add.reduceat(has_s & not_scheduler, starts, dtype=np.int64)
    r_local = np.add.reduceat(np.where(has_s, size_r, 0.0), starts)
    s_local = np.add.reduceat(np.where(has_r, size_s, 0.0), starts)
    base_rs = r_all * s_holders - r_local + r_nodes * s_holders * location_width
    base_sr = s_all * r_holders - s_local + s_nodes * r_holders * location_width

    def one_direction(cost, b_all, b_nodes, has_t, t_holders):
        migrate = np.zeros(len(seg), dtype=bool)
        dest = np.full(len(starts), -1, dtype=nodes.dtype)
        keys = np.flatnonzero(t_holders >= 2)
        if not allow_migration or len(keys) == 0:
            return cost, migrate, dest
        entries = np.flatnonzero((t_holders >= 2)[seg])
        counts_c = counts[keys]
        starts_c = np.cumsum(counts_c) - counts_c
        seg_c = np.repeat(np.arange(len(keys)), counts_c)
        seg_e = seg[entries]
        delta = (
            (size_r[entries] + size_s[entries])
            - b_all[seg_e]
            - (b_nodes * location_width)[seg_e]
            + np.where(not_scheduler[entries], location_width, 0.0)
        )
        target = has_t[entries]
        score = np.where(target, delta, -np.inf)
        is_max = score == np.maximum.reduceat(score, starts_c)[seg_c]
        positions = np.arange(len(entries))
        first_pos = np.minimum.reduceat(np.where(is_max, positions, len(entries)), starts_c)
        stay = np.zeros(len(entries), dtype=bool)
        stay[first_pos] = True
        moves = target & ~stay & (delta < 0)
        migrate[entries] = moves
        dest[keys] = np.where(
            np.logical_or.reduceat(moves, starts_c), nodes[entries][first_pos], -1
        )
        cost[keys] += np.add.reduceat(np.where(moves, delta, 0.0), starts_c)
        return cost, migrate, dest

    return (
        one_direction(base_rs, r_all, r_nodes, has_s, s_holders),
        one_direction(base_sr, s_all, s_nodes, has_r, r_holders),
    )


class TestScheduleEquivalence:
    """The holder-column kernel against the frozen segmented reference."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.data(),
        st.sampled_from([1.0, 2.5, 0.3]),
        st.sampled_from([0.0, 0.1, 1.0, 3.75]),
        st.booleans(),
        st.sampled_from([None, 2]),
    )
    def test_column_kernel_equals_segmented_reference(
        self, data, width, location_width, allow_migration, chunk_rows
    ):
        """One to five holders among five nodes: the column kernel is the
        segmented reduction bitwise, in two-key blocks or in one."""
        tracking = tracking_from_dicts(*draw_keys(data, 5), widths=(width, width))
        assert_column_equals_reference(tracking, location_width, allow_migration, chunk_rows)

    def test_blocks_pad_to_different_widths(self):
        """1-, 2-, 3- and 16-holder keys on 16 nodes in two-key blocks.

        Adjacent blocks pad to different widths, and the 16-holder keys
        put a tally product at 16 x 16, past an int8's range.
        """
        rng = np.random.default_rng(11)
        sides = []
        for holders in (1, 16, 2, 3, 16, 1, 3, 2, 2, 16, 1, 1, 3):
            nodes = sorted(rng.choice(16, size=holders, replace=False).tolist())
            counts_r = {n: int(rng.integers(1, 9)) for n in nodes}
            # Every node holds both sides, so tallies reach the width.
            counts_s = {n: int(rng.integers(1, 9)) for n in nodes}
            sides.append((counts_r, counts_s))
        t_nodes = rng.integers(0, 16, len(sides)).tolist()
        tracking = tracking_from_dicts(sides, t_nodes, widths=(3.0, 5.0))
        assert int(tracking.entries_per_key.max()) == 16
        for location_width, allow_migration in itertools.product((0.0, 1.0, 4.0), (False, True)):
            assert_column_equals_reference(tracking, location_width, allow_migration, 2)
        (_, mig_rs, _), (_, mig_sr, _) = both_direction_plans(tracking, 4.0)
        assert mig_rs.any() and mig_sr.any()

    def test_exact_tie_keeps_the_lowest_node(self):
        """Holders 2 and 6 tie on the maximal delta: node 2 stays, and the
        cheaper holder 4 migrates onto it."""
        tracking = tracking_from_dicts([({0: 10}, {2: 5, 4: 1, 6: 5})], [0])
        (cost_rs, mig_rs, dest_rs), _ = both_direction_plans(tracking, 0.0)
        assert dest_rs[0] == 2
        assert tracking.nodes[mig_rs].tolist() == [4, 6]
        assert_column_equals_reference(tracking, 0.0, True, None)
        plan = migrate_and_broadcast({0: 10.0}, {2: 5.0, 4: 1.0, 6: 5.0}, 0, 0.0)
        assert (plan.destination, plan.migrating_nodes) == (2, (4, 6))
        assert cost_rs[0] == plan.cost

    def test_two_holder_shape_in_blocks(self):
        """300 keys of one or two holders among 4 nodes, in 64-key blocks:
        single-entry keys, local pairs and T nodes on a holder."""
        rng = np.random.default_rng(7)
        sides = []
        for _ in range(300):
            holders = rng.choice(4, size=rng.integers(1, 3), replace=False).tolist()
            sides.append(tuple({n: float(rng.integers(low, 60)) for n in holders} for low in (1, 0)))
        tracking = tracking_from_dicts(sides, rng.integers(0, 4, 300).tolist())
        for location_width, allow_migration in itertools.product((0.0, 1.0, 3.75), (False, True)):
            assert_column_equals_reference(tracking, location_width, allow_migration, 64)


def assert_column_equals_reference(tracking, location_width, allow_migration, chunk_rows):
    """Costs, migration masks and destinations of both directions, bitwise
    and in the same dtypes; the column kernel runs over two kernel workers."""
    want = reference_plans(tracking, location_width, allow_migration)
    with exec_scope(workers=2, chunk_rows=chunk_rows):
        got = both_direction_plans(tracking, location_width, allow_migration)
    for got_direction, want_direction in zip(got, want):
        for a, b in zip(got_direction, want_direction):
            assert a.dtype == b.dtype and np.array_equal(a, b)
