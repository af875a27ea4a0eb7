"""Tests for repro.model.instance (Section III-B pair construction)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.point import euclidean_distance
from repro.model.entities import Task, Worker
from repro.model.instance import build_problem, quality_sample_stats
from repro.model.validity import can_reach
from repro.uncertainty.vector import distance_stats_vec
from repro.workloads.quality import HashQualityModel

from repro.testing import (
    make_predicted_tasks,
    make_predicted_workers,
    make_problem,
    make_tasks,
    make_workers,
)

UNIT_COST = 5.0


def build(seed=0, n=10, m=8, k=0, l=0, **kwargs):
    rng = np.random.default_rng(seed)
    workers = make_workers(rng, n)
    tasks = make_tasks(rng, m)
    predicted_workers = make_predicted_workers(rng, k)
    predicted_tasks = make_predicted_tasks(rng, l)
    quality_model = HashQualityModel((1.0, 2.0), seed=seed)
    problem = build_problem(
        workers, tasks, predicted_workers, predicted_tasks,
        quality_model, UNIT_COST, 0.0, **kwargs,
    )
    return problem, workers, tasks, predicted_workers, predicted_tasks, quality_model


class TestCurrentPairs:
    def test_every_valid_pair_present_exactly_once(self):
        problem, workers, tasks, *_ = build()
        pool = problem.pool
        seen = set(zip(pool.worker_idx.tolist(), pool.task_idx.tolist()))
        assert len(seen) == len(pool)
        for i, worker in enumerate(workers):
            for j, task in enumerate(tasks):
                expected = can_reach(worker, task, 0.0)
                assert ((i, j) in seen) == expected

    def test_costs_match_euclidean_distance(self):
        problem, workers, tasks, *_ = build()
        pool = problem.pool
        for row in range(len(pool)):
            worker = workers[pool.worker_idx[row]]
            task = tasks[pool.task_idx[row]]
            expected = UNIT_COST * euclidean_distance(worker.location, task.location)
            assert pool.cost_mean[row] == pytest.approx(expected)
            assert pool.cost_lb[row] == pytest.approx(expected)
            assert pool.cost_ub[row] == pytest.approx(expected)
            assert pool.cost_var[row] == 0.0

    def test_qualities_match_quality_model(self):
        problem, workers, tasks, _, _, quality_model = build()
        pool = problem.pool
        matrix = quality_model.quality_matrix(workers, tasks)
        for row in range(len(pool)):
            expected = matrix[pool.worker_idx[row], pool.task_idx[row]]
            assert pool.quality_mean[row] == pytest.approx(float(expected))
            assert pool.quality_var[row] == 0.0

    def test_current_pairs_flagged_and_certain(self):
        problem, *_ = build()
        pool = problem.pool
        assert pool.is_current.all()
        np.testing.assert_allclose(pool.existence, 1.0)

    def test_empty_inputs(self):
        problem, *_ = build(n=0, m=0)
        assert problem.num_pairs == 0

    def test_no_workers(self):
        problem, *_ = build(n=0, m=5)
        assert problem.num_pairs == 0

    def test_pair_materialization(self):
        problem, workers, tasks, *_ = build()
        pair = problem.pair(0)
        assert pair.worker is workers[problem.pool.worker_idx[0]]
        assert pair.task is tasks[problem.pool.task_idx[0]]
        assert pair.is_current


class TestPredictedPairs:
    def test_mixed_pairs_not_current(self):
        problem, *_ = build(k=4, l=3, reservation_filter=False)
        pool = problem.pool
        predicted_rows = ~pool.is_current
        assert predicted_rows.any()
        # Index ranges: predicted workers sit after current ones.
        n, m = problem.num_current_workers, problem.num_current_tasks
        for row in np.nonzero(predicted_rows)[0]:
            assert pool.worker_idx[row] >= n or pool.task_idx[row] >= m

    def test_existence_probability_case1(self):
        """<w_hat, t_j>: p = min(n_j / |W_p|, 1)."""
        problem, workers, tasks, pw, _, _ = build(k=3, l=0, reservation_filter=False)
        pool = problem.pool
        n = len(workers)
        for row in np.nonzero(~pool.is_current)[0]:
            task_index = int(pool.task_idx[row])
            if task_index < len(tasks):  # current task, predicted worker
                valid_workers = sum(
                    1 for w in workers if can_reach(w, tasks[task_index], 0.0)
                )
                expected = min(valid_workers / n, 1.0)
                assert pool.existence[row] == pytest.approx(expected)

    def test_existence_probability_case2(self):
        """<w_i, t_hat>: p = min(m_i / |T_p|, 1)."""
        problem, workers, tasks, _, pt, _ = build(k=0, l=3, reservation_filter=False)
        pool = problem.pool
        m = len(tasks)
        for row in np.nonzero(~pool.is_current)[0]:
            worker_index = int(pool.worker_idx[row])
            if worker_index < len(workers):
                valid_tasks = sum(
                    1 for t in tasks if can_reach(workers[worker_index], t, 0.0)
                )
                expected = min(valid_tasks / m, 1.0)
                assert pool.existence[row] == pytest.approx(expected)

    def test_existence_probability_case3(self):
        """<w_hat, t_hat>: p = u / (|W_p| |T_p|)."""
        problem, workers, tasks, *_ = build(k=3, l=3, reservation_filter=False)
        pool = problem.pool
        n, m = len(workers), len(tasks)
        total_valid = sum(
            1 for w in workers for t in tasks if can_reach(w, t, 0.0)
        )
        expected = min(total_valid / (n * m), 1.0)
        future_future = (
            (~pool.is_current)
            & (pool.worker_idx >= n)
            & (pool.task_idx >= m)
        )
        assert future_future.any()
        np.testing.assert_allclose(pool.existence[future_future], expected)

    def test_quality_bounds_enclose_mean(self):
        problem, *_ = build(k=4, l=4, reservation_filter=False)
        pool = problem.pool
        assert (pool.quality_lb <= pool.quality_mean + 1e-9).all()
        assert (pool.quality_mean <= pool.quality_ub + 1e-9).all()

    def test_cost_bounds_enclose_mean(self):
        problem, *_ = build(k=4, l=4, reservation_filter=False)
        pool = problem.pool
        assert (pool.cost_lb <= pool.cost_mean + 1e-9).all()
        assert (pool.cost_mean <= pool.cost_ub + 1e-9).all()

    def test_future_future_flag(self):
        with_ff, *_ = build(k=3, l=3, reservation_filter=False)
        without_ff, *_ = build(
            k=3, l=3, reservation_filter=False, include_future_future_pairs=False
        )
        n = with_ff.num_current_workers
        m = with_ff.num_current_tasks
        ff_rows = (
            (with_ff.pool.worker_idx >= n) & (with_ff.pool.task_idx >= m)
        ).sum()
        assert ff_rows > 0
        assert len(without_ff.pool) == len(with_ff.pool) - ff_rows
        remaining_ff = (
            (without_ff.pool.worker_idx >= n) & (without_ff.pool.task_idx >= m)
        ).sum()
        assert remaining_ff == 0

    def test_reservation_filter_drops_beatable_reservations(self):
        unfiltered, *_ = build(k=4, l=4, reservation_filter=False)
        filtered, *_ = build(k=4, l=4, reservation_filter=True)
        assert len(filtered.pool) <= len(unfiltered.pool)
        # Mixed rows surviving the filter must beat the entity's best
        # current option (or the entity has none) - spot check tasks.
        pool = filtered.pool
        n, m = filtered.num_current_workers, filtered.num_current_tasks
        current = pool.is_current
        for row in np.nonzero(~current)[0]:
            w, t = int(pool.worker_idx[row]), int(pool.task_idx[row])
            if w >= n and t < m:  # predicted worker, current task
                current_rows = np.nonzero(current & (pool.task_idx == t))[0]
                if current_rows.size:
                    best = pool.quality_mean[current_rows].max()
                    assert pool.quality_mean[row] > best

    def test_discounting_scales_quality(self):
        discounted, *_ = build(k=4, l=0, reservation_filter=False)
        raw, *_ = build(
            k=4, l=0, reservation_filter=False, discount_by_existence=False
        )
        d_pred = discounted.pool.quality_mean[~discounted.pool.is_current]
        r_pred = raw.pool.quality_mean[~raw.pool.is_current]
        assert d_pred.shape == r_pred.shape
        assert (d_pred <= r_pred + 1e-9).all()


def _boxes(entities):
    return tuple(
        np.array([getattr(e.box, side) for e in entities], dtype=float)
        for side in ("x_lo", "x_hi", "y_lo", "y_hi")
    )


def _matrix_oracle(cw, ct, pw, pt, quality_model, unit_cost, now, discount,
                   reservation, future_future, exact):
    """Each predicted family's valid ``(worker, task)`` pairs, decided in
    matrix form over ``distance_stats_vec``, mapped to their cost
    columns, existence and expected quality."""
    n, m = len(cw), len(ct)

    def horizon(workers, tasks):
        w_arr = np.array([w.arrival for w in workers])
        t_arr = np.array([t.arrival for t in tasks])
        deadline = np.array([t.deadline for t in tasks])
        return deadline[None, :] - np.maximum(now, np.maximum(w_arr[:, None], t_arr[None, :]))

    def velocity(workers):
        return np.array([w.velocity for w in workers])[:, None]

    if n and m:
        h = horizon(cw, ct)
        dist = np.hypot(
            np.array([w.location.x for w in cw])[:, None] - np.array([t.location.x for t in ct]),
            np.array([w.location.y for w in cw])[:, None] - np.array([t.location.y for t in ct]),
        )
        rows, cols = np.nonzero((h > 0.0) & (dist <= h * velocity(cw)))
        q_cc = quality_model.quality_matrix(cw, ct)[rows, cols]
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        q_cc = np.zeros(0)
    stats = quality_sample_stats(rows, cols, q_cc, n, m, quality_model.prior())

    families = []
    if pw and ct:
        p = np.minimum(stats.task_count / max(n, 1), 1.0)[None, :]
        mean = quality_model.quality_matrix(pw, ct) if exact else stats.task_mean[None, :]
        count, best = stats.task_count[None, :], stats.task_max[None, :]
        families.append((pw, ct, n, 0, p, mean, count, best))
    if cw and pt:
        p = np.minimum(stats.worker_count / max(m, 1), 1.0)[:, None]
        mean = quality_model.quality_matrix(cw, pt) if exact else stats.worker_mean[:, None]
        count, best = stats.worker_count[:, None], stats.worker_max[:, None]
        families.append((cw, pt, 0, m, p, mean, count, best))
    if pw and pt and future_future:
        p = min(stats.total_valid / max(n * m, 1), 1.0)
        mean = quality_model.quality_matrix(pw, pt) if exact else stats.global_mean
        families.append((pw, pt, n, m, p, mean, None, None))

    expected = {}
    for workers, tasks, w_off, t_off, p, mean, count, best in families:
        d_mean, d_var, d_lb, d_ub = distance_stats_vec(_boxes(workers), _boxes(tasks))
        shape = d_mean.shape
        h = horizon(workers, tasks)
        valid = (h > 0.0) & (d_lb <= h * velocity(workers))
        q = np.broadcast_to(p * mean if discount else mean, shape)
        if reservation and count is not None:
            valid &= (q > np.where(count > 0, best, -np.inf)) | (count == 0)
        p = np.broadcast_to(p, shape)
        for i, j in zip(*np.nonzero(valid)):
            expected[(int(i) + w_off, int(j) + t_off)] = (
                unit_cost * d_mean[i, j],
                unit_cost**2 * d_var[i, j],
                unit_cost * d_lb[i, j],
                unit_cost * d_ub[i, j],
                p[i, j],
                q[i, j],
            )
    return expected


def _spread(entities, rng, **ranges):
    """Per-entity values for the given fields, drawn from ``ranges``."""
    return [
        replace(e, **{k: float(rng.uniform(*r)) for k, r in ranges.items()})
        for e in entities
    ]


def _slack(rng) -> float:
    """A deadline offset; one in five is zero (a closed horizon)."""
    return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.5))


class TestMatrixOracle:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=0, max_value=12),
        m=st.integers(min_value=0, max_value=12),
        k=st.integers(min_value=0, max_value=6),
        l=st.integers(min_value=0, max_value=6),
        half_width=st.floats(min_value=0.0, max_value=0.3),
        discount=st.booleans(),
        reservation=st.booleans(),
        future_future=st.booleans(),
        exact=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pricing_and_validity_match_matrix_form(
        self, seed, n, m, k, l, half_width, discount, reservation, future_future, exact
    ):
        """Predicted rows carry ``C x`` the ``distance_stats_vec`` entry
        bit for bit (and the matrix-form existence and discounted
        quality), and exactly the pairs the matrix-form validity
        predicate (horizon, box-gap bound, reservation) accepts."""
        rng = np.random.default_rng(seed)
        now = 0.5
        cw = _spread(make_workers(rng, n), rng, velocity=(0.05, 0.6), arrival=(0.0, 1.0))
        ct = make_tasks(rng, m)
        ct = [
            replace(t, arrival=a, deadline=a + _slack(rng))
            for t, a in zip(ct, rng.uniform(0.0, 1.0, m))
        ]
        pw = _spread(
            make_predicted_workers(rng, k, half_width=half_width), rng,
            velocity=(0.05, 0.6),
        )
        pt = [
            replace(t, deadline=t.arrival + _slack(rng))
            for t in make_predicted_tasks(rng, l, half_width=half_width)
        ]
        quality_model = HashQualityModel((1.0, 2.0), seed=seed)
        problem = build_problem(
            cw, ct, pw, pt, quality_model, UNIT_COST, now,
            discount_by_existence=discount,
            reservation_filter=reservation,
            include_future_future_pairs=future_future,
            exact_predicted_quality=exact,
        )
        expected = _matrix_oracle(
            cw, ct, pw, pt, quality_model, UNIT_COST, now,
            discount, reservation, future_future, exact,
        )
        pool = problem.pool
        predicted = np.nonzero(~pool.is_current)[0]
        emitted = [
            (int(pool.worker_idx[r]), int(pool.task_idx[r])) for r in predicted
        ]
        assert len(set(emitted)) == len(emitted)
        assert set(emitted) == set(expected)
        for row, key in zip(predicted, emitted):
            got = (
                pool.cost_mean[row], pool.cost_var[row],
                pool.cost_lb[row], pool.cost_ub[row],
                pool.existence[row], pool.quality_mean[row],
            )
            assert got == expected[key], key


class TestValidation:
    def test_negative_unit_cost_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            build_problem(
                make_workers(rng, 2), make_tasks(rng, 2), [], [],
                HashQualityModel((1, 2)), -1.0, 0.0,
            )

    def test_unflagged_predicted_worker_rejected(self):
        rng = np.random.default_rng(0)
        impostor = make_workers(rng, 1)  # not flagged predicted
        with pytest.raises(ValueError):
            build_problem(
                make_workers(rng, 2), make_tasks(rng, 2), impostor, [],
                HashQualityModel((1, 2)), 1.0, 0.0,
            )

    def test_unflagged_predicted_task_rejected(self):
        rng = np.random.default_rng(0)
        impostor = make_tasks(rng, 1)
        with pytest.raises(ValueError):
            build_problem(
                make_workers(rng, 2), make_tasks(rng, 2), [], impostor,
                HashQualityModel((1, 2)), 1.0, 0.0,
            )

    def test_quality_matrix_shape_enforced(self):
        rng = np.random.default_rng(0)

        class BadModel:
            def quality_matrix(self, workers, tasks):
                return np.zeros((1, 1))

            def prior(self):
                return (1.0, 0.1, 0.0, 2.0)

        with pytest.raises(ValueError):
            build_problem(
                make_workers(rng, 3), make_tasks(rng, 2), [], [],
                BadModel(), 1.0, 0.0,
            )
