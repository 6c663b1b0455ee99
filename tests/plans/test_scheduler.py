"""Unit tests for the critical-path clock."""

import pytest

from repro.plans.scheduler import CriticalPathClock


class TestCriticalPathClock:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            CriticalPathClock(0)

    def test_empty_schedule(self):
        clock = CriticalPathClock(4)
        report = clock.report()
        assert report.tasks == 0
        assert report.makespan == 0.0
        assert report.speedup == 1.0

    def test_serial_chain_has_no_speedup(self):
        clock = CriticalPathClock(4)
        prev = clock.add_task((), 10.0)
        for _ in range(4):
            prev = clock.add_task((prev,), 10.0)
        report = clock.report()
        assert report.serial_elapsed == 50.0
        assert report.makespan == 50.0
        assert report.speedup == 1.0

    def test_independent_tasks_pack_onto_workers(self):
        clock = CriticalPathClock(2)
        for _ in range(4):
            clock.add_task((), 10.0)
        # 4 x 10 over 2 workers: two rounds of two.
        assert clock.makespan() == 20.0
        assert clock.report().speedup == 2.0

    def test_one_worker_is_serial_sum(self):
        clock = CriticalPathClock(1)
        clock.add_task((), 3.0)
        clock.add_task((), 4.0)
        clock.add_task((0, 1), 5.0)
        assert clock.makespan() == clock.serial_elapsed() == 12.0

    def test_diamond_critical_path(self):
        clock = CriticalPathClock(8)
        top = clock.add_task((), 1.0)
        fast = clock.add_task((top,), 1.0)
        slow = clock.add_task((top,), 10.0)
        clock.add_task((fast, slow), 1.0)
        # 1 + max(1, 10) + 1: the slow branch is the critical path.
        assert clock.makespan() == 12.0

    def test_forward_and_out_of_range_deps_ignored(self):
        clock = CriticalPathClock(2)
        task = clock.add_task((5, -1), 2.0)  # no such tasks yet
        assert task == 0
        assert clock.makespan() == 2.0

    def test_makespan_never_beats_work_bound(self):
        clock = CriticalPathClock(3)
        for i in range(10):
            deps = (i - 1,) if i % 3 == 0 and i else ()
            clock.add_task(deps, float(i + 1))
        report = clock.report()
        assert report.makespan >= report.serial_elapsed / 3
        assert report.makespan <= report.serial_elapsed
