"""Fault injection and retry: determinism, backoff, accounting."""

import pytest

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    BufferPool,
    DEFAULT_RETRY_POLICY,
    FaultInjector,
    HeapFile,
    IOStats,
    PageId,
    RetryPolicy,
    read_with_retry,
)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_delay=100.0, max_delay=2000.0)
        assert policy.delay_for(0) == 100.0
        assert policy.delay_for(1) == 200.0
        assert policy.delay_for(2) == 400.0

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay=100.0, max_delay=350.0)
        assert policy.delay_for(5) == 350.0

    def test_default_policy_sane(self):
        assert DEFAULT_RETRY_POLICY.max_attempts >= 2
        assert DEFAULT_RETRY_POLICY.base_delay > 0


class TestFaultInjectorTargeted:
    def test_transient_page_heals_after_k_failures(self):
        injector = FaultInjector()
        page = PageId(1, 0)
        injector.fail_page(page, times=2)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                injector.before_read(page)
        injector.before_read(page)  # healed
        assert injector.transient_injected == 2

    def test_permanent_page_never_heals(self):
        injector = FaultInjector()
        page = PageId(1, 3)
        injector.fail_page(page, permanent=True)
        for _ in range(5):
            with pytest.raises(PermanentStorageError):
                injector.before_read(page)
        assert injector.permanent_injected == 5

    def test_fail_file_poisons_every_page(self):
        injector = FaultInjector()
        injector.fail_file(7)
        for page_no in range(4):
            with pytest.raises(PermanentStorageError):
                injector.before_read(PageId(7, page_no))
        injector.before_read(PageId(8, 0))  # other files unaffected

    def test_heal_clears_everything(self):
        injector = FaultInjector()
        injector.fail_page(PageId(1, 0), times=5)
        injector.fail_file(2)
        injector.heal()
        injector.before_read(PageId(1, 0))
        injector.before_read(PageId(2, 0))

    def test_bad_rates_rejected(self):
        with pytest.raises(StorageError):
            FaultInjector(transient_rate=1.5)
        with pytest.raises(StorageError):
            FaultInjector(transient_failures=0)


class TestFaultInjectorSeeded:
    def _fault_map(self, seed, rate, pages=200):
        injector = FaultInjector(seed=seed, transient_rate=rate)
        hit = set()
        for page_no in range(pages):
            page = PageId(1, page_no)
            try:
                injector.before_read(page)
            except TransientStorageError:
                hit.add(page_no)
        return hit

    def test_same_seed_same_faults(self):
        assert self._fault_map(7, 0.2) == self._fault_map(7, 0.2)

    def test_different_seed_different_faults(self):
        assert self._fault_map(7, 0.2) != self._fault_map(8, 0.2)

    def test_rate_roughly_respected(self):
        hit = self._fault_map(3, 0.25, pages=400)
        assert 0.10 < len(hit) / 400 < 0.45

    def test_zero_rate_never_faults(self):
        assert self._fault_map(1, 0.0) == set()


class TestReadWithRetry:
    def test_transient_fault_retried_and_charged(self):
        injector = FaultInjector()
        page = PageId(1, 0)
        injector.fail_page(page, times=2)
        pool = BufferPool(capacity_pages=4, injector=injector)
        stats = IOStats()
        read_with_retry(pool, page, stats)
        assert stats.page_reads == 1
        assert stats.retries == 2
        # Backoff follows the policy: first retry waits base, second 2x.
        policy = DEFAULT_RETRY_POLICY
        assert stats.retry_wait == policy.delay_for(0) + policy.delay_for(1)
        assert stats.elapsed() > 1000.0  # retry wait is on the clock

    def test_permanent_fault_not_retried(self):
        injector = FaultInjector()
        page = PageId(1, 0)
        injector.fail_page(page, permanent=True)
        pool = BufferPool(capacity_pages=4, injector=injector)
        stats = IOStats()
        with pytest.raises(PermanentStorageError):
            read_with_retry(pool, page, stats)
        assert stats.retries == 0

    def test_exhausted_attempts_raise_transient(self):
        injector = FaultInjector()
        page = PageId(1, 0)
        injector.fail_page(
            page, times=DEFAULT_RETRY_POLICY.max_attempts + 5
        )
        pool = BufferPool(capacity_pages=4, injector=injector)
        stats = IOStats()
        with pytest.raises(TransientStorageError):
            read_with_retry(pool, page, stats)
        assert stats.retries == DEFAULT_RETRY_POLICY.max_attempts - 1

    def test_guard_retry_budget_caps_total_retries(self):
        from repro.plans.guard import QueryGuard

        injector = FaultInjector()
        pool = BufferPool(capacity_pages=8, injector=injector)
        guard = QueryGuard(retry_budget=1)
        stats = IOStats()
        guard.restart(stats)
        page_a, page_b = PageId(1, 0), PageId(1, 1)
        injector.fail_page(page_a, times=1)
        injector.fail_page(page_b, times=1)
        read_with_retry(pool, page_a, stats, guard=guard)  # spends budget
        with pytest.raises(TransientStorageError):
            read_with_retry(pool, page_b, stats, guard=guard)

    def test_buffer_hits_never_fault(self):
        injector = FaultInjector()
        page = PageId(1, 0)
        pool = BufferPool(capacity_pages=4, injector=injector)
        stats = IOStats()
        pool.read(page, stats)  # clean miss, page now cached
        injector.fail_page(page, permanent=True)
        pool.read(page, stats)  # hit: no storage access, no fault
        assert stats.buffer_hits == 1


class TestHeapFileUnderFaults:
    def test_scan_retries_transient_pages(self):
        hf = HeapFile(1, ntuples=50_000, arity=2)
        injector = FaultInjector()
        injector.fail_page(PageId(1, 0), times=1)
        injector.fail_page(PageId(1, hf.n_pages - 1), times=1)
        pool = BufferPool(capacity_pages=hf.n_pages + 4, injector=injector)
        stats = IOStats()
        hf.scan(pool, stats)
        assert stats.page_reads == hf.n_pages
        assert stats.retries == 2

    def test_scan_propagates_permanent_fault(self):
        hf = HeapFile(1, ntuples=50_000, arity=2)
        injector = FaultInjector()
        injector.fail_page(PageId(1, 1), permanent=True)
        pool = BufferPool(capacity_pages=hf.n_pages + 4, injector=injector)
        with pytest.raises(PermanentStorageError):
            hf.scan(pool, IOStats())


class TestIOStatsRetryAccounting:
    def test_merged_with_sums_retries(self):
        a, b = IOStats(), IOStats()
        a.charge_retry(100.0)
        b.charge_retry(200.0)
        b.charge_retry(50.0)
        merged = a.merged_with(b)
        assert merged.retries == 3
        assert merged.retry_wait == 350.0

    def test_since_subtracts_retries(self):
        stats = IOStats()
        stats.charge_retry(100.0)
        snap = stats.snapshot()
        stats.charge_retry(75.0)
        delta = stats.since(snap)
        assert delta.retries == 1
        assert delta.retry_wait == 75.0

    def test_summary_mentions_retries_only_when_nonzero(self):
        stats = IOStats()
        assert "retries=" not in stats.summary()
        stats.charge_retry(10.0)
        assert "retries=1" in stats.summary()
