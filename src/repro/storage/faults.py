"""Deterministic fault injection and retry for the storage layer.

The paper's testbed assumes a disk that always answers; a production
MPF server cannot.  This module adds the two pieces the robustness
harness needs:

* :class:`FaultInjector` — a seeded, fully deterministic source of
  page-read faults.  A page can fail *transiently* (its first ``k``
  reads raise :class:`~repro.errors.TransientStorageError`, then it
  heals — a flaky sector, a timed-out request) or *permanently*
  (every read raises :class:`~repro.errors.PermanentStorageError` — a
  bad block).  Faults can be targeted at explicit pages/files or drawn
  at a seeded per-page rate, so a failing run is reproducible bit for
  bit.

* :class:`RetryPolicy` / :func:`read_with_retry` — the retry loop the
  runtime wraps around every page read: transient faults are retried
  with capped exponential backoff (simulated — the backoff is charged
  to the :class:`~repro.storage.iostats.IOStats` clock, never slept),
  permanent faults propagate immediately, and a
  :class:`~repro.plans.guard.QueryGuard`'s per-query retry budget caps
  the total retries one query may consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.iostats import IOStats
from repro.storage.page import PageId

__all__ = [
    "FaultInjector",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "read_with_retry",
    "InjectedCrash",
    "CrashInjector",
    "CRASH_POINTS",
]


class InjectedCrash(BaseException):
    """A simulated process kill from a :class:`CrashInjector`.

    Deliberately *not* an :class:`~repro.errors.MPFError` — not even an
    ``Exception`` — so that no recovery-oblivious ``except MPFError`` /
    ``except Exception`` handler (batch partial-failure, BP
    ``keep_going``, retry loops) can swallow it.  A crash takes the
    whole process, exactly like ``kill -9``; only the top-level test or
    CLI boundary catches it.
    """


# Every registered crash boundary, in rough lifecycle order.  The CI
# crash-recovery job sweeps this tuple, so adding a point here
# automatically adds it to the differential oracle.
CRASH_POINTS = (
    "wal.append",        # mid-record: a torn half-record hits the log
    "wal.flush",         # after the record is durable
    "checkpoint.begin",  # before any checkpoint bytes are written
    "checkpoint.pages",  # while page images are being emitted
    "checkpoint.commit", # tmp file written+synced, before the rename
    "batch.query",       # between queries of a batch
    "workload.step",     # between workload units (VE step / BP message / clique)
)


class CrashInjector:
    """Deterministically aborts execution at a chosen crash boundary.

    ``crash_point`` names one of :data:`CRASH_POINTS`; ``after`` skips
    that many occurrences first, so a crash can land mid-pass (e.g. the
    third checkpoint, the 200th workload step).  The injector fires at
    most once per instance and records per-point hit counts either way,
    which lets tests assert a boundary was actually exercised.
    """

    def __init__(self, crash_point: str | None = None, after: int = 0):
        if crash_point is not None and crash_point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {crash_point!r}; "
                f"registered points: {', '.join(CRASH_POINTS)}"
            )
        if after < 0:
            raise StorageError("crash 'after' count must be >= 0")
        self.crash_point = crash_point
        self.after = after
        self.fired = False
        self.counts: dict[str, int] = {}

    @classmethod
    def seeded(
        cls,
        seed: int,
        points: tuple[str, ...] = CRASH_POINTS,
        max_after: int = 3,
    ) -> "CrashInjector":
        """Pick a reproducible (point, after) pair from a seed."""
        rng = random.Random(seed)
        return cls(rng.choice(list(points)), rng.randrange(max_after))

    def _arm(self, point: str) -> bool:
        if point not in CRASH_POINTS:
            raise StorageError(f"unknown crash point {point!r}")
        seen = self.counts.get(point, 0)
        self.counts[point] = seen + 1
        return (
            not self.fired
            and point == self.crash_point
            and seen >= self.after
        )

    def _fire(self, point: str) -> None:
        self.fired = True
        raise InjectedCrash(
            f"injected crash at {point} (occurrence {self.counts[point]})"
        )

    def reach(self, point: str) -> None:
        """Mark a crash boundary; raises when armed for it."""
        if self._arm(point):
            self._fire(point)

    def reach_torn(self, point: str, torn_write) -> None:
        """Like :meth:`reach`, but run ``torn_write()`` before dying.

        The WAL uses this at ``wal.append``: the callback writes the
        first half of the record, simulating a kill mid-``write(2)`` —
        the torn tail recovery must detect and discard.
        """
        if self._arm(point):
            torn_write()
            self._fire(point)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient page faults.

    ``max_attempts`` bounds reads of one page (first try + retries);
    the ``n``-th retry waits ``min(base_delay * 2**n, max_delay)``
    cost units, charged to the stats clock as simulated wait.
    """

    max_attempts: int = 4
    base_delay: float = 100.0
    max_delay: float = 2000.0

    def delay_for(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return min(self.base_delay * (2.0 ** retry_index), self.max_delay)


DEFAULT_RETRY_POLICY = RetryPolicy()


class FaultInjector:
    """Seeded page-read fault source attached to a :class:`BufferPool`.

    Parameters
    ----------
    seed:
        Drives the per-page random draws; two injectors with the same
        seed and rates fault exactly the same pages.
    transient_rate:
        Probability that any given page is transiently faulty.
    permanent_rate:
        Probability that any given page is permanently unreadable.
        A page drawn for both is permanent.
    transient_failures:
        How many times a transiently faulty page fails before healing.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        transient_failures: int = 1,
    ):
        if not (0.0 <= transient_rate <= 1.0 and 0.0 <= permanent_rate <= 1.0):
            raise StorageError("fault rates must lie in [0, 1]")
        if transient_failures < 1:
            raise StorageError("transient_failures must be >= 1")
        self.seed = seed
        self.transient_rate = transient_rate
        self.permanent_rate = permanent_rate
        self.transient_failures = transient_failures
        self._forced_transient: dict[PageId, int] = {}
        self._forced_permanent_pages: set[PageId] = set()
        self._forced_permanent_files: set[int] = set()
        self._attempts: dict[PageId, int] = {}
        self.transient_injected = 0
        self.permanent_injected = 0

    # ------------------------------------------------------------------
    # Targeted faults
    # ------------------------------------------------------------------
    def fail_page(
        self, page: PageId, permanent: bool = False, times: int | None = None
    ) -> None:
        """Force a fault on one specific page."""
        if permanent:
            self._forced_permanent_pages.add(page)
        else:
            self._forced_transient[page] = (
                self.transient_failures if times is None else times
            )

    def fail_file(self, file_id: int) -> None:
        """Mark every page of a file permanently unreadable."""
        self._forced_permanent_files.add(file_id)

    def heal(self) -> None:
        """Clear all targeted faults and attempt history."""
        self._forced_transient.clear()
        self._forced_permanent_pages.clear()
        self._forced_permanent_files.clear()
        self._attempts.clear()

    # ------------------------------------------------------------------
    # The hook the buffer pool calls
    # ------------------------------------------------------------------
    def _drawn_fault(self, page: PageId) -> str | None:
        """Seeded per-page draw: 'permanent', 'transient', or None."""
        if self.permanent_rate == 0.0 and self.transient_rate == 0.0:
            return None
        mixed = (self.seed * 1_000_003 + page.file_id) * 1_000_003 + page.page_no
        rng = random.Random(mixed)
        roll = rng.random()
        if roll < self.permanent_rate:
            return "permanent"
        if roll < self.permanent_rate + self.transient_rate:
            return "transient"
        return None

    def before_read(self, page: PageId) -> None:
        """Raise the injected fault for this read attempt, if any."""
        if (
            page.file_id in self._forced_permanent_files
            or page in self._forced_permanent_pages
        ):
            self.permanent_injected += 1
            raise PermanentStorageError(
                f"permanent fault injected on page {page}"
            )
        drawn = self._drawn_fault(page)
        if drawn == "permanent":
            self.permanent_injected += 1
            raise PermanentStorageError(
                f"permanent fault injected on page {page}"
            )
        budget = self._forced_transient.get(page)
        if budget is None and drawn == "transient":
            budget = self.transient_failures
        if budget is not None:
            attempts = self._attempts.get(page, 0)
            self._attempts[page] = attempts + 1
            if attempts < budget:
                self.transient_injected += 1
                raise TransientStorageError(
                    f"transient fault injected on page {page} "
                    f"(attempt {attempts + 1}/{budget})"
                )


def read_with_retry(pool, page: PageId, stats: IOStats, guard=None) -> None:
    """Read one page through the pool, retrying transient faults.

    ``guard`` (duck-typed :class:`~repro.plans.guard.QueryGuard`) may
    supply the retry policy and a per-query retry budget; without one,
    :data:`DEFAULT_RETRY_POLICY` applies with no overall budget.
    Backoff is charged to ``stats`` as simulated wait, never slept.
    """
    policy = DEFAULT_RETRY_POLICY
    if guard is not None and guard.retry_policy is not None:
        policy = guard.retry_policy
    attempt = 0
    while True:
        try:
            pool.read(page, stats)
            return
        except TransientStorageError:
            attempt += 1
            if attempt >= policy.max_attempts:
                raise
            if guard is not None and not guard.consume_retry():
                raise
            stats.charge_retry(policy.delay_for(attempt - 1))
