"""Token-bucket rate limiter: the properties the 429 path relies on.

The serving tier answers 429 + ``Retry-After`` from these buckets, so
their invariants are load-bearing:

- grants in any window never exceed ``burst + rate * elapsed``;
- refill is monotonic — a stalled or rewinding clock mints nothing;
- tenants are isolated, and eviction never resets an active tenant;
- under thread contention a full bucket grants *exactly* ``burst``;
- forked workers charge one shared budget.

Every test drives :class:`SharedTenantLimiter`, the one limiter both
the single-process server and the pre-fork cluster use.
"""

import multiprocessing
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.serve import RateDecision, SharedTenantLimiter
from repro.serve.ratelimit import DEFAULT_SHARED_SLOTS


def _frozen(rate, burst=None, **kwargs):
    """A limiter whose clock never moves (no refill between charges)."""
    return SharedTenantLimiter(rate, burst, clock=lambda: 0.0, **kwargs)


def _bucket(rate, burst):
    """One tenant's bucket, charged at the times the test sets."""
    clock_now = [0.0]
    limiter = SharedTenantLimiter(rate, burst, clock=lambda: clock_now[0])

    def acquire(cost=1.0, now=0.0):
        clock_now[0] = now
        decision = limiter.check("tenant", cost)
        return decision.allowed, decision.retry_after

    return limiter, acquire


class TestTokenBucket:
    """One tenant's bucket: capacity, refill and validation."""

    def test_starts_full_and_spends_down(self):
        _, acquire = _bucket(rate=1.0, burst=3.0)
        grants = [acquire(now=0.0)[0] for _ in range(4)]
        assert grants == [True, True, True, False]

    def test_retry_after_names_the_exact_deficit(self):
        _, acquire = _bucket(rate=2.0, burst=1.0)
        assert acquire(now=0.0) == (True, 0.0)
        granted, retry_after = acquire(now=0.0)
        assert not granted
        assert retry_after == pytest.approx(0.5)  # 1 token at 2/s
        # ...and waiting exactly that long makes the charge succeed.
        granted, _ = acquire(now=retry_after)
        assert granted

    def test_refill_caps_at_burst(self):
        _, acquire = _bucket(rate=100.0, burst=2.0)
        assert acquire(cost=2.0, now=0.0)[0]
        # A long idle stretch refills to burst, not beyond it.
        assert acquire(cost=2.0, now=1000.0)[0]
        assert not acquire(cost=1.0, now=1000.0)[0]

    def test_stalled_clock_mints_nothing(self):
        _, acquire = _bucket(rate=1000.0, burst=1.0)
        assert acquire(now=5.0)[0]
        for _ in range(100):
            assert not acquire(now=5.0)[0]

    def test_rewinding_clock_mints_nothing(self):
        _, acquire = _bucket(rate=1000.0, burst=1.0)
        assert acquire(now=5.0)[0]
        assert not acquire(now=4.0)[0]
        assert not acquire(now=0.0)[0]

    def test_cost_above_burst_is_never_grantable(self):
        limiter = _frozen(rate=10.0, burst=4.0)
        assert limiter.grantable(4.0)
        assert not limiter.grantable(4.5)

    @pytest.mark.parametrize("rate,burst", [
        (0.0, 1.0), (-1.0, 1.0), (float("inf"), 1.0),
        (1.0, 0.5), (1.0, float("nan")),
    ])
    def test_config_validation(self, rate, burst):
        with pytest.raises(ReproError):
            SharedTenantLimiter(rate, burst)

    def test_cost_validation(self):
        limiter = _frozen(1.0, 1.0)
        with pytest.raises(ReproError):
            limiter.check("tenant", cost=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=1000.0,
                       allow_nan=False, allow_infinity=False),
        burst=st.floats(min_value=1.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60,
        ),
    )
    def test_grants_never_exceed_burst_plus_refill(self, rate, burst, steps):
        """In any window, grants <= burst + rate * window (+ float slack)."""
        limiter, acquire = _bucket(rate, burst)
        now = 0.0
        granted = 0
        for gap in steps:
            now += gap
            if acquire(cost=1.0, now=now)[0]:
                granted += 1
        limiter.close()
        ceiling = burst + rate * now
        assert granted <= ceiling * (1 + 1e-9) + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=100.0,
                       allow_nan=False, allow_infinity=False),
        burst=st.integers(min_value=1, max_value=16),
        threads=st.integers(min_value=2, max_value=6),
    )
    def test_frozen_clock_race_grants_exactly_burst(self, rate, burst, threads):
        """Concurrent chargers of a full, frozen bucket win exactly burst."""
        limiter = _frozen(rate, float(burst))
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        def charge():
            barrier.wait()
            local = [limiter.check("tenant").allowed
                     for _ in range(burst)]
            with lock:
                outcomes.extend(local)

        pool = [threading.Thread(target=charge) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
            assert not thread.is_alive()
        limiter.close()
        assert sum(outcomes) == burst


class TestTenantRateLimiter:
    """The tenant table: isolation, eviction and its memory bound."""

    def test_tenants_are_isolated(self):
        limiter = _frozen(rate=1.0, burst=2.0)
        assert limiter.check("alice").allowed
        assert limiter.check("alice").allowed
        refused = limiter.check("alice")
        assert not refused.allowed
        assert refused.retry_after > 0
        # alice's exhaustion does not touch bob's budget
        assert limiter.check("bob").allowed

    def test_decision_carries_tenant_and_remaining(self):
        limiter = _frozen(rate=1.0, burst=3.0)
        decision = limiter.check("carol")
        assert isinstance(decision, RateDecision)
        assert decision.tenant == "carol"
        assert decision.remaining == pytest.approx(2.0)

    def test_default_burst_is_one_second_of_rate(self):
        assert SharedTenantLimiter(7.5).burst == 8.0
        assert SharedTenantLimiter(0.25).burst == 1.0  # floor: 1 token

    def test_lru_evicts_idle_not_active_tenants(self):
        # Two slots, both inside the probe window: a full table evicts
        # the tenant that charged longest ago.  Each charge ticks the
        # clock; the rate is too small to refill within the test.
        ticks = iter(range(100))
        limiter = SharedTenantLimiter(
            1e-9, 1.0, slots=2, clock=lambda: float(next(ticks))
        )
        assert limiter.check("hot").allowed       # hot spends its token
        limiter.check("idle-1")
        assert limiter.check("hot").allowed is False  # still charged
        limiter.check("idle-2")                   # evicts idle-1, not hot
        assert limiter.tenant_count == 2
        assert not limiter.check("hot").allowed   # budget survived eviction
        # idle-1 was evicted: it comes back with a fresh (full) bucket
        assert limiter.check("idle-1").allowed

    def test_spraying_tenants_is_memory_bounded(self):
        limiter = _frozen(rate=1.0)
        for index in range(2 * DEFAULT_SHARED_SLOTS):
            limiter.check(f"spray-{index}")
        assert limiter.tenant_count <= DEFAULT_SHARED_SLOTS
        limiter.close()

    def test_grantable_mirrors_burst(self):
        limiter = _frozen(rate=10.0, burst=5.0)
        assert limiter.grantable(5.0)
        assert not limiter.grantable(6.0)

    @settings(max_examples=50, deadline=None)
    @given(
        charges=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]),
                      st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=40,
        )
    )
    def test_per_tenant_ceiling_holds_under_interleaving(self, charges):
        """Interleaved tenants each obey their own grant ceiling."""
        clock_now = [0.0]
        limiter = SharedTenantLimiter(
            rate=2.0, burst=3.0, clock=lambda: clock_now[0]
        )
        granted: dict[str, int] = {}
        for tenant, gap in charges:
            clock_now[0] += gap
            if limiter.check(tenant).allowed:
                granted[tenant] = granted.get(tenant, 0) + 1
        limiter.close()
        ceiling = 3.0 + 2.0 * clock_now[0]
        for tenant, count in granted.items():
            assert count <= ceiling * (1 + 1e-9) + 1e-6


def _charge_in_child(limiter, tenant, attempts, counter):
    granted = sum(
        1 for _ in range(attempts) if limiter.check(tenant).allowed
    )
    with counter.get_lock():
        counter.value += granted


class TestSharedTenantLimiter:
    """The slot table in shared memory: one budget across processes —
    the regression a per-worker limiter had — and a lock that does not
    need ``fork`` to exist."""

    def test_matches_in_process_semantics(self, monkeypatch):
        """A platform without ``fork`` still gets a working limiter:
        the single-process server rate-limits where the cluster cannot
        run."""
        real_get_context = multiprocessing.get_context

        def get_context(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        limiter = _frozen(rate=1.0, burst=2.0)
        assert limiter.check("alice").allowed
        decision = limiter.check("alice")
        assert decision.allowed
        assert decision.remaining == pytest.approx(0.0)
        refused = limiter.check("alice")
        assert not refused.allowed
        assert refused.retry_after == pytest.approx(1.0)
        assert refused.tenant == "alice"
        # alice's exhaustion does not touch bob's budget
        assert limiter.check("bob").allowed
        assert limiter.tenant_count == 2
        limiter.close()

    def test_refill_is_monotonic_and_capped(self):
        clock_now = [0.0]
        limiter = SharedTenantLimiter(
            rate=2.0, burst=2.0, clock=lambda: clock_now[0]
        )
        assert limiter.check("t", cost=2.0).allowed
        # a rewinding clock mints nothing
        clock_now[0] = -5.0
        assert not limiter.check("t").allowed
        # a long idle stretch refills to burst, not beyond
        clock_now[0] = 1000.0
        assert limiter.check("t", cost=2.0).allowed
        assert not limiter.check("t").allowed
        limiter.close()

    def test_grantable_and_validation_mirror_token_bucket(self):
        limiter = _frozen(rate=10.0, burst=5.0)
        assert limiter.grantable(5.0)
        assert not limiter.grantable(6.0)
        with pytest.raises(ReproError):
            limiter.check("t", cost=0.0)
        limiter.close()
        with pytest.raises(ReproError):
            SharedTenantLimiter(rate=-1.0)
        with pytest.raises(ReproError):
            SharedTenantLimiter(rate=1.0, slots=0)

    def test_colliding_tenants_evict_stalest_not_active(self):
        # One slot forces every tenant into the same row: the tenant
        # charging now must never be the one reset by eviction.
        limiter = _frozen(rate=1.0, burst=1.0, slots=1)
        assert limiter.check("hot").allowed
        assert not limiter.check("hot").allowed  # still charged
        limiter.check("rival")  # evicts hot (the stalest), starts full
        assert limiter.check("hot").allowed  # hot re-enters with a
        assert not limiter.check("hot").allowed  # fresh, chargeable bucket
        limiter.close()

    def test_spraying_tenants_is_memory_bounded(self):
        limiter = _frozen(rate=1.0, slots=64)
        for index in range(1000):
            limiter.check(f"spray-{index}")
        assert limiter.tenant_count <= 64
        limiter.close()

    def test_forked_workers_share_one_cluster_budget(self):
        """Four forked chargers of one tenant win exactly ``burst``.

        This is the shared-nothing regression: per-worker limiters
        would grant ``workers x burst`` (32 here).  The fork-shared
        table must grant the configured burst once, cluster-wide.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires the fork start method")
        ctx = multiprocessing.get_context("fork")
        burst = 8
        # A near-zero rate freezes refill over the test's runtime, so
        # the grant total is exactly the burst.
        limiter = SharedTenantLimiter(rate=1e-9, burst=float(burst))
        counter = ctx.Value("i", 0)
        workers = [
            ctx.Process(
                target=_charge_in_child,
                args=(limiter, "tenant", burst, counter),
            )
            for _ in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert counter.value == burst
        # the parent observes the children's spend through the same table
        assert not limiter.check("tenant").allowed
        assert limiter.tenant_count == 1
        limiter.close()
