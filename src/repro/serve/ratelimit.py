"""Token-bucket rate limiting, per tenant.

Global load shedding (``max_inflight``) protects the *process*; it is
blind to who is sending the traffic, so one hot client can starve
everyone into 503s.  This module makes overload control *fair*: each
tenant (the ``X-Repro-Tenant`` request header, or ``"default"``) gets
its own token bucket, so a tenant that exhausts its budget gets 429 +
``Retry-After`` while every other tenant keeps being served.

The bucket is the classic shape: capacity ``burst`` tokens, refilled
continuously at ``rate`` tokens/second from a monotonic clock, each
request (or batch item) costing one token.  Properties the test suite
pins down:

- grants in any window never exceed ``burst + rate * window``;
- refill is monotonic — a clock that stalls (or a caller passing
  non-increasing timestamps) never mints tokens;
- tenants are isolated — a charge only ever spends its own tenant's
  bucket.

The buckets live in an anonymous mmap (:class:`SharedTenantLimiter`).
A single-process server charges it from its handler threads; in the
multi-process serving tier the cluster builds it before forking, so
every worker charges the *same* slot table under one cross-process
lock and ``--rate-limit 100`` means 100 qps per tenant across the
whole cluster — not ``workers x rate``.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import multiprocessing
import struct
import time
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["RateDecision", "SharedTenantLimiter"]


@dataclass(frozen=True, slots=True)
class RateDecision:
    """The limiter's verdict on one request."""

    allowed: bool
    retry_after: float  # seconds until the charge could succeed (0 if allowed)
    tenant: str
    remaining: float  # tokens left after the charge (or the refusal)


#: Slot count of the table, and so the tenant bound: an attacker
#: spraying random tenant headers must not grow memory without bound.
#: 4096 tenants x 40 bytes = 160 KiB.
DEFAULT_SHARED_SLOTS = 4096

#: How far open addressing probes before evicting.  A bounded window
#: keeps the charge path O(1) under any load; collisions beyond it fall
#: back to evicting the stalest slot in the window, which only ever
#: resets a tenant that stopped charging.
_PROBE_WINDOW = 8

#: One slot: 16-byte tenant digest, then tokens / last-refill /
#: last-charge as little-endian doubles.
_SLOT = struct.Struct("<16s3d")

_EMPTY_DIGEST = b"\x00" * 16


class SharedTenantLimiter:
    """Per-tenant token buckets in one table that forked workers share.

    The bucket state lives in an anonymous ``mmap``.  A single-process
    server charges it from its handler threads; the serving cluster
    creates it *before* the workers fork, so every process charges the
    same table and the per-tenant budget is enforced across the whole
    cluster instead of per worker.  A ``multiprocessing.Lock``
    serializes charges — one tiny critical section (a probe over at
    most ``_PROBE_WINDOW`` fixed-size slots) per request.  The lock is
    taken from the default start method's context, so it exists on a
    platform without ``fork`` too, and a forked worker inherits the
    same semaphore.

    Tenants hash to slots via open addressing with a bounded probe
    window; when the window is full, the slot whose tenant charged
    longest ago is evicted (least-recently-*charged*).  Distinct
    tenants that collide and evict each other only ever *reset* a
    bucket to full — the budget ceiling per surviving tenant still
    holds.  Sharing needs the ``fork`` start method: a spawned process
    would get a *copy* of the table, silently restoring shared-nothing
    behavior.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        *,
        slots: int = DEFAULT_SHARED_SLOTS,
        clock=time.monotonic,
    ) -> None:
        if slots < 1:
            raise ReproError(f"slots must be >= 1, got {slots}")
        if not (rate > 0) or not math.isfinite(rate):
            raise ReproError(
                f"rate must be a finite positive number, got {rate}"
            )
        # Default burst: one second's budget, but never below a single
        # token — a sub-1/s rate still needs a grantable bucket.
        resolved_burst = max(1.0, math.ceil(rate)) if burst is None else burst
        if not (resolved_burst >= 1) or not math.isfinite(resolved_burst):
            raise ReproError(f"burst must be >= 1, got {resolved_burst}")
        self.rate = float(rate)
        self.burst = float(resolved_burst)
        self._slots = int(slots)
        self._clock = clock
        self._table = mmap.mmap(-1, self._slots * _SLOT.size)
        self._lock = multiprocessing.Lock()

    @staticmethod
    def _digest(tenant: str) -> bytes:
        digest = hashlib.blake2b(
            tenant.encode("utf-8"), digest_size=16
        ).digest()
        if digest == _EMPTY_DIGEST:  # pragma: no cover - 2^-128 event
            digest = b"\x01" + digest[1:]
        return digest

    def _locate(self, digest: bytes) -> int:
        """Row for ``digest``: its slot, else an empty one, else the
        stalest in the probe window (caller holds the lock)."""
        base = int.from_bytes(digest[:8], "little") % self._slots
        empty_row = -1
        stalest_row = base
        stalest_charge = math.inf
        for step in range(min(_PROBE_WINDOW, self._slots)):
            row = (base + step) % self._slots
            offset = row * _SLOT.size
            slot_digest = bytes(self._table[offset:offset + 16])
            if slot_digest == digest:
                return row
            if slot_digest == _EMPTY_DIGEST:
                if empty_row < 0:
                    empty_row = row
                continue
            (last_charge,) = struct.unpack_from(
                "<d", self._table, offset + 16 + 16
            )
            if last_charge < stalest_charge:
                stalest_charge = last_charge
                stalest_row = row
        return empty_row if empty_row >= 0 else stalest_row

    def check(self, tenant: str, cost: float = 1.0) -> RateDecision:
        """Charge ``cost`` tokens to ``tenant`` and report the verdict."""
        if cost <= 0:
            raise ReproError(f"cost must be > 0, got {cost}")
        digest = self._digest(tenant)
        now = self._clock()
        with self._lock:
            offset = self._locate(digest) * _SLOT.size
            slot_digest, tokens, updated, _ = _SLOT.unpack_from(
                self._table, offset
            )
            if slot_digest == digest:
                # Monotonic refill: a stalled or rewinding clock (or a
                # charge racing in from another worker) mints nothing.
                tokens = min(
                    self.burst, tokens + max(0.0, now - updated) * self.rate
                )
            else:
                tokens = self.burst  # fresh (or evicted) slot starts full
            if tokens >= cost:
                allowed, retry_after = True, 0.0
                tokens -= cost
            else:
                allowed, retry_after = False, (cost - tokens) / self.rate
            _SLOT.pack_into(self._table, offset, digest, tokens, now, now)
        return RateDecision(
            allowed=allowed,
            retry_after=retry_after,
            tenant=tenant,
            remaining=tokens,
        )

    def grantable(self, cost: float) -> bool:
        """Whether ``cost`` fits any tenant's burst at all."""
        return cost <= self.burst

    @property
    def tenant_count(self) -> int:
        """Distinct tenants currently holding a slot (cluster-wide)."""
        with self._lock:
            return sum(
                1
                for row in range(self._slots)
                if bytes(
                    self._table[row * _SLOT.size:row * _SLOT.size + 16]
                ) != _EMPTY_DIGEST
            )

    def close(self) -> None:
        """Release the shared table (master-side; workers just exit)."""
        self._table.close()
