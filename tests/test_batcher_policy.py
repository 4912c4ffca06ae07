"""Work-conserving ``Batcher`` policy, driven by a fake ``execute``.

No shards and no sleeps: the fake holds every batch it receives until
the test releases it, and the tests only yield to the event loop
(``asyncio.sleep(0)``) or await events, so each assertion is about the
collection policy alone.  A ``max_wait_ms`` of 60 s stands for "never"
-- any test that waited it out would trip the hang guard instead.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.runtime import BatchPolicy
from repro.serve.service import Batcher, ServiceStats, _Pending

FOREVER_MS = 60_000.0
HANG_GUARD_S = 10.0


class _Request:
    def __init__(self, ident: int):
        self.ident = ident

    def wire_item(self) -> int:
        return self.ident


class FakeExecute:
    """Records each dispatched batch and holds it until released."""

    def __init__(self, hold: bool = True):
        self.batches: list[list[int]] = []
        self.gates: list[asyncio.Event] = []
        self.hold = hold
        self._changed = asyncio.Event()

    async def __call__(self, items):
        gate = asyncio.Event()
        if not self.hold:
            gate.set()
        self.batches.append(list(items))
        self.gates.append(gate)
        self._changed.set()
        await gate.wait()
        return [SimpleNamespace(item=item) for item in items]

    async def wait_for_batches(self, count: int) -> None:
        async def _wait() -> None:
            while len(self.batches) < count:
                self._changed.clear()
                await self._changed.wait()

        await asyncio.wait_for(_wait(), HANG_GUARD_S)

    def release(self, index: int | None = None) -> None:
        for gate in self.gates if index is None else [self.gates[index]]:
            gate.set()


class Harness:
    def __init__(self, max_batch: int, max_wait_ms: float, hold: bool = True):
        self.execute = FakeExecute(hold=hold)
        self.batcher = Batcher(
            ("fake", "default"),
            BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms),
            self.execute,
            ServiceStats(),
        )
        self.batcher.start()
        self.pending: list[_Pending] = []

    def put(self, *idents: int) -> None:
        loop = asyncio.get_running_loop()
        for ident in idents:
            pending = _Pending(
                request=_Request(ident),
                future=loop.create_future(),
                admitted_at=loop.time(),
            )
            self.pending.append(pending)
            self.batcher.put(pending)

    async def results(self) -> list[int]:
        outcomes = await asyncio.wait_for(
            asyncio.gather(*(p.future for p in self.pending)), HANG_GUARD_S
        )
        return [outcome.item for outcome in outcomes]

    async def close(self) -> None:
        self.execute.hold = False
        self.execute.release()
        await asyncio.wait_for(self.batcher.close(), HANG_GUARD_S)


async def settle(turns: int = 20) -> None:
    """Let every ready callback run (no wall-clock wait)."""
    for _ in range(turns):
        await asyncio.sleep(0)


def chunks(items: list[int], size: int) -> list[list[int]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


MAX_BATCH = pytest.mark.parametrize("max_batch", [1, 4, 16])


@MAX_BATCH
def test_lone_request_on_idle_batcher_dispatches_at_once(max_batch):
    async def drive():
        harness = Harness(max_batch, FOREVER_MS, hold=False)
        harness.put(0)
        assert await harness.results() == [0]
        assert harness.execute.batches == [[0]]
        await harness.close()

    asyncio.run(drive())


@MAX_BATCH
def test_arrivals_during_flight_coalesce_when_it_completes(max_batch):
    async def drive():
        harness = Harness(max_batch, FOREVER_MS)
        harness.put(0)
        await harness.execute.wait_for_batches(1)
        late = [1, 2, 3]
        harness.put(*late)
        await settle()
        # Full batches never wait; the undersized remainder waits for
        # the in-flight batch, not for the (endless) window.
        full = [c for c in chunks(late, max_batch) if len(c) == max_batch]
        assert harness.execute.batches == [[0]] + full
        harness.execute.release(0)
        expected = [[0]] + chunks(late, max_batch)
        await harness.execute.wait_for_batches(len(expected))
        assert harness.execute.batches == expected
        harness.execute.release()
        assert await harness.results() == [0, *late]
        await harness.close()

    asyncio.run(drive())


@MAX_BATCH
def test_max_batch_cuts_a_batch(max_batch):
    async def drive():
        harness = Harness(max_batch, FOREVER_MS)
        items = list(range(2 * max_batch + 1))
        harness.put(*items)  # all queued before the batcher first runs
        await settle()
        expected = chunks(items, max_batch)
        full = [c for c in expected if len(c) == max_batch]
        assert harness.execute.batches == full
        harness.execute.release()
        await harness.execute.wait_for_batches(len(expected))
        assert harness.execute.batches == expected
        harness.execute.release()
        assert await harness.results() == items
        await harness.close()

    asyncio.run(drive())


@MAX_BATCH
def test_max_wait_bounds_the_wait_behind_a_stuck_batch(max_batch):
    async def drive():
        harness = Harness(max_batch, max_wait_ms=20.0)
        harness.put(0)
        await harness.execute.wait_for_batches(1)
        harness.put(1)
        # Batch [0] is never released here: only the window can send [1].
        await harness.execute.wait_for_batches(2)
        assert harness.execute.batches == [[0], [1]]
        await harness.close()
        assert await harness.results() == [0, 1]

    asyncio.run(drive())


@MAX_BATCH
def test_shutdown_sentinel_mid_wait(max_batch):
    async def drive():
        harness = Harness(max_batch, FOREVER_MS)
        harness.put(0)
        await harness.execute.wait_for_batches(1)
        harness.put(1)
        await settle()
        closing = asyncio.ensure_future(harness.batcher.close())
        # The sentinel ends the wait: [1] dispatches without [0] finishing.
        await harness.execute.wait_for_batches(2)
        assert harness.execute.batches == [[0], [1]]
        assert not closing.done()  # close() drains in-flight batches
        harness.execute.release()
        await asyncio.wait_for(closing, HANG_GUARD_S)
        assert await harness.results() == [0, 1]

    asyncio.run(drive())


@MAX_BATCH
@pytest.mark.parametrize("put_first", [True, False])
@pytest.mark.parametrize("turns_between", [0, 1, 2, 3, 5])
def test_item_arriving_as_flight_completes_is_never_dropped(
    max_batch, put_first, turns_between
):
    """Races the pending ``queue.get()`` against a dispatch completing:
    however the two land, the cancelled getter must not eat the item."""

    async def drive():
        harness = Harness(max_batch, FOREVER_MS)
        harness.put(0)
        await harness.execute.wait_for_batches(1)
        harness.put(1)  # opens a batch that waits on the in-flight [0]
        await settle()
        first, second = (
            (lambda: harness.put(2), lambda: harness.execute.release(0))
            if put_first
            else (lambda: harness.execute.release(0), lambda: harness.put(2))
        )
        first()
        await settle(turns_between)
        second()
        await settle()
        harness.execute.hold = False
        harness.execute.release()
        assert await harness.results() == [0, 1, 2]
        dispatched = sorted(i for batch in harness.execute.batches for i in batch)
        assert dispatched == [0, 1, 2]
        await harness.close()

    asyncio.run(drive())
