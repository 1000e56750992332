"""The discrete-event loop.

:class:`Simulator` owns the clock, the event heap, the GPS CPU pool and the
disk devices, and drives simulated threads (generators) by interpreting the
commands they yield.  The loop is fully deterministic: ties on the event heap
break by insertion order and nothing consults wall-clock time or unseeded
randomness.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, ClassVar, Generator

from repro.sim.commands import BLOCK, CpuCommand, IoCommand, SleepCommand
from repro.sim.cpu import CpuPool
from repro.sim.iodev import IoDevice
from repro.sim.machine import PAPER_MACHINE, MachineSpec
from repro.sim.metrics import Metrics
from repro.sim.task import SimThread, ThreadState


class DeadlockError(RuntimeError):
    """Raised when the event heap drains while non-daemon threads are still
    blocked -- in this codebase that always means an engine bug (a buffer
    that was never closed, a lock never released)."""


class SimulationError(RuntimeError):
    """An exception escaped a simulated thread that nobody was joining."""


class Simulator:
    """Event loop for one simulated run.

    Parameters
    ----------
    machine:
        Hardware configuration; defaults to the paper's 24-core testbed.
    """

    _active: ClassVar["Simulator | None"] = None

    def __init__(self, machine: MachineSpec = PAPER_MACHINE):
        self.machine = machine
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.cpu = CpuPool(
            machine.cores,
            machine.hz,
            oversub_penalty=machine.oversub_penalty,
            oversub_exponent=machine.oversub_exponent,
        )
        self.devices: dict[str, IoDevice] = {
            d.name: IoDevice(
                d.name,
                d.bandwidth,
                seek_penalty=d.seek_penalty,
                min_efficiency=d.min_efficiency,
                random_multiplier=d.random_multiplier,
            )
            for d in machine.disks
        }
        self.metrics = Metrics()
        self.current: SimThread | None = None
        self.threads: list[SimThread] = []
        self._daemons: set[SimThread] = set()
        self._pending_error: tuple[SimThread, BaseException] | None = None
        self._run_until: float | None = None
        # True while _resume may take its inline CPU branch: _dispatch not
        # wrapped on the instance (Tracer flips this).
        self._fast_resume = True
        # Cached metric-dict references (refreshed at run() entry: the
        # service tier swaps sim.metrics for an extended object after
        # construction) -- saves an attribute hop per dispatched command.
        self._by_category = self.metrics.cpu_cycles_by_category
        self._by_query = self.metrics.cpu_cycles_by_query
        Simulator._active = self

    # ------------------------------------------------------------------
    @classmethod
    def current_thread(cls) -> SimThread:
        """The thread currently being stepped (for join registration)."""
        sim = cls._active
        if sim is None or sim.current is None:
            raise RuntimeError("no simulated thread is running")
        return sim.current

    # ------------------------------------------------------------------
    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str,
        query_id: int | None = None,
        daemon: bool = False,
    ) -> SimThread:
        """Create a thread from generator ``gen`` and schedule its first step
        at the current simulated time."""
        thread = SimThread(gen, name, query_id=query_id)
        thread.state = ThreadState.READY
        thread.start_time = self.now
        self.threads.append(thread)
        if daemon:
            self._daemons.add(thread)
        # Resume events are (thread, value, 0) tuples interpreted by the run
        # loop -- no per-event closure allocation (see ``run``).
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, (thread, None, 0)))
        return thread

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at simulated time ``when``."""
        if when < self.now - 1e-12:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (max(when, self.now), self._seq, fn))

    def unblock(self, thread: SimThread, value: Any = None) -> bool:
        """Wake ``thread`` (previously parked on BLOCK).  Returns False if it
        was not blocked (e.g. already woken) -- callers that must wake exactly
        one thread should check."""
        if thread.state is not ThreadState.BLOCKED:
            return False
        thread.state = ThreadState.READY
        self._seq += 1
        heapq.heappush(self._heap, (self.now, self._seq, (thread, value, 0)))
        return True

    # ------------------------------------------------------------------
    def _resume(self, thread: SimThread, value: Any = None) -> None:
        if thread.state is not ThreadState.READY:
            # A stale wakeup (e.g. thread already finished); ignore.
            return
        prev = self.current
        self.current = thread
        try:
            cmd = thread.gen.send(value)
        except StopIteration as stop:
            self._finish(thread, result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must capture engine bugs
            self._finish(thread, error=exc)
            return
        finally:
            self.current = prev
        if type(cmd) is CpuCommand and self._fast_resume:
            # Inline copy of _dispatch's CPU branch -- every worker
            # yield funnels through here, so the extra call is measurable.
            # Keep in lockstep with _dispatch.  Skipped whenever _dispatch
            # is wrapped on the instance (e.g. an attached Tracer), so
            # hooks keep seeing every command.
            cycles = cmd.cycles
            category = cmd.category
            self._by_category[category] += cycles
            self._by_query[(thread.query_id, category)] += cycles
            rest = cmd.rest
            if cycles <= 0 and not rest:
                thread.state = ThreadState.READY
                self._seq += 1
                heapq.heappush(self._heap, (self.now, self._seq, (thread, None, 0)))
                return
            thread.state = ThreadState.ON_CPU
            pool = self.cpu
            now = self.now
            waker = thread._waker
            if waker is None:
                waker = self._make_waker(thread)
            pheap = pool._heap
            rates = pool._rates
            dt = now - pool._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = pool._rate_for(n)
                    pool.service += r * dt
                    pool.util_integral += min(n, pool.cores) * dt
                    pool.busy_time += dt
                pool._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards: {pool._last_update} -> {now}")
            service = pool.service
            pool._seq += 1
            heapq.heappush(
                pheap,
                (service + (cycles if cycles > 0.0 else 0.0), pool._seq, thread, waker, rest),
            )
            pool._version += 1
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = pool._rate_for(n)
            when = now + (remaining if remaining > 0.0 else 0.0) / rate
            pool.fresh_when = when
            pool.fresh_version = pool._version
            armed = pool.armed_when
            if armed is None or when < armed:
                # Strict <: an event already armed at exactly `when` fires
                # at the same instant -- re-pushing would just stale it and
                # cost an extra heap round-trip per command.
                self._push_pool_event(pool, when)
            return
        self._dispatch(thread, cmd)

    def _finish(self, thread: SimThread, result: Any = None, error: BaseException | None = None) -> None:
        thread.result = result
        thread.error = error
        thread.state = ThreadState.FAILED if error else ThreadState.DONE
        thread.finish_time = self.now
        self._daemons.discard(thread)
        joiners, thread._joiners = thread._joiners, []
        for j in joiners:
            self.unblock(j)
        if error is not None and not joiners:
            # Nobody will observe the failure through join(): abort the run.
            if self._pending_error is None:
                self._pending_error = (thread, error)

    def _dispatch(self, thread: SimThread, cmd: Any) -> None:
        # type-is instead of isinstance: the command classes are final by
        # design and this check runs once per yielded command.
        cmd_type = type(cmd)
        if cmd_type is CpuCommand:
            cycles = cmd.cycles
            category = cmd.category
            # charge_cpu inlined (one dispatch per yielded command).
            self._by_category[category] += cycles
            self._by_query[(thread.query_id, category)] += cycles
            rest = cmd.rest
            if cycles <= 0 and not rest:
                thread.state = ThreadState.READY
                self._seq += 1
                heapq.heappush(self._heap, (self.now, self._seq, (thread, None, 0)))
                return
            thread.state = ThreadState.ON_CPU
            pool = self.cpu
            # Inline CpuPool.add + next_completion + the single-live-event
            # arm: one advance, one push, and the post-add completion
            # estimate with the exact arithmetic of next_completion (the
            # second advance would be a dt=0 no-op).
            now = self.now
            waker = thread._waker
            if waker is None:
                waker = self._make_waker(thread)
            pheap = pool._heap
            rates = pool._rates
            dt = now - pool._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = pool._rate_for(n)
                    pool.service += r * dt
                    pool.util_integral += min(n, pool.cores) * dt
                    pool.busy_time += dt
                pool._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards: {pool._last_update} -> {now}")
            service = pool.service
            pool._seq += 1
            heapq.heappush(
                pheap,
                (service + (cycles if cycles > 0.0 else 0.0), pool._seq, thread, waker, rest),
            )
            pool._version += 1
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = pool._rate_for(n)
            when = now + (remaining if remaining > 0.0 else 0.0) / rate
            pool.fresh_when = when
            pool.fresh_version = pool._version
            armed = pool.armed_when
            if armed is None or when < armed:
                self._push_pool_event(pool, when)
        elif cmd_type is IoCommand:
            device = self.devices.get(cmd.device)
            if device is None:
                raise SimulationError(f"unknown device {cmd.device!r} (thread {thread.name})")
            nbytes = cmd.nbytes
            if nbytes <= 0:
                thread.state = ThreadState.READY
                self._seq += 1
                heapq.heappush(self._heap, (self.now, self._seq, (thread, None, 0)))
                return
            thread.state = ThreadState.ON_IO
            # Mirror of the CPU branch for the shared-bandwidth device.
            now = self.now
            waker = thread._waker
            if waker is None:
                waker = self._make_waker(thread)
            pheap = device._heap
            rates = device._rates
            dt = now - device._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = device._rate_for(n)
                    device.service += r * dt
                    device.busy_time += dt
                device._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards on {device.name}")
            charged = nbytes if nbytes > 0.0 else 0.0
            device.bytes_delivered += charged
            if not cmd.sequential:
                charged *= device.random_multiplier
            service = device.service
            device._seq += 1
            heapq.heappush(pheap, (service + charged, device._seq, thread, waker, ()))
            device._version += 1
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = device._rate_for(n)
            when = now + (remaining if remaining > 0.0 else 0.0) / rate
            device.fresh_when = when
            device.fresh_version = device._version
            armed = device.armed_when
            if armed is None or when < armed:
                self._push_pool_event(device, when)
        elif cmd_type is SleepCommand:
            thread.state = ThreadState.SLEEPING

            def wake() -> None:
                if thread.state is ThreadState.SLEEPING:
                    thread.state = ThreadState.READY
                    self._resume(thread)

            self.call_at(self.now + max(cmd.delay, 0.0), wake)
        elif cmd is BLOCK:
            thread.state = ThreadState.BLOCKED
        else:
            raise SimulationError(
                f"thread {thread.name!r} yielded {cmd!r}; did you forget 'yield from'?"
            )

    def _make_waker(self, thread: SimThread) -> Callable[[], None]:
        """The thread's pool-completion callback.  It is stateless (closes
        only over the thread and the simulator), so it is built once per
        thread and cached on it."""

        def wake() -> None:
            thread.state = ThreadState.READY
            self._resume(thread)

        thread._waker = wake
        return wake

    def _push_pool_event(self, pool: CpuPool | IoDevice, when: float) -> None:
        """Push the pool's single live completion event.

        Each pool keeps at most ONE live event on the heap.  Every
        membership change computes the pool's next completion with the
        exact arithmetic of ``next_completion`` and records it as the
        pool's *fresh* estimate, but only pushes when the new estimate is
        earlier than the live event -- a later estimate means the live,
        earlier event fires first and *chases* the fresh estimate by
        re-pushing itself at it.  Chasing re-materializes the recorded
        event time (never recomputes it at fire time, which would change
        the float), so pools advance and pop at exactly the instants a
        one-event-per-membership-change scheme would; the elided events
        are that scheme's stale no-ops, whose times are provably earlier
        than the member's actual pop time (entries leave a
        cumulative-service pool in target order, so an estimate can only
        move *later*), hence unobservable.

        Events are ``(pool, token)`` tuples interpreted by the run loop
        (no per-event closure); ``when`` is always >= ``self.now`` here."""
        token = pool.arm_token + 1
        pool.arm_token = token
        pool.armed_when = when
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, (pool, token)))

    def _service_pool(self, pool: CpuPool | IoDevice) -> None:
        """Pool servicing: ``pop_completed``, the fused-part
        continuations, ``next_completion`` and the re-arm, all inlined.

        Servicing a pool is *the* hot loop of a simulated run -- every CPU
        charge and every disk read funnels through here -- so it flattens
        what is otherwise ~10 Python calls per completion into a single
        frame.  Every float operation is kept literally identical to the
        pool method it inlines (``advance``'s service/utilization updates,
        ``pop_completed``'s epsilon test, ``_part_continuation``'s
        charge-and-re-add, ``next_completion``'s remaining/rate division),
        so the pools' own API (unit-tested directly) and the simulator agree
        bit for bit.

        Structure per round: (1) advance the pool to ``self.now``; (2)
        two-phase pop -- collect *all* due entries first, then process them
        in completion order (an entry with remaining fused parts charges
        the next part and re-enters the pool; re-entries become due in a
        later round, exactly as ``pop_completed`` batches them); (3) if
        the pool's next completion is strictly earlier than every pending
        heap event (and inside the run window), jump the clock there and
        continue inline; otherwise arm the pool's single live event and
        return.  Ties defer to the heap, whose event holds the older seq."""
        now = self.now
        heap = self._heap
        pheap = pool._heap
        rates = pool._rates
        rate_for = pool._rate_for
        until = self._run_until
        is_cpu = pool is self.cpu
        cores = self.cpu.cores
        by_category = self._by_category
        by_query = self._by_query
        heappush = heapq.heappush
        heappop = heapq.heappop
        resume = self._resume
        ready = ThreadState.READY
        while True:
            # ---- inline pool.advance(now) ----
            dt = now - pool._last_update
            if dt > 0:
                n = len(pheap)
                if n:
                    try:
                        r = rates[n]
                    except IndexError:
                        r = rate_for(n)
                    pool.service += r * dt
                    if is_cpu:
                        pool.util_integral += min(n, cores) * dt
                    pool.busy_time += dt
                pool._last_update = now
            elif dt < 0:
                raise AssertionError(f"time went backwards: {pool._last_update} -> {now}")
            # ---- inline pool.pop_completed(now): two-phase batch pop ----
            service = pool.service
            mag = abs(service)
            limit = service + 1e-9 * (mag if mag > 1.0 else 1.0)
            if not pheap or pheap[0][0] > limit:
                # Float round-off left the top element a hair short; nudge.
                when = now + 1e-9
                pool.fresh_when = when
                pool.fresh_version = pool._version
                armed = pool.armed_when
                if armed is None or when < armed:
                    self._push_pool_event(pool, when)
                return
            e = heappop(pheap)
            pool._version += 1
            if pheap and pheap[0][0] <= limit:
                due = [e]
                while pheap and pheap[0][0] <= limit:
                    due.append(heappop(pheap))
                for e in due:
                    rest = e[4]
                    if rest:
                        # Next part of a fused charge: meter it and re-enter
                        # the pool at this instant (CpuPool._part_continuation).
                        thread = e[2]
                        cycles, category = rest[0]
                        by_category[category] += cycles
                        by_query[(thread.query_id, category)] += cycles
                        pool._seq += 1
                        heappush(
                            pheap,
                            (service + (cycles if cycles > 0.0 else 0.0), pool._seq, thread, e[3], rest[1:]),
                        )
                        pool._version += 1
                    else:
                        # Devirtualized waker: the cached completion callback
                        # just flips the thread READY and resumes it.
                        on_done = e[3]
                        thread = e[2]
                        if on_done is thread._waker:
                            thread.state = ready
                            resume(thread)
                        else:
                            on_done()
            else:
                # Single due entry -- the overwhelmingly common case.
                rest = e[4]
                if rest:
                    thread = e[2]
                    cycles, category = rest[0]
                    by_category[category] += cycles
                    by_query[(thread.query_id, category)] += cycles
                    pool._seq += 1
                    heappush(
                        pheap,
                        (service + (cycles if cycles > 0.0 else 0.0), pool._seq, thread, e[3], rest[1:]),
                    )
                    pool._version += 1
                else:
                    on_done = e[3]
                    thread = e[2]
                    if on_done is thread._waker:
                        thread.state = ready
                        resume(thread)
                    else:
                        on_done()
            # ---- inline pool.next_completion(now) + cascade decision ----
            if not pheap:
                return
            remaining = pheap[0][0] - service
            n = len(pheap)
            try:
                rate = rates[n]
            except IndexError:
                rate = rate_for(n)
            when = now + (remaining if remaining > 0.0 else 0.0) / rate
            if (
                (heap and when >= heap[0][0])
                or (until is not None and when > until)
                or self._pending_error is not None
            ):
                pool.fresh_when = when
                pool.fresh_version = pool._version
                armed = pool.armed_when
                if armed is None or when < armed:
                    token = pool.arm_token + 1
                    pool.arm_token = token
                    pool.armed_when = when
                    self._seq += 1
                    heappush(heap, (when, self._seq, (pool, token)))
                return
            now = when
            self.now = when

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains (or simulated time passes
        ``until``).  Returns the final simulated time.

        Raises
        ------
        SimulationError
            if an exception escaped a thread with no joiner.
        DeadlockError
            if non-daemon threads remain blocked with no pending events.
        """
        prev_active = Simulator._active
        Simulator._active = self
        self._run_until = until
        self._fast_resume = "_dispatch" not in self.__dict__
        self._by_category = self.metrics.cpu_cycles_by_category
        self._by_query = self.metrics.cpu_cycles_by_query
        # The event loop runs hundreds of thousands of iterations per
        # simulated second; hoist every per-iteration attribute lookup.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        service_pool = self._service_pool
        push_pool_event = self._push_pool_event
        resume = self._resume
        try:
            while heap:
                item = heappop(heap)
                when = item[0]
                if until is not None and when > until:
                    heappush(heap, item)  # keep it pending for a later run()
                    self.now = until
                    break
                self.now = when
                fn = item[2]
                if type(fn) is tuple:
                    if len(fn) == 2:
                        # A pool's live completion event: validate
                        # the token, chase a later fresh estimate, or service.
                        pool = fn[0]
                        if fn[1] == pool.arm_token:
                            pool.armed_when = None
                            if pool.fresh_version == pool._version:
                                fresh = pool.fresh_when
                                if fresh is not None and fresh > when:
                                    # Completion moved later after this event
                                    # was armed (members joined); chase the
                                    # recorded fresh estimate.
                                    push_pool_event(pool, fresh)
                                else:
                                    service_pool(pool)
                    else:
                        # A thread resume event: (thread, value, 0) -- the
                        # closure-free form of spawn/unblock scheduling.
                        resume(fn[0], fn[1])
                else:
                    fn()
                if self._pending_error is not None:
                    thread, error = self._pending_error
                    raise SimulationError(
                        f"unhandled exception in simulated thread {thread.name!r}"
                    ) from error
            else:
                self._check_deadlock()
            # Settle pool metric integrals at the final time.
            self.cpu.advance(self.now)
            for device in self.devices.values():
                device.advance(self.now)
            return self.now
        finally:
            Simulator._active = prev_active if prev_active is not None else self

    def _check_deadlock(self) -> None:
        stuck = [
            t
            for t in self.threads
            if t.alive and t not in self._daemons and t.state is ThreadState.BLOCKED
        ]
        if stuck:
            names = ", ".join(t.name for t in stuck[:12])
            raise DeadlockError(
                f"{len(stuck)} non-daemon thread(s) blocked with no pending events: {names}"
            )

    # ------------------------------------------------------------------
    @property
    def disk(self) -> IoDevice:
        """The primary disk device."""
        return self.devices[self.machine.primary_disk.name]

    def avg_cores_used(self, window: float | None = None) -> float:
        """Average busy cores over ``window`` (default: the busy period)."""
        w = window if window is not None else self.cpu.busy_time
        return self.cpu.avg_cores_used(w) if w else 0.0

    def avg_read_mb_per_s(self, window: float | None = None) -> float:
        """Average delivered disk read rate in MB/s over ``window``
        (default: the device's busy period)."""
        dev = self.disk
        w = window if window is not None else dev.busy_time
        return dev.avg_read_rate(w) / (1 << 20) if w else 0.0
