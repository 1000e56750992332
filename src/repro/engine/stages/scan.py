"""The table-scan stage.

With SP enabled this stage implements **circular scans** (shared scans with
a linear WoP): one scan driver per table serves every concurrent consumer.
A consumer joining mid-scan records its point of entry and is addressed
exactly ``num_pages`` pages -- the driver keeps wrapping until every
consumer has seen the full circle, then retires (the per-table position is
kept, so a later driver resumes where the last one stopped; this plays the
role of the paper's host-packet hand-off in Section 4.2).

Without SP, every scan packet gets a private driver reading the table
through the buffer pool independently -- N concurrent queries produce N
interleaved disk streams, which is exactly the I/O thrash circular scans
exist to avoid.

Disk-resident scans read ahead through a bounded prefetch channel (the OS
read-ahead the paper credits with masking CJOIN's preprocessor overhead);
direct I/O disables it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import CPU
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.storage.prefetch import PageSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import ScanNode
    from repro.query.star import Query
    from repro.storage.table import Table


class _ScanState:
    """Shared circular-scan state for one table."""

    __slots__ = ("packet", "exchange")

    def __init__(self, packet: Packet, exchange: Any):
        self.packet = packet
        self.exchange = exchange


class TableScanStage(Stage):
    """Scan stage with optional circular-scan sharing."""

    def __init__(self, engine: "QPipeEngine"):
        super().__init__(engine, "tablescan")
        self._states: dict[str, _ScanState] = {}
        self._positions: dict[str, int] = {}

    # ------------------------------------------------------------------
    def submit_scan(self, node: "ScanNode", query: "Query") -> Packet:
        """Admit a scan packet; returns the packet whose exchange consumers
        should read (with budget = the table's page count)."""
        self.packets_admitted += 1
        packet = self.make_packet(node, query)
        table = node.table
        if self.sp_enabled:
            state = self._states.get(table.name)
            live = state is not None and not state.exchange.closed
            if live and self._predicts_sharing(node, state):
                state.packet.attach_satellite(packet)
                self.packets_shared += 1
                self._record_sharing(packet)
                return packet
            packet.exchange = self.engine.new_exchange(f"scan.{table.name}.p{packet.packet_id}")
            if live:
                # Prediction model declined to share: evaluate privately in
                # parallel; the established host stays the sharing target.
                self._spawn_driver(packet, table, 0, shared=False)
            else:
                self._states[table.name] = _ScanState(packet, packet.exchange)
                start = self._positions.get(table.name, 0)
                self._spawn_driver(packet, table, start, shared=True)
        else:
            packet.exchange = self.engine.new_exchange(f"scan.{table.name}.p{packet.packet_id}")
            self._spawn_driver(packet, table, 0, shared=False)
        return packet

    def _predicts_sharing(self, node: "ScanNode", state: "_ScanState") -> bool:
        """With the push-based prediction model enabled, consult it before
        attaching; pull-based sharing always attaches (no serialization
        point, Section 4)."""
        config = self.engine.config
        if config.comm != "fifo" or not config.sp_prediction:
            return True
        from repro.engine.prediction import push_sharing_beneficial

        return push_sharing_beneficial(self.engine, node, len(state.packet.satellites))

    def _spawn_driver(self, packet: Packet, table: "Table", start: int, shared: bool) -> None:
        self.engine.sim.spawn(
            self._drive(packet, table, start, shared),
            name=f"scan-{table.name}-p{packet.packet_id}",
            query_id=None if shared else packet.query.query_id,
        )

    # ------------------------------------------------------------------
    def _drive(self, packet: Packet, table: "Table", start: int, shared: bool) -> Iterator[Any]:
        engine = self.engine
        cost = engine.cost
        exchange = packet.exchange
        yield CPU(cost.packet_dispatch, "misc")
        if table.num_pages == 0:
            exchange.close()
            packet.finished = True
            return
        source = PageSource(
            engine.sim, engine.storage, table, start, name=f"scan-{table.name}-p{packet.packet_id}"
        )
        try:
            while exchange.active_consumers > 0:
                page = yield from source.next()
                # Emit zero-copy column views of the page; consumers run
                # late-materialized.  The scan charge counts rows.
                scan_cmd = cost.scan(len(page), page.weight)
                if scan_cmd.cycles > 0:
                    # The per-page scan charge rides in front of the
                    # exchange's emit charge (nothing observable happens
                    # between the two yields).
                    yield from exchange.emit(page.to_batch(), lead=scan_cmd)
                else:
                    yield scan_cmd
                    yield from exchange.emit(page.to_batch())
                if shared:
                    self._positions[table.name] = source.position
        finally:
            exchange.close()
            packet.finished = True
            source.close()
            state = self._states.get(table.name)
            if shared and state is not None and state.packet is packet:
                del self._states[table.name]
