"""AXI initiator NIU: five-channel AXI ↔ NoC packets.

The ID-based ordering model maps ARID/AWID onto the NoC Tag (paper §3:
"a careful assignment policy of these fields from the OCP or AXI ones
such as ThreadID and TID").  Reads and writes arbitrate round-robin for
the single packet-injection port.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, Transaction
from repro.niu.base import InitiatorNiu
from repro.niu.state_table import StateEntry
from repro.niu.tag_policy import TagPolicy
from repro.protocols.axi import (
    AxBurst,
    AxLock,
    AxiAR,
    AxiAW,
    AxiB,
    AxiR,
    xresp_from_status,
)
from repro.protocols.base import MasterSocket
from repro.sim.queue import SimQueue
from repro.transport.network import Fabric


def _burst_from_axburst(axburst: AxBurst, beats: int) -> BurstType:
    if axburst is AxBurst.WRAP:
        return BurstType.WRAP
    if axburst is AxBurst.FIXED:
        return BurstType.FIXED
    return BurstType.INCR if beats > 1 else BurstType.SINGLE


class AxiInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an AXI master socket."""

    protocol_name = "AXI"

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        endpoint: int,
        address_map: AddressMap,
        socket: MasterSocket,
        policy: Optional[TagPolicy] = None,
    ) -> None:
        if policy is None:
            policy = TagPolicy(
                ordering=OrderingModel.ID_BASED,
                tag_bits=4,
                max_outstanding=8,
                per_stream_outstanding=4,
                multi_target=True,
            )
        if policy.ordering is not OrderingModel.ID_BASED:
            raise ValueError("AXI NIU requires an ID-based policy")
        super().__init__(name, fabric, endpoint, address_map, policy)
        self._attach_socket(socket)
        self._ar = socket.req("ar")
        self._aw = socket.req("aw")
        self._r = socket.rsp("r")
        self._b = socket.rsp("b")
        self._prefer_read = True
        self._peeked_channel: Optional[SimQueue] = None

    # ------------------------------------------------------------------ #
    def _convert_ar(self, ar: AxiAR) -> Transaction:
        sideband = ar.txn
        return Transaction(
            opcode=Opcode.LOAD,
            address=ar.araddr,
            beats=ar.arlen + 1,
            beat_bytes=1 << ar.arsize,
            burst=_burst_from_axburst(ar.arburst, ar.arlen + 1),
            master=sideband.master if sideband else self.name,
            thread=0,  # read channel (see OrderingModel.stream_key)
            txn_tag=ar.arid,
            excl=ar.arlock is AxLock.EXCLUSIVE,
            priority=ar.arqos,
            txn_id=sideband.txn_id if sideband else -1,
        )

    def _convert_aw(self, aw: AxiAW) -> Transaction:
        sideband = aw.txn
        return Transaction(
            opcode=Opcode.STORE,
            address=aw.awaddr,
            beats=aw.awlen + 1,
            beat_bytes=1 << aw.awsize,
            burst=_burst_from_axburst(aw.awburst, aw.awlen + 1),
            data=list(aw.wdata) if aw.wdata is not None else None,
            master=sideband.master if sideband else self.name,
            thread=1,  # write channel (see OrderingModel.stream_key)
            txn_tag=aw.awid,
            excl=aw.awlock is AxLock.EXCLUSIVE,
            priority=aw.awqos,
            txn_id=sideband.txn_id if sideband else -1,
        )

    def peek_native(self, cycle: int) -> Optional[Transaction]:
        ar = self._ar
        aw = self._aw
        for channel in (ar, aw) if self._prefer_read else (aw, ar):
            if channel._committed:
                self._peeked_channel = channel
                record = channel._committed[0]
                if record is self._peek_key:
                    return self._peek_txn
                self._peek_key = record
                if channel is ar:
                    self._peek_txn = self._convert_ar(record)
                else:
                    self._peek_txn = self._convert_aw(record)
                return self._peek_txn
        self._peeked_channel = None
        return None

    def pop_native(self) -> None:
        channel = self._peeked_channel
        assert channel is not None
        channel.pop()
        # Alternate between directions for fairness.
        self._prefer_read = channel is self._aw
        self._peeked_channel = None

    def push_native_response(self, entry: StateEntry) -> bool:
        if entry.txn.opcode.is_read:
            channel = self._r
            if not channel.can_push():
                return False
            channel.push(
                AxiR(
                    rid=entry.txn.txn_tag,
                    rdata=entry.payload if entry.payload is not None else [],
                    rresp=xresp_from_status(entry.status),
                    txn_id=entry.txn_id,
                )
            )
            return True
        channel = self._b
        if not channel.can_push():
            return False
        channel.push(
            AxiB(
                bid=entry.txn.txn_tag,
                bresp=xresp_from_status(entry.status),
                txn_id=entry.txn_id,
            )
        )
        return True
