"""AHB 2.0 initiator NIU: AHB transfers ↔ NoC packets."""

from __future__ import annotations

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, Transaction
from repro.niu.base import InitiatorNiu
from repro.niu.state_table import StateEntry
from repro.niu.tag_policy import TagPolicy
from repro.protocols.ahb import AhbRequest, AhbResponse, HBurst, hresp_from_status
from repro.protocols.base import MasterSocket
from repro.transport.network import Fabric


def _burst_from_hburst(hburst: HBurst) -> BurstType:
    if hburst is HBurst.SINGLE:
        return BurstType.SINGLE
    if hburst.wrapping:
        return BurstType.WRAP
    return BurstType.INCR


def _opcode_from(request: AhbRequest) -> Opcode:
    if request.hmastlock:
        return Opcode.STORE_COND_LOCKED if request.hwrite else Opcode.READEX
    return Opcode.STORE if request.hwrite else Opcode.LOAD


class AhbInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an AHB master socket.

    AHB is fully ordered and single-outstanding at the socket, so the
    natural policy is the minimal one (tag 0, one entry) — the cheapest
    NIU in the gate-count sweep.  A deeper policy is still legal and lets
    the NIU pipeline bus-side transfers it has already accepted.
    """

    protocol_name = "AHB"

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
                ordering=OrderingModel.FULLY_ORDERED,
                tag_bits=1,
                max_outstanding=1,
                per_stream_outstanding=1,
                multi_target=False,
            )
        if policy.ordering is not OrderingModel.FULLY_ORDERED:
            raise ValueError("AHB NIU requires a fully-ordered policy")
        super().__init__(name, fabric, endpoint, address_map, policy)
        self._attach_socket(socket)
        self._req = socket.req("req")
        self._rsp = socket.rsp("rsp")

    def peek_native(self, cycle: int) -> Optional[Transaction]:
        channel = self._req
        if not channel._committed:
            return None
        request: AhbRequest = channel.peek()
        if request is self._peek_key:
            return self._peek_txn
        sideband = request.txn
        self._peek_key = request
        self._peek_txn = Transaction(
            opcode=_opcode_from(request),
            address=request.haddr,
            beats=request.beats,
            beat_bytes=1 << request.hsize,
            burst=_burst_from_hburst(request.hburst),
            data=list(request.hwdata) if request.hwdata is not None else None,
            master=sideband.master if sideband else self.name,
            priority=sideband.priority if sideband else 0,
            txn_id=sideband.txn_id if sideband else -1,
        )
        return self._peek_txn

    def pop_native(self) -> None:
        self._req.pop()

    def push_native_response(self, entry: StateEntry) -> bool:
        channel = self._rsp
        if not channel.can_push():
            return False
        channel.push(
            AhbResponse(
                txn_id=entry.txn_id,
                hresp=hresp_from_status(entry.status),
                hrdata=entry.payload,
            )
        )
        return True
