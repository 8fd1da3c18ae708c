"""VCI initiator NIU, serving all three flavors (PVCI/BVCI/AVCI).

The flavor decides the ordering model handed to the tag policy: PVCI and
BVCI are fully ordered (Tag constantly 0); AVCI's ``TRDID`` maps onto the
Tag exactly like an AXI ID.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, Transaction
from repro.niu.base import InitiatorNiu
from repro.niu.state_table import StateEntry
from repro.niu.tag_policy import TagPolicy
from repro.protocols.base import MasterSocket
from repro.protocols.vci import (
    VciCmd,
    VciRequest,
    VciResponse,
    rerror_from_status,
)
from repro.transport.network import Fabric

_FLAVOR_ORDERING = {
    "PVCI": OrderingModel.FULLY_ORDERED,
    "BVCI": OrderingModel.FULLY_ORDERED,
    "AVCI": OrderingModel.ID_BASED,
}

_OPCODES = {
    VciCmd.READ: Opcode.LOAD,
    VciCmd.WRITE: Opcode.STORE,
    VciCmd.LOCKED_READ: Opcode.READEX,
    VciCmd.STORE_COND: Opcode.STORE_COND_LOCKED,
}


class VciInitiatorNiu(InitiatorNiu):
    """Initiator NIU for a PVCI/BVCI/AVCI master socket."""

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        endpoint: int,
        address_map: AddressMap,
        socket: MasterSocket,
        flavor: str = "BVCI",
        policy: Optional[TagPolicy] = None,
    ) -> None:
        flavor = flavor.upper()
        if flavor not in _FLAVOR_ORDERING:
            raise ValueError(f"unknown VCI flavor {flavor!r}")
        ordering = _FLAVOR_ORDERING[flavor]
        if policy is None:
            if flavor == "PVCI":
                policy = TagPolicy(
                    ordering=ordering,
                    tag_bits=1,
                    max_outstanding=1,
                    per_stream_outstanding=1,
                    multi_target=False,
                )
            elif flavor == "BVCI":
                policy = TagPolicy(
                    ordering=ordering,
                    tag_bits=1,
                    max_outstanding=4,
                    per_stream_outstanding=4,
                    multi_target=False,
                )
            else:  # AVCI
                policy = TagPolicy(
                    ordering=ordering,
                    tag_bits=3,
                    max_outstanding=8,
                    per_stream_outstanding=4,
                    multi_target=True,
                )
        if policy.ordering is not ordering:
            raise ValueError(
                f"{flavor} NIU requires a {ordering.value} policy, got "
                f"{policy.ordering.value}"
            )
        super().__init__(name, fabric, endpoint, address_map, policy)
        self.flavor = flavor
        self.protocol_name = flavor
        self._attach_socket(socket)
        self._req = socket.req("cmd")
        self._rsp = socket.rsp("rsp")

    def peek_native(self, cycle: int) -> Optional[Transaction]:
        channel = self._req
        if not channel._committed:
            return None
        request: VciRequest = channel.peek()
        if request is self._peek_key:
            return self._peek_txn
        sideband = request.txn
        beat_bytes = (
            request.plen // request.cells if request.cells else 4
        ) or 4
        self._peek_key = request
        self._peek_txn = Transaction(
            opcode=_OPCODES[request.cmd],
            address=request.address,
            beats=request.cells,
            beat_bytes=beat_bytes,
            burst=BurstType.INCR if request.cells > 1 else BurstType.SINGLE,
            data=list(request.wdata) if request.wdata is not None else None,
            master=sideband.master if sideband else self.name,
            txn_tag=request.trdid,
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
            VciResponse(
                rerror=rerror_from_status(entry.status),
                rdata=entry.payload,
                rtrdid=entry.txn.txn_tag,
                rpktid=entry.txn_id & 0xFF,
                txn_id=entry.txn_id,
            )
        )
        return True
