"""Proprietary MsgPort initiator NIU.

Demonstrates the paper's feature-locality claim (§2): the MsgPort's
``FENCE`` primitive is supported entirely inside this NIU — it drains the
state table and acknowledges locally.  No packet field, no transport or
physical change, no other NIU touched (benchmark E6 counts exactly this).
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
from repro.protocols.proprietary import MsgKind, MsgRequest, MsgResponse
from repro.transport.network import Fabric

_OPCODES = {
    MsgKind.GET: Opcode.LOAD,
    MsgKind.PUT: Opcode.STORE_POSTED,
    MsgKind.PUT_ACK: Opcode.STORE,
}


class MsgInitiatorNiu(InitiatorNiu):
    """Initiator NIU for the example proprietary message port."""

    protocol_name = "PROPRIETARY"

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
                max_outstanding=2,
                per_stream_outstanding=2,
                multi_target=False,
            )
        super().__init__(name, fabric, endpoint, address_map, policy)
        self._attach_socket(socket)
        self._req = socket.req("msg")
        self._rsp = socket.rsp("ack")
        self.fences_served = 0

    def peek_native(self, cycle: int) -> Optional[Transaction]:
        channel = self._req
        if not channel._committed:
            return None
        request: MsgRequest = channel.peek()
        if request.kind is MsgKind.FENCE:
            # NIU-local service: complete once every tracked transaction
            # has retired.  Never reaches the fabric.
            ack = self._rsp
            if len(self.table) == 0 and ack.can_push():
                channel.pop()
                ack.push(
                    MsgResponse(
                        ok=True,
                        txn_id=request.txn.txn_id if request.txn else -1,
                    )
                )
                self.fences_served += 1
            return None
        sideband = request.txn
        if request is self._peek_key:
            return self._peek_txn
        self._peek_key = request
        self._peek_txn = Transaction(
            opcode=_OPCODES[request.kind],
            address=request.addr,
            beats=request.length_words,
            beat_bytes=sideband.beat_bytes if sideband else 4,
            burst=(
                BurstType.INCR if request.length_words > 1 else BurstType.SINGLE
            ),
            data=list(request.data) if request.data is not None else None,
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
            MsgResponse(
                ok=not entry.status.is_error,
                data=entry.payload,
                txn_id=entry.txn_id,
            )
        )
        return True
