"""OCP initiator NIU: threaded OCP ↔ NoC packets.

MThreadID maps onto the NoC Tag; lazy synchronization (RDL/WRC) maps onto
the single ``excl`` packet bit — the same NoC service that carries AXI
exclusives, which is the paper's §3 punchline.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address_map import AddressMap
from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.niu.base import InitiatorNiu
from repro.niu.state_table import StateEntry
from repro.niu.tag_policy import TagPolicy
from repro.protocols.base import MasterSocket
from repro.protocols.ocp import MCmd, OcpRequest, OcpResponse, SResp
from repro.transport.network import Fabric

_OPCODES = {
    MCmd.RD: (Opcode.LOAD, False),
    MCmd.WR: (Opcode.STORE_POSTED, False),
    MCmd.WRNP: (Opcode.STORE, False),
    MCmd.RDL: (Opcode.LOAD, True),
    MCmd.WRC: (Opcode.STORE, True),
}


class OcpInitiatorNiu(InitiatorNiu):
    """Initiator NIU for an OCP master socket."""

    protocol_name = "OCP"

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
                ordering=OrderingModel.THREADED,
                tag_bits=2,
                max_outstanding=8,
                per_stream_outstanding=4,
                multi_target=True,
            )
        if policy.ordering is not OrderingModel.THREADED:
            raise ValueError("OCP NIU requires a threaded policy")
        super().__init__(name, fabric, endpoint, address_map, policy)
        self._attach_socket(socket)
        self._req = socket.req("req")
        self._rsp = socket.rsp("rsp")

    def peek_native(self, cycle: int) -> Optional[Transaction]:
        channel = self._req
        if not channel._committed:
            return None
        request: OcpRequest = channel.peek()
        if request is self._peek_key:
            return self._peek_txn
        try:
            opcode, excl = _OPCODES[request.mcmd]
        except KeyError:
            raise ValueError(f"{self.name}: cannot convert {request.mcmd}") from None
        sideband = request.txn
        self._peek_key = request
        self._peek_txn = Transaction(
            opcode=opcode,
            address=request.maddr,
            beats=request.mburstlength,
            beat_bytes=sideband.beat_bytes if sideband else 4,
            burst=(
                BurstType.INCR if request.mburstlength > 1 else BurstType.SINGLE
            ),
            data=list(request.mdata) if request.mdata is not None else None,
            master=sideband.master if sideband else self.name,
            thread=request.mthreadid,
            excl=excl,
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
        txn = entry.txn
        excl_failed = (
            txn.excl
            and txn.opcode.is_write
            and entry.status is ResponseStatus.OKAY
        )
        if entry.status.is_error:
            sresp = SResp.ERR
        elif excl_failed:
            sresp = SResp.FAIL
        else:
            sresp = SResp.DVA
        channel.push(
            OcpResponse(
                sresp=sresp,
                sthreadid=txn.thread,
                sdata=entry.payload,
                txn_id=entry.txn_id,
            )
        )
        return True
