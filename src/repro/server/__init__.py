"""Multi-session server front end over the concurrency subsystem.

A small socket server speaking a length-prefixed JSON protocol
(:mod:`repro.server.protocol`); each connection gets a
:class:`~repro.server.session.Session` wrapping the shared
:class:`~repro.txn.TxnManager`, so many clients run MVCC snapshot reads
and locked write transactions against one :class:`~repro.archis.ArchIS`
instance.  Start it with ``python -m repro.tools serve`` and talk to it
with :class:`~repro.server.client.Client`.

The protocol (version 3) also carries an async job service for heavy
analytics (:mod:`repro.server.jobs`) and an optional compact binary
result encoding (:mod:`repro.server.encoding`).
"""

from repro.server.client import Client
from repro.server.jobs import JobManager
from repro.server.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.server.server import Server
from repro.server.session import Session

__all__ = [
    "Client",
    "JobManager",
    "PROTOCOL_VERSION",
    "Server",
    "Session",
    "recv_message",
    "send_message",
]
