"""Blocking plain-socket framing for tests that drive the scheduler by hand.

The runtime itself frames messages over asyncio comms
(:mod:`repro.distributed.comm`); these blocking twins, built on the same
:mod:`repro.distributed.protocol` codec, let a test speak the wire format
from a raw socket and so prove it did not drift.
"""

from __future__ import annotations

import socket
from types import SimpleNamespace
from typing import Any, Dict, Mapping

import pytest

from repro.distributed import protocol


def send_message(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Serialise ``message`` as one frame and write it out completely."""

    blob = protocol.dump_frame(message)
    try:
        sock.sendall(protocol.pack_header(len(blob)) + blob)
    except (BrokenPipeError, ConnectionResetError) as error:
        raise protocol.ConnectionClosed(f"peer went away while sending: {error}") from error


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Read exactly one frame and decode it; raises on EOF or corruption."""

    length = protocol.unpack_header(_recv_exact(sock, protocol.header_size()))
    protocol.check_frame_length(length)
    return protocol.load_frame(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, ConnectionAbortedError) as error:
            raise protocol.ConnectionClosed(f"peer reset the connection: {error}") from error
        if not chunk:
            raise protocol.ConnectionClosed(
                f"connection closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


@pytest.fixture
def wire():
    """The blocking framing pair: ``wire.send(sock, message)`` / ``wire.recv(sock)``."""

    return SimpleNamespace(send=send_message, recv=recv_message)
