"""Wire-format tests: framing, payload round-trips, address parsing."""

from __future__ import annotations

import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import protocol
from repro.experiments.grid import Cell, CellOutcome


def socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    accepted, _ = server.accept()
    server.close()
    return client, accepted


class TestFraming:
    def test_message_round_trip(self, wire):
        left, right = socket_pair()
        try:
            wire.send(left, {"op": "hello", "worker": "w1"})
            assert wire.recv(right) == {"op": "hello", "worker": "w1"}
        finally:
            left.close()
            right.close()

    def test_back_to_back_frames_do_not_bleed(self, wire):
        left, right = socket_pair()
        try:
            for index in range(20):
                wire.send(left, {"op": "n", "i": index, "pad": "x" * index * 37})
            for index in range(20):
                assert wire.recv(right)["i"] == index
        finally:
            left.close()
            right.close()

    def test_large_frame_survives_partial_recv(self, wire):
        left, right = socket_pair()
        try:
            message = {"op": "blob", "data": "y" * 2_000_000}
            thread = threading.Thread(target=wire.send, args=(left, message))
            thread.start()
            received = wire.recv(right)
            thread.join()
            assert received == message
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self, wire):
        left, right = socket_pair()
        left.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                wire.recv(right)
        finally:
            right.close()

    def test_mid_frame_eof_raises_connection_closed(self, wire):
        left, right = socket_pair()
        try:
            left.sendall(b"\x00\x00\x01\x00partial")
            left.close()
            with pytest.raises(protocol.ConnectionClosed):
                wire.recv(right)
        finally:
            right.close()

    def test_oversized_header_is_treated_as_corruption(self, wire):
        left, right = socket_pair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(protocol.ProtocolError):
                wire.recv(right)
        finally:
            left.close()
            right.close()

    def test_non_envelope_frame_rejected(self, wire):
        left, right = socket_pair()
        try:
            wire.send(left, {"no_op_key": 1})
            with pytest.raises(protocol.ProtocolError):
                wire.recv(right)
        finally:
            left.close()
            right.close()


class TestPayloads:
    def test_cell_and_outcome_round_trip(self):
        cell = Cell(index=3, repetition=1, seed=1235, params=(("a", 1), ("b", "x")))
        outcome = CellOutcome(cell=cell, metrics={"v": 1.5}, elapsed_seconds=0.25)
        assert protocol.decode_payload(protocol.encode_payload(cell)) == cell
        decoded = protocol.decode_payload(protocol.encode_payload(outcome))
        assert decoded.cell == cell
        assert decoded.metrics == {"v": 1.5}

    def test_corrupt_payload_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload("definitely!not!base64!pickle")


class TestHostileFrames:
    """Any frame body decodes to an op envelope or raises ProtocolError."""

    @pytest.mark.parametrize("blob", [b"[" * 100000, b'{"op": ' * 100000],
                             ids=["deep-array", "deep-object"])
    def test_hostile_body_is_a_protocol_error(self, blob):
        with pytest.raises(protocol.ProtocolError):
            protocol.load_frame(blob)

    @settings(max_examples=200, deadline=None)
    @given(blob=st.one_of(
        st.binary(max_size=64),
        st.tuples(st.sampled_from([b"[", b'{"op": ', b'{"a": [']), st.integers(0, 100000))
        .map(lambda opener: opener[0] * opener[1]),
        st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                st.sampled_from(["op", "a"]), inner, max_size=2),
            max_leaves=6,
        ).map(lambda value: json.dumps(value).encode()),
    ))
    def test_arbitrary_bytes_give_an_envelope_or_protocol_error(self, blob):
        try:
            message = protocol.load_frame(blob)
        except protocol.ProtocolError:
            return
        assert isinstance(message, dict) and "op" in message


class TestAddresses:
    def test_parse_and_format(self):
        assert protocol.parse_address("tcp://127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert protocol.parse_address(" tcp://host:0 ") == ("host", 0)
        assert protocol.format_address("h", 1) == "tcp://h:1"

    @pytest.mark.parametrize("bad", [
        "udp://127.0.0.1:1", "127.0.0.1:1", "tcp://:1", "tcp://h",
        "tcp://h:port", "tcp://h:99999", "tcp://h:-1",
    ])
    def test_rejects_malformed_addresses(self, bad):
        with pytest.raises(ValueError):
            protocol.parse_address(bad)
