"""The wire protocol: its one version, reply framing and the
Client.execute Result facade."""

from functools import partial

import pytest

from repro.errors import ProtocolError, UnsupportedVersionError
from repro.server import PROTOCOL_VERSION, Client, Server, Session
from repro.server.encoding import decode_result
from repro.server.protocol import (
    check_request,
    recv_message,
    recv_payload,
    send_message,
)

from repro.api import Result
from tests.txn.conftest import make_managed

QUERY = "SELECT id, name, salary FROM employee ORDER BY id"


@pytest.fixture
def served():
    archis, manager = make_managed()
    server = Server(manager, archis, workers=2).start()
    host, port = server.address
    try:
        yield host, port
    finally:
        server.stop()


class FakeSocket:
    """Records every ``sendall``; ``recv`` replays a fixed byte string."""

    def __init__(self, data: bytes = b"") -> None:
        self.writes: list[bytes] = []
        self._data = data

    def sendall(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def recv(self, count: int) -> bytes:
        chunk, self._data = self._data[:count], self._data[count:]
        return chunk


class TestCheckVersion:
    def test_current_version_is_supported(self):
        assert PROTOCOL_VERSION == 3
        assert check_request({"op": "ping", "v": PROTOCOL_VERSION}) is None

    def test_missing_version_is_legacy_accept(self):
        assert check_request({"op": "ping"}) is None

    def test_mismatch_yields_structured_rejection(self):
        rejection = check_request({"op": "ping", "v": 99})
        assert rejection["ok"] is False
        assert rejection["error"] == "UnsupportedVersionError"
        assert rejection["code"] == "UNSUPPORTED_VERSION"
        assert rejection["offered"] == 99
        assert rejection["supported"] == [3]

    def test_unknown_encoding_is_a_protocol_error(self):
        for encoding in ("json", "binary"):
            assert check_request({"op": "sql", "enc": encoding}) is None
        rejection = check_request({"op": "sql", "enc": "msgpack"})
        assert rejection["ok"] is False
        assert rejection["code"] == "PROTOCOL"


class TestOverTheWire:
    def test_client_stamps_its_version(self, served):
        host, port = served
        with Client(host, port) as client:
            assert client.ping() is True

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_unsupported_version_rejected(self, served, version):
        host, port = served
        with Client(host, port) as client:
            # the raw escape hatch sends the message exactly as given
            response = client.request({"op": "ping", "v": version})
            assert response["ok"] is False
            assert response["code"] == "UNSUPPORTED_VERSION"
            assert response["offered"] == version
            assert response["supported"] == [3]
            assert client.ping() is True  # connection survived

    def test_checked_path_raises_typed_error(self, served):
        host, port = served
        with Client(host, port) as client:
            with pytest.raises(UnsupportedVersionError) as excinfo:
                client._checked({"op": "ping", "v": 99})
            assert excinfo.value.code == "UNSUPPORTED_VERSION"
            assert excinfo.value.supported == [3]

    def test_legacy_client_without_version_still_served(self, served):
        host, port = served
        with Client(host, port) as client:
            response = client.request({"op": "ping"})
            assert response["ok"] is True

    def test_unknown_encoding_over_the_wire(self, served):
        host, port = served
        with Client(host, port) as client:
            response = client.request(
                {"op": "sql", "text": QUERY, "enc": "msgpack"}
            )
            assert response["ok"] is False
            assert response["code"] == "PROTOCOL"
            assert client.ping() is True

    def test_binary_rows_are_tuples_json_rows_are_lists(self, served):
        host, port = served
        with Client(host, port) as client:
            client.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            assert client.execute(QUERY).rows == [[1, "Bob", 60000]]
        with Client(host, port, encoding="binary") as client:
            assert client.execute(QUERY).rows == [(1, "Bob", 60000)]

    def test_client_constructor_rejects_unknown_encoding(self):
        with pytest.raises(ProtocolError, match="encoding"):
            Client("localhost", 1, encoding="msgpack")


class TestReplyFraming:
    def test_binary_reply_is_one_sendall_and_parses_back(self):
        archis, manager = make_managed()
        with manager.begin() as txn:
            txn.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            txn.sql("INSERT INTO employee VALUES (2, 'Eve', 70000)")
        sock = FakeSocket()
        Session(manager, archis).handle(
            {"op": "sql", "v": 3, "text": QUERY, "enc": "binary"},
            send=partial(send_message, sock),
        )
        assert len(sock.writes) == 1
        wire = FakeSocket(sock.writes[0])
        header = recv_message(wire)
        assert header["ok"] is True
        assert header["binary"]["rows"] == 2
        assert "_payload" not in header
        columns, rows = decode_result(recv_payload(wire))
        assert columns == ["id", "name", "salary"]
        assert rows == [(1, "Bob", 60000), (2, "Eve", 70000)]
        assert recv_message(wire) is None  # nothing trails the payload


class TestClientExecute:
    def test_select_returns_result_with_columns(self, served):
        host, port = served
        with Client(host, port) as client:
            client.sql("INSERT INTO employee VALUES (1, 'Bob', 60000)")
            client.snapshot()
            result = client.execute(
                "SELECT id, name, salary FROM employee ORDER BY id"
            )
        assert isinstance(result, Result)
        assert result.columns == ["id", "name", "salary"]
        assert result.rows == [[1, "Bob", 60000]]
        assert result.row_count == 1

    def test_dml_returns_result_with_row_count(self, served):
        host, port = served
        with Client(host, port) as client:
            result = client.execute(
                "INSERT INTO employee VALUES (2, 'Eve', 70000)"
            )
        assert isinstance(result, Result)
        assert result.rows == []
        assert result.row_count == 1
        assert result.columns is None
