"""Temporal SQL over the wire.

FOR SYSTEM_TIME queries — including named parameters bound to the
temporal clause — are ordinary ``sql`` requests: ``Client.execute``
binds them, and so does a raw request that omits ``v``.
"""

import pytest

from repro.server import Client, Server
from repro.util.timeutil import parse_date

from tests.txn.conftest import make_managed

TEMPORAL_TEXT = (
    "SELECT t.id, t.salary FROM employee_salary t "
    "FOR SYSTEM_TIME AS OF :d ORDER BY t.id"
)


@pytest.fixture
def served():
    archis, manager = make_managed()
    table = archis.db.table("employee")
    table.insert((1, "Bob", 60000))
    table.insert((2, "Eve", 70000))
    archis.db.advance_days(30)
    table.update_where(lambda r: r["id"] == 1, {"salary": 65000})
    archis.apply_pending()
    server = Server(manager, archis, workers=2).start()
    host, port = server.address
    try:
        yield host, port
    finally:
        server.stop()


class TestOverTheWire:
    def test_client_binds_temporal_params(self, served):
        host, port = served
        day = parse_date("1995-01-15")
        with Client(host, port) as client:
            result = client.execute(TEMPORAL_TEXT, params={"d": day})
        assert result.rows == [[1, 60000], [2, 70000]]

    @pytest.mark.parametrize("stamp", [{"v": 3}, {}], ids=["v3", "no-v"])
    def test_temporal_params_bind_with_and_without_v(self, served, stamp):
        host, port = served
        day = parse_date("1995-01-15")
        with Client(host, port) as client:
            response = client.request(
                {"op": "sql", "text": TEMPORAL_TEXT, "params": {"d": day}}
                | stamp
            )
        assert response["ok"] is True
        assert response["rows"] == [[1, 60000], [2, 70000]]
