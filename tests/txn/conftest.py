"""Shared fixtures: a tracked employee relation under a TxnManager."""

import pytest

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.txn import TxnManager


def make_managed(profile="atlas", config=None, **kwargs):
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    archis = ArchIS(
        db, config=ArchISConfig(profile=profile, **(config or {}))
    )
    archis.track_table("employee", document_name="employees.xml")
    manager = TxnManager(db, archis, **kwargs)
    return archis, manager


@pytest.fixture(params=["atlas", "db2"])
def managed(request):
    return make_managed(profile=request.param)
