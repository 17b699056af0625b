"""ArchISConfig: validation, resolution, plumbing into ArchIS."""

import pytest

from repro import ArchIS, ArchISConfig
from repro.archis.config import resolve_config
from repro.errors import ArchisError
from repro.rdb import ColumnType, Database


def make_db():
    db = Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [("id", ColumnType.INT), ("salary", ColumnType.INT)],
        primary_key=("id",),
    )
    return db


class TestValidation:
    def test_defaults_are_valid(self):
        config = ArchISConfig()
        assert config.profile == "atlas"
        assert config.umin == 0.4
        assert config.maintenance == "inline"

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ArchISConfig("atlas")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ArchISConfig().umin = 0.9

    @pytest.mark.parametrize(
        "bad",
        [
            {"maintenance_step_rows": -3},
            {"buffer_pages": 0},
            {"durability": "fsync-every-byte"},
            {"buffer_pages": -2},
            {"durability": ""},
            {"maintenance": "eventually"},
            {"maintenance_step_rows": 0},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ArchisError):
            ArchISConfig(**bad)

    # removed fields: sharding (the single store is the only store) and
    # the batch size (every drain batches at DEFAULT_BATCH_SIZE)
    @pytest.mark.parametrize("field", ["shards", "shard_by", "batch_size"])
    def test_sharding_fields_are_gone(self, field):
        with pytest.raises(TypeError):
            ArchISConfig(**{field: 2})

    def test_replace_revalidates(self):
        config = ArchISConfig()
        assert config.replace(buffer_pages=64).buffer_pages == 64
        with pytest.raises(ArchisError):
            config.replace(buffer_pages=-1)

    def test_as_dict_round_trips(self):
        config = ArchISConfig(umin=None, buffer_pages=32)
        assert ArchISConfig(**config.as_dict()) == config


class TestResolution:
    def test_config_passes_through(self):
        config = ArchISConfig(umin=0.7)
        assert resolve_config(config) is config

    def test_none_yields_defaults(self):
        assert resolve_config(None) == ArchISConfig()

    def test_legacy_flags_are_gone(self):
        # the deprecated per-call alias folding was removed: passing a
        # legacy flag is now an ordinary TypeError, not a warning
        with pytest.raises(TypeError):
            resolve_config(None, umin=0.9)


class TestArchISPlumbing:
    def test_archis_accepts_config(self):
        archis = ArchIS(make_db(), config=ArchISConfig(umin=None))
        assert archis.config.umin is None
        assert archis.segments.umin is None

    def test_legacy_flags_are_rejected(self):
        with pytest.raises(TypeError):
            ArchIS(make_db(), umin=0.6)
        with pytest.raises(TypeError):
            ArchIS(make_db(), profile="db2")

    def test_stats_reports_the_config(self):
        archis = ArchIS(make_db(), config=ArchISConfig(buffer_pages=17))
        archis.track_table("employee")
        assert archis.stats()["config"]["buffer_pages"] == 17
