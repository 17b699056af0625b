"""One configuration object for the whole engine facade.

:class:`ArchISConfig` gathers every knob that used to be a scattered
positional flag — profile selection, clustering thresholds, buffer
size, durability and maintenance mode — into a single
keyword-only frozen dataclass consumed by
``ArchIS.__init__``/``ArchIS.open``.  The old per-call flags
(``profile=``, ``umin=``, ``buffer_pages=``, ...) were deprecated
aliases for several releases and are now gone: pass
``config=ArchISConfig(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ArchisError

@dataclass(frozen=True, kw_only=True)
class ArchISConfig:
    """Engine-wide settings (all keyword-only, all with defaults).

    ``profile``
        ``"atlas"`` (update-log tracking) or ``"db2"`` (triggers).
    ``umin``
        The clustering threshold U_min in (0, 1); ``None`` disables
        segmentation (paper Fig. 9's unclustered comparison point).
    ``min_segment_rows``
        Minimum live-segment size before a freeze may trigger.
    ``durability``
        Pager mode for file-backed archives: ``"wal"`` or ``"none"``.
    ``buffer_pages``
        Buffer-pool capacity for file-backed archives.
    ``maintenance``
        When segment freezes run: ``"inline"`` (the switch, the sorted
        rewrite and the compaction all inside the apply that triggered
        the freeze) or ``"background"`` (the switch on the apply path; a
        maintenance worker performs the rewrite in bounded steps).
        ``umin=None`` is the configuration that never freezes.
    ``maintenance_step_rows``
        Row budget per background rewrite step (bounds how long the
        worker holds the history lock at a time).
    """

    profile: str = "atlas"
    umin: float | None = 0.4
    min_segment_rows: int = 64
    durability: str = "wal"
    buffer_pages: int = 1024
    maintenance: str = "inline"
    maintenance_step_rows: int = 1024

    def __post_init__(self) -> None:
        from repro.archis.clustering import MAINTENANCE_MODES

        if self.maintenance not in MAINTENANCE_MODES:
            raise ArchisError(
                f"unknown maintenance mode {self.maintenance!r}; use "
                + ", ".join(MAINTENANCE_MODES)
            )
        if self.maintenance_step_rows < 1:
            raise ArchisError("maintenance_step_rows must be >= 1")
        if self.buffer_pages < 1:
            raise ArchisError("buffer_pages must be >= 1")
        if self.durability not in ("wal", "none"):
            raise ArchisError(
                f"unknown durability {self.durability!r}; use wal or none"
            )

    def replace(self, **changes) -> "ArchISConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def resolve_config(config: ArchISConfig | None) -> ArchISConfig:
    """Default a missing config (the legacy-alias folding is gone)."""
    return config if config is not None else ArchISConfig()


__all__ = [
    "ArchISConfig",
    "resolve_config",
]
