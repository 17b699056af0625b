"""ArchIS: the paper's archival information system (core contribution)."""

from repro.archis.batch import BatchArchiver
from repro.archis.bitemporal import BitemporalArchive, BitemporalFact
from repro.archis.blobstore import CompressedArchive
from repro.archis.clustering import SegmentManager
from repro.archis.config import ArchISConfig
from repro.archis.compression import (
    CompressedBlock,
    compress_records,
    decompress_block,
)
from repro.archis.htables import TrackedRelation, create_htables
from repro.archis.maintenance import MaintenanceWorker
from repro.archis.publisher import publish_relation
from repro.archis.system import ArchIS, PROFILES, Profile
from repro.archis.validation import Violation, check_archive
from repro.archis.xmlversions import XmlVersionArchive

__all__ = [
    "ArchIS",
    "ArchISConfig",
    "BatchArchiver",
    "BitemporalArchive",
    "BitemporalFact",
    "PROFILES",
    "Profile",
    "CompressedArchive",
    "MaintenanceWorker",
    "SegmentManager",
    "CompressedBlock",
    "compress_records",
    "decompress_block",
    "TrackedRelation",
    "create_htables",
    "publish_relation",
    "XmlVersionArchive",
    "Violation",
    "check_archive",
]
