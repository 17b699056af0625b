"""Native XML document store (the Tamino role in the paper's evaluation).

Documents are serialized, cut into blocks and stored zlib-compressed in a
blob store ("Tamino automatically compresses documents with an algorithm
similar to gzip", paper Section 7.2).  A query that touches a document must
read and decompress all of its blocks and re-parse the tree, and an update
must re-serialize and re-store the whole document — exactly the cost
profile the paper measures against.

``compress=False`` models a hypothetical uncompressed native store (used
for the Fig. 13 comparison where uncompressed Tamino storage is 1.47x the
H-documents).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import XmlError
from repro.storage.blob import BlobStore
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.xmlkit.dom import Element
from repro.xmlkit.parser import parse_xml
from repro.xmlkit.serializer import serialize

#: Documents are chunked before compression so that storage behaves like a
#: paged store rather than one giant stream.
BLOCK_CHARS = 16 * 1024

#: Models the native store's metadata/structure overhead per stored byte
#: when compression is disabled (DOM storage is fatter than raw text;
#: the paper reports a 1.47 ratio for uncompressed Tamino).
UNCOMPRESSED_OVERHEAD = 1.47


@dataclass
class _StoredDocument:
    blob_ids: list[int]
    text_size: int


class NativeXmlStore:
    """A compressed (or not) XML document store over paged blobs."""

    def __init__(self, path: str | None = None, compress: bool = True,
                 buffer_pages: int = 1024) -> None:
        # no sidecar/catalog persistence here (the document directory is
        # in-memory), so raw in-place paging models the store's IO best
        self.pager = Pager(path, durability="none")
        self.pool = BufferPool(self.pager, capacity=buffer_pages)
        self.blobs = BlobStore(self.pool)
        self.compress = compress
        self._documents: dict[str, _StoredDocument] = {}
        self._parse_cache: dict[str, Element] = {}

    # -- storage ------------------------------------------------------------

    def put_document(self, uri: str, root: Element) -> None:
        """Store (or replace) a document."""
        self.remove_document(uri, missing_ok=True)
        text = serialize(root)
        blob_ids = []
        for offset in range(0, max(len(text), 1), BLOCK_CHARS):
            chunk = text[offset : offset + BLOCK_CHARS].encode("utf-8")
            if self.compress:
                chunk = zlib.compress(chunk, level=6)
            else:
                # pad to model the native store's uncompressed overhead
                chunk = chunk + b"\x00" * int(
                    len(chunk) * (UNCOMPRESSED_OVERHEAD - 1.0)
                )
            blob_ids.append(self.blobs.put(chunk))
        self._documents[uri] = _StoredDocument(blob_ids, len(text))
        self._parse_cache[uri] = root

    def put_text(self, uri: str, text: str) -> None:
        self.put_document(uri, parse_xml(text))

    def load_document(self, uri: str) -> Element:
        """Fetch, decompress and parse a document (cached until reset)."""
        cached = self._parse_cache.get(uri)
        if cached is not None:
            return cached
        stored = self._documents.get(uri)
        if stored is None:
            raise XmlError(f"no document stored at {uri!r}")
        chunks = []
        for blob_id in stored.blob_ids:
            raw = self.blobs.get(blob_id)
            if self.compress:
                raw = zlib.decompress(raw)
            else:
                raw = raw.rstrip(b"\x00")
            chunks.append(raw.decode("utf-8"))
        root = parse_xml("".join(chunks))
        self._parse_cache[uri] = root
        return root

    def remove_document(self, uri: str, missing_ok: bool = False) -> None:
        stored = self._documents.pop(uri, None)
        self._parse_cache.pop(uri, None)
        if stored is None:
            if missing_ok:
                return
            raise XmlError(f"no document stored at {uri!r}")
        for blob_id in stored.blob_ids:
            self.blobs.delete(blob_id)

    def documents(self) -> list[str]:
        return sorted(self._documents)

    def __contains__(self, uri: str) -> bool:
        return uri in self._documents

    # -- measurement hooks ----------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes of blob pages holding the stored documents."""
        return self.blobs.size_bytes()

    def reset_caches(self) -> None:
        """Drop parsed trees and buffered pages (cold-query protocol)."""
        self._parse_cache.clear()
        self.pool.reset()

    def close(self) -> None:
        self.pager.close()
