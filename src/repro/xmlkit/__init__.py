"""XML substrate: DOM, parser and serializer."""

from repro.xmlkit.dom import Element, Node, Text
from repro.xmlkit.parser import parse_fragment, parse_xml
from repro.xmlkit.serializer import serialize

__all__ = [
    "Element",
    "Node",
    "Text",
    "parse_fragment",
    "parse_xml",
    "serialize",
]
