"""Exact distributions of partition statistics under perimeter caps."""

from .codec import (
    CodecError,
    CoreVector,
    DiagVector,
    NotCoreError,
    NotSelfConjugateError,
    PerimeterError,
    decode_core,
    decode_selfconj,
    encode_core,
    encode_selfconj,
)
from .distributions import DiscreteDist, convolve
from .exactdist import MomentReport, dist_statistic, moments
from .families import FamilySpec, count_family, enumerate_family, sample
from .partitions import Partition, PartitionError, from_parts, parse_partition

__all__ = [
    "CodecError",
    "CoreVector",
    "DiagVector",
    "DiscreteDist",
    "FamilySpec",
    "MomentReport",
    "NotCoreError",
    "NotSelfConjugateError",
    "Partition",
    "PartitionError",
    "PerimeterError",
    "convolve",
    "count_family",
    "decode_core",
    "decode_selfconj",
    "dist_statistic",
    "encode_core",
    "encode_selfconj",
    "enumerate_family",
    "from_parts",
    "moments",
    "parse_partition",
    "sample",
]

__version__ = "0.1.0"
