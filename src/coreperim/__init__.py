"""Exact distributions of partition statistics under perimeter caps.

The exports below are resolved on first access (PEP 562), so that importing
one submodule, as each CLI command does, loads only what that module uses.
"""
from importlib import import_module

# the submodule that defines each export
_FROM = {
    "codec": ("CodecError", "CoreVector", "DiagVector", "NotCoreError", "NotSelfConjugateError",
              "PerimeterError", "decode_core", "decode_selfconj", "encode_core",
              "encode_selfconj"),
    "distributions": ("DiscreteDist", "convolve"),
    "exactdist": ("MomentReport", "dist_statistic", "moments"),
    "families": ("FamilySpec", "count_family", "enumerate_family", "sample"),
    "partitions": ("Partition", "PartitionError", "from_parts", "parse_partition"),
}
_EXPORTS = {name: module for module, names in _FROM.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
