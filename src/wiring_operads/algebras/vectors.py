"""Immutable wire-indexed value assignments.

Carrier elements throughout the algebra modules are families of values
indexed by wire names, so profiles, states, readouts, and relation tuples
all share this one small hashable mapping type.
"""
from __future__ import annotations

from typing import Iterator, Mapping


class Vec(Mapping):
    """A frozen ``wire -> value`` mapping, hashable and order-insensitive."""

    __slots__ = ("_items",)

    def __init__(self, mapping: Mapping | None = None, **kwargs):
        merged = dict(mapping or {})
        merged.update(kwargs)
        object.__setattr__(self, "_items", tuple(sorted(merged.items())))

    def __getitem__(self, key):
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self) -> Iterator:
        return iter(k for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        # Items are sorted by key, so two Vecs are equal exactly when their
        # item tuples are; ``Mapping.__eq__`` would look up every key.
        if isinstance(other, Vec):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other.items())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Vec({inner})"

    def without(self, *keys) -> "Vec":
        drop = set(keys)
        return Vec({k: v for k, v in self._items if k not in drop})

    def merged(self, other: Mapping) -> "Vec":
        out = dict(self._items)
        out.update(other)
        return Vec(out)

    def relabel(self, table: Mapping) -> "Vec":
        return Vec({table.get(k, k): v for k, v in self._items})

    def restrict(self, keys) -> "Vec":
        keep = set(keys)
        return Vec({k: v for k, v in self._items if k in keep})
