"""Value-tagged finite sets, maps, coproducts, quotients, and pushouts.

Everything else in the package is built on the structures here: a ``FinSet``
is a finite set of wire identifiers, each carrying an opaque value tag, and a
``FinMap`` is a value-compatible function between two such sets.  Identifier
order is retained for serialization only; equality is order-insensitive.

Identifiers may not contain ``@``: that character is reserved for the
deterministic renaming scheme used by coproducts (the k-th repeat of an
identifier ``w`` becomes ``w@k``), which keeps coproducts strictly
associative.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

Value = str


def _check_ident(ident: str) -> str:
    if not ident or not isinstance(ident, str):
        raise ValueError(f"identifier must be a nonempty string, got {ident!r}")
    if "@" in ident:
        raise ValueError(f"identifier {ident!r} contains reserved character '@'")
    return ident


def _base(ident: str) -> str:
    """Strip a trailing ``@k`` renaming suffix, if present."""
    head, sep, tail = ident.rpartition("@")
    if sep and tail.isdigit():
        return head
    return ident


@dataclass(frozen=True)
class FinSet:
    """A finite set of identifiers, each tagged with a value.

    ``pairs`` fixes a serialization order; two FinSets are equal when they
    have the same identifier-to-value assignment regardless of order.
    """

    pairs: tuple[tuple[str, Value], ...]
    # identifier -> value, built once; private so it is never handed out mutable
    _index: dict[str, Value] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = dict(self.pairs)
        if len(index) != len(self.pairs):
            seen = set()
            for ident, _value in self.pairs:
                if ident in seen:
                    raise ValueError(f"duplicate identifier {ident!r} in FinSet")
                seen.add(ident)
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(mapping: Mapping[str, Value] | Iterable[tuple[str, Value]]) -> FinSet:
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return FinSet(tuple((_check_ident(k), v) for k, v in items))

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.pairs)

    def value(self, element: str) -> Value:
        try:
            return self._index[element]
        except KeyError:
            raise KeyError(f"{element!r} is not an element of this FinSet") from None

    def __contains__(self, element: object) -> bool:
        return element in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinSet):
            return NotImplemented
        return self._index == other._index

    def __hash__(self) -> int:
        return hash(frozenset(self.pairs))

    def restrict(self, elements: Iterable[str]) -> FinSet:
        keep = set(elements)
        return FinSet(tuple(p for p in self.pairs if p[0] in keep))

    def remove(self, elements: Iterable[str]) -> FinSet:
        drop = set(elements)
        missing = drop - set(self.elements)
        if missing:
            raise KeyError(f"cannot remove absent elements {sorted(missing)}")
        return FinSet(tuple(p for p in self.pairs if p[0] not in drop))

    def quotient(self, merged: Sequence[str], name: str | None = None) -> FinSet:
        """Identify the listed elements into one, keeping the first's name.

        The merged element sits at the position of the first listed member
        (in this set's order) and keeps that member's name unless ``name``
        overrides it.  All listed elements must share one value.
        """
        merged = list(merged)
        if len(merged) < 2:
            raise ValueError("quotient needs at least two elements to identify")
        values = {self.value(e) for e in merged}
        if len(values) != 1:
            raise ValueError(f"cannot identify elements with distinct values {values}")
        first_pos = min(self.elements.index(e) for e in merged)
        rep = name if name is not None else merged[0]
        out: list[tuple[str, Value]] = []
        for pos, (e, v) in enumerate(self.pairs):
            if pos == first_pos:
                out.append((rep, v))
            elif e not in merged:
                out.append((e, v))
        return FinSet(tuple(out))

    def relabel(self, table: Mapping[str, str]) -> FinSet:
        return FinSet(tuple((table.get(e, e), v) for e, v in self.pairs))


EMPTY = FinSet(())


def _fresh_names(names: Sequence[str]) -> list[str]:
    """Deterministic renaming: the c-th repeat of a base name gets ``@c``.

    Applying this to a concatenation of already-renamed groups gives the same
    answer as renaming the full concatenation at once, which is what makes
    coproducts associative on the nose.
    """
    counts: dict[str, int] = {}
    out = []
    for name in names:
        b = _base(name)
        counts[b] = counts.get(b, 0) + 1
        out.append(b if counts[b] == 1 else f"{b}@{counts[b]}")
    return out


def coproduct(parts: Sequence[FinSet]) -> tuple[FinSet, list["FinMap"]]:
    """Disjoint union of FinSets with injections.

    Identifiers are kept verbatim when possible; repeats across parts are
    disambiguated with the ``@k`` scheme.  The injections are jointly
    bijective onto the result and value-compatible by construction.  A lone
    part is its own coproduct, ``@k`` identifiers included.
    """
    if len(parts) == 1:
        return parts[0], [FinMap.identity(parts[0])]
    flat: list[tuple[str, Value]] = [p for part in parts for p in part.pairs]
    names = _fresh_names([e for e, _ in flat])
    result = FinSet(tuple((n, v) for n, (_, v) in zip(names, flat)))
    injections = []
    offset = 0
    for part in parts:
        table = {
            old: names[offset + k] for k, (old, _) in enumerate(part.pairs)
        }
        injections.append(FinMap(part, result, table))
        offset += len(part.pairs)
    return result, injections


@dataclass(frozen=True)
class FinMap:
    """A value-compatible function between FinSets, stored as a table."""

    source: FinSet
    target: FinSet
    table: Mapping[str, str] = field(compare=False)

    def __post_init__(self) -> None:
        target = self.target._index
        for x, v in self.source.pairs:
            if x not in self.table:
                raise ValueError(f"map is not total: missing {x!r}")
            y = self.table[x]
            if y not in target:
                raise ValueError(f"map target {y!r} is not in the codomain")
            if v != target[y]:
                raise ValueError(
                    f"value mismatch: {x!r} has value {v!r} "
                    f"but {y!r} has value {target[y]!r}"
                )

    def __call__(self, element: str) -> str:
        return self.table[element]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and {x: self.table[x] for x in self.source}
            == {x: other.table[x] for x in other.source}
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, frozenset((x, self.table[x]) for x in self.source)))

    @staticmethod
    def identity(fs: FinSet) -> FinMap:
        return FinMap(fs, fs, {e: e for e in fs})

    def then(self, other: FinMap) -> FinMap:
        if self.target != other.source:
            raise ValueError("maps are not composable")
        return FinMap(self.source, other.target, {x: other(self(x)) for x in self.source})

    def is_bijection(self) -> bool:
        return len({self(x) for x in self.source}) == len(self.source) == len(self.target)

    def image(self) -> set[str]:
        return {self(x) for x in self.source}


def identify(fs: FinSet, pairs: Iterable[tuple[str, str]]) -> tuple[FinSet, dict[str, str]]:
    """The quotient of ``fs`` by the equivalence relation generated by ``pairs``.

    Classes are found by union-find.  Each is represented by its least
    member, which keeps its place in ``fs``; the returned table sends every
    element to its representative.  Identified elements must share a value.
    """
    parent = {e: e for e in fs.elements}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    classes: dict[str, list[str]] = {}
    for e in parent:
        classes.setdefault(find(e), []).append(e)
    values = fs._index
    rep_of: dict[str, str] = {}
    for members in classes.values():
        distinct = {values[m] for m in members}
        if len(distinct) != 1:
            raise ValueError(f"cannot identify elements of distinct values {distinct}")
        rep = min(members)
        for m in members:
            rep_of[m] = rep
    return FinSet(tuple(p for p in fs.pairs if rep_of[p[0]] == p[0])), rep_of


def pushout(f: FinMap, g: FinMap) -> tuple[FinSet, FinMap, FinMap]:
    """Pushout of ``Y <-f- X -g-> Z`` in the category of valued finite sets.

    The apex is ``(Y ⨿ Z) / {f(x) = g(x)}``; each class is represented by
    its lexicographically least member identifier (identifiers taken from
    the coproduct, so the Y-side wins name clashes).
    """
    if f.source != g.source:
        raise ValueError("pushout legs must share a source")
    yz, (iy, iz) = coproduct([f.target, g.target])
    apex, rep_of = identify(yz, ((iy(f(x)), iz(g(x))) for x in f.source))
    alpha = FinMap(f.target, apex, {y: rep_of[iy(y)] for y in f.target})
    beta = FinMap(g.target, apex, {z: rep_of[iz(z)] for z in g.target})
    return apex, alpha, beta


def fresh_name(candidate: str, *taken: Iterable[str]) -> str:
    """The first of ``candidate``, ``candidate.2``, ``candidate.3``, ... that
    none of the ``taken`` collections contains."""
    used = set().union(*taken)
    name = candidate
    k = 1
    while name in used:
        k += 1
        name = f"{candidate}.{k}"
    return name


def mediating_map(
    f: FinMap, g: FinMap, apex: FinSet, alpha: FinMap, beta: FinMap,
    alpha2: FinMap, beta2: FinMap,
) -> FinMap | None:
    """The unique map out of a pushout apex commuting with a given cone.

    Returns None when the cone does not factor (never happens for a genuine
    pushout with a commuting cone); used to exercise the universal property.
    """
    target = alpha2.target
    table: dict[str, str] = {}
    for y in f.target:
        w = alpha(y)
        if table.setdefault(w, alpha2(y)) != alpha2(y):
            return None
    for z in g.target:
        w = beta(z)
        if table.setdefault(w, beta2(z)) != beta2(z):
            return None
    if set(table) != set(apex.elements):
        return None
    return FinMap(apex, target, table)


@dataclass(frozen=True)
class Permutation:
    """An element of the symmetric group on {1..size}; images[i-1] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.size:
            raise IndexError(f"index {i} out of range 1..{self.size}")
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    def apply(self, seq: Sequence) -> list:
        """Right action on sequences: result[j] = seq[sigma(j+1) - 1]."""
        if len(seq) != self.size:
            raise ValueError("sequence length does not match permutation size")
        return [seq[self(j) - 1] for j in range(1, self.size + 1)]

    def inverse(self) -> Permutation:
        images = [0] * self.size
        for i in range(1, self.size + 1):
            images[self(i) - 1] = i
        return Permutation(tuple(images))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma . tau)(i) = sigma(tau(i)); apply(compose(s,t)) = apply then apply."""
    if sigma.size != tau.size:
        raise ValueError("cannot compose permutations of different sizes")
    return Permutation(tuple(sigma(tau(i)) for i in range(1, tau.size + 1)))


def block_permutation(sigma: Permutation, block_sizes: Sequence[int]) -> Permutation:
    """The induced permutation of concatenated blocks.

    Applying the result to a concatenation of blocks b1..bn yields the
    concatenation b_{sigma(1)} .. b_{sigma(n)}, order within blocks unchanged.
    """
    if len(block_sizes) != sigma.size:
        raise ValueError("need one block size per permuted slot")
    offsets = [0]
    for s in block_sizes:
        offsets.append(offsets[-1] + s)
    images: list[int] = []
    for j in range(1, sigma.size + 1):
        b = sigma(j)
        images.extend(range(offsets[b - 1] + 1, offsets[b] + 1))
    return Permutation(tuple(images))


def block_sum(taus: Sequence[Permutation]) -> Permutation:
    """Juxtaposition tau_1 ⊕ ... ⊕ tau_n acting blockwise."""
    images: list[int] = []
    offset = 0
    for tau in taus:
        images.extend(offset + tau(i) for i in range(1, tau.size + 1))
        offset += tau.size
    return Permutation(tuple(images))


def compose_i_perm(sigma: Permutation, i: int, tau: Permutation) -> Permutation:
    """The permutation pairing sigma with tau under composition at slot i.

    Reindexing a profile composed at slot sigma(i) by the result equals
    permuting by sigma and then composing at slot i with the tau-permuted
    inner profile: the block permutation widens slot sigma(i) of the source
    to tau's size, and the block sum then applies tau inside the moved block.
    """
    n, m = sigma.size, tau.size
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    sizes = [1] * n
    sizes[sigma(i) - 1] = m
    blocks = [Permutation.identity(1)] * n
    blocks[i - 1] = tau
    return compose(block_permutation(sigma, sizes), block_sum(blocks))
