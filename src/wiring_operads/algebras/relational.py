"""The (typed) relational algebra over undirected wiring diagrams.

An element over a box is a finite set of wire-indexed value vectors.  It
is either explicit, given by its rows, or deferred: a conjunctive query
whose rows are built on the first read of ``vectors`` and then cached.
The six generating structure maps return deferred relations and only
rewrite the query, in time linear in its description, never in its rows:

- an output wire adds a one-variable atom whose rows are its alphabet;
- a 2-cell concatenates the atoms of its two inputs;
- a loop unifies the variables of its two wires and drops both wires;
- a split points its second wire at its first wire's variable;
- a name change relabels the output wires;
- the empty cell is the query with no atoms.

A relation whose rows are known, explicit or already read, enters a query
as one atom.  Reading the rows answers the query: each atom is filtered on
any variable it repeats; then, while some variable sits on no output wire,
the atoms holding the cheapest such variable are joined and the variable
is projected away; what is left is joined and read off the output wires.
This is the eager fold's answer (products, then equality filters) without
building the product of every atom and alphabet that a stratified fold
puts first.

``rigidity_check`` runs the structure-map compatibility squares for a
function between alphabets; by the rigidity theorem the squares commute
exactly when the function is a bijection.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from wiring_operads.finset import FinSet, Value, coproduct
from wiring_operads.algebras.actions import GeneratorAction
from wiring_operads.algebras.vectors import Vec

# An atom: a tuple of variables and a set of rows, one value per variable.
_Atom = tuple[tuple[int, ...], frozenset[tuple]]


@dataclass(frozen=True)
class _Query:
    """Atoms over the variables ``0 .. size - 1`` and the variable each
    wire of the relation reads.  Several wires may read one variable."""

    atoms: tuple[_Atom, ...]
    head: Mapping[str, int]
    size: int

    def relabel(self, table: Mapping[str, str]) -> _Query:
        return _Query(self.atoms, {table[w]: x for w, x in self.head.items()}, self.size)

    def plus(self, other: _Query, left: Mapping[str, str], right: Mapping[str, str]) -> _Query:
        """Both queries side by side; ``other``'s variables shift past ours."""
        shift = self.size
        atoms = self.atoms + tuple(
            (tuple(x + shift for x in xs), rows) for xs, rows in other.atoms
        )
        head = {left[w]: x for w, x in self.head.items()}
        head.update((right[w], x + shift) for w, x in other.head.items())
        return _Query(atoms, head, self.size + other.size)

    def loop(self, x_plus: str, x_minus: str) -> _Query:
        keep, drop = self.head[x_plus], self.head[x_minus]
        head = {w: x for w, x in self.head.items() if w not in (x_plus, x_minus)}
        if keep == drop:
            return _Query(self.atoms, head, self.size)

        def sub(x: int) -> int:
            return keep if x == drop else x

        atoms = tuple((tuple(map(sub, xs)), rows) for xs, rows in self.atoms)
        return _Query(atoms, {w: sub(x) for w, x in head.items()}, self.size)

    def split(self, x1: str, x2: str) -> _Query:
        return _Query(self.atoms, {**self.head, x2: self.head[x1]}, self.size)

    def solve(self) -> _Atom:
        """The rows over the distinct variables the wires read."""
        atoms = [_distinct(xs, rows) for xs, rows in self.atoms]
        shown = tuple(dict.fromkeys(self.head.values()))
        if any(not rows for _, rows in atoms):
            return shown, frozenset()
        hidden = {x for xs, _ in atoms for x in xs} - set(shown)
        while hidden:
            x = min(hidden, key=lambda x: (_cost(atoms, x), x))
            hidden.discard(x)
            holding = [atom for atom in atoms if x in atom[0]]
            atoms = [atom for atom in atoms if x not in atom[0]]
            atoms.append(_project_away(_join_all(holding), x))
        xs, rows = _join_all(atoms)
        place = [xs.index(x) for x in shown]
        return shown, frozenset(tuple(row[k] for k in place) for row in rows)


def _cost(atoms: list[_Atom], x: int) -> int:
    """The rows a join of the atoms holding ``x`` could reach at most."""
    return math.prod(len(rows) for xs, rows in atoms if x in xs)


def _distinct(xs: tuple[int, ...], rows) -> _Atom:
    """Keep the rows that agree wherever a variable repeats, once per variable."""
    first = {}
    for k, x in enumerate(xs):
        first.setdefault(x, k)
    if len(first) == len(xs):
        return xs, rows
    pairs = [(first[x], k) for k, x in enumerate(xs) if first[x] != k]
    keep = list(first.values())
    return tuple(first), frozenset(
        tuple(row[k] for k in keep) for row in rows if all(row[i] == row[j] for i, j in pairs)
    )


def _join(left: _Atom, right: _Atom) -> _Atom:
    """Hash join on the shared variables."""
    lxs, lrows = left
    rxs, rrows = right
    shared = [x for x in rxs if x in lxs]
    lkey = [lxs.index(x) for x in shared]
    rkey = [rxs.index(x) for x in shared]
    extra = [k for k, x in enumerate(rxs) if x not in lxs]
    index: dict[tuple, list[tuple]] = {}
    for row in rrows:
        index.setdefault(tuple(row[k] for k in rkey), []).append(tuple(row[k] for k in extra))
    rows = frozenset(
        row + tail
        for row in lrows
        for tail in index.get(tuple(row[k] for k in lkey), ())
    )
    return lxs + tuple(rxs[k] for k in extra), rows


def _join_all(atoms: list[_Atom]) -> _Atom:
    """Join smallest first, preferring an atom that shares a variable with
    what is joined so far over a cross product."""
    joined: _Atom = ((), frozenset({()}))
    rest = sorted(atoms, key=lambda atom: len(atom[1]))
    while rest:
        seen = set(joined[0])
        pick = next((k for k, (xs, _) in enumerate(rest) if seen.intersection(xs)), 0)
        joined = _join(joined, rest.pop(pick))
    return joined


def _project_away(atom: _Atom, x: int) -> _Atom:
    xs, rows = atom
    keep = [k for k, y in enumerate(xs) if y != x]
    return tuple(xs[k] for k in keep), frozenset(tuple(row[k] for k in keep) for row in rows)


class Relation:
    """A set of vectors total on ``wires``, explicit or deferred.

    ``Relation(wires, vectors)`` is explicit and rejects a vector that is
    not total on the wires.  The structure maps return deferred relations,
    whose rows are built on the first read of ``vectors`` and cached.
    Equality and hashing are by wires and rows, whichever the form.
    """

    __slots__ = ("_wires", "_vectors", "_query")

    def __init__(self, wires: FinSet, vectors: frozenset[Vec]):
        names = set(wires.elements)
        vectors = frozenset(vectors)
        for vec in vectors:
            if vec.keys() != names:
                raise ValueError(f"vector {vec!r} is not total on the wire set")
        self._wires = wires
        self._vectors = vectors
        self._query: _Query | None = None

    @staticmethod
    def of(wires: FinSet, vectors) -> Relation:
        return Relation(wires, frozenset(Vec(v) if not isinstance(v, Vec) else v for v in vectors))

    @staticmethod
    def _deferred(wires: FinSet, query: _Query) -> Relation:
        rel = object.__new__(Relation)
        rel._wires = wires
        rel._vectors = None
        rel._query = query
        return rel

    @property
    def wires(self) -> FinSet:
        return self._wires

    @property
    def vectors(self) -> frozenset[Vec]:
        if self._vectors is None:
            query = self._query
            xs, rows = query.solve()
            place = {x: k for k, x in enumerate(xs)}
            head = [(w, place[x]) for w, x in query.head.items()]
            self._vectors = frozenset(Vec({w: row[k] for w, k in head}) for row in rows)
            self._query = _Query(((xs, rows),), query.head, query.size)
        return self._vectors

    def _as_query(self) -> _Query:
        """This relation as a conjunctive query; known rows make one atom."""
        if self._query is None:
            names = self._wires.elements
            rows = frozenset(tuple(vec[w] for w in names) for vec in self._vectors)
            self._query = _Query(
                ((tuple(range(len(names))), rows),),
                {w: k for k, w in enumerate(names)},
                len(names),
            )
        return self._query

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._wires == other._wires and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash((self._wires, self.vectors))

    def __repr__(self) -> str:
        return f"Relation(wires={self._wires!r}, vectors={self.vectors!r})"


def full_relation(wires: FinSet, alphabets: Mapping[Value, Sequence]) -> Relation:
    return Relation(wires, frozenset(_all_vectors(wires, alphabets)))


def _all_vectors(wires: FinSet, alphabets: Mapping[Value, Sequence]) -> list[Vec]:
    """Every vector over the alphabets, in the order of ``itertools.product``."""
    names = list(wires)
    return [
        Vec(dict(zip(names, combo)))
        for combo in itertools.product(*(alphabets[wires.value(w)] for w in names))
    ]


def typed_relational_action(alphabets: Mapping[Value, Sequence]) -> GeneratorAction:
    """The six generating structure maps, with per-value-tag alphabets."""

    def act_empty(gen) -> Relation:
        # The chosen element of the two-point entry over the empty box is
        # the one containing the empty vector: the query with no atoms.
        return Relation._deferred(FinSet(()), _Query((), {}, 0))

    def act_output_wire(gen) -> Relation:
        wire, value = gen.params
        rows = frozenset((a,) for a in alphabets[value])
        return Relation._deferred(FinSet(((wire, value),)), _Query((((0,), rows),), {wire: 0}, 1))

    def act_name_change(gen, rel: Relation) -> Relation:
        source, target, table = gen.params
        _require_wires(rel, source)
        return Relation._deferred(target, rel._as_query().relabel(dict(table)))

    def act_two_cell(gen, rx: Relation, ry: Relation) -> Relation:
        left, right = gen.params
        _require_wires(rx, left)
        _require_wires(ry, right)
        merged, (inj_l, inj_r) = coproduct([left, right])
        query = rx._as_query().plus(ry._as_query(), dict(inj_l.table), dict(inj_r.table))
        return Relation._deferred(merged, query)

    def act_loop(gen, rel: Relation) -> Relation:
        box, x_plus, x_minus = gen.params
        _require_wires(rel, box)
        query = rel._as_query().loop(x_plus, x_minus)
        return Relation._deferred(box.remove([x_plus, x_minus]), query)

    def act_split(gen, rel: Relation) -> Relation:
        box, x1, x2 = gen.params
        _require_wires(rel, box.quotient([x1, x2]))
        return Relation._deferred(box, rel._as_query().split(x1, x2))

    from wiring_operads.uwd_presentation import (
        EMPTY_CELL,
        OUTPUT_WIRE,
        U_LOOP,
        U_NAME_CHANGE,
        U_SPLIT,
        U_TWO_CELL,
    )

    return GeneratorAction(
        {
            EMPTY_CELL: act_empty,
            OUTPUT_WIRE: act_output_wire,
            U_NAME_CHANGE: act_name_change,
            U_TWO_CELL: act_two_cell,
            U_LOOP: act_loop,
            U_SPLIT: act_split,
        }
    )


def relational_action(alphabet: Sequence) -> GeneratorAction:
    """The untyped relational algebra: one alphabet for every value tag."""

    class Everywhere(dict):
        def __missing__(self, key):
            return alphabet

    return typed_relational_action(Everywhere())


def _require_wires(rel: Relation, wires: FinSet) -> None:
    if rel.wires != wires:
        raise ValueError(f"relation of color {rel.wires} supplied where {wires} expected")


def push_forward(f: Mapping, rel: Relation) -> Relation:
    """Rename values entrywise along a function between alphabets."""
    return Relation(
        rel.wires, frozenset(Vec({w: f[v[w]] for w in v}) for v in rel.vectors)
    )


def is_bijection(f: Mapping, target: Sequence) -> bool:
    return len(set(f.values())) == len(f) == len(set(target)) and set(f.values()) == set(target)


def rigidity_check(f: Mapping, source: Sequence, target: Sequence) -> bool:
    """Whether pushing forward along ``f`` commutes with the output-wire and
    loop structure maps; the rigidity theorem makes this bijectivity."""
    src_action = relational_action(tuple(source))
    tgt_action = relational_action(tuple(target))
    from wiring_operads.uwd_presentation import output_wire, u_loop

    omega = output_wire("w", "v")
    if push_forward(f, src_action.apply(omega, ())) != tgt_action.apply(omega, ()):
        return False
    # Loop squares on the identity relation over one wire per source value.
    wires = FinSet.of({f"e{k}": "v" for k in range(len(source))})
    names = list(wires)
    ident = Relation(
        wires, frozenset({Vec(dict(zip(names, source)))})
    )
    for w_plus, w_minus in itertools.permutations(names, 2):
        loop = u_loop(wires, w_plus, w_minus)
        lhs = push_forward(f, src_action.apply(loop, (ident,)))
        rhs = tgt_action.apply(loop, (push_forward(f, ident),))
        if lhs != rhs:
            return False
    return True


def random_relation(wires: FinSet, alphabets: Mapping[Value, Sequence], rng) -> Relation:
    # Draw in product order: a frozenset's order moves with the string hash seed.
    vectors = frozenset(v for v in _all_vectors(wires, alphabets) if rng.random() < 0.5)
    return Relation(wires, vectors)
