"""The eager relational algebra, kept as the oracle for the deferred one.

Each generating structure map here builds its rows at once: output wires
give the full alphabet, 2-cells the full product, loops filter on entry
equality and delete, splits duplicate entries.  The cost is the product of
everything a stratified fold puts first, but each map is a direct
transcription of the definition, so the package's deferred relations are
checked against these.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from wiring_operads.algebras.actions import GeneratorAction
from wiring_operads.algebras.relational import Relation
from wiring_operads.algebras.vectors import Vec
from wiring_operads.finset import FinSet, Value, coproduct
from wiring_operads.uwd_presentation import (
    EMPTY_CELL,
    OUTPUT_WIRE,
    U_LOOP,
    U_NAME_CHANGE,
    U_SPLIT,
    U_TWO_CELL,
)


def _require_wires(rel: Relation, wires: FinSet) -> None:
    if rel.wires != wires:
        raise ValueError(f"relation of color {rel.wires} supplied where {wires} expected")


def eager_relational_action(alphabets: Mapping[Value, Sequence]) -> GeneratorAction:
    """The six generating structure maps, each building its rows at once."""

    def act_empty(gen) -> Relation:
        return Relation(FinSet(()), frozenset({Vec({})}))

    def act_output_wire(gen) -> Relation:
        wire, value = gen.params
        return Relation(
            FinSet(((wire, value),)),
            frozenset(Vec({wire: a}) for a in alphabets[value]),
        )

    def act_name_change(gen, rel: Relation) -> Relation:
        source, target, table = gen.params
        _require_wires(rel, source)
        table = dict(table)
        return Relation(target, frozenset(v.relabel(table) for v in rel.vectors))

    def act_two_cell(gen, rx: Relation, ry: Relation) -> Relation:
        left, right = gen.params
        _require_wires(rx, left)
        _require_wires(ry, right)
        merged, (inj_l, inj_r) = coproduct([left, right])
        vectors = frozenset(
            u.relabel(dict(inj_l.table)).merged(v.relabel(dict(inj_r.table)))
            for u in rx.vectors
            for v in ry.vectors
        )
        return Relation(merged, vectors)

    def act_loop(gen, rel: Relation) -> Relation:
        box, x_plus, x_minus = gen.params
        _require_wires(rel, box)
        smaller = box.remove([x_plus, x_minus])
        vectors = frozenset(
            v.without(x_plus, x_minus)
            for v in rel.vectors
            if v[x_plus] == v[x_minus]
        )
        return Relation(smaller, vectors)

    def act_split(gen, rel: Relation) -> Relation:
        box, x1, x2 = gen.params
        merged = box.quotient([x1, x2])
        _require_wires(rel, merged)
        vectors = frozenset(
            v.merged({x1: v[x1], x2: v[x1]}) for v in rel.vectors
        )
        return Relation(box, vectors)

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
