"""The algebra of discrete systems over normal wiring diagrams.

A discrete system on a box is a Moore machine: a finite state set, a
readout table from states to output-wire assignments, and an update table
from (input assignment, state) pairs to states.  States are always tuples
so that pairing under 2-cells is concatenation, which makes the
associativity of parallel composition hold as literal table equality.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from wiring_operads.finset import Value, coproduct
from wiring_operads.algebras.actions import GeneratorAction, require_box
from wiring_operads.algebras.vectors import Vec
from wiring_operads.wd import Box, EMPTY_BOX


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    box: Box
    states: tuple[tuple, ...]
    readout: Mapping[tuple, Vec]
    update: Mapping[tuple[Vec, tuple], tuple]

    def __eq__(self, other: object) -> bool:
        # State order is kept for simulation defaults and serialization
        # only; equality is table equality.
        if not isinstance(other, DiscreteSystem):
            return NotImplemented
        return (
            self.box == other.box
            and set(self.states) == set(other.states)
            and dict(self.readout) == dict(other.readout)
            and dict(self.update) == dict(other.update)
        )

    @staticmethod
    def make(
        box: Box,
        states: Sequence,
        readout: Mapping,
        update: Mapping,
    ) -> "DiscreteSystem":
        """Build a system from user tables, wrapping atomic states into
        1-tuples and plain-dict assignments into Vecs."""

        def wrap(s):
            return s if isinstance(s, tuple) else (s,)

        def vec(v):
            return v if isinstance(v, Vec) else Vec(v)

        return DiscreteSystem(
            box,
            tuple(wrap(s) for s in states),
            {wrap(s): vec(v) for s, v in readout.items()},
            {(vec(i), wrap(s)): wrap(t) for (i, s), t in update.items()},
        )


def relabel_states(ds: DiscreteSystem, table: Mapping[tuple, tuple]) -> DiscreteSystem:
    """Reindex the state set along a bijection.

    Pairing under a 2-cell concatenates state tuples, so the commutativity
    axiom square holds only after the canonical re-pairing of the two
    factors; this helper applies such a bijection to all three tables.
    """
    return DiscreteSystem(
        ds.box,
        tuple(table[s] for s in ds.states),
        {table[s]: v for s, v in ds.readout.items()},
        {(vec, table[s]): table[t] for (vec, s), t in ds.update.items()},
    )


def input_space(box: Box, alphabets: Mapping[Value, Sequence]) -> list[Vec]:
    wires = list(box.inputs)
    return [
        Vec(dict(zip(wires, combo)))
        for combo in itertools.product(
            *(alphabets[box.inputs.value(w)] for w in wires)
        )
    ]


def simulate(
    ds: DiscreteSystem, inputs: Sequence[Vec], start: tuple | None = None
) -> tuple[list[tuple], list[Vec]]:
    """Run the machine: the state trace includes the starting state and the
    output trace is the readout along it."""
    state = start if start is not None else ds.states[0]
    if state not in ds.states:
        raise ValueError(f"unknown state {state!r}")
    states = [state]
    for entry in inputs:
        state = ds.update[(Vec(entry), state)]
        states.append(state)
    outputs = [ds.readout[s] for s in states]
    return states, outputs


def discrete_systems_action(alphabets: Mapping[Value, Sequence]) -> GeneratorAction:
    """The seven generating structure maps of the discrete-systems algebra.

    ``alphabets`` interprets each value tag as a finite set, which the
    actions use to enumerate full update tables.
    """

    def act_empty(gen) -> DiscreteSystem:
        empty_state = ()
        return DiscreteSystem(
            EMPTY_BOX,
            (empty_state,),
            {empty_state: Vec({})},
            {(Vec({}), empty_state): empty_state},
        )

    def act_name_change(gen, ds: DiscreteSystem) -> DiscreteSystem:
        source, target, f_in, f_out = gen.params
        require_box(ds, source)
        f_in = dict(f_in)
        f_out = dict(f_out)
        readout = {
            s: Vec({y: ds.readout[s][f_out[y]] for y in target.outputs})
            for s in ds.states
        }
        update = {
            (vec, s): ds.update[(Vec({x: vec[f_in[x]] for x in source.inputs}), s)]
            for vec in input_space(target, alphabets)
            for s in ds.states
        }
        return DiscreteSystem(target, ds.states, readout, update)

    def act_two_cell(gen, dx: DiscreteSystem, dy: DiscreteSystem) -> DiscreteSystem:
        left, right = gen.params
        require_box(dx, left)
        require_box(dy, right)
        _, (in_l, in_r) = coproduct([left.inputs, right.inputs])
        _, (out_l, out_r) = coproduct([left.outputs, right.outputs])
        from wiring_operads.wd import box_coproduct

        box = box_coproduct([left, right])
        states = tuple(s + t for s in dx.states for t in dy.states)
        readout = {}
        update = {}
        for s in dx.states:
            for t in dy.states:
                merged = {out_l(w): dx.readout[s][w] for w in left.outputs}
                merged.update({out_r(w): dy.readout[t][w] for w in right.outputs})
                readout[s + t] = Vec(merged)
        for vec in input_space(box, alphabets):
            vx = Vec({x: vec[in_l(x)] for x in left.inputs})
            vy = Vec({y: vec[in_r(y)] for y in right.inputs})
            for s in dx.states:
                for t in dy.states:
                    update[(vec, s + t)] = dx.update[(vx, s)] + dy.update[(vy, t)]
        return DiscreteSystem(box, states, readout, update)

    def act_loop(gen, ds: DiscreteSystem) -> DiscreteSystem:
        box, x_plus, x_minus = gen.params
        require_box(ds, box)
        smaller = box.remove(inputs=[x_minus], outputs=[x_plus])
        readout = {s: ds.readout[s].without(x_plus) for s in ds.states}
        update = {
            (vec, s): ds.update[(vec.merged({x_minus: ds.readout[s][x_plus]}), s)]
            for vec in input_space(smaller, alphabets)
            for s in ds.states
        }
        return DiscreteSystem(smaller, ds.states, readout, update)

    def act_in_split(gen, ds: DiscreteSystem) -> DiscreteSystem:
        box, x1, x2 = gen.params
        require_box(ds, box)
        merged = Box(box.inputs.quotient([x1, x2]), box.outputs)
        update = {
            (vec, s): ds.update[(vec.merged({x1: vec[x1], x2: vec[x1]}), s)]
            for vec in input_space(merged, alphabets)
            for s in ds.states
        }
        return DiscreteSystem(merged, ds.states, dict(ds.readout), update)

    def act_out_split(gen, ds: DiscreteSystem) -> DiscreteSystem:
        box, y1, y2 = gen.params
        inner = Box(box.inputs, box.outputs.quotient([y1, y2]))
        require_box(ds, inner)
        readout = {
            s: ds.readout[s].merged({y1: ds.readout[s][y1], y2: ds.readout[s][y1]})
            for s in ds.states
        }
        return DiscreteSystem(box, ds.states, readout, dict(ds.update))

    def act_wasted(gen, ds: DiscreteSystem) -> DiscreteSystem:
        box, y = gen.params
        inner = Box(box.inputs.remove([y]), box.outputs)
        require_box(ds, inner)
        update = {
            (vec, s): ds.update[(vec.without(y), s)]
            for vec in input_space(box, alphabets)
            for s in ds.states
        }
        return DiscreteSystem(box, ds.states, dict(ds.readout), update)

    from wiring_operads.wd_presentation import (
        EMPTY_WD,
        IN_SPLIT,
        NAME_CHANGE,
        ONE_LOOP,
        OUT_SPLIT,
        TWO_CELL,
        WASTED_WIRE,
    )

    return GeneratorAction(
        {
            EMPTY_WD: act_empty,
            NAME_CHANGE: act_name_change,
            TWO_CELL: act_two_cell,
            ONE_LOOP: act_loop,
            IN_SPLIT: act_in_split,
            OUT_SPLIT: act_out_split,
            WASTED_WIRE: act_wasted,
        }
    )


def random_discrete_system(
    box: Box, alphabets: Mapping[Value, Sequence], rng, max_states: int = 3
) -> DiscreteSystem:
    n = rng.randrange(1, max_states + 1)
    states = tuple((f"s{k}",) for k in range(n))
    readout = {
        s: Vec({w: rng.choice(list(alphabets[box.outputs.value(w)])) for w in box.outputs})
        for s in states
    }
    update = {
        (vec, s): rng.choice(states)
        for vec in input_space(box, alphabets)
        for s in states
    }
    return DiscreteSystem(box, states, readout, update)
