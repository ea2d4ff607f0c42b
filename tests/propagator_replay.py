"""The prefix-replay propagator algebra, kept as the oracle for the stream form.

Every composite here is a step function: given an input prefix it replays
its inputs' steps on whole prefixes, and a loop rebuilds its feedback
history, the sequence of values on the looped wire, for every prefix.  The
cost grows quickly with the horizon, but each map is a direct transcription
of the definition, so the package's stream composites are checked against
these on sampled profiles.
"""
from __future__ import annotations

from typing import Callable, Mapping

from wiring_operads.algebras.actions import GeneratorAction, require_box
from wiring_operads.algebras.propagator import PointedSet, Profile, Propagator
from wiring_operads.algebras.vectors import Vec
from wiring_operads.finset import Value, coproduct
from wiring_operads.wd import Box, EMPTY_BOX, box_coproduct


def feedback_history(g: Propagator, x_plus: str, x_minus: str) -> Callable[[Profile], tuple]:
    """The looped-output history: the sequence of values the loop wire
    carries when the loop is closed with a one-step delay."""
    if x_plus not in g.box.outputs or x_minus not in g.box.inputs:
        raise ValueError("loop wires must be an output and an input of the box")
    memo: dict[Profile, tuple] = {}

    def history(profile: Profile) -> tuple:
        if profile in memo:
            return memo[profile]
        if not profile:
            out = (g.step(())[x_plus],)
        else:
            prev = history(profile[:-1])
            paired = tuple(
                entry.merged({x_minus: prev[k]}) for k, entry in enumerate(profile)
            )
            out = tuple(g.step(paired[:k])[x_plus] for k in range(len(profile) + 1))
        memo[profile] = out
        return out

    return history


def loop_propagator(g: Propagator, x_plus: str, x_minus: str) -> Propagator:
    """Close the loop from output ``x_plus`` back into input ``x_minus``."""
    history = feedback_history(g, x_plus, x_minus)
    smaller = g.box.remove(inputs=[x_minus], outputs=[x_plus])

    def step(profile: Profile) -> Vec:
        if not profile:
            return g.step(()).without(x_plus)
        prev = history(profile[:-1])
        paired = tuple(
            entry.merged({x_minus: prev[k]}) for k, entry in enumerate(profile)
        )
        return g.step(paired).without(x_plus)

    return Propagator(smaller, step)


def double_feedback_history(
    g: Propagator, pair1: tuple[str, str], pair2: tuple[str, str]
) -> Callable[[Profile], tuple]:
    """The joint feedback history of a double loop, as assignments keyed by
    the two looped output wires."""
    (p1, m1), (p2, m2) = pair1, pair2
    memo: dict[Profile, tuple] = {}

    def history(profile: Profile) -> tuple:
        if profile in memo:
            return memo[profile]
        if not profile:
            first = g.step(())
            out = (Vec({p1: first[p1], p2: first[p2]}),)
        else:
            prev = history(profile[:-1])
            paired = tuple(
                entry.merged({m1: prev[k][p1], m2: prev[k][p2]})
                for k, entry in enumerate(profile)
            )
            out = tuple(
                Vec({p1: g.step(paired[:k])[p1], p2: g.step(paired[:k])[p2]})
                for k in range(len(profile) + 1)
            )
        memo[profile] = out
        return out

    return history


def double_loop_propagator(
    g: Propagator, pair1: tuple[str, str], pair2: tuple[str, str]
) -> Propagator:
    """Close two loops simultaneously (the two-at-once recursion, against
    which the iterated single loops are checked)."""
    (p1, m1), (p2, m2) = pair1, pair2
    history = double_feedback_history(g, pair1, pair2)
    smaller = g.box.remove(inputs=[m1, m2], outputs=[p1, p2])

    def step(profile: Profile) -> Vec:
        if not profile:
            return g.step(()).without(p1, p2)
        prev = history(profile[:-1])
        paired = tuple(
            entry.merged({m1: prev[k][p1], m2: prev[k][p2]})
            for k, entry in enumerate(profile)
        )
        return g.step(paired).without(p1, p2)

    return Propagator(smaller, step)


def replay_action(alphabets: Mapping[Value, PointedSet]) -> GeneratorAction:
    """The eight generating structure maps, each composite answering
    ``step`` by replaying its inputs' steps on the whole prefix.

    ``alphabets`` interprets each value tag as a pointed set; the base
    points feed the empty-diagram and delay-node actions.
    """

    def act_empty(gen) -> Propagator:
        return Propagator(EMPTY_BOX, lambda profile: Vec({}))

    def act_delay(gen) -> Propagator:
        (value,) = gen.params
        base = alphabets[value].base
        box = Box.of({value: value}, {value: value})

        def step(profile: Profile) -> Vec:
            if not profile:
                return Vec({value: base})
            return Vec({value: profile[-1][value]})

        return Propagator(box, step)

    def act_name_change(gen, g: Propagator) -> Propagator:
        source, target, f_in, f_out = gen.params
        require_box(g, source)
        f_in, f_out = dict(f_in), dict(f_out)

        def step(profile: Profile) -> Vec:
            inner = tuple(Vec({x: entry[f_in[x]] for x in source.inputs}) for entry in profile)
            val = g.step(inner)
            return Vec({y: val[f_out[y]] for y in target.outputs})

        return Propagator(target, step)

    def act_two_cell(gen, gx: Propagator, gy: Propagator) -> Propagator:
        left, right = gen.params
        require_box(gx, left)
        require_box(gy, right)
        _, (in_l, in_r) = coproduct([left.inputs, right.inputs])
        _, (out_l, out_r) = coproduct([left.outputs, right.outputs])

        def step(profile: Profile) -> Vec:
            px = tuple(Vec({x: entry[in_l(x)] for x in left.inputs}) for entry in profile)
            py = tuple(Vec({y: entry[in_r(y)] for y in right.inputs}) for entry in profile)
            vx, vy = gx.step(px), gy.step(py)
            out = {out_l(w): vx[w] for w in left.outputs}
            out.update({out_r(w): vy[w] for w in right.outputs})
            return Vec(out)

        return Propagator(box_coproduct([left, right]), step)

    def act_loop(gen, g: Propagator) -> Propagator:
        box, x_plus, x_minus = gen.params
        require_box(g, box)
        return loop_propagator(g, x_plus, x_minus)

    def act_in_split(gen, g: Propagator) -> Propagator:
        box, x1, x2 = gen.params
        require_box(g, box)
        merged = Box(box.inputs.quotient([x1, x2]), box.outputs)

        def step(profile: Profile) -> Vec:
            widened = tuple(entry.merged({x1: entry[x1], x2: entry[x1]}) for entry in profile)
            return g.step(widened)

        return Propagator(merged, step)

    def act_out_split(gen, g: Propagator) -> Propagator:
        box, y1, y2 = gen.params
        inner = Box(box.inputs, box.outputs.quotient([y1, y2]))
        require_box(g, inner)

        def step(profile: Profile) -> Vec:
            val = g.step(profile)
            return val.merged({y1: val[y1], y2: val[y1]})

        return Propagator(box, step)

    def act_wasted(gen, g: Propagator) -> Propagator:
        box, y = gen.params
        inner = Box(box.inputs.remove([y]), box.outputs)
        require_box(g, inner)

        def step(profile: Profile) -> Vec:
            return g.step(tuple(entry.without(y) for entry in profile))

        return Propagator(box, step)

    from wiring_operads.wd_presentation import (
        DELAY_NODE,
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
            DELAY_NODE: act_delay,
            NAME_CHANGE: act_name_change,
            TWO_CELL: act_two_cell,
            ONE_LOOP: act_loop,
            IN_SPLIT: act_in_split,
            OUT_SPLIT: act_out_split,
            WASTED_WIRE: act_wasted,
        }
    )
