"""Generators, relations, and stratified normal forms for wiring diagrams.

Eight generating diagrams suffice to build every wiring diagram by operadic
composition: the empty diagram, 1-delay nodes, name changes, 2-cells,
1-loops, in-splits, out-splits, and 1-wasted wires.  This module constructs
them, realizes the twenty-eight generating relations as executable pairs of
simplices, and decomposes an arbitrary diagram into a stratified simplex

    (omega*, empty)                              -- no boxes, no delay nodes
    (tau, loop*, wasted*, in-split*, out-split*, 2-cell*, delay*)

whose evaluation is equivalent to the input.  Quotient boxes keep the first
named wire (the identified pair ``(x1, x2)`` collapses to ``x1``); the
orderings of the generator strings are fixed by sorting wire identifiers, so
the normal form is deterministic.

``stratify`` factors the diagram and expands each factor into one string:

    psi   = alpha o phi            split_alpha_phi
    alpha = pi1 o pi2              split_pi
    pi2   = beta1 o beta2 o beta3  split_beta

    phi    2-cells and delay nodes  expand_cells_delays
    beta3  out-splits               expand_outsplits
    beta2  in-splits                expand_insplits
    beta1  wasted wires             expand_wasted
    pi1    loops                    expand_loops

The expansions run in that order, from the tower's box X' outwards, each
starting on the box the previous one ended on; the leading name change
(``wires_change``) then renames the last box to psi's output box.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from wiring_operads.finset import EMPTY, FinSet, Permutation, Value, coproduct, fresh_name
from wiring_operads.simplex import (
    Leaf,
    Node,
    Perm,
    Simplex,
    chain,
    evaluate,
    leaves,
    tower_simplex,
    two_cell_tower,
)
from wiring_operads.wd import (
    Address,
    Box,
    EMPTY_BOX,
    WiringDiagram,
    box_coproduct,
    classify,
    comp_i,
    equivalent,
    make_wd,
    permute,
)

EMPTY_WD = "empty"
DELAY_NODE = "delay_node"
NAME_CHANGE = "name_change"
TWO_CELL = "two_cell"
ONE_LOOP = "one_loop"
IN_SPLIT = "in_split"
OUT_SPLIT = "out_split"
WASTED_WIRE = "wasted_wire"

KINDS = (EMPTY_WD, DELAY_NODE, NAME_CHANGE, TWO_CELL, ONE_LOOP, IN_SPLIT, OUT_SPLIT, WASTED_WIRE)
NORMAL_KINDS = tuple(k for k in KINDS if k != DELAY_NODE)
STRICT_KINDS = (EMPTY_WD, NAME_CHANGE, TWO_CELL, ONE_LOOP)


class InvalidParamsError(ValueError):
    """Generator parameters violate the defining hypotheses."""


@dataclass(frozen=True)
class WDGenerator:
    kind: str
    params: tuple = ()

    def __repr__(self) -> str:
        return f"WDGenerator({self.kind}, {self.params!r})"


def empty_wd() -> WDGenerator:
    return WDGenerator(EMPTY_WD)


def delay_node(value: Value) -> WDGenerator:
    return WDGenerator(DELAY_NODE, (value,))


def name_change(
    source: Box, target: Box, f_in: Mapping[str, str], f_out: Mapping[str, str]
) -> WDGenerator:
    """tau from ``source`` to ``target``: f_in renames source inputs to target
    inputs, f_out renames target outputs back to source outputs."""
    return WDGenerator(
        NAME_CHANGE,
        (source, target, tuple(sorted(f_in.items())), tuple(sorted(f_out.items()))),
    )


def identity_change(box: Box) -> WDGenerator:
    return name_change(
        box, box, {x: x for x in box.inputs}, {y: y for y in box.outputs}
    )


def two_cell(left: Box, right: Box) -> WDGenerator:
    return WDGenerator(TWO_CELL, (left, right))


def one_loop(box: Box, x_plus: str, x_minus: str) -> WDGenerator:
    return WDGenerator(ONE_LOOP, (box, x_plus, x_minus))


def in_split(box: Box, x1: str, x2: str) -> WDGenerator:
    return WDGenerator(IN_SPLIT, (box, x1, x2))


def out_split(box: Box, y1: str, y2: str) -> WDGenerator:
    return WDGenerator(OUT_SPLIT, (box, y1, y2))


def wasted_wire(box: Box, y: str) -> WDGenerator:
    return WDGenerator(WASTED_WIRE, (box, y))


def generator_arity(gen: WDGenerator) -> int:
    return {EMPTY_WD: 0, DELAY_NODE: 0, TWO_CELL: 2}.get(gen.kind, 1)


def _delay_box(value: Value) -> Box:
    """The box of the delay-node generator of ``value``."""
    return Box.of({value: value}, {value: value})


def generator(gen: WDGenerator) -> WiringDiagram:
    """The literal wiring diagram of a generating datum."""
    if gen.kind == EMPTY_WD:
        return make_wd([], EMPTY_BOX, EMPTY, {})

    if gen.kind == DELAY_NODE:
        (value,) = gen.params
        return make_wd(
            [],
            _delay_box(value),
            FinSet.of({value: value}),
            {("gout", value): ("dn", value), ("dn", value): ("gin", value)},
        )

    if gen.kind == NAME_CHANGE:
        source, target, f_in, f_out = gen.params
        f_in, f_out = dict(f_in), dict(f_out)
        if sorted(f_in) != sorted(source.inputs.elements) or sorted(
            f_in.values()
        ) != sorted(target.inputs.elements):
            raise InvalidParamsError("f_in is not a bijection of the input sets")
        if sorted(f_out) != sorted(target.outputs.elements) or sorted(
            f_out.values()
        ) != sorted(source.outputs.elements):
            raise InvalidParamsError("f_out is not a bijection of the output sets")
        supplier: dict[Address, Address] = {}
        for y in target.outputs:
            supplier[("gout", y)] = ("bout", 1, f_out[y])
        for x in source.inputs:
            supplier[("bin", 1, x)] = ("gin", f_in[x])
        return make_wd([source], target, EMPTY, supplier)

    if gen.kind == TWO_CELL:
        left, right = gen.params
        out_box = box_coproduct([left, right])
        _, (in_l, in_r) = coproduct([left.inputs, right.inputs])
        _, (out_l, out_r) = coproduct([left.outputs, right.outputs])
        supplier = {}
        for i, (box, inj_in, inj_out) in enumerate(
            ((left, in_l, out_l), (right, in_r, out_r)), start=1
        ):
            for w in box.outputs:
                supplier[("gout", inj_out(w))] = ("bout", i, w)
            for w in box.inputs:
                supplier[("bin", i, w)] = ("gin", inj_in(w))
        return make_wd([left, right], out_box, EMPTY, supplier)

    if gen.kind == ONE_LOOP:
        box, x_plus, x_minus = gen.params
        if x_plus not in box.outputs or x_minus not in box.inputs:
            raise InvalidParamsError("loop wires must be an output and an input")
        if box.outputs.value(x_plus) != box.inputs.value(x_minus):
            raise InvalidParamsError("loop wires must share one value")
        out_box = box.remove(inputs=[x_minus], outputs=[x_plus])
        supplier = {("bin", 1, x_minus): ("bout", 1, x_plus)}
        for y in out_box.outputs:
            supplier[("gout", y)] = ("bout", 1, y)
        for x in out_box.inputs:
            supplier[("bin", 1, x)] = ("gin", x)
        return make_wd([box], out_box, EMPTY, supplier)

    if gen.kind == IN_SPLIT:
        box, x1, x2 = gen.params
        if x1 == x2:
            raise InvalidParamsError("in-split wires must be distinct")
        if x1 not in box.inputs or x2 not in box.inputs:
            raise InvalidParamsError("in-split wires must be inputs")
        if box.inputs.value(x1) != box.inputs.value(x2):
            raise InvalidParamsError("in-split wires must share one value")
        out_box = Box(box.inputs.quotient([x1, x2]), box.outputs)
        supplier = {("bin", 1, x1): ("gin", x1), ("bin", 1, x2): ("gin", x1)}
        for y in box.outputs:
            supplier[("gout", y)] = ("bout", 1, y)
        for x in box.inputs:
            if x not in (x1, x2):
                supplier[("bin", 1, x)] = ("gin", x)
        return make_wd([box], out_box, EMPTY, supplier)

    if gen.kind == OUT_SPLIT:
        box, y1, y2 = gen.params
        if y1 == y2:
            raise InvalidParamsError("out-split wires must be distinct")
        if y1 not in box.outputs or y2 not in box.outputs:
            raise InvalidParamsError("out-split wires must be outputs")
        if box.outputs.value(y1) != box.outputs.value(y2):
            raise InvalidParamsError("out-split wires must share one value")
        in_box = Box(box.inputs, box.outputs.quotient([y1, y2]))
        supplier = {("gout", y1): ("bout", 1, y1), ("gout", y2): ("bout", 1, y1)}
        for y in box.outputs:
            if y not in (y1, y2):
                supplier[("gout", y)] = ("bout", 1, y)
        for x in box.inputs:
            supplier[("bin", 1, x)] = ("gin", x)
        return make_wd([in_box], box, EMPTY, supplier)

    if gen.kind == WASTED_WIRE:
        box, y = gen.params
        if y not in box.inputs:
            raise InvalidParamsError("wasted wire must be a global input")
        in_box = Box(box.inputs.remove([y]), box.outputs)
        supplier = {}
        for w in box.outputs:
            supplier[("gout", w)] = ("bout", 1, w)
        for x in in_box.inputs:
            supplier[("bin", 1, x)] = ("gin", x)
        return make_wd([in_box], box, EMPTY, supplier)

    raise InvalidParamsError(f"unknown generator kind {gen.kind!r}")


def eval_simplex(simplex: Simplex) -> WiringDiagram:
    return evaluate(simplex, generator, comp_i, permute)


# -- the twenty-eight elementary relations --------------------------------
#
# Each builder returns a pair of simplices with equal evaluations.  Wire
# names across the parameter boxes are assumed disjoint, matching the
# hypotheses under which the source constructions are stated.

RELATION_IDS = (
    "a1", "a2", "a3", "a4", "a5", "a6",
    "b0", "b1", "b2", "b3", "b4", "b5", "b6",
    "c1", "c2", "c3", "c4", "c5", "c6",
    "d1", "d2", "d3", "d4", "d5",
    "e1", "e2", "e3",
    "f1",
)


def _induced_change(nc1: WDGenerator, nc2: WDGenerator) -> WDGenerator:
    """The name change between box coproducts induced by two name changes."""
    (x1, y1, fin1, fout1) = nc1.params
    (x2, y2, fin2, fout2) = nc2.params
    src = box_coproduct([x1, x2])
    tgt = box_coproduct([y1, y2])
    _, (si1, si2) = coproduct([x1.inputs, x2.inputs])
    _, (so1, so2) = coproduct([x1.outputs, x2.outputs])
    _, (ti1, ti2) = coproduct([y1.inputs, y2.inputs])
    _, (to1, to2) = coproduct([y1.outputs, y2.outputs])
    f_in = {si1(a): ti1(b) for a, b in fin1} | {si2(a): ti2(b) for a, b in fin2}
    f_out = {to1(a): so1(b) for a, b in fout1} | {to2(a): so2(b) for a, b in fout2}
    return name_change(src, tgt, f_in, f_out)


def _restricted_change(
    nc: WDGenerator,
    drop_src_in: Sequence[str] = (),
    drop_src_out: Sequence[str] = (),
    merge_src_in: Sequence[str] = (),
    merge_src_out: Sequence[str] = (),
) -> WDGenerator:
    """Restrict a name change along wire removal or a binary quotient."""
    src, tgt, f_in, f_out = nc.params
    f_in, f_out = dict(f_in), dict(f_out)
    new_src, new_tgt = src, tgt
    if drop_src_in:
        new_src = Box(new_src.inputs.remove(drop_src_in), new_src.outputs)
        new_tgt = Box(new_tgt.inputs.remove([f_in[x] for x in drop_src_in]), new_tgt.outputs)
        for x in drop_src_in:
            del f_in[x]
    if drop_src_out:
        inv_out = {v: k for k, v in f_out.items()}
        new_src = Box(new_src.inputs, new_src.outputs.remove(drop_src_out))
        new_tgt = Box(new_tgt.inputs, new_tgt.outputs.remove([inv_out[x] for x in drop_src_out]))
        for x in drop_src_out:
            del f_out[inv_out[x]]
    if merge_src_in:
        a, b = merge_src_in
        new_src = Box(new_src.inputs.quotient([a, b]), new_src.outputs)
        new_tgt = Box(new_tgt.inputs.quotient([f_in[a], f_in[b]]), new_tgt.outputs)
        del f_in[b]
    if merge_src_out:
        a, b = merge_src_out
        inv_out = {v: k for k, v in f_out.items()}
        new_src = Box(new_src.inputs, new_src.outputs.quotient([a, b]))
        new_tgt = Box(new_tgt.inputs, new_tgt.outputs.quotient([inv_out[a], inv_out[b]]))
        del f_out[inv_out[b]]
    return name_change(new_src, new_tgt, f_in, f_out)


def elementary_relation(rel_id: int | str, params: Mapping) -> tuple[Simplex, Simplex]:
    """The two sides of one of the 28 generating relations.

    ``rel_id`` is a name from RELATION_IDS or its 1-based position; params is
    the keyword mapping produced by ``random_relation_params`` (see each
    branch for the fields).
    """
    if isinstance(rel_id, int):
        rel_id = RELATION_IDS[rel_id - 1]
    p = dict(params)

    if rel_id == "a1":
        xy, yz = p["first"], p["second"]
        sx, _, fin1, fout1 = xy.params
        _, tz, fin2, fout2 = yz.params
        composite = name_change(
            sx, tz,
            {a: dict(fin2)[b] for a, b in fin1},
            {a: dict(fout1)[b] for a, b in fout2},
        )
        return Node(Leaf(yz), 1, Leaf(xy)), Leaf(composite)

    if rel_id == "a2":
        nc1, nc2 = p["first"], p["second"]
        x1, y1 = nc1.params[0], nc1.params[1]
        x2, y2 = nc2.params[0], nc2.params[1]
        lhs = Node(Node(Leaf(two_cell(y1, y2)), 1, Leaf(nc1)), 2, Leaf(nc2))
        rhs = Node(Leaf(_induced_change(nc1, nc2)), 1, Leaf(two_cell(x1, x2)))
        return lhs, rhs

    if rel_id == "a3":
        nc, x_plus, x_minus = p["change"], p["x_plus"], p["x_minus"]
        src, tgt, f_in, f_out = nc.params
        y_minus = dict(f_in)[x_minus]
        y_plus = {v: k for k, v in dict(f_out).items()}[x_plus]
        restricted = _restricted_change(nc, drop_src_in=[x_minus], drop_src_out=[x_plus])
        lhs = Node(Leaf(one_loop(tgt, y_plus, y_minus)), 1, Leaf(nc))
        rhs = Node(Leaf(restricted), 1, Leaf(one_loop(src, x_plus, x_minus)))
        return lhs, rhs

    if rel_id == "a4":
        nc, x1, x2 = p["change"], p["x1"], p["x2"]
        src, tgt, f_in, _ = nc.params
        y1, y2 = dict(f_in)[x1], dict(f_in)[x2]
        restricted = _restricted_change(nc, merge_src_in=[x1, x2])
        lhs = Node(Leaf(in_split(tgt, y1, y2)), 1, Leaf(nc))
        rhs = Node(Leaf(restricted), 1, Leaf(in_split(src, x1, x2)))
        return lhs, rhs

    if rel_id == "a5":
        nc, x1, x2 = p["change"], p["x1"], p["x2"]
        src, tgt, _, f_out = nc.params
        inv_out = {v: k for k, v in dict(f_out).items()}
        y1, y2 = inv_out[x1], inv_out[x2]
        restricted = _restricted_change(nc, merge_src_out=[x1, x2])
        lhs = Node(Leaf(out_split(tgt, y1, y2)), 1, Leaf(restricted))
        rhs = Node(Leaf(nc), 1, Leaf(out_split(src, x1, x2)))
        return lhs, rhs

    if rel_id == "a6":
        nc, x = p["change"], p["x"]
        src, tgt, f_in, _ = nc.params
        y = dict(f_in)[x]
        restricted = _restricted_change(nc, drop_src_in=[x])
        lhs = Node(Leaf(wasted_wire(tgt, y)), 1, Leaf(restricted))
        rhs = Node(Leaf(nc), 1, Leaf(wasted_wire(src, x)))
        return lhs, rhs

    if rel_id == "b0":
        box = p["box"]
        lhs = Node(Leaf(two_cell(box, EMPTY_BOX)), 2, Leaf(empty_wd()))
        return lhs, Leaf(identity_change(box))

    if rel_id == "b1":
        x, y, z = p["x"], p["y"], p["z"]
        lhs = Node(Leaf(two_cell(box_coproduct([x, y]), z)), 1, Leaf(two_cell(x, y)))
        rhs = Node(Leaf(two_cell(x, box_coproduct([y, z]))), 2, Leaf(two_cell(y, z)))
        return lhs, rhs

    if rel_id == "b2":
        x, y = p["x"], p["y"]
        lhs = Perm(Leaf(two_cell(x, y)), Permutation((2, 1)))
        return lhs, Leaf(two_cell(y, x))

    if rel_id == "b3":
        x, y, x_plus, x_minus = p["x"], p["y"], p["x_plus"], p["x_minus"]
        x_minus_x = Box(x.inputs.remove([x_minus]), x.outputs.remove([x_plus]))
        lhs = Node(Leaf(two_cell(x_minus_x, y)), 1, Leaf(one_loop(x, x_plus, x_minus)))
        xy = box_coproduct([x, y])
        rhs = Node(Leaf(one_loop(xy, x_plus, x_minus)), 1, Leaf(two_cell(x, y)))
        return lhs, rhs

    if rel_id == "b4":
        x, y, x1, x2 = p["x"], p["y"], p["x1"], p["x2"]
        merged = Box(x.inputs.quotient([x1, x2]), x.outputs)
        lhs = Node(Leaf(two_cell(merged, y)), 1, Leaf(in_split(x, x1, x2)))
        rhs = Node(Leaf(in_split(box_coproduct([x, y]), x1, x2)), 1, Leaf(two_cell(x, y)))
        return lhs, rhs

    if rel_id == "b5":
        x, y, x1, x2 = p["x"], p["y"], p["x1"], p["x2"]
        merged = Box(x.inputs, x.outputs.quotient([x1, x2]))
        lhs = Node(Leaf(two_cell(x, y)), 1, Leaf(out_split(x, x1, x2)))
        rhs = Node(Leaf(out_split(box_coproduct([x, y]), x1, x2)), 1, Leaf(two_cell(merged, y)))
        return lhs, rhs

    if rel_id == "b6":
        x, y, x0 = p["x"], p["y"], p["x0"]
        smaller = Box(x.inputs.remove([x0]), x.outputs)
        lhs = Node(Leaf(two_cell(x, y)), 1, Leaf(wasted_wire(x, x0)))
        rhs = Node(Leaf(wasted_wire(box_coproduct([x, y]), x0)), 1, Leaf(two_cell(smaller, y)))
        return lhs, rhs

    if rel_id == "c1":
        x, p1, m1, p2, m2 = p["x"], p["plus1"], p["minus1"], p["plus2"], p["minus2"]
        no1 = Box(x.inputs.remove([m1]), x.outputs.remove([p1]))
        no2 = Box(x.inputs.remove([m2]), x.outputs.remove([p2]))
        lhs = Node(Leaf(one_loop(no1, p2, m2)), 1, Leaf(one_loop(x, p1, m1)))
        rhs = Node(Leaf(one_loop(no2, p1, m1)), 1, Leaf(one_loop(x, p2, m2)))
        return lhs, rhs

    if rel_id == "c2":
        x, plus, minus, x1, x2 = p["x"], p["plus"], p["minus"], p["x1"], p["x2"]
        merged = Box(x.inputs.quotient([x1, x2]), x.outputs)
        removed = Box(x.inputs.remove([minus]), x.outputs.remove([plus]))
        lhs = Node(Leaf(one_loop(merged, plus, minus)), 1, Leaf(in_split(x, x1, x2)))
        rhs = Node(Leaf(in_split(removed, x1, x2)), 1, Leaf(one_loop(x, plus, minus)))
        return lhs, rhs

    if rel_id == "c3":
        x, plus, minus, x1, x2 = p["x"], p["plus"], p["minus"], p["x1"], p["x2"]
        merged = Box(x.inputs, x.outputs.quotient([x1, x2]))
        removed = Box(x.inputs.remove([minus]), x.outputs.remove([plus]))
        lhs = Node(Leaf(out_split(removed, x1, x2)), 1, Leaf(one_loop(merged, plus, minus)))
        rhs = Node(Leaf(one_loop(x, plus, minus)), 1, Leaf(out_split(x, x1, x2)))
        return lhs, rhs

    if rel_id == "c4":
        x, plus, minus, x0 = p["x"], p["plus"], p["minus"], p["x0"]
        smaller = Box(x.inputs.remove([x0]), x.outputs)
        removed = Box(x.inputs.remove([minus]), x.outputs.remove([plus]))
        lhs = Node(Leaf(wasted_wire(removed, x0)), 1, Leaf(one_loop(smaller, plus, minus)))
        rhs = Node(Leaf(one_loop(x, plus, minus)), 1, Leaf(wasted_wire(x, x0)))
        return lhs, rhs

    if rel_id == "c5":
        y, o1, o2, i1, i2 = p["y"], p["out1"], p["out2"], p["in1"], p["in2"]
        x = Box(y.inputs, y.outputs.quotient([o1, o2]))  # merged output named o1
        x_prime = Box(x.inputs.quotient([i1, i2]), x.outputs)
        lhs = Node(Leaf(one_loop(x_prime, o1, i1)), 1, Leaf(in_split(x, i1, i2)))
        y_minus_1 = Box(y.inputs.remove([i1]), y.outputs.remove([o1]))
        inner = Node(Leaf(one_loop(y, o1, i1)), 1, Leaf(out_split(y, o1, o2)))
        rhs = Node(Leaf(one_loop(y_minus_1, o2, i2)), 1, inner)
        return lhs, rhs

    if rel_id == "c6":
        z, x1, o1, o2 = p["z"], p["x1"], p["out1"], p["out2"]
        y = Box(z.inputs.remove([x1]), z.outputs)
        x = Box(y.inputs, y.outputs.quotient([o2, o1]))  # merged output named o2
        inner = Node(Leaf(wasted_wire(z, x1)), 1, Leaf(out_split(y, o2, o1)))
        lhs = Node(Leaf(one_loop(z, o1, x1)), 1, inner)
        return lhs, Leaf(identity_change(x))

    if rel_id == "d1":
        x, x1, x2, x3 = p["x"], p["x1"], p["x2"], p["x3"]
        x12 = Box(x.inputs.quotient([x1, x2]), x.outputs)
        x23 = Box(x.inputs.quotient([x2, x3]), x.outputs)
        lhs = Node(Leaf(in_split(x12, x1, x3)), 1, Leaf(in_split(x, x1, x2)))
        rhs = Node(Leaf(in_split(x23, x1, x2)), 1, Leaf(in_split(x, x2, x3)))
        return lhs, rhs

    if rel_id == "d2":
        x, x1, x2, x3, x4 = p["x"], p["x1"], p["x2"], p["x3"], p["x4"]
        x12 = Box(x.inputs.quotient([x1, x2]), x.outputs)
        x34 = Box(x.inputs.quotient([x3, x4]), x.outputs)
        lhs = Node(Leaf(in_split(x12, x3, x4)), 1, Leaf(in_split(x, x1, x2)))
        rhs = Node(Leaf(in_split(x34, x1, x2)), 1, Leaf(in_split(x, x3, x4)))
        return lhs, rhs

    if rel_id == "d3":
        z, z1, z2, o1, o2 = p["z"], p["z1"], p["z2"], p["out1"], p["out2"]
        x = Box(z.inputs, z.outputs.quotient([o1, o2]))
        y = Box(z.inputs.quotient([z1, z2]), z.outputs)
        lhs = Node(Leaf(out_split(y, o1, o2)), 1, Leaf(in_split(x, z1, z2)))
        rhs = Node(Leaf(in_split(z, z1, z2)), 1, Leaf(out_split(z, o1, o2)))
        return lhs, rhs

    if rel_id == "d4":
        z, w, z1, z2 = p["z"], p["w"], p["z1"], p["z2"]
        y = Box(z.inputs.quotient([z1, z2]), z.outputs)
        x = Box(z.inputs.remove([w]), z.outputs)
        lhs = Node(Leaf(wasted_wire(y, w)), 1, Leaf(in_split(x, z1, z2)))
        rhs = Node(Leaf(in_split(z, z1, z2)), 1, Leaf(wasted_wire(z, w)))
        return lhs, rhs

    if rel_id == "d5":
        y, x_keep, x_drop = p["y"], p["keep"], p["drop"]
        merged = Box(y.inputs.quotient([x_keep, x_drop]), y.outputs)
        lhs = Node(Leaf(in_split(y, x_keep, x_drop)), 1, Leaf(wasted_wire(y, x_drop)))
        return lhs, Leaf(identity_change(merged))

    if rel_id == "e1":
        y, y1, y2, y3 = p["y"], p["y1"], p["y2"], p["y3"]
        y12 = Box(y.inputs, y.outputs.quotient([y1, y2]))
        y23 = Box(y.inputs, y.outputs.quotient([y2, y3]))
        lhs = Node(Leaf(out_split(y, y1, y2)), 1, Leaf(out_split(y12, y1, y3)))
        rhs = Node(Leaf(out_split(y, y2, y3)), 1, Leaf(out_split(y23, y1, y2)))
        return lhs, rhs

    if rel_id == "e2":
        y, y1, y2, y3, y4 = p["y"], p["y1"], p["y2"], p["y3"], p["y4"]
        y12 = Box(y.inputs, y.outputs.quotient([y1, y2]))
        y34 = Box(y.inputs, y.outputs.quotient([y3, y4]))
        lhs = Node(Leaf(out_split(y, y1, y2)), 1, Leaf(out_split(y12, y3, y4)))
        rhs = Node(Leaf(out_split(y, y3, y4)), 1, Leaf(out_split(y34, y1, y2)))
        return lhs, rhs

    if rel_id == "e3":
        y, w, y1, y2 = p["y"], p["w"], p["y1"], p["y2"]
        z = Box(y.inputs.remove([w]), y.outputs)
        merged = Box(y.inputs, y.outputs.quotient([y1, y2]))
        lhs = Node(Leaf(wasted_wire(y, w)), 1, Leaf(out_split(z, y1, y2)))
        rhs = Node(Leaf(out_split(y, y1, y2)), 1, Leaf(wasted_wire(merged, w)))
        return lhs, rhs

    if rel_id == "f1":
        y, y1, y2 = p["y"], p["y1"], p["y2"]
        b1 = Box(y.inputs.remove([y1]), y.outputs)
        b2 = Box(y.inputs.remove([y2]), y.outputs)
        lhs = Node(Leaf(wasted_wire(y, y1)), 1, Leaf(wasted_wire(b1, y2)))
        rhs = Node(Leaf(wasted_wire(y, y2)), 1, Leaf(wasted_wire(b2, y1)))
        return lhs, rhs

    raise InvalidParamsError(f"unknown relation id {rel_id!r}")


class _Scene:
    """Fresh-name supply for randomized relation parameters, directed and
    undirected: every wire is named ``w<k>`` from one counter."""

    def __init__(self, rng, values: Sequence[Value] = ("a", "b")):
        self.rng = rng
        self.values = tuple(values)
        self.counter = itertools.count()

    def name(self) -> str:
        return f"w{next(self.counter)}"

    def wires(self, n: int, value: Value | None = None) -> dict[str, Value]:
        return {
            self.name(): value if value is not None else self.rng.choice(self.values)
            for _ in range(n)
        }

    def finset(self, extra: int = 2, wires: Mapping[str, Value] | None = None) -> FinSet:
        """``wires`` plus up to ``extra`` fresh ones of random values."""
        out = dict(wires or {})
        out.update(self.wires(self.rng.randrange(extra + 1)))
        return FinSet.of(out)

    def box(self, extra_in: int = 0, extra_out: int = 0, **required) -> Box:
        return Box(
            self.finset(extra_in, required.get("inputs")),
            self.finset(extra_out, required.get("outputs")),
        )

    def renaming_of(self, box: Box) -> WDGenerator:
        f_in = {x: self.name() for x in box.inputs}
        target_in = {f_in[x]: box.inputs.value(x) for x in box.inputs}
        inv_out = {y: self.name() for y in box.outputs}
        target_out = {inv_out[y]: box.outputs.value(y) for y in box.outputs}
        f_out = {inv_out[y]: y for y in box.outputs}
        return name_change(box, Box(FinSet.of(target_in), FinSet.of(target_out)), f_in, f_out)


def random_relation_params(
    rel_id: int | str, rng, values: Sequence[Value] = ("a", "b")
) -> dict:
    """Valid randomized parameters for a relation, assuming nothing shared."""
    if isinstance(rel_id, int):
        rel_id = RELATION_IDS[rel_id - 1]
    sc = _Scene(rng, values)
    va, vb = sc.values[0], sc.values[1]

    if rel_id == "a1":
        x = sc.box(2, 2)
        first = sc.renaming_of(x)
        second = sc.renaming_of(first.params[1])
        return {"first": first, "second": second}
    if rel_id == "a2":
        return {"first": sc.renaming_of(sc.box(2, 2)), "second": sc.renaming_of(sc.box(2, 2))}
    if rel_id == "a3":
        pair = sc.wires(1, va)
        (minus,) = pair
        plus = next(iter(sc.wires(1, va)))
        x = sc.box(2, 2, inputs={minus: va}, outputs={plus: va})
        return {"change": sc.renaming_of(x), "x_plus": plus, "x_minus": minus}
    if rel_id == "a4":
        w = list(sc.wires(2, va))
        x = sc.box(2, 2, inputs={w[0]: va, w[1]: va})
        return {"change": sc.renaming_of(x), "x1": w[0], "x2": w[1]}
    if rel_id == "a5":
        w = list(sc.wires(2, va))
        x = sc.box(2, 2, outputs={w[0]: va, w[1]: va})
        return {"change": sc.renaming_of(x), "x1": w[0], "x2": w[1]}
    if rel_id == "a6":
        w = next(iter(sc.wires(1)))
        x = sc.box(2, 2, inputs={w: va})
        return {"change": sc.renaming_of(x), "x": w}
    if rel_id == "b0":
        return {"box": sc.box(2, 2)}
    if rel_id == "b1":
        return {"x": sc.box(2, 2), "y": sc.box(2, 2), "z": sc.box(2, 2)}
    if rel_id == "b2":
        return {"x": sc.box(2, 2), "y": sc.box(2, 2)}
    if rel_id == "b3":
        minus = next(iter(sc.wires(1, va)))
        plus = next(iter(sc.wires(1, va)))
        x = sc.box(2, 2, inputs={minus: va}, outputs={plus: va})
        return {"x": x, "y": sc.box(2, 2), "x_plus": plus, "x_minus": minus}
    if rel_id in ("b4", "b5"):
        w = list(sc.wires(2, va))
        side = "inputs" if rel_id == "b4" else "outputs"
        x = sc.box(2, 2, **{side: {w[0]: va, w[1]: va}})
        return {"x": x, "y": sc.box(2, 2), "x1": w[0], "x2": w[1]}
    if rel_id == "b6":
        x0 = next(iter(sc.wires(1)))
        x = sc.box(2, 2, inputs={x0: va})
        return {"x": x, "y": sc.box(2, 2), "x0": x0}
    if rel_id == "c1":
        m = list(sc.wires(2, va))
        pl = list(sc.wires(2, va))
        x = sc.box(2, 2, inputs={m[0]: va, m[1]: va}, outputs={pl[0]: va, pl[1]: va})
        return {"x": x, "plus1": pl[0], "minus1": m[0], "plus2": pl[1], "minus2": m[1]}
    if rel_id in ("c2", "c3"):
        minus = next(iter(sc.wires(1, va)))
        plus = next(iter(sc.wires(1, va)))
        pair = list(sc.wires(2, va))
        side = "inputs" if rel_id == "c2" else "outputs"
        req_in = {minus: va}
        req_out = {plus: va}
        (req_in if rel_id == "c2" else req_out).update({pair[0]: va, pair[1]: va})
        x = sc.box(2, 2, inputs=req_in, outputs=req_out)
        return {"x": x, "plus": plus, "minus": minus, "x1": pair[0], "x2": pair[1]}
    if rel_id == "c4":
        minus = next(iter(sc.wires(1, va)))
        plus = next(iter(sc.wires(1, va)))
        x0 = next(iter(sc.wires(1)))
        x = sc.box(2, 2, inputs={minus: va, x0: sc.rng.choice(sc.values)}, outputs={plus: va})
        return {"x": x, "plus": plus, "minus": minus, "x0": x0}
    if rel_id == "c5":
        outs = list(sc.wires(2, va))
        ins = list(sc.wires(2, va))
        y = sc.box(2, 2, inputs={ins[0]: va, ins[1]: va}, outputs={outs[0]: va, outs[1]: va})
        return {"y": y, "out1": outs[0], "out2": outs[1], "in1": ins[0], "in2": ins[1]}
    if rel_id == "c6":
        x1 = next(iter(sc.wires(1, va)))
        outs = list(sc.wires(2, va))
        z = sc.box(2, 2, inputs={x1: va}, outputs={outs[0]: va, outs[1]: va})
        return {"z": z, "x1": x1, "out1": outs[0], "out2": outs[1]}
    if rel_id == "d1":
        w = list(sc.wires(3, va))
        x = sc.box(2, 2, inputs={k: va for k in w})
        return {"x": x, "x1": w[0], "x2": w[1], "x3": w[2]}
    if rel_id == "d2":
        w = list(sc.wires(2, va)) + list(sc.wires(2, vb))
        x = sc.box(2, 2, inputs={w[0]: va, w[1]: va, w[2]: vb, w[3]: vb})
        return {"x": x, "x1": w[0], "x2": w[1], "x3": w[2], "x4": w[3]}
    if rel_id == "d3":
        ins = list(sc.wires(2, va))
        outs = list(sc.wires(2, vb))
        z = sc.box(2, 2, inputs={k: va for k in ins}, outputs={k: vb for k in outs})
        return {"z": z, "z1": ins[0], "z2": ins[1], "out1": outs[0], "out2": outs[1]}
    if rel_id == "d4":
        ins = list(sc.wires(2, va))
        w = next(iter(sc.wires(1)))
        z = sc.box(2, 2, inputs={ins[0]: va, ins[1]: va, w: sc.rng.choice(sc.values)})
        return {"z": z, "w": w, "z1": ins[0], "z2": ins[1]}
    if rel_id == "d5":
        pair = list(sc.wires(2, va))
        y = sc.box(2, 2, inputs={pair[0]: va, pair[1]: va})
        return {"y": y, "keep": pair[0], "drop": pair[1]}
    if rel_id == "e1":
        w = list(sc.wires(3, va))
        y = sc.box(2, 2, outputs={k: va for k in w})
        return {"y": y, "y1": w[0], "y2": w[1], "y3": w[2]}
    if rel_id == "e2":
        w = list(sc.wires(2, va)) + list(sc.wires(2, vb))
        y = sc.box(2, 2, outputs={w[0]: va, w[1]: va, w[2]: vb, w[3]: vb})
        return {"y": y, "y1": w[0], "y2": w[1], "y3": w[2], "y4": w[3]}
    if rel_id == "e3":
        outs = list(sc.wires(2, va))
        w = next(iter(sc.wires(1)))
        y = sc.box(2, 2, inputs={w: sc.rng.choice(sc.values)}, outputs={k: va for k in outs})
        return {"y": y, "w": w, "y1": outs[0], "y2": outs[1]}
    if rel_id == "f1":
        w = list(sc.wires(1, va)) + list(sc.wires(1, vb))
        y = sc.box(2, 2, inputs={w[0]: va, w[1]: vb})
        return {"y": y, "y1": w[0], "y2": w[1]}
    raise InvalidParamsError(f"unknown relation id {rel_id!r}")


# -- stratified presentations ----------------------------------------------


@dataclass(frozen=True)
class StratifiedWD:
    """A stratified simplex: either the wasted-wire form over the empty
    diagram, or one name change followed by the generator strings in their
    fixed order."""

    external_form: bool
    wasted_then_empty: tuple[WDGenerator, ...] = ()
    name_chg: WDGenerator | None = None
    loops: tuple[WDGenerator, ...] = ()
    wasted: tuple[WDGenerator, ...] = ()
    in_splits: tuple[WDGenerator, ...] = ()
    out_splits: tuple[WDGenerator, ...] = ()
    two_cells: tuple[WDGenerator, ...] = ()
    delays: tuple[WDGenerator, ...] = ()

    def to_simplex(self) -> Simplex:
        if self.external_form:
            parts = [Leaf(g) for g in self.wasted_then_empty] + [Leaf(empty_wd())]
            return chain(parts)
        unary = [self.name_chg] if self.name_chg else []
        unary += list(self.loops) + list(self.wasted) + list(self.in_splits) + list(self.out_splits)
        parts = [Leaf(g) for g in unary]
        bottom = tower_simplex(self.two_cells, self.delays)
        if bottom is not None:
            parts.append(bottom)
        return chain(parts)

    def leaf_kinds(self) -> set[str]:
        return {g.kind for g in leaves(self.to_simplex())}

    def counts(self) -> dict[str, int]:
        return {
            ONE_LOOP: len(self.loops),
            WASTED_WIRE: len(self.wasted) or len(self.wasted_then_empty),
            IN_SPLIT: len(self.in_splits),
            OUT_SPLIT: len(self.out_splits),
            TWO_CELL: len(self.two_cells),
            DELAY_NODE: len(self.delays),
        }


def split_alpha_phi(psi: WiringDiagram) -> tuple[WiringDiagram, WiringDiagram]:
    """psi = alpha o phi: phi gathers the boxes and delay nodes behind an
    identity supplier; alpha is unary, delay-free, and keeps psi's supplier.

    The seam box X' is in tower coordinates: the box coproduct of psi's
    boxes and one delay-node box ``{v: v}`` per delay node, in sorted order,
    which is the output box of the 2-cell tower of ``expand_cells_delays``.
    """
    n = len(psi.input_boxes)
    slot = {d: n + k for k, d in enumerate(sorted(psi.delay_nodes))}
    parts = list(psi.input_boxes) + [_delay_box(psi.delay_nodes.value(d)) for d in slot]
    x_in, in_injs = coproduct([b.inputs for b in parts])
    x_out, out_injs = coproduct([b.outputs for b in parts])
    x_prime = Box(x_in, x_out)

    def to_prime(addr: Address, injs) -> str:
        """The X' wire of a box or delay-node address."""
        if addr[0] == "dn":
            return injs[slot[addr[1]]](psi.delay_nodes.value(addr[1]))
        return injs[addr[1] - 1](addr[2])

    phi_supplier: dict[Address, Address] = {}
    for i, box in enumerate(psi.input_boxes, start=1):
        for x in box.outputs:
            phi_supplier[("gout", out_injs[i - 1](x))] = ("bout", i, x)
        for x in box.inputs:
            phi_supplier[("bin", i, x)] = ("gin", in_injs[i - 1](x))
    for d in psi.delay_nodes:
        phi_supplier[("gout", to_prime(("dn", d), out_injs))] = ("dn", d)
        phi_supplier[("dn", d)] = ("gin", to_prime(("dn", d), in_injs))
    phi = make_wd(psi.input_boxes, x_prime, psi.delay_nodes, phi_supplier)

    def rewrap_supply(addr: Address) -> Address:
        if addr[0] == "gin":
            return addr
        return ("bout", 1, to_prime(addr, out_injs))

    alpha_supplier: dict[Address, Address] = {}
    for y in psi.output_box.outputs:
        alpha_supplier[("gout", y)] = rewrap_supply(psi.supplier[("gout", y)])
    for dm in psi.demands():
        if dm[0] == "gout":
            continue
        alpha_supplier[("bin", 1, to_prime(dm, in_injs))] = rewrap_supply(psi.supplier[dm])
    alpha = make_wd([x_prime], psi.output_box, EMPTY, alpha_supplier)
    return alpha, phi


def split_pi(pi: WiringDiagram) -> tuple[WiringDiagram, WiringDiagram]:
    """pi = pi1 o pi2 for a unary, delay-free diagram: pi1 holds the loops
    and internal wasted wires behind an identity supplier, pi2 the rest."""
    if len(pi.input_boxes) != 1 or len(pi.delay_nodes) != 0:
        raise ValueError("split_pi requires one input box and no delay nodes")
    box = pi.input_boxes[0]
    y = pi.output_box
    cls = classify(pi)
    t_wires = sorted({a[2] for a in cls.internal_wasted} | set(cls.loop_elements))
    t_fin = box.outputs.restrict(t_wires)
    z_in, (zi_y, zi_t) = coproduct([y.inputs, t_fin])
    z_out, (zo_y, zo_t) = coproduct([y.outputs, t_fin])
    z_box = Box(z_in, z_out)

    pi1_supplier: dict[Address, Address] = {}
    for w in y.outputs:
        pi1_supplier[("gout", w)] = ("bout", 1, zo_y(w))
    for w in y.inputs:
        pi1_supplier[("bin", 1, zi_y(w))] = ("gin", w)
    for t in t_wires:
        pi1_supplier[("bin", 1, zi_t(t))] = ("bout", 1, zo_t(t))
    pi1 = make_wd([z_box], y, EMPTY, pi1_supplier)

    pi2_supplier: dict[Address, Address] = {}
    for w in y.outputs:
        pi2_supplier[("gout", zo_y(w))] = pi.supplier[("gout", w)]
    for t in t_wires:
        pi2_supplier[("gout", zo_t(t))] = ("bout", 1, t)
    for x in box.inputs:
        target = pi.supplier[("bin", 1, x)]
        if target[0] == "gin":
            pi2_supplier[("bin", 1, x)] = ("gin", zi_y(target[1]))
        else:
            pi2_supplier[("bin", 1, x)] = ("gin", zi_t(target[2]))
    pi2 = make_wd([box], z_box, EMPTY, pi2_supplier)
    return pi1, pi2


def split_beta(beta: WiringDiagram) -> tuple[WiringDiagram, WiringDiagram, WiringDiagram]:
    """beta = beta1 o beta2 o beta3 for a unary, delay-free, loop-free
    diagram: wasted wires, then in-splits, then out-splits."""
    if len(beta.input_boxes) != 1 or len(beta.delay_nodes) != 0:
        raise ValueError("split_beta requires one input box and no delay nodes")
    box = beta.input_boxes[0]
    z = beta.output_box
    cls = classify(beta)
    if cls.loop_elements:
        raise ValueError("split_beta requires no loop elements")
    wasted = sorted(cls.external_wasted)
    w_box = Box(z.inputs.remove(wasted), z.outputs)

    b1_supplier: dict[Address, Address] = {}
    for w in z.outputs:
        b1_supplier[("gout", w)] = ("bout", 1, w)
    for w in w_box.inputs:
        b1_supplier[("bin", 1, w)] = ("gin", w)
    beta1 = make_wd([w_box], z, EMPTY, b1_supplier)

    v_box = Box(box.inputs, z.outputs)
    b2_supplier: dict[Address, Address] = {}
    for w in z.outputs:
        b2_supplier[("gout", w)] = ("bout", 1, w)
    for x in box.inputs:
        b2_supplier[("bin", 1, x)] = ("gin", beta.supplier[("bin", 1, x)][1])
    beta2 = make_wd([v_box], w_box, EMPTY, b2_supplier)

    b3_supplier: dict[Address, Address] = {}
    for w in z.outputs:
        b3_supplier[("gout", w)] = beta.supplier[("gout", w)]
    for x in box.inputs:
        b3_supplier[("bin", 1, x)] = ("gin", x)
    beta3 = make_wd([box], v_box, EMPTY, b3_supplier)
    return beta1, beta2, beta3


# -- the expansions --------------------------------------------------------
#
# Each expand_* turns one factor into a string of generators, listed from
# the outside in.  It starts from the box reached so far, given with
# ``wires``: the factor's inner-box wires, inputs and outputs, as wires of
# that box.  It returns the generators, the box it ends on and the factor's
# outer-box wires as wires of that end box.

Wires = tuple[dict[str, str], dict[str, str]]


def identity_wires(box: Box) -> Wires:
    return {x: x for x in box.inputs}, {y: y for y in box.outputs}


def wires_change(end: Box, box: Box, wires: Wires) -> WDGenerator:
    """The name change from ``end`` to ``box`` along ``box``'s wires in ``end``."""
    ins, outs = wires
    return name_change(end, box, {ins[x]: x for x in box.inputs}, {y: outs[y] for y in box.outputs})


def expand_cells_delays(
    phi: WiringDiagram,
) -> tuple[list[WDGenerator], list[WDGenerator]]:
    """phi (boxes and delay nodes behind an identity supplier) as a string
    of 2-cells over the boxes and one delay-node generator per node; the
    tower's output box is phi's output box X'."""
    delay_values = [phi.delay_nodes.value(d) for d in sorted(phi.delay_nodes)]
    parts = list(phi.input_boxes) + [_delay_box(v) for v in delay_values]
    thetas = two_cell_tower(parts, lambda a, b: box_coproduct([a, b]), two_cell)
    return thetas, [delay_node(v) for v in delay_values]


def expand_outsplits(
    beta3: WiringDiagram, start: Box, wires: Wires
) -> tuple[list[WDGenerator], Box, Wires]:
    """beta3 as iterated out-splits: each inner output wire is split once
    per further wire of its fiber; the first wire of a fiber keeps it."""
    ins, outs = wires
    inner = beta3.input_boxes[0]
    fibers: dict[str, list[str]] = {x: [] for x in inner.outputs}
    for w in beta3.output_box.outputs:
        fibers[beta3.supplier[("gout", w)][2]].append(w)
    gens: list[WDGenerator] = []
    out_map: dict[str, str] = {}
    current = start
    for x in sorted(fibers):
        u = outs[x]
        head, *rest = sorted(fibers[x])
        out_map[head] = u
        for k, target in enumerate(rest, start=2):
            fresh = fresh_name(f"{u}.{k}", current.inputs, current.outputs)
            value = inner.outputs.value(x)
            current = Box(current.inputs, FinSet(current.outputs.pairs + ((fresh, value),)))
            gens.append(out_split(current, u, fresh))
            out_map[target] = fresh
    return gens[::-1], current, (ins, out_map)


def expand_insplits(
    beta2: WiringDiagram, start: Box, wires: Wires
) -> tuple[list[WDGenerator], Box, Wires]:
    """beta2 as iterated in-splits: each demand fiber is merged into its
    least wire, which then stands for the outer wire."""
    ins, outs = wires
    fibers: dict[str, list[str]] = {w: [] for w in beta2.output_box.inputs}
    for x in beta2.input_boxes[0].inputs:
        fibers[beta2.supplier[("bin", 1, x)][1]].append(ins[x])
    gens: list[WDGenerator] = []
    in_map: dict[str, str] = {}
    current = start
    for w in sorted(fibers):
        head, *rest = sorted(fibers[w])
        in_map[w] = head
        for other in rest:
            gens.append(in_split(current, head, other))
            current = Box(current.inputs.quotient([head, other]), current.outputs)
    return gens[::-1], current, (in_map, outs)


def expand_wasted(
    beta1: WiringDiagram, start: Box, wires: Wires
) -> tuple[list[WDGenerator], Box, Wires]:
    """beta1 as iterated 1-wasted wires, one fresh input per wasted wire."""
    ins, outs = wires
    in_map = dict(ins)
    gens: list[WDGenerator] = []
    current = start
    for w in sorted(classify(beta1).external_wasted):
        fresh = fresh_name(w, current.inputs, current.outputs)
        value = beta1.output_box.inputs.value(w)
        current = Box(FinSet(current.inputs.pairs + ((fresh, value),)), current.outputs)
        gens.append(wasted_wire(current, fresh))
        in_map[w] = fresh
    return gens[::-1], current, (in_map, outs)


def expand_loops(
    pi1: WiringDiagram, start: Box, wires: Wires
) -> tuple[list[WDGenerator], Box, Wires]:
    """pi1 as iterated 1-loops, one per inner input fed by an inner output,
    sorted by the output wire."""
    ins, outs = wires
    inner = pi1.input_boxes[0]
    fed = {x: pi1.supplier[("bin", 1, x)] for x in inner.inputs}
    gens: list[WDGenerator] = []
    current = start
    for t, x in sorted((sp[2], x) for x, sp in fed.items() if sp[0] == "bout"):
        plus, minus = outs[t], ins[x]
        gens.append(one_loop(current, plus, minus))
        current = current.remove(inputs=[minus], outputs=[plus])
    in_map = {sp[1]: ins[x] for x, sp in fed.items() if sp[0] == "gin"}
    out_map = {y: outs[pi1.supplier[("gout", y)][2]] for y in pi1.output_box.outputs}
    return gens[::-1], current, (in_map, out_map)


def stratify(psi: WiringDiagram) -> StratifiedWD:
    """A stratified presentation of ``psi``.

    The result evaluates to a diagram equivalent to ``psi`` (delay nodes are
    renamed by composition).  The factors of the splits are expanded from
    the tower's box X' outwards; the single leading name change matches the
    box they end on with psi's output box.
    """
    if not psi.input_boxes and not psi.delay_nodes:
        gens = []
        current = psi.output_box
        for w in sorted(psi.output_box.inputs):
            gens.append(wasted_wire(current, w))
            current = Box(current.inputs.remove([w]), current.outputs)
        return StratifiedWD(external_form=True, wasted_then_empty=tuple(gens))

    alpha, phi = split_alpha_phi(psi)
    pi1, pi2 = split_pi(alpha)
    beta1, beta2, beta3 = split_beta(pi2)

    thetas, deltas = expand_cells_delays(phi)
    current, wires = phi.output_box, identity_wires(phi.output_box)
    out_gens, current, wires = expand_outsplits(beta3, current, wires)
    in_gens, current, wires = expand_insplits(beta2, current, wires)
    wasted_gens, current, wires = expand_wasted(beta1, current, wires)
    loop_gens, current, wires = expand_loops(pi1, current, wires)
    return StratifiedWD(
        external_form=False,
        name_chg=wires_change(current, psi.output_box, wires),
        loops=tuple(loop_gens),
        wasted=tuple(wasted_gens),
        in_splits=tuple(in_gens),
        out_splits=tuple(out_gens),
        two_cells=tuple(thetas),
        delays=tuple(deltas),
    )
