"""Generators, relations, and stratified normal forms for undirected
wiring diagrams.

Six generating diagrams build every undirected wiring diagram: the empty
cell, 1-output wires, name changes, 2-cells, loops, and splits.  Seventeen
generating relations hold among them.  Every diagram has a stratified
presentation

    (empty)                                       -- the empty cell only
    (tau, loop*, split*, 2-cell*, output-wire*)

evaluating to an equivalent diagram.  As on the directed side, quotients
keep the first named wire and string orderings sort wire identifiers, so
the normal form is deterministic.

``stratify_u`` factors the diagram and expands each factor into one string:

    uwd  = psi1 o psi2              split_psi
    psi1 = phi1 o phi2              split_phi

    psi2  2-cells and output wires  expand_cells_outputs
    phi2  splits                    expand_splits
    phi1  loops                     expand_loops_u

The expansions run in that order, from the tower's box outwards, each
starting on the box the previous one ended on; the leading name change
(``wires_change_u``) then renames the last box to the output box.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from wiring_operads.finset import FinSet, Permutation, Value, coproduct, fresh_name
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
from wiring_operads.uwd import UWD, comp_i_u, make_uwd, permute_u
from wiring_operads.wd_presentation import InvalidParamsError, _Scene

EMPTY_CELL = "empty_cell"
OUTPUT_WIRE = "output_wire"
U_NAME_CHANGE = "u_name_change"
U_TWO_CELL = "u_two_cell"
U_LOOP = "u_loop"
U_SPLIT = "u_split"

U_KINDS = (EMPTY_CELL, OUTPUT_WIRE, U_NAME_CHANGE, U_TWO_CELL, U_LOOP, U_SPLIT)


@dataclass(frozen=True)
class UWDGenerator:
    kind: str
    params: tuple = ()

    def __repr__(self) -> str:
        return f"UWDGenerator({self.kind}, {self.params!r})"


def empty_cell() -> UWDGenerator:
    return UWDGenerator(EMPTY_CELL)


def output_wire(wire: str, value: Value) -> UWDGenerator:
    return UWDGenerator(OUTPUT_WIRE, (wire, value))


def u_name_change(source: FinSet, target: FinSet, table: Mapping[str, str]) -> UWDGenerator:
    return UWDGenerator(U_NAME_CHANGE, (source, target, tuple(sorted(table.items()))))


def u_identity_change(box: FinSet) -> UWDGenerator:
    return u_name_change(box, box, {w: w for w in box})


def u_two_cell(left: FinSet, right: FinSet) -> UWDGenerator:
    return UWDGenerator(U_TWO_CELL, (left, right))


def u_loop(box: FinSet, x_plus: str, x_minus: str) -> UWDGenerator:
    return UWDGenerator(U_LOOP, (box, x_plus, x_minus))


def u_split(box: FinSet, x1: str, x2: str) -> UWDGenerator:
    return UWDGenerator(U_SPLIT, (box, x1, x2))


def generator_arity_u(gen: UWDGenerator) -> int:
    return {EMPTY_CELL: 0, OUTPUT_WIRE: 0, U_TWO_CELL: 2}.get(gen.kind, 1)


def generator_u(gen: UWDGenerator) -> UWD:
    """The literal cospan of a generating datum."""
    if gen.kind == EMPTY_CELL:
        empty = FinSet(())
        return UWD((), empty, empty, {}, {})

    if gen.kind == OUTPUT_WIRE:
        wire, value = gen.params
        box = FinSet(((wire, value),))
        return UWD((), box, box, {}, {wire: wire})

    if gen.kind == U_NAME_CHANGE:
        source, target, table = gen.params
        table = dict(table)
        if sorted(table) != sorted(source.elements) or sorted(table.values()) != sorted(
            target.elements
        ):
            raise InvalidParamsError("name change table is not a bijection")
        return make_uwd(
            [source], target, target,
            {(1, w): table[w] for w in source},
            {y: y for y in target},
        )

    if gen.kind == U_TWO_CELL:
        left, right = gen.params
        out, (inj_l, inj_r) = coproduct([left, right])
        solder = {(1, w): inj_l(w) for w in left} | {(2, w): inj_r(w) for w in right}
        return make_uwd([left, right], out, out, solder, {y: y for y in out})

    if gen.kind == U_LOOP:
        box, x_plus, x_minus = gen.params
        if x_plus == x_minus:
            raise InvalidParamsError("loop wires must be distinct")
        if x_plus not in box or x_minus not in box:
            raise InvalidParamsError("loop wires must be wires of the box")
        if box.value(x_plus) != box.value(x_minus):
            raise InvalidParamsError("loop wires must share one value")
        cables = box.quotient([x_plus, x_minus])
        out = box.remove([x_plus, x_minus])
        solder = {
            (1, w): (x_plus if w in (x_plus, x_minus) else w) for w in box
        }
        return make_uwd([box], out, cables, solder, {y: y for y in out})

    if gen.kind == U_SPLIT:
        box, x1, x2 = gen.params
        if x1 == x2:
            raise InvalidParamsError("split wires must be distinct")
        if x1 not in box or x2 not in box:
            raise InvalidParamsError("split wires must be wires of the box")
        if box.value(x1) != box.value(x2):
            raise InvalidParamsError("split wires must share one value")
        inner = box.quotient([x1, x2])
        solder_out = {y: (x1 if y in (x1, x2) else y) for y in box}
        return make_uwd([inner], box, inner, {(1, w): w for w in inner}, solder_out)

    raise InvalidParamsError(f"unknown generator kind {gen.kind!r}")


def eval_simplex_u(simplex: Simplex) -> UWD:
    return evaluate(simplex, generator_u, comp_i_u, permute_u)


# -- the seventeen elementary relations ------------------------------------

U_RELATION_IDS = (
    "a1", "a2", "a3", "a4", "a5",
    "b1", "b2",
    "c1", "c2", "c3", "c4", "c5",
    "d1", "d2", "d3", "d4",
    "e1",
)


def elementary_relation_u(rel_id: int | str, params: Mapping) -> tuple[Simplex, Simplex]:
    """The two sides of one of the 17 generating relations in the undirected
    operad; params come from ``random_relation_params_u``."""
    if isinstance(rel_id, int):
        rel_id = U_RELATION_IDS[rel_id - 1]
    p = dict(params)

    if rel_id == "a1":
        first, second = p["first"], p["second"]
        sx, _, t1 = first.params
        _, tz, t2 = second.params
        composite = u_name_change(sx, tz, {a: dict(t2)[b] for a, b in t1})
        return Node(Leaf(second), 1, Leaf(first)), Leaf(composite)

    if rel_id == "a2":
        wire, value, target = p["wire"], p["value"], p["target"]
        src = FinSet(((wire, value),))
        tgt = FinSet(((target, value),))
        nc = u_name_change(src, tgt, {wire: target})
        lhs = Node(Leaf(nc), 1, Leaf(output_wire(wire, value)))
        return lhs, Leaf(output_wire(target, value))

    if rel_id == "a3":
        nc1, nc2 = p["first"], p["second"]
        x1, y1, t1 = nc1.params
        x2, y2, t2 = nc2.params
        _, (si1, si2) = coproduct([x1, x2])
        _, (ti1, ti2) = coproduct([y1, y2])
        src, _ = coproduct([x1, x2])
        tgt, _ = coproduct([y1, y2])
        table = {si1(a): ti1(b) for a, b in t1} | {si2(a): ti2(b) for a, b in t2}
        lhs = Node(Node(Leaf(u_two_cell(y1, y2)), 1, Leaf(nc1)), 2, Leaf(nc2))
        rhs = Node(Leaf(u_name_change(src, tgt, table)), 1, Leaf(u_two_cell(x1, x2)))
        return lhs, rhs

    if rel_id == "a4":
        nc, xp, xm = p["change"], p["x_plus"], p["x_minus"]
        src, tgt, table = nc.params
        table = dict(table)
        yp, ym = table[xp], table[xm]
        small = u_name_change(
            src.remove([xp, xm]),
            tgt.remove([yp, ym]),
            {a: b for a, b in table.items() if a not in (xp, xm)},
        )
        lhs = Node(Leaf(u_loop(tgt, yp, ym)), 1, Leaf(nc))
        rhs = Node(Leaf(small), 1, Leaf(u_loop(src, xp, xm)))
        return lhs, rhs

    if rel_id == "a5":
        nc, x1, x2 = p["change"], p["x1"], p["x2"]
        src, tgt, table = nc.params
        table = dict(table)
        y1, y2 = table[x1], table[x2]
        merged = u_name_change(
            src.quotient([x1, x2]),
            tgt.quotient([y1, y2]),
            {a: b for a, b in table.items() if a != x2},
        )
        lhs = Node(Leaf(u_split(tgt, y1, y2)), 1, Leaf(merged))
        rhs = Node(Leaf(nc), 1, Leaf(u_split(src, x1, x2)))
        return lhs, rhs

    if rel_id == "b1":
        y, x_wire, y_wire = p["box"], p["x"], p["y"]
        x = y.remove([y_wire])
        inner = Node(
            Leaf(u_two_cell(x, FinSet(((y_wire, y.value(y_wire)),)))),
            2,
            Leaf(output_wire(y_wire, y.value(y_wire))),
        )
        lhs = Node(Leaf(u_loop(y, x_wire, y_wire)), 1, inner)
        rhs = Node(Leaf(u_loop(y, x_wire, y_wire)), 1, Leaf(u_split(y, x_wire, y_wire)))
        return lhs, rhs

    if rel_id == "b2":
        w, w_wire, x_wire, y_wire = p["box"], p["w"], p["x"], p["y"]
        v = w.value(w_wire)
        y = w.remove([w_wire])
        x = y.remove([y_wire])
        inner = Node(
            Leaf(u_two_cell(x, FinSet(((y_wire, v),)))), 2, Leaf(output_wire(y_wire, v))
        )
        split = u_split(w, x_wire, w_wire)
        lhs = Node(Node(Leaf(u_loop(w, w_wire, y_wire)), 1, Leaf(split)), 1, inner)
        return lhs, Leaf(u_identity_change(x))

    if rel_id == "c1":
        box = p["box"]
        lhs = Node(Leaf(u_two_cell(box, FinSet(()))), 2, Leaf(empty_cell()))
        return lhs, Leaf(u_identity_change(box))

    if rel_id == "c2":
        x, y, z = p["x"], p["y"], p["z"]
        xy, _ = coproduct([x, y])
        yz, _ = coproduct([y, z])
        lhs = Node(Leaf(u_two_cell(xy, z)), 1, Leaf(u_two_cell(x, y)))
        rhs = Node(Leaf(u_two_cell(x, yz)), 2, Leaf(u_two_cell(y, z)))
        return lhs, rhs

    if rel_id == "c3":
        x, y = p["x"], p["y"]
        return Perm(Leaf(u_two_cell(x, y)), Permutation((2, 1))), Leaf(u_two_cell(y, x))

    if rel_id == "c4":
        x, y, yp, ym = p["x"], p["y"], p["y_plus"], p["y_minus"]
        y_small = y.remove([yp, ym])
        xy, _ = coproduct([x, y])
        lhs = Node(Leaf(u_two_cell(x, y_small)), 2, Leaf(u_loop(y, yp, ym)))
        rhs = Node(Leaf(u_loop(xy, yp, ym)), 1, Leaf(u_two_cell(x, y)))
        return lhs, rhs

    if rel_id == "c5":
        x, y, y1, y2 = p["x"], p["y"], p["y1"], p["y2"]
        y_small = y.quotient([y1, y2])
        xy, _ = coproduct([x, y])
        lhs = Node(Leaf(u_two_cell(x, y)), 2, Leaf(u_split(y, y1, y2)))
        rhs = Node(Leaf(u_split(xy, y1, y2)), 1, Leaf(u_two_cell(x, y_small)))
        return lhs, rhs

    if rel_id == "d1":
        x, y1, y2, z1, z2 = p["x"], p["y1"], p["y2"], p["z1"], p["z2"]
        z = x.quotient([y1, y2])
        y = x.quotient([z1, z2])
        lhs = Node(Leaf(u_split(x, y1, y2)), 1, Leaf(u_split(z, z1, z2)))
        rhs = Node(Leaf(u_split(x, z1, z2)), 1, Leaf(u_split(y, y1, y2)))
        return lhs, rhs

    if rel_id == "d2":
        y, y1, y2, y3 = p["y"], p["y1"], p["y2"], p["y3"]
        m12 = y.quotient([y1, y2])
        m23 = y.quotient([y2, y3])
        lhs = Node(Leaf(u_split(y, y1, y2)), 1, Leaf(u_split(m12, y1, y3)))
        rhs = Node(Leaf(u_split(y, y2, y3)), 1, Leaf(u_split(m23, y1, y2)))
        return lhs, rhs

    if rel_id == "d3":
        yp, y1, y2, xp, xm = p["y_prime"], p["y1"], p["y2"], p["x_plus"], p["x_minus"]
        x = yp.quotient([y1, y2])
        y = yp.remove([xp, xm])
        lhs = Node(Leaf(u_loop(yp, xp, xm)), 1, Leaf(u_split(yp, y1, y2)))
        rhs = Node(Leaf(u_split(y, y1, y2)), 1, Leaf(u_loop(x, xp, xm)))
        return lhs, rhs

    if rel_id == "d4":
        w, y_wire, xp, xm = p["w"], p["y"], p["x_plus"], p["x_minus"]
        lhs = Node(Leaf(u_loop(w, xp, xm)), 1, Leaf(u_split(w, xp, y_wire)))
        rhs = Node(Leaf(u_loop(w, xp, xm)), 1, Leaf(u_split(w, xm, y_wire)))
        return lhs, rhs

    if rel_id == "e1":
        x, x1, x2, x3, x4 = p["x"], p["x1"], p["x2"], p["x3"], p["x4"]
        w = x.remove([x1, x2])
        z = x.remove([x3, x4])
        lhs = Node(Leaf(u_loop(w, x3, x4)), 1, Leaf(u_loop(x, x1, x2)))
        rhs = Node(Leaf(u_loop(z, x1, x2)), 1, Leaf(u_loop(x, x3, x4)))
        return lhs, rhs

    raise InvalidParamsError(f"unknown relation id {rel_id!r}")


def _renaming_u(sc: _Scene, box: FinSet) -> UWDGenerator:
    table = {w: sc.name() for w in box}
    target = FinSet.of({table[w]: box.value(w) for w in box})
    return u_name_change(box, target, table)


def random_relation_params_u(rel_id: int | str, rng) -> dict:
    if isinstance(rel_id, int):
        rel_id = U_RELATION_IDS[rel_id - 1]
    sc = _Scene(rng)
    va, vb = sc.values

    if rel_id == "a1":
        x = sc.finset(3)
        first = _renaming_u(sc, x)
        return {"first": first, "second": _renaming_u(sc, first.params[1])}
    if rel_id == "a2":
        w = next(iter(sc.wires(1)))
        t = next(iter(sc.wires(1)))
        return {"wire": w, "value": rng.choice(sc.values), "target": t}
    if rel_id == "a3":
        return {"first": _renaming_u(sc, sc.finset(3)), "second": _renaming_u(sc, sc.finset(3))}
    if rel_id == "a4":
        pair = list(sc.wires(2, va))
        box = sc.finset(2, wires={pair[0]: va, pair[1]: va})
        return {"change": _renaming_u(sc, box), "x_plus": pair[0], "x_minus": pair[1]}
    if rel_id == "a5":
        pair = list(sc.wires(2, va))
        box = sc.finset(2, wires={pair[0]: va, pair[1]: va})
        return {"change": _renaming_u(sc, box), "x1": pair[0], "x2": pair[1]}
    if rel_id == "b1":
        pair = list(sc.wires(2, va))
        box = sc.finset(2, wires={pair[0]: va, pair[1]: va})
        return {"box": box, "x": pair[0], "y": pair[1]}
    if rel_id == "b2":
        trio = list(sc.wires(3, va))
        box = sc.finset(2, wires={t: va for t in trio})
        return {"box": box, "w": trio[0], "x": trio[1], "y": trio[2]}
    if rel_id == "c1":
        return {"box": sc.finset(3)}
    if rel_id in ("c2", "c3"):
        out = {"x": sc.finset(2), "y": sc.finset(2)}
        if rel_id == "c2":
            out["z"] = sc.finset(2)
        return out
    if rel_id == "c4":
        pair = list(sc.wires(2, va))
        y = sc.finset(2, wires={pair[0]: va, pair[1]: va})
        return {"x": sc.finset(2), "y": y, "y_plus": pair[0], "y_minus": pair[1]}
    if rel_id == "c5":
        pair = list(sc.wires(2, va))
        y = sc.finset(2, wires={pair[0]: va, pair[1]: va})
        return {"x": sc.finset(2), "y": y, "y1": pair[0], "y2": pair[1]}
    if rel_id == "d1":
        ys = list(sc.wires(2, va))
        zs = list(sc.wires(2, vb))
        x = sc.finset(2, wires={ys[0]: va, ys[1]: va, zs[0]: vb, zs[1]: vb})
        return {"x": x, "y1": ys[0], "y2": ys[1], "z1": zs[0], "z2": zs[1]}
    if rel_id == "d2":
        trio = list(sc.wires(3, va))
        y = sc.finset(2, wires={t: va for t in trio})
        return {"y": y, "y1": trio[0], "y2": trio[1], "y3": trio[2]}
    if rel_id == "d3":
        ys = list(sc.wires(2, va))
        xs = list(sc.wires(2, vb))
        yp = sc.finset(2, wires={ys[0]: va, ys[1]: va, xs[0]: vb, xs[1]: vb})
        return {"y_prime": yp, "y1": ys[0], "y2": ys[1], "x_plus": xs[0], "x_minus": xs[1]}
    if rel_id == "d4":
        trio = list(sc.wires(3, va))
        w = sc.finset(2, wires={t: va for t in trio})
        return {"w": w, "y": trio[0], "x_plus": trio[1], "x_minus": trio[2]}
    if rel_id == "e1":
        quad = list(sc.wires(2, va)) + list(sc.wires(2, vb))
        x = sc.finset(2, wires={quad[0]: va, quad[1]: va, quad[2]: vb, quad[3]: vb})
        return {"x": x, "x1": quad[0], "x2": quad[1], "x3": quad[2], "x4": quad[3]}
    raise InvalidParamsError(f"unknown relation id {rel_id!r}")


# -- stratified presentations ----------------------------------------------


@dataclass(frozen=True)
class StratifiedUWD:
    """Either the empty cell alone or one name change over loops, splits,
    2-cells, and 1-output wires, in that order."""

    empty: bool = False
    name_chg: UWDGenerator | None = None
    loops: tuple[UWDGenerator, ...] = ()
    splits: tuple[UWDGenerator, ...] = ()
    two_cells: tuple[UWDGenerator, ...] = ()
    output_wires: tuple[UWDGenerator, ...] = ()

    def to_simplex(self) -> Simplex:
        if self.empty:
            return Leaf(empty_cell())
        unary = [self.name_chg] if self.name_chg else []
        unary += list(self.loops) + list(self.splits)
        parts = [Leaf(g) for g in unary]
        bottom = tower_simplex(self.two_cells, self.output_wires)
        if bottom is not None:
            parts.append(bottom)
        return chain(parts)

    def leaf_kinds(self) -> set[str]:
        return {g.kind for g in leaves(self.to_simplex())}

    def counts(self) -> dict[str, int]:
        return {
            U_LOOP: len(self.loops),
            U_SPLIT: len(self.splits),
            U_TWO_CELL: len(self.two_cells),
            OUTPUT_WIRE: len(self.output_wires),
        }


def split_psi(uwd: UWD) -> tuple[UWD, UWD]:
    """uwd = psi1 o psi2: psi2 exposes the box wires and one fresh wire per
    wasted/output-only/(1,0) cable (two for wasted); psi1 does the soldering,
    so every psi1 cable touches an input wire."""
    wasted = [c for c in sorted(uwd.cables) if uwd.cable_type(c) == (0, 0)]
    zero_out = [c for c in sorted(uwd.cables) if uwd.cable_type(c)[0] == 0 and uwd.cable_type(c)[1] >= 1]
    one_zero = [c for c in sorted(uwd.cables) if uwd.cable_type(c) == (1, 0)]
    parts = list(uwd.input_boxes) + [
        uwd.cables.restrict(wasted),
        uwd.cables.restrict(wasted),
        uwd.cables.restrict(zero_out),
        uwd.cables.restrict(one_zero),
    ]
    z_box, injs = coproduct(parts)
    n = len(uwd.input_boxes)
    psi2 = make_uwd(
        uwd.input_boxes,
        z_box,
        z_box,
        {(i, w): injs[i - 1](w) for i, w in uwd.in_wires()},
        {w: w for w in z_box},
    )
    solder1: dict[tuple[int, str], str] = {}
    for i, w in uwd.in_wires():
        solder1[(1, injs[i - 1](w))] = uwd.input_solder[(i, w)]
    for c in wasted:
        solder1[(1, injs[n](c))] = c
        solder1[(1, injs[n + 1](c))] = c
    for c in zero_out:
        solder1[(1, injs[n + 2](c))] = c
    for c in one_zero:
        solder1[(1, injs[n + 3](c))] = c
    psi1 = make_uwd([z_box], uwd.output_box, uwd.cables, solder1, uwd.output_solder)
    return psi1, psi2


def split_phi(phi: UWD) -> tuple[UWD, UWD]:
    """phi = phi1 o phi2 for a unary diagram all of whose cables touch an
    input wire and none of which is a (1,0)-cable: phi1 keeps only (1,1)-
    and (2,0)-cables, phi2 is a pure split pattern onto anchor wires."""
    if len(phi.input_boxes) != 1:
        raise ValueError("split_phi requires one input box")
    a_box = phi.input_boxes[0]
    for c in phi.cables:
        m, n = phi.cable_type(c)
        if m == 0 or (m, n) == (1, 0):
            raise ValueError("split_phi forbids cables without input wires and (1,0)-cables")
    fibers: dict[str, list[str]] = {c: [] for c in phi.cables}
    for (_, w), c in sorted(phi.input_solder.items()):
        fibers[c].append(w)
    anchors = {c: fibers[c][0] for c in phi.cables}

    # W: output wires, both wires of each (2,0)-cable, and +/- copies of the
    # non-anchor wires of the bigger cables.
    w_tags: list[tuple] = []
    w_values: list[Value] = []
    g2: dict[tuple, str] = {}
    for y in phi.output_box:
        c = phi.output_solder[y]
        tag = ("b", y)
        w_tags.append(tag)
        w_values.append(phi.output_box.value(y))
        g2[tag] = anchors[c]
    for c in sorted(phi.cables):
        m, n = phi.cable_type(c)
        fiber = fibers[c]
        if (m, n) == (2, 0):
            for w in fiber:
                tag = ("w", w)
                w_tags.append(tag)
                w_values.append(a_box.value(w))
                g2[tag] = w
        elif m + n >= 3:
            for w in fiber[1:]:
                plus, minus = ("p", w), ("m", w)
                w_tags.append(plus)
                w_values.append(a_box.value(w))
                g2[plus] = w
                w_tags.append(minus)
                w_values.append(a_box.value(w))
                g2[minus] = anchors[c]

    names = [f"t{k}" for k in range(len(w_tags))]
    w_box = FinSet(tuple(zip(names, w_values)))
    name_of = dict(zip(w_tags, names))

    phi2 = make_uwd(
        [a_box], w_box, a_box,
        {(1, w): w for w in a_box},
        {name_of[tag]: g2[tag] for tag in w_tags},
    )

    # phi1: cables are the output wires ((1,1)-cables) plus one (2,0)-cable
    # per seam pair.
    cable_pairs: list[tuple[str, Value]] = []
    solder1: dict[tuple[int, str], str] = {}
    out1: dict[str, str] = {}
    for y in phi.output_box:
        cable_pairs.append((name_of[("b", y)], phi.output_box.value(y)))
        solder1[(1, name_of[("b", y)])] = name_of[("b", y)]
        out1[y] = name_of[("b", y)]
    for c in sorted(phi.cables):
        m, n = phi.cable_type(c)
        fiber = fibers[c]
        if (m, n) == (2, 0):
            cable = name_of[("w", fiber[0])]
            cable_pairs.append((cable, phi.cables.value(c)))
            solder1[(1, name_of[("w", fiber[0])])] = cable
            solder1[(1, name_of[("w", fiber[1])])] = cable
        elif m + n >= 3:
            for w in fiber[1:]:
                cable = name_of[("p", w)]
                cable_pairs.append((cable, a_box.value(w)))
                solder1[(1, name_of[("p", w)])] = cable
                solder1[(1, name_of[("m", w)])] = cable
    phi1 = make_uwd([w_box], phi.output_box, FinSet(tuple(cable_pairs)), solder1, out1)
    return phi1, phi2


# -- the expansions --------------------------------------------------------
#
# As on the directed side, each expand_* lists its generators from the
# outside in, starting from the box reached so far, given with ``wires``
# (the factor's input-box wires as wires of that box), and returns the box
# it ends on with the factor's output-box wires as wires of that end box.


def wires_change_u(end: FinSet, box: FinSet, wires: Mapping[str, str]) -> UWDGenerator:
    """The name change from ``end`` to ``box`` along ``box``'s wires in ``end``."""
    return u_name_change(end, box, {wires[y]: y for y in box})


def expand_cells_outputs(
    psi2: UWD,
) -> tuple[list[UWDGenerator], list[UWDGenerator], FinSet, dict[str, str]]:
    """psi2 (inclusion cospan) as 2-cells over the boxes plus one 1-output
    wire ``z<k>`` per cable that touches no input wire, in sorted order.

    Returns the 2-cells, the output wires, the tower's output box and
    psi2's output-box wires as wires of that box.
    """
    z_box = psi2.output_box
    soldered = set(psi2.input_solder.values())
    extra = sorted(w for w in z_box if w not in soldered)
    singles = [FinSet(((f"z{k}", z_box.value(w)),)) for k, w in enumerate(extra)]
    parts = list(psi2.input_boxes) + singles
    tower, injs = coproduct(parts)
    wires = {c: injs[i - 1](w) for (i, w), c in psi2.input_solder.items()}
    n = len(psi2.input_boxes)
    wires.update({w: injs[n + k](f"z{k}") for k, w in enumerate(extra)})
    thetas = two_cell_tower(parts, lambda a, b: coproduct([a, b])[0], u_two_cell)
    omegas = [output_wire(*single.pairs[0]) for single in singles]
    return thetas, omegas, tower, wires


def expand_splits(
    phi2: UWD, start: FinSet, wires: Mapping[str, str]
) -> tuple[list[UWDGenerator], FinSet, dict[str, str]]:
    """phi2 (identity input solder, surjective output solder) as iterated
    splits: each input wire is split once per further wire of its fiber."""
    a_box = phi2.input_boxes[0]
    fibers: dict[str, list[str]] = {w: [] for w in a_box}
    for y in phi2.output_box:
        fibers[phi2.output_solder[y]].append(y)
    gens: list[UWDGenerator] = []
    out: dict[str, str] = {}
    current = start
    for a in sorted(fibers):
        u = wires[a]
        head, *rest = sorted(fibers[a])
        out[head] = u
        for k, target in enumerate(rest, start=2):
            fresh = fresh_name(f"{u}.{k}", current)
            current = FinSet(current.pairs + ((fresh, a_box.value(a)),))
            gens.append(u_split(current, u, fresh))
            out[target] = fresh
    return gens[::-1], current, out


def expand_loops_u(
    phi1: UWD, start: FinSet, wires: Mapping[str, str]
) -> tuple[list[UWDGenerator], FinSet, dict[str, str]]:
    """phi1 (only (1,1)- and (2,0)-cables) as iterated loops, one per
    (2,0)-cable in sorted order."""
    fibers: dict[str, list[str]] = {c: [] for c in phi1.cables}
    for (_, w), c in phi1.input_solder.items():
        fibers[c].append(w)
    outer = set(phi1.output_solder.values())
    gens: list[UWDGenerator] = []
    current = start
    for c in sorted(phi1.cables):
        if c not in outer:
            p1, p2 = (wires[w] for w in sorted(fibers[c]))
            gens.append(u_loop(current, p1, p2))
            current = current.remove([p1, p2])
    out = {y: wires[fibers[c][0]] for y, c in phi1.output_solder.items()}
    return gens[::-1], current, out


def stratify_u(uwd: UWD) -> StratifiedUWD:
    """A stratified presentation whose evaluation is equivalent to ``uwd``:
    the 2-cell tower, then the splits and loops expanded from its box
    outwards, then one name change onto ``uwd``'s output box."""
    if not uwd.input_boxes and len(uwd.output_box) == 0 and len(uwd.cables) == 0:
        return StratifiedUWD(empty=True)

    psi1, psi2 = split_psi(uwd)
    phi1, phi2 = split_phi(psi1)
    thetas, omegas, current, wires = expand_cells_outputs(psi2)
    splits, current, wires = expand_splits(phi2, current, wires)
    loops, current, wires = expand_loops_u(phi1, current, wires)
    return StratifiedUWD(
        name_chg=wires_change_u(current, uwd.output_box, wires),
        loops=tuple(loops),
        splits=tuple(splits),
        two_cells=tuple(thetas),
        output_wires=tuple(omegas),
    )
