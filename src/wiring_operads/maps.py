"""Operad maps between the directed and undirected worlds.

``to_undirected`` (defined on all wiring diagrams) forgets directions: the
color map sends a box to the disjoint union of its two wire sets, the cables
of the image are the supply wires modulo identifying each delay node with
its own supplier, and the solder maps are read off the supplier assignment.
Restricted to normal diagrams this is the direction-forgetting map
``chi``; restricted further to strict diagrams it is ``chi0``.

Images are exactly characterized by the cable census: the normal image has
no wasted cables and no (0,>=2)-cables; the strict image has only (1,1)- and
(2,0)-cables; the full map is surjective, with delay nodes realizing the
wasted and (0,>=2)-cables.  Constructive one-sided inverses are provided by
``lift_chi``, ``lift_chi0`` and ``lift_rho``.
"""
from __future__ import annotations

from typing import Callable

from wiring_operads.finset import FinSet, Value, coproduct, identify
from wiring_operads.uwd import UWD, census, make_uwd
from wiring_operads.wd import (
    Address,
    Box,
    WiringDiagram,
    change_of_values_wd,
    make_wd,
)


class NotNormalError(ValueError):
    """chi applied to a diagram with delay nodes."""


class NotInImageError(ValueError):
    """Lift requested for a diagram outside the map's image."""


def flatten_box(box: Box) -> FinSet:
    """The color map: inputs and outputs merged into one valued finite set."""
    merged, _ = coproduct([box.inputs, box.outputs])
    return merged


def rho(wd: WiringDiagram) -> UWD:
    """The direction-forgetting operad map, defined for all wiring diagrams.

    Cables are the supply wires with each delay node identified with its own
    supplier; class representatives are the least member names.
    """
    n = len(wd.input_boxes)
    supply_parts = [wd.output_box.inputs] + [b.outputs for b in wd.input_boxes] + [
        wd.delay_nodes
    ]
    supply_fin, supply_injs = coproduct(supply_parts)

    def supply_name(addr: Address) -> str:
        if addr[0] == "gin":
            return supply_injs[0](addr[1])
        if addr[0] == "bout":
            return supply_injs[addr[1]](addr[2])
        return supply_injs[n + 1](addr[1])

    cables, rep_of = identify(
        supply_fin,
        ((supply_name(("dn", d)), supply_name(wd.supplier[("dn", d)])) for d in wd.delay_nodes),
    )

    def cable_of(addr: Address) -> str:
        return rep_of[supply_name(addr)]

    boxes = []
    input_solder: dict[tuple[int, str], str] = {}
    for i, box in enumerate(wd.input_boxes, start=1):
        flat, (inj_in, inj_out) = coproduct([box.inputs, box.outputs])
        boxes.append(flat)
        for w in box.inputs:
            input_solder[(i, inj_in(w))] = cable_of(wd.supplier[("bin", i, w)])
        for w in box.outputs:
            input_solder[(i, inj_out(w))] = cable_of(("bout", i, w))
    out_flat, (out_in, out_out) = coproduct(
        [wd.output_box.inputs, wd.output_box.outputs]
    )
    output_solder: dict[str, str] = {}
    for y in wd.output_box.inputs:
        output_solder[out_in(y)] = cable_of(("gin", y))
    for y in wd.output_box.outputs:
        output_solder[out_out(y)] = cable_of(wd.supplier[("gout", y)])
    return make_uwd(boxes, out_flat, cables, input_solder, output_solder)


def chi(wd: WiringDiagram) -> UWD:
    """rho restricted to normal wiring diagrams."""
    if not wd.is_normal():
        raise NotNormalError("chi is defined on normal diagrams only")
    return rho(wd)


def chi0(wd: WiringDiagram) -> UWD:
    """rho restricted to strict wiring diagrams."""
    if not wd.is_strict():
        raise NotNormalError("chi0 is defined on strict diagrams only")
    return rho(wd)


def in_image_chi(uwd: UWD) -> bool:
    """No wasted cables and no (0,>=2)-cables."""
    return all(
        not (m == 0 and n != 1) for (m, n) in census(uwd)
    )


def in_image_chi0(uwd: UWD) -> bool:
    """Only (1,1)- and (2,0)-cables."""
    return set(census(uwd)) <= {(1, 1), (2, 0)}


def lift_rho(uwd: UWD) -> WiringDiagram:
    """A wiring diagram mapping onto ``uwd`` under rho.

    Every cable touched by an input wire donates its least preimage as a box
    output; wasted and (0,>=2)-cables become self-supplying delay nodes;
    (0,1)-cables become external wasted wires.
    """
    anchors: dict[str, tuple[int, str]] = {}
    for c in sorted(uwd.cables):
        fiber = sorted(w for w in uwd.in_wires() if uwd.input_solder[w] == c)
        if fiber:
            anchors[c] = fiber[0]
    dn_cables = sorted(
        c for c in uwd.cables
        if uwd.cable_type(c)[0] == 0 and uwd.cable_type(c)[1] != 1
    )
    delay_nodes = uwd.cables.restrict(dn_cables)

    boxes = []
    for i, flat in enumerate(uwd.input_boxes, start=1):
        outs = [w for w in flat if anchors.get(uwd.input_solder[(i, w)]) == (i, w)]
        boxes.append(Box(flat.remove(outs), flat.restrict(outs)))
    y_in = [
        y for y in uwd.output_box if uwd.cable_type(uwd.output_solder[y]) == (0, 1)
    ]
    out_box = Box(uwd.output_box.restrict(y_in), uwd.output_box.remove(y_in))

    def supply_for(cable: str) -> Address:
        if cable in anchors:
            i, w = anchors[cable]
            return ("bout", i, w)
        return ("dn", cable)

    supplier: dict[Address, Address] = {}
    for y in out_box.outputs:
        supplier[("gout", y)] = supply_for(uwd.output_solder[y])
    for i, box in enumerate(boxes, start=1):
        for w in box.inputs:
            cable = uwd.input_solder[(i, w)]
            if anchors.get(cable) == (i, w):
                continue
            supplier[("bin", i, w)] = supply_for(cable)
    for d in delay_nodes:
        supplier[("dn", d)] = ("dn", d)
    return make_wd(boxes, out_box, delay_nodes, supplier)


def lift_chi(uwd: UWD) -> WiringDiagram:
    """A normal preimage, defined when the census admits one."""
    if not in_image_chi(uwd):
        raise NotInImageError("diagram has wasted or (0,>=2)-cables")
    return lift_rho(uwd)


def lift_chi0(uwd: UWD) -> WiringDiagram:
    """A strict preimage, defined when all cables are (1,1) or (2,0)."""
    if not in_image_chi0(uwd):
        raise NotInImageError("diagram has cables other than (1,1) and (2,0)")
    lifted = lift_rho(uwd)
    assert lifted.is_strict()
    return lifted


def change_of_values(f: Callable[[Value], Value], diagram):
    """Post-compose every value assignment with ``f``, in any of the four
    operads."""
    from wiring_operads.uwd import UndirectedWiringDiagram, change_of_values_uwd

    if isinstance(diagram, UndirectedWiringDiagram):
        return change_of_values_uwd(f, diagram)
    return change_of_values_wd(f, diagram)
