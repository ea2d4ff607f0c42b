"""Wiring diagrams and the colored-operad structure on them.

A wiring diagram has a finite list of input boxes, an output box, a valued
finite set of delay nodes, and a supplier assignment sending every demand
wire to a supply wire of the same value, subject to non-instantaneity: no
global output may be supplied directly by a global input.

Wires are addressed by role so that distinct boxes (or the two sides of one
box) may reuse raw identifiers:

    demand addresses   ("gout", y) | ("bin", i, x) | ("dn", d)
    supply addresses   ("gin", y)  | ("bout", i, x) | ("dn", d)

with ``i`` the 1-based input-box position.  Composition substitutes a whole
diagram into one input box and eliminates the intermediate box's wires by
chasing suppliers across the seam.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from wiring_operads.finset import EMPTY, FinSet, Permutation, Value, coproduct

Address = tuple


class NonInstantaneityError(ValueError):
    """A global output is supplied directly by a global input."""


class BoxMismatchError(ValueError):
    """Operadic composition attempted along non-matching boxes."""


@dataclass(frozen=True)
class Box:
    """A pair of valued finite sets: the inputs and outputs of one interface."""

    inputs: FinSet
    outputs: FinSet

    @staticmethod
    def of(inputs: Mapping[str, Value], outputs: Mapping[str, Value]) -> Box:
        return Box(FinSet.of(inputs), FinSet.of(outputs))

    def value(self, side: str, wire: str) -> Value:
        return (self.inputs if side == "in" else self.outputs).value(wire)

    def remove(self, inputs: Sequence[str] = (), outputs: Sequence[str] = ()) -> Box:
        return Box(self.inputs.remove(inputs), self.outputs.remove(outputs))


EMPTY_BOX = Box(EMPTY, EMPTY)


def box_coproduct(parts: Sequence[Box]) -> Box:
    """Coproduct of boxes; wire names kept, repeats renamed via the @-scheme."""
    ins, _ = coproduct([p.inputs for p in parts])
    outs, _ = coproduct([p.outputs for p in parts])
    return Box(ins, outs)


@dataclass(frozen=True, eq=False)
class WiringDiagram:
    input_boxes: tuple[Box, ...]
    output_box: Box
    delay_nodes: FinSet
    supplier: Mapping[Address, Address]

    def __post_init__(self) -> None:
        # A read-only copy: a supplier changed after validation could break
        # non-instantaneity or value matching unnoticed.
        object.__setattr__(self, "supplier", MappingProxyType(dict(self.supplier)))

    # -- addressing ------------------------------------------------------

    def demands(self) -> list[Address]:
        out: list[Address] = [("gout", y) for y in self.output_box.outputs]
        for i, box in enumerate(self.input_boxes, start=1):
            out.extend(("bin", i, x) for x in box.inputs)
        out.extend(("dn", d) for d in self.delay_nodes)
        return out

    def supplies(self) -> list[Address]:
        out: list[Address] = [("gin", y) for y in self.output_box.inputs]
        for i, box in enumerate(self.input_boxes, start=1):
            out.extend(("bout", i, x) for x in box.outputs)
        out.extend(("dn", d) for d in self.delay_nodes)
        return out

    def value_at(self, addr: Address) -> Value:
        kind = addr[0]
        if kind == "gout":
            return self.output_box.outputs.value(addr[1])
        if kind == "gin":
            return self.output_box.inputs.value(addr[1])
        if kind == "bin":
            return self.input_boxes[addr[1] - 1].inputs.value(addr[2])
        if kind == "bout":
            return self.input_boxes[addr[1] - 1].outputs.value(addr[2])
        if kind == "dn":
            return self.delay_nodes.value(addr[1])
        raise ValueError(f"unknown address {addr!r}")

    # -- equality (order-insensitive; delay-node names significant) ------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WiringDiagram):
            return NotImplemented
        return (
            self.input_boxes == other.input_boxes
            and self.output_box == other.output_box
            and self.delay_nodes == other.delay_nodes
            and self.supplier == other.supplier
        )

    def supplier_image(self) -> set[Address]:
        return set(self.supplier.values())

    def is_normal(self) -> bool:
        return len(self.delay_nodes) == 0

    def is_strict(self) -> bool:
        if not self.is_normal():
            return False
        image = list(self.supplier.values())
        return len(set(image)) == len(image) == len(self.supplies())


def make_wd(
    input_boxes: Sequence[Box],
    output_box: Box,
    delay_nodes: FinSet,
    supplier: Mapping[Address, Address],
) -> WiringDiagram:
    """Validate and build a wiring diagram.

    Raises ValueError subclasses for a partial or dangling supplier, a value
    mismatch, or a non-instantaneity violation.
    """
    wd = WiringDiagram(tuple(input_boxes), output_box, delay_nodes, supplier)
    demands = wd.demands()
    supplies = set(wd.supplies())
    table = wd.supplier
    extra = set(table) - set(demands)
    if extra:
        raise ValueError(f"supplier defined on non-demand addresses {sorted(extra)}")
    for dm in demands:
        if dm not in table:
            raise ValueError(f"supplier is partial: no supply for demand {dm!r}")
        sp = table[dm]
        if sp not in supplies:
            raise ValueError(f"supplier target {sp!r} is not a supply wire")
        if wd.value_at(dm) != wd.value_at(sp):
            raise ValueError(
                f"value mismatch: demand {dm!r} has {wd.value_at(dm)!r}, "
                f"supply {sp!r} has {wd.value_at(sp)!r}"
            )
        if dm[0] == "gout" and sp[0] == "gin":
            raise NonInstantaneityError(
                f"global output {dm[1]!r} supplied by global input {sp[1]!r}"
            )
    return wd


def unit(box: Box) -> WiringDiagram:
    """The colored unit: one input box, no delay nodes, identity supplier."""
    supplier: dict[Address, Address] = {}
    for y in box.outputs:
        supplier[("gout", y)] = ("bout", 1, y)
    for x in box.inputs:
        supplier[("bin", 1, x)] = ("gin", x)
    return WiringDiagram((box,), box, EMPTY, supplier)


def permute(wd: WiringDiagram, sigma: Permutation) -> WiringDiagram:
    """Right action: reindex input boxes, leaving the wiring untouched."""
    if sigma.size != len(wd.input_boxes):
        raise ValueError("permutation size does not match the number of input boxes")
    boxes = tuple(sigma.apply(list(wd.input_boxes)))

    inv = sigma.inverse()

    def write(addr: Address) -> Address:
        if addr[0] in ("bin", "bout"):
            return (addr[0], inv(addr[1]), addr[2])
        return addr

    supplier = {write(dm): write(sp) for dm, sp in wd.supplier.items()}
    return WiringDiagram(boxes, wd.output_box, wd.delay_nodes, supplier)


def _rename_delay_nodes(
    left: FinSet, right: FinSet
) -> tuple[FinSet, dict[str, str], dict[str, str]]:
    merged, (inj_l, inj_r) = coproduct([left, right])
    return merged, dict(inj_l.table), dict(inj_r.table)


def comp_i(phi: WiringDiagram, i: int, psi: WiringDiagram) -> WiringDiagram:
    """Substitute ``psi`` into the i-th input box of ``phi``.

    Requires psi's output box to equal phi's i-th input box.  The composite
    supplier is computed by chasing across the seam: a supply landing on the
    eliminated box resolves through the other diagram, which terminates after
    at most three hops by non-instantaneity.
    """
    n = len(phi.input_boxes)
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    if psi.output_box != phi.input_boxes[i - 1]:
        raise BoxMismatchError(
            f"output box of the inner diagram does not match input box {i}"
        )
    r = len(psi.input_boxes)
    dn, ren_l, ren_r = _rename_delay_nodes(phi.delay_nodes, psi.delay_nodes)

    def phi_index(j: int) -> int:
        return j if j < i else j + r - 1

    def psi_index(k: int) -> int:
        return i + k - 1

    def out_phi(addr: Address) -> Address:
        """Rewrite a phi supply address into composite coordinates (no seam)."""
        if addr[0] == "bout":
            return ("bout", phi_index(addr[1]), addr[2])
        if addr[0] == "dn":
            return ("dn", ren_l[addr[1]])
        return addr

    def out_psi(addr: Address) -> Address:
        if addr[0] == "bout":
            return ("bout", psi_index(addr[1]), addr[2])
        if addr[0] == "dn":
            return ("dn", ren_r[addr[1]])
        return addr

    def chase(addr: Address, in_phi: bool) -> Address:
        while True:
            if in_phi and addr[0] == "bout" and addr[1] == i:
                addr = psi.supplier[("gout", addr[2])]
                in_phi = False
            elif not in_phi and addr[0] == "gin":
                addr = phi.supplier[("bin", i, addr[1])]
                in_phi = True
            else:
                return out_phi(addr) if in_phi else out_psi(addr)

    supplier: dict[Address, Address] = {}
    for y in phi.output_box.outputs:
        supplier[("gout", y)] = chase(phi.supplier[("gout", y)], True)
    for j, box in enumerate(phi.input_boxes, start=1):
        if j == i:
            continue
        for x in box.inputs:
            supplier[("bin", phi_index(j), x)] = chase(phi.supplier[("bin", j, x)], True)
    for d in phi.delay_nodes:
        supplier[("dn", ren_l[d])] = chase(phi.supplier[("dn", d)], True)
    for k, box in enumerate(psi.input_boxes, start=1):
        for w in box.inputs:
            supplier[("bin", psi_index(k), w)] = chase(psi.supplier[("bin", k, w)], False)
    for d in psi.delay_nodes:
        supplier[("dn", ren_r[d])] = chase(psi.supplier[("dn", d)], False)

    boxes = (
        phi.input_boxes[: i - 1] + psi.input_boxes + phi.input_boxes[i:]
    )
    return WiringDiagram(boxes, phi.output_box, dn, supplier)


def gamma(phi: WiringDiagram, parts: Sequence[WiringDiagram]) -> WiringDiagram:
    """Simultaneous composition as the left-nested iterate of comp_i."""
    if len(parts) != len(phi.input_boxes):
        raise ValueError("need exactly one part per input box")
    result = phi
    position = 1
    for part in parts:
        result = comp_i(result, position, part)
        position += len(part.input_boxes)
    return result


# -- equivalence and canonical form --------------------------------------


def _dn_signatures(wd: WiringDiagram) -> dict[str, tuple]:
    """Iteratively refined delay-node signatures, stable under renaming."""
    dns = list(wd.delay_nodes)
    sig: dict[str, tuple] = {d: (wd.delay_nodes.value(d),) for d in dns}

    def addr_key(addr: Address, current: Mapping[str, tuple]) -> tuple:
        if addr[0] == "dn":
            return ("dn", current[addr[1]])
        return addr

    for _ in range(len(dns) + 1):
        new_sig: dict[str, tuple] = {}
        for d in dns:
            target = addr_key(wd.supplier[("dn", d)], sig)
            demanders = sorted(
                (addr_key(dm, sig) for dm, sp in wd.supplier.items() if sp == ("dn", d)),
                key=repr,
            )
            new_sig[d] = (sig[d], target, tuple(demanders))
        if len(set(new_sig.values())) == len(set(sig.values())):
            sig = new_sig
            break
        sig = new_sig
    return sig


def _relabel_dns(wd: WiringDiagram, table: Mapping[str, str]) -> WiringDiagram:
    def fix(addr: Address) -> Address:
        return ("dn", table[addr[1]]) if addr[0] == "dn" else addr

    return WiringDiagram(
        wd.input_boxes,
        wd.output_box,
        wd.delay_nodes.relabel(table),
        {fix(dm): fix(sp) for dm, sp in wd.supplier.items()},
    )


def canonical_form(wd: WiringDiagram) -> WiringDiagram:
    """A fixed representative of the equivalence class of ``wd``.

    Equivalence renames delay nodes only, so canonicalization renames them to
    d1, d2, ... in an order determined by a refined structural signature,
    trying all orders within still-ambiguous signature classes and keeping
    the lexicographically least supplier table.
    """
    dns = sorted(wd.delay_nodes)
    if not dns:
        return wd
    sig = _dn_signatures(wd)
    groups: dict[tuple, list[str]] = {}
    for d in dns:
        groups.setdefault(sig[d], []).append(d)
    ordered_groups = [groups[k] for k in sorted(groups, key=repr)]

    best: WiringDiagram | None = None
    best_key: tuple | None = None
    for ordering in itertools.product(*(itertools.permutations(g) for g in ordered_groups)):
        flat = [d for group in ordering for d in group]
        table = {d: f"d{k + 1}" for k, d in enumerate(flat)}
        candidate = _relabel_dns(wd, table)
        key = tuple(sorted((repr(dm), repr(sp)) for dm, sp in candidate.supplier.items()))
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    assert best is not None
    return best


def equivalent(a: WiringDiagram, b: WiringDiagram) -> bool:
    """True when a value-preserving delay-node bijection matches the suppliers."""
    if a.input_boxes != b.input_boxes or a.output_box != b.output_box:
        return False
    if len(a.delay_nodes) != len(b.delay_nodes):
        return False
    return canonical_form(a) == canonical_form(b)


# -- wire classification --------------------------------------------------


@dataclass(frozen=True)
class WireClassification:
    external_wasted: frozenset[str]
    internal_wasted: frozenset[Address]
    loop_elements: frozenset[str] | None
    internally_supplied: frozenset[str] | None
    externally_supplied: frozenset[str] | None


def classify(wd: WiringDiagram) -> WireClassification:
    """Wasted wires always; loop-element fields only for one-box, no-delay
    diagrams (they are undefined otherwise and reported as None)."""
    image = wd.supplier_image()
    external = frozenset(y for y in wd.output_box.inputs if ("gin", y) not in image)
    internal = frozenset(
        addr
        for addr in wd.supplies()
        if addr[0] in ("bout", "dn") and addr not in image
    )
    loops = supplied_in = supplied_ex = None
    if len(wd.input_boxes) == 1 and len(wd.delay_nodes) == 0:
        box = wd.input_boxes[0]
        supplied_in = frozenset(
            x for x in box.inputs if wd.supplier[("bin", 1, x)][0] == "bout"
        )
        supplied_ex = frozenset(
            x for x in box.inputs if wd.supplier[("bin", 1, x)][0] == "gin"
        )
        loops = frozenset(
            wd.supplier[("bin", 1, x)][2] for x in supplied_in
        )
    return WireClassification(external, internal, loops, supplied_in, supplied_ex)


def random_box(rng, max_wires: int = 3, values: Sequence[Value] = ("a", "b")) -> Box:
    """A small random box for the law and round-trip suites."""
    n_in = rng.randrange(max_wires + 1)
    n_out = rng.randrange(max_wires + 1)
    tag = rng.randrange(10_000)
    ins = {f"i{tag}n{k}": rng.choice(values) for k in range(n_in)}
    outs = {f"o{tag}n{k}": rng.choice(values) for k in range(n_out)}
    return Box.of(ins, outs)


def random_wd(
    rng,
    output_box: Box | None = None,
    max_boxes: int = 3,
    max_wires: int = 3,
    max_delay: int = 2,
    values: Sequence[Value] = ("a", "b"),
    strict: bool = False,
) -> WiringDiagram:
    """A random wiring diagram, optionally with a prescribed output box.

    For ``strict`` the supplier is a random value-matching bijection built by
    pairing every demand with its own supply; otherwise demands pick any
    value-compatible supply, with internal supplies seeded so every global
    output has a legal target.
    """
    tag = rng.randrange(10_000)
    if output_box is None:
        output_box = random_box(rng, max_wires, values)

    if strict:
        # One internal out-wire per global output, one internal in-wire per
        # global input, plus a few loop pairs; distribute over 1..max_boxes.
        outs_needed = [output_box.outputs.value(y) for y in output_box.outputs]
        ins_needed = [output_box.inputs.value(y) for y in output_box.inputs]
        n_loops = rng.randrange(3)
        loop_vals = [rng.choice(values) for _ in range(n_loops)]
        wires_out = outs_needed + loop_vals
        wires_in = ins_needed + loop_vals
        n_boxes = max(1, rng.randrange(max_boxes + 1)) if (wires_out or wires_in) else rng.randrange(max_boxes + 1)
        box_ins: list[dict[str, Value]] = [dict() for _ in range(n_boxes)]
        box_outs: list[dict[str, Value]] = [dict() for _ in range(n_boxes)]
        out_addrs: list[tuple[int, str]] = []
        in_addrs: list[tuple[int, str]] = []
        for k, v in enumerate(wires_out):
            b = rng.randrange(n_boxes)
            w = f"s{tag}o{k}"
            box_outs[b][w] = v
            out_addrs.append((b + 1, w))
        for k, v in enumerate(wires_in):
            b = rng.randrange(n_boxes)
            w = f"s{tag}i{k}"
            box_ins[b][w] = v
            in_addrs.append((b + 1, w))
        boxes = [Box.of(box_ins[b], box_outs[b]) for b in range(n_boxes)]
        supplier: dict[Address, Address] = {}
        # Global outputs take the seeded internal outs; box inputs take the
        # global inputs and the loop outs, shuffled within equal values.
        for k, y in enumerate(output_box.outputs):
            b, w = out_addrs[k]
            supplier[("gout", y)] = ("bout", b, w)
        n_g = len(ins_needed)
        for k, y in enumerate(output_box.inputs):
            b, w = in_addrs[k]
            supplier[("bin", b, w)] = ("gin", y)
        for k in range(n_loops):
            b, w = in_addrs[n_g + k]
            bo, wo = out_addrs[len(outs_needed) + k]
            supplier[("bin", b, w)] = ("bout", bo, wo)
        return make_wd(boxes, output_box, EMPTY, supplier)

    n_boxes = rng.randrange(max_boxes + 1)
    boxes = [random_box(rng, max_wires, values) for _ in range(n_boxes)]
    needed_internal = {output_box.outputs.value(y) for y in output_box.outputs}
    dn_pairs = {}
    for k in range(rng.randrange(max_delay + 1)):
        dn_pairs[f"dn{tag}x{k}"] = rng.choice(values)
    internal_values = {
        b.outputs.value(w) for b in boxes for w in b.outputs
    } | set(dn_pairs.values())
    # Seed delay nodes so every demand has a legal target: global outputs
    # need an internal supply of their value, other demands any supply.
    any_values = internal_values | {output_box.inputs.value(y) for y in output_box.inputs}
    demanded = {b.inputs.value(w) for b in boxes for w in b.inputs}
    missing = (needed_internal - internal_values) | (demanded - any_values)
    if missing and max_delay == 0:
        # No delay nodes allowed: put the missing values on a fresh box.
        extra = Box.of({}, {f"fix{tag}n{k}": v for k, v in enumerate(sorted(missing))})
        boxes.append(extra)
    else:
        for k, v in enumerate(sorted(missing)):
            dn_pairs[f"dn{tag}y{k}"] = v
    delay_nodes = FinSet.of(dn_pairs)
    draft = WiringDiagram(tuple(boxes), output_box, delay_nodes, {})
    supplies = draft.supplies()
    internal = [s for s in supplies if s[0] != "gin"]
    supplier = {}
    for dm in draft.demands():
        v = draft.value_at(dm)
        pool = internal if dm[0] == "gout" else supplies
        options = [s for s in pool if draft.value_at(s) == v]
        supplier[dm] = rng.choice(options)
    return make_wd(boxes, output_box, delay_nodes, supplier)


def change_of_values_wd(f: Callable[[Value], Value], wd: WiringDiagram) -> WiringDiagram:
    """Post-compose every value assignment with ``f`` (same combinatorics)."""

    def fs(s: FinSet) -> FinSet:
        return FinSet(tuple((e, f(v)) for e, v in s.pairs))

    boxes = tuple(Box(fs(b.inputs), fs(b.outputs)) for b in wd.input_boxes)
    out = Box(fs(wd.output_box.inputs), fs(wd.output_box.outputs))
    return WiringDiagram(boxes, out, fs(wd.delay_nodes), wd.supplier)
