"""Undirected wiring diagrams as cospans of valued finite sets.

An undirected wiring diagram solders the wires of its input boxes and of its
output box onto a finite set of cables:

    inputs --inputSolder--> cables <--outputSolder-- output box

Composition substitutes a diagram into an input box and takes the pushout of
the two cable sets over the shared box.  A cable soldered to m input wires
and n output wires is an (m,n)-cable; (0,0)-cables are wasted and can be
created by composition even when neither factor has any.

Input wires are addressed by (box position, wire); output wires by name.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from wiring_operads.finset import FinMap, FinSet, Permutation, Value, pushout
from wiring_operads.wd import BoxMismatchError

InWire = tuple[int, str]


@dataclass(frozen=True, eq=False)
class UndirectedWiringDiagram:
    input_boxes: tuple[FinSet, ...]
    output_box: FinSet
    cables: FinSet
    input_solder: Mapping[InWire, str]
    output_solder: Mapping[str, str]

    def __post_init__(self) -> None:
        # Read-only copies, so the solders validated by make_uwd stay valid.
        object.__setattr__(self, "input_solder", MappingProxyType(dict(self.input_solder)))
        object.__setattr__(self, "output_solder", MappingProxyType(dict(self.output_solder)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedWiringDiagram):
            return NotImplemented
        return (
            self.input_boxes == other.input_boxes
            and self.output_box == other.output_box
            and self.cables == other.cables
            and self.input_solder == other.input_solder
            and self.output_solder == other.output_solder
        )

    def in_wires(self) -> list[InWire]:
        return [
            (i, w)
            for i, box in enumerate(self.input_boxes, start=1)
            for w in box
        ]

    def cable_fibers(self, cable: str) -> tuple[list[InWire], list[str]]:
        ins = [w for w in self.in_wires() if self.input_solder[w] == cable]
        outs = [y for y in self.output_box if self.output_solder[y] == cable]
        return ins, outs

    def cable_type(self, cable: str) -> tuple[int, int]:
        ins, outs = self.cable_fibers(cable)
        return len(ins), len(outs)


UWD = UndirectedWiringDiagram


def make_uwd(
    input_boxes: Sequence[FinSet],
    output_box: FinSet,
    cables: FinSet,
    input_solder: Mapping[InWire, str],
    output_solder: Mapping[str, str],
) -> UWD:
    """Validate the two solder maps (totality, targets, value match)."""
    uwd = UWD(tuple(input_boxes), output_box, cables, input_solder, output_solder)
    for i, box in enumerate(uwd.input_boxes, start=1):
        for w in box:
            if (i, w) not in uwd.input_solder:
                raise ValueError(f"input solder is partial: missing wire {(i, w)!r}")
            c = uwd.input_solder[(i, w)]
            if c not in cables:
                raise ValueError(f"solder target {c!r} is not a cable")
            if box.value(w) != cables.value(c):
                raise ValueError(f"value mismatch soldering {(i, w)!r} to {c!r}")
    extra = set(uwd.input_solder) - set(uwd.in_wires())
    if extra:
        raise ValueError(f"input solder defined on unknown wires {sorted(extra)}")
    for y in output_box:
        if y not in uwd.output_solder:
            raise ValueError(f"output solder is partial: missing wire {y!r}")
        c = uwd.output_solder[y]
        if c not in cables:
            raise ValueError(f"solder target {c!r} is not a cable")
        if output_box.value(y) != cables.value(c):
            raise ValueError(f"value mismatch soldering {y!r} to {c!r}")
    extra = set(uwd.output_solder) - set(output_box.elements)
    if extra:
        raise ValueError(f"output solder defined on unknown wires {sorted(extra)}")
    return uwd


def unit_u(box: FinSet) -> UWD:
    return UWD(
        (box,),
        box,
        box,
        {(1, w): w for w in box},
        {w: w for w in box},
    )


def permute_u(uwd: UWD, sigma: Permutation) -> UWD:
    if sigma.size != len(uwd.input_boxes):
        raise ValueError("permutation size does not match the number of input boxes")
    boxes = tuple(sigma.apply(list(uwd.input_boxes)))
    inv = sigma.inverse()
    solder = {(inv(i), w): c for (i, w), c in uwd.input_solder.items()}
    return UWD(boxes, uwd.output_box, uwd.cables, solder, uwd.output_solder)


def comp_i_u(phi: UWD, i: int, psi: UWD) -> UWD:
    """Substitute ``psi`` into the i-th input box of ``phi``.

    The composite cable set is the pushout of the two cable sets over the
    shared box.
    """
    n = len(phi.input_boxes)
    if not 1 <= i <= n:
        raise IndexError(f"index {i} out of range 1..{n}")
    if psi.output_box != phi.input_boxes[i - 1]:
        raise BoxMismatchError(
            f"output box of the inner diagram does not match input box {i}"
        )
    box = phi.input_boxes[i - 1]
    cables, left, right = pushout(
        FinMap(box, phi.cables, {w: phi.input_solder[(i, w)] for w in box}),
        FinMap(box, psi.cables, psi.output_solder),
    )

    r = len(psi.input_boxes)

    def phi_index(j: int) -> int:
        return j if j < i else j + r - 1

    boxes = phi.input_boxes[: i - 1] + psi.input_boxes + phi.input_boxes[i:]
    input_solder: dict[InWire, str] = {}
    for (j, w), c in phi.input_solder.items():
        if j == i:
            continue
        input_solder[(phi_index(j), w)] = left(c)
    for (k, w), c in psi.input_solder.items():
        input_solder[(i + k - 1, w)] = right(c)
    output_solder = {y: left(c) for y, c in phi.output_solder.items()}
    return UWD(boxes, phi.output_box, cables, input_solder, output_solder)


def gamma_u(phi: UWD, parts: Sequence[UWD]) -> UWD:
    if len(parts) != len(phi.input_boxes):
        raise ValueError("need exactly one part per input box")
    result = phi
    position = 1
    for part in parts:
        result = comp_i_u(result, position, part)
        position += len(part.input_boxes)
    return result


def census(uwd: UWD) -> Counter:
    """The histogram of (m,n)-cable counts; key (0,0) counts wasted cables."""
    return Counter(uwd.cable_type(c) for c in uwd.cables)


def canonical_form_u(uwd: UWD) -> UWD:
    """Rename cables to a canonical c1, c2, ... ordering.

    Non-wasted cables are keyed by (value, input fiber, output fiber), which
    determines them uniquely since fibers are disjoint across cables; wasted
    cables are ordered by value alone.
    """

    def key(cable: str) -> tuple:
        ins, outs = uwd.cable_fibers(cable)
        return (
            0 if (ins or outs) else 1,
            uwd.cables.value(cable),
            tuple(sorted(ins)),
            tuple(sorted(outs)),
        )

    ordered = sorted(uwd.cables, key=key)
    table = {c: f"c{k + 1}" for k, c in enumerate(ordered)}
    return UWD(
        uwd.input_boxes,
        uwd.output_box,
        FinSet(tuple((table[c], uwd.cables.value(c)) for c in ordered)),
        {w: table[c] for w, c in uwd.input_solder.items()},
        {y: table[c] for y, c in uwd.output_solder.items()},
    )


def equivalent_u(a: UWD, b: UWD) -> bool:
    """True when a value-preserving cable bijection matches the solders."""
    if a.input_boxes != b.input_boxes or a.output_box != b.output_box:
        return False
    return canonical_form_u(a) == canonical_form_u(b)


def random_finset(rng, max_wires: int = 3, values: Sequence[Value] = ("a", "b")) -> FinSet:
    tag = rng.randrange(10_000)
    n = rng.randrange(max_wires + 1)
    return FinSet.of({f"u{tag}n{k}": rng.choice(values) for k in range(n)})


def random_uwd(
    rng,
    output_box: FinSet | None = None,
    max_boxes: int = 3,
    max_wires: int = 3,
    max_extra_cables: int = 2,
    values: Sequence[Value] = ("a", "b"),
    image_of_chi: bool = False,
    image_of_chi0: bool = False,
) -> UWD:
    """A small random undirected wiring diagram.

    ``image_of_chi`` restricts to diagrams with no wasted cables and no
    (0,>=2)-cables; ``image_of_chi0`` to diagrams whose cables are all
    (1,1) or (2,0).
    """
    tag = rng.randrange(10_000)
    if output_box is None:
        output_box = random_finset(rng, max_wires, values)
    if image_of_chi0:
        # Pair up wires: each output wire gets its own (1,1) cable with a
        # dedicated box wire; remaining box wires are paired into (2,0)s.
        n_loops = rng.randrange(3)
        wires = [(f"p{tag}w{k}", output_box.value(y)) for k, y in enumerate(output_box)]
        pair_values = [rng.choice(values) for _ in range(n_loops)]
        wires += [(f"p{tag}l{k}a", v) for k, v in enumerate(pair_values)]
        wires += [(f"p{tag}l{k}b", v) for k, v in enumerate(pair_values)]
        n_boxes = max(1, rng.randrange(max_boxes + 1)) if wires else 0
        assignment: list[list[tuple[str, Value]]] = [[] for _ in range(n_boxes)]
        homes = {}
        for w, v in wires:
            b = rng.randrange(n_boxes)
            assignment[b].append((w, v))
            homes[w] = b + 1
        boxes = [FinSet(tuple(part)) for part in assignment]
        cables = {}
        input_solder = {}
        output_solder = {}
        for k, y in enumerate(output_box):
            c = f"c{tag}o{k}"
            cables[c] = output_box.value(y)
            output_solder[y] = c
            w = f"p{tag}w{k}"
            input_solder[(homes[w], w)] = c
        for k, v in enumerate(pair_values):
            c = f"c{tag}l{k}"
            cables[c] = v
            for suffix in ("a", "b"):
                w = f"p{tag}l{k}{suffix}"
                input_solder[(homes[w], w)] = c
        return make_uwd(boxes, output_box, FinSet.of(cables), input_solder, output_solder)

    n_boxes = rng.randrange(max_boxes + 1)
    boxes = [random_finset(rng, max_wires, values) for _ in range(n_boxes)]
    cables: dict[str, Value] = {}
    input_solder = {}
    by_value: dict[Value, list[str]] = {}
    counter = 0
    for i, box in enumerate(boxes, start=1):
        for w in box:
            v = box.value(w)
            pool = by_value.get(v, [])
            if pool and rng.random() < 0.6:
                c = rng.choice(pool)
            else:
                c = f"c{tag}n{counter}"
                counter += 1
                cables[c] = v
                by_value.setdefault(v, []).append(c)
            input_solder[(i, w)] = c
    output_solder = {}
    for y in output_box:
        v = output_box.value(y)
        pool = by_value.get(v, [])
        if image_of_chi:
            # Solder to a cable with input wires, or claim a fresh private
            # (0,1) cable; never share a fresh cable between output wires.
            if pool and rng.random() < 0.7:
                output_solder[y] = rng.choice(pool)
            else:
                c = f"c{tag}n{counter}"
                counter += 1
                cables[c] = v
                output_solder[y] = c
        else:
            all_pool = [c for c, cv in cables.items() if cv == v]
            if all_pool and rng.random() < 0.7:
                output_solder[y] = rng.choice(all_pool)
            else:
                c = f"c{tag}n{counter}"
                counter += 1
                cables[c] = v
                output_solder[y] = c
    if not image_of_chi and not image_of_chi0:
        for k in range(rng.randrange(max_extra_cables + 1)):
            cables[f"c{tag}x{k}"] = rng.choice(values)
    return make_uwd(boxes, output_box, FinSet.of(cables), input_solder, output_solder)


def change_of_values_uwd(f: Callable[[Value], Value], uwd: UWD) -> UWD:
    def fs(s: FinSet) -> FinSet:
        return FinSet(tuple((e, f(v)) for e, v in s.pairs))

    return UWD(
        tuple(fs(b) for b in uwd.input_boxes),
        fs(uwd.output_box),
        fs(uwd.cables),
        uwd.input_solder,
        uwd.output_solder,
    )
