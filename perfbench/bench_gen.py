"""Seeded input generators owned by the benchmark.

Everything here is plain Python data: the benchmark draws its diagrams,
queries, leaf tables and streams from ``random.Random`` and never from the
package's ``random_*`` helpers.  Set-up code turns these specs into package
objects through the public constructors (``make_wd``, ``make_uwd``,
``Relation``, ``DiscreteSystem``, ``Propagator``), and the reference checks
read the same specs.

Directed addresses use the package's convention:

    demands  ("gout", y) | ("bin", i, x) | ("dn", d)
    supplies ("gin", y)  | ("bout", i, x) | ("dn", d)

Every wire, delay node and variable name is unique inside one spec, so no
coproduct renaming happens and outputs can be compared name by name.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

VALUES = ("a", "b")
ALPHABETS = {"a": (0, 1, 2), "b": (0, 1, 2, 3)}


# -- directed diagrams ----------------------------------------------------


@dataclass
class DirectedSpec:
    boxes: list  # [(inputs [(name, value)], outputs [(name, value)])]
    gins: list  # [(name, value)]: the output box's inputs
    gouts: list  # [(name, value)]: the output box's outputs
    delays: list  # [(name, value)]
    supplier: dict  # demand address -> supply address

    def value_at(self, addr) -> str:
        kind = addr[0]
        if kind == "gin":
            table = self.gins
        elif kind == "gout":
            table = self.gouts
        elif kind == "dn":
            table = self.delays
        else:
            table = self.boxes[addr[1] - 1][0 if kind == "bin" else 1]
        name = addr[-1]
        for n, v in table:
            if n == name:
                return v
        raise KeyError(addr)


class _Deck:
    """Deals items in shuffled rounds, so every item is dealt about equally
    often and the number of distinct items dealt depends on counts alone."""

    def __init__(self, rng, items: list):
        self.rng, self.items, self.hand = rng, list(items), []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def directed_spec(
    rng,
    n_inputs: list,
    n_outputs: list,
    n_gin: int,
    n_gout: int,
    n_delays: int = 0,
    n_idle: int = 0,
    gin_reads: int = 0,
    values: tuple = VALUES,
) -> DirectedSpec:
    """A random diagram whose shape is fixed by the arguments.

    ``n_inputs[i]`` and ``n_outputs[i]`` give box i+1's wire counts.
    ``gin_reads`` box inputs, at random positions, read global inputs; every
    other demand reads a box output or a delay node.  Supplies are dealt
    from shuffled decks and each demand takes its supply's value, so the
    counts of loops, splits and wasted wires depend on the shape, not on
    the seed.  Each delay node reads a box output.  ``n_idle`` adds
    interchangeable delay nodes of value ``a`` that feed only themselves.
    """
    gins = [(f"x{k}", rng.choice(values)) for k in range(n_gin)]
    box_outs = [
        [(f"b{i + 1}o{k}", rng.choice(values)) for k in range(n)]
        for i, n in enumerate(n_outputs)
    ]
    value = {("gin", x): v for x, v in gins}
    value.update({("bout", i + 1, w): v for i, outs in enumerate(box_outs) for w, v in outs})
    outs_deck = _Deck(rng, [("bout", i + 1, w) for i, outs in enumerate(box_outs) for w, _ in outs])
    supplier: dict = {}
    delays = []
    for k in range(n_delays):
        sp = outs_deck.deal()
        delays.append((f"d{k}", value[sp]))
        supplier[("dn", f"d{k}")] = sp
        value[("dn", f"d{k}")] = value[sp]
    internal = _Deck(rng, outs_deck.items + [("dn", d) for d, _ in delays])
    external = _Deck(rng, [("gin", x) for x, _ in gins])

    gouts = []
    for k in range(n_gout):
        sp = internal.deal()
        gouts.append((f"y{k}", value[sp]))
        supplier[("gout", f"y{k}")] = sp
    positions = [(i, k) for i, n in enumerate(n_inputs) for k in range(n)]
    from_gin = set(rng.sample(positions, gin_reads))
    boxes = []
    for i, n in enumerate(n_inputs):
        ins = []
        for k in range(n):
            sp = (external if (i, k) in from_gin else internal).deal()
            ins.append((f"b{i + 1}i{k}", value[sp]))
            supplier[("bin", i + 1, f"b{i + 1}i{k}")] = sp
        boxes.append((ins, box_outs[i]))
    idle = [(f"e{k}", "a") for k in range(n_idle)]
    for e, _ in idle:
        supplier[("dn", e)] = ("dn", e)
    return DirectedSpec(boxes, gins, gouts, delays + idle, supplier)


@dataclass
class Cut:
    """A spec cut into an outer diagram and one part per group of boxes.

    Each spec is (boxes, output box, delays, supplier) in the form
    ``make_wd`` takes after wrapping; the composite of the parts into the
    outer diagram is the original spec, names and box order included.
    """

    outer: tuple
    parts: list


def cut_directed(rng, spec: DirectedSpec, group_sizes: list) -> Cut:
    """Split the boxes into contiguous groups; each group becomes a part.

    Delay nodes go to a random group or stay in the outer diagram.  A part
    exports every supply that is read outside it and imports every outside
    supply it reads, one interface wire per supply.
    """
    assert sum(group_sizes) == len(spec.boxes)
    box_group: dict[int, int] = {}
    start = 1
    for g, size in enumerate(group_sizes, start=1):
        for i in range(start, start + size):
            box_group[i] = g
        start += size
    delay_home = {d: rng.choice([None] + list(range(1, len(group_sizes) + 1))) for d, _ in spec.delays}

    def home(addr):
        if addr[0] in ("bin", "bout"):
            return box_group[addr[1]]
        if addr[0] == "dn":
            return delay_home[addr[1]]
        return None

    n_groups = len(group_sizes)
    exports: list[dict] = [dict() for _ in range(n_groups + 1)]
    imports: list[dict] = [dict() for _ in range(n_groups + 1)]
    for dm, sp in spec.supplier.items():
        hd, hs = home(dm), home(sp)
        if hd == hs and hd is not None:
            continue
        if hs is not None:
            exports[hs].setdefault(sp, f"g{hs}o{len(exports[hs])}")
        if hd is not None:
            imports[hd].setdefault(sp, f"g{hd}i{len(imports[hd])}")

    first_box = {g: min(i for i, h in box_group.items() if h == g) for g in range(1, n_groups + 1)}

    def local(addr):
        if addr[0] in ("bin", "bout"):
            return (addr[0], addr[1] - first_box[box_group[addr[1]]] + 1, addr[2])
        return addr

    parts = []
    for g in range(1, n_groups + 1):
        boxes = [spec.boxes[i - 1] for i in sorted(i for i, h in box_group.items() if h == g)]
        delays = [(d, v) for d, v in spec.delays if delay_home[d] == g]
        x_in = [(name, spec.value_at(sp)) for sp, name in imports[g].items()]
        x_out = [(name, spec.value_at(sp)) for sp, name in exports[g].items()]
        supplier = {}
        for dm, sp in spec.supplier.items():
            if home(dm) != g:
                continue
            supplier[local(dm)] = local(sp) if home(sp) == g else ("gin", imports[g][sp])
        for sp, name in exports[g].items():
            supplier[("gout", name)] = local(sp)
        parts.append((boxes, (x_in, x_out), delays, supplier))

    def outer_supply(sp):
        h = home(sp)
        return sp if h is None else ("bout", h, exports[h][sp])

    outer_boxes = [(parts[g - 1][1][0], parts[g - 1][1][1]) for g in range(1, n_groups + 1)]
    supplier = {}
    for dm, sp in spec.supplier.items():
        if home(dm) is None:
            supplier[dm] = outer_supply(sp)
    for g in range(1, n_groups + 1):
        for sp, name in imports[g].items():
            supplier[("bin", g, name)] = outer_supply(sp)
    outer_delays = [(d, v) for d, v in spec.delays if delay_home[d] is None]
    outer = (outer_boxes, (spec.gins, spec.gouts), outer_delays, supplier)
    return Cut(outer, parts)


# -- conjunctive queries --------------------------------------------------


@dataclass
class QuerySpec:
    """A conjunctive query: atoms over typed variables, plus the answer head.

    ``variables`` maps each variable to its value tag; ``atoms`` lists each
    atom's argument variables and ``rows`` its tuples; ``head`` lists the
    output wires and the variable each one reads.  ``idle`` is a variable
    that nothing reads (an existential-only cable), and ``free`` one that
    only the head reads (an output-only cable).
    """

    variables: dict
    atoms: list  # [[var, ...]]
    rows: list  # [[tuple, ...]] one list per atom
    head: list  # [(wire, var)]
    idle: str
    free: str
    pieces: list  # atom-index ranges composed with gamma_u


def query_spec(rng, shape: str, n_atoms: int, sizes: tuple) -> QuerySpec:
    """A binary-atom query of the given shape with a planted answer.

    Atom k holds exactly ``sizes[k % len(sizes)]`` distinct tuples, one of
    which is the projection of a random full assignment, so the answer is
    never empty and the work done depends on the shape and sizes only.
    """
    if shape == "path":
        n_vars = n_atoms + 1
        args = [(j, j + 1) for j in range(n_atoms)]
        head_vars = [0, n_atoms]
    elif shape == "star":
        n_vars = n_atoms + 1
        args = [(0, j + 1) for j in range(n_atoms)]
        head_vars = list(range(n_vars))
    elif shape == "cycle":
        n_vars = n_atoms
        args = [(j, (j + 1) % n_atoms) for j in range(n_atoms)]
        head_vars = [0, n_atoms // 2]
    else:
        raise ValueError(f"unknown query shape {shape!r}")
    names = [f"v{k}" for k in range(n_vars)]
    variables = {v: rng.choice(VALUES) for v in names}
    idle, free = f"vz", f"vf"
    variables[idle] = variables[free] = "a"
    planted = {v: rng.choice(ALPHABETS[variables[v]]) for v in names}
    atoms = [[names[a], names[b]] for a, b in args]
    rows = []
    for k, atom in enumerate(atoms):
        n_rows = sizes[k % len(sizes)]
        space = list(itertools.product(*(ALPHABETS[variables[v]] for v in atom)))
        want = tuple(planted[v] for v in atom)
        others = [t for t in space if t != want]
        rows.append([want] + rng.sample(others, min(n_rows, len(space)) - 1))
    head = [(f"q{k}", names[i]) for k, i in enumerate(head_vars)] + [(f"qf", free)]
    cut = rng.randrange(1, n_atoms)
    return QuerySpec(variables, atoms, rows, head, idle, free, [(0, cut), (cut, n_atoms)])


def atom_wires(spec: QuerySpec, k: int) -> list:
    """Atom k's box wires as (wire, variable) pairs."""
    return [(f"r{k}w{j}", v) for j, v in enumerate(spec.atoms[k])]


def query_pieces(spec: QuerySpec):
    """The query as an outer diagram over one piece per atom range.

    Each piece exposes one interface wire per variable it shares with the
    rest of the query; the outer diagram solders those wires, the head, the
    output-only variable and the idle variable onto its own cables.
    Returns (outer, pieces) as (boxes, output wires, cables, input solder,
    output solder) tuples of plain data.
    """
    used_by: dict[str, set] = {}
    for p, (lo, hi) in enumerate(spec.pieces):
        for k in range(lo, hi):
            for v in spec.atoms[k]:
                used_by.setdefault(v, set()).add(p)
    head_vars = {v for _, v in spec.head}
    pieces = []
    interfaces = []
    for p, (lo, hi) in enumerate(spec.pieces):
        piece_vars = sorted({v for k in range(lo, hi) for v in spec.atoms[k]})
        shared = [v for v in piece_vars if len(used_by[v]) > 1 or v in head_vars]
        iface = [(f"p{p}{v}", v) for v in shared]
        interfaces.append(iface)
        boxes = [[(w, spec.variables[v]) for w, v in atom_wires(spec, k)] for k in range(lo, hi)]
        cables = [(v, spec.variables[v]) for v in piece_vars]
        in_solder = {
            (k - lo + 1, w): v for k in range(lo, hi) for w, v in atom_wires(spec, k)
        }
        out = [(w, spec.variables[v]) for w, v in iface]
        pieces.append((boxes, out, cables, in_solder, dict(iface)))
    outer_vars = sorted({v for iface in interfaces for _, v in iface} | head_vars | {spec.idle})
    outer_boxes = [[(w, spec.variables[v]) for w, v in iface] for iface in interfaces]
    in_solder = {(p + 1, w): v for p, iface in enumerate(interfaces) for w, v in iface}
    outer = (
        outer_boxes,
        [(w, spec.variables[v]) for w, v in spec.head],
        [(v, spec.variables[v]) for v in outer_vars],
        in_solder,
        dict(spec.head),
    )
    return outer, pieces


# -- leaf behaviours ------------------------------------------------------


def leaf_outputs(salt: int, ins: list, outs: list, t: int, last) -> dict:
    """A cheap historical step: output at time t from the input at t-1.

    ``ins`` and ``outs`` are (wire, value) lists; ``last`` is the box's input
    entry at time t-1 (any mapping), or None at t = 0.
    """
    acc = salt + 7 * t
    if last is not None:
        for k, (w, v) in enumerate(ins, start=1):
            acc += k * ALPHABETS[v].index(last[w])
    return {w: ALPHABETS[v][(acc + 3 * k) % len(ALPHABETS[v])] for k, (w, v) in enumerate(outs)}


@dataclass
class LeafMachine:
    """A leaf Moore machine as plain tables keyed by input tuples."""

    states: list
    readout: dict  # state -> tuple of output letters (box output order)
    update: dict  # (input tuple in box input order, state) -> state


def leaf_machine(rng, ins: list, outs: list, n_states: int) -> LeafMachine:
    states = [f"q{k}" for k in range(n_states)]
    readout = {s: tuple(rng.choice(ALPHABETS[v]) for _, v in outs) for s in states}
    update = {}
    for combo in itertools.product(*(ALPHABETS[v] for _, v in ins)):
        for s in states:
            update[(combo, s)] = rng.choice(states)
    return LeafMachine(states, readout, update)


def stream(rng, wires: list, length: int) -> list:
    """``length`` random entries over (wire, value) pairs, as dicts."""
    return [{w: rng.choice(ALPHABETS[v]) for w, v in wires} for _ in range(length)]

