"""Reference checks that do not run the package's code under test.

Each check reads the benchmark's own spec and the package's output through
public attributes only, and raises ``Mismatch`` when they disagree.  The
references are direct, unstratified computations: a delay-node matcher, a
union-find cable partition, a nested-loop join and two step-by-step
simulators.
"""
from __future__ import annotations

import itertools
from collections import Counter

from bench_gen import ALPHABETS, DirectedSpec, QuerySpec, leaf_outputs


class Mismatch(AssertionError):
    """An output disagrees with the benchmark's reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- directed diagrams ----------------------------------------------------


def diagram_data(wd) -> tuple:
    """(boxes, gins, gouts, delays, supplier) of a WiringDiagram as plain data."""
    boxes = [(set(b.inputs.pairs), set(b.outputs.pairs)) for b in wd.input_boxes]
    return (
        boxes,
        set(wd.output_box.inputs.pairs),
        set(wd.output_box.outputs.pairs),
        dict(wd.delay_nodes.pairs),
        dict(wd.supplier),
    )


def spec_data(spec: DirectedSpec) -> tuple:
    boxes = [(set(ins), set(outs)) for ins, outs in spec.boxes]
    return boxes, set(spec.gins), set(spec.gouts), dict(spec.delays), dict(spec.supplier)


def check_same_diagram(wd, spec: DirectedSpec) -> None:
    """The diagram is the spec, names of delay nodes included."""
    require(diagram_data(wd) == spec_data(spec), "composite differs from the spec")


def match_delays(a_sup: dict, a_dn: dict, b_sup: dict, b_dn: dict) -> bool:
    """Whether a value-preserving bijection of delay nodes carries the
    supplier ``a_sup`` onto ``b_sup``.

    Named demands force pairs of delay nodes, and each forced pair forces
    the pair of its suppliers.  The nodes left over are matched by search
    with the same propagation; nodes that are truly interchangeable succeed
    on the first candidate.
    """
    if sorted(a_dn.values()) != sorted(b_dn.values()):
        return False
    a_named = {dm for dm in a_sup if dm[0] != "dn"}
    if a_named != {dm for dm in b_sup if dm[0] != "dn"}:
        return False
    beta: dict = {}
    used: set = set()

    def assign(a, b, trail: list) -> bool:
        todo = [(a, b)]
        while todo:
            a, b = todo.pop()
            if a in beta:
                if beta[a] != b:
                    return False
                continue
            if b in used or a_dn[a] != b_dn[b]:
                return False
            beta[a] = b
            used.add(b)
            trail.append(a)
            sa, sb = a_sup[("dn", a)], b_sup[("dn", b)]
            if sa[0] == "dn" and sb[0] == "dn":
                todo.append((sa[1], sb[1]))
            elif sa != sb:
                return False
        return True

    for dm in a_named:
        sa, sb = a_sup[dm], b_sup[dm]
        if sa[0] == "dn" and sb[0] == "dn":
            if not assign(sa[1], sb[1], []):
                return False
        elif sa != sb:
            return False

    free = [d for d in a_dn if d not in beta]

    def search(k: int) -> bool:
        while k < len(free) and free[k] in beta:
            k += 1
        if k == len(free):
            return True
        a = free[k]
        for b in b_dn:
            if b in used:
                continue
            trail: list = []
            if assign(a, b, trail) and search(k + 1):
                return True
            for x in trail:
                used.discard(beta.pop(x))
        return False

    return search(0)


def check_round_trip(back, spec: DirectedSpec, equivalent_says: bool) -> None:
    """``back`` matches the spec up to renaming delay nodes, and the
    package's ``equivalent`` gave the same verdict."""
    boxes, gins, gouts, delays, supplier = diagram_data(back)
    s_boxes, s_gins, s_gouts, s_delays, s_supplier = spec_data(spec)
    ours = (boxes, gins, gouts) == (s_boxes, s_gins, s_gouts) and match_delays(
        supplier, delays, s_supplier, s_delays
    )
    require(ours, "round trip does not match the spec up to delay renaming")
    require(equivalent_says == ours, "equivalent disagrees with the delay matcher")


def leaf_census(simplex) -> Counter:
    """Generator kinds at the leaves of a simplex tree."""
    out: Counter = Counter()
    todo = [simplex]
    while todo:
        node = todo.pop()
        if hasattr(node, "generator"):
            out[node.generator.kind] += 1
        elif hasattr(node, "inner"):
            todo.append(node.inner)
        else:
            todo.extend((node.left, node.right))
    return out


def check_leaves(census: Counter, n_boxes: int, n_delays: int) -> None:
    """One delay_node leaf per delay node; boxes + delays - 1 two-cells."""
    require(census["delay_node"] == n_delays, "wrong number of delay_node leaves")
    require(
        census["two_cell"] == max(0, n_boxes + n_delays - 1),
        "wrong number of two_cell leaves",
    )


def spec_partition(spec: DirectedSpec) -> Counter:
    """rho's cables for the spec, as (value, wire ends) with multiplicity.

    Cables are supplies with each delay node merged into its supplier.  A
    box wire end is (box, wire); an output-box wire end is ("out", wire).
    """
    parent: dict = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    supplies = [("gin", x) for x, _ in spec.gins]
    supplies += [("bout", i, w) for i, (_, outs) in enumerate(spec.boxes, 1) for w, _ in outs]
    supplies += [("dn", d) for d, _ in spec.delays]
    for sp in supplies:
        find(sp)
    for d, _ in spec.delays:
        parent[find(("dn", d))] = find(spec.supplier[("dn", d)])
    ends: dict = {find(sp): set() for sp in supplies}

    def end(addr):
        return ("out", addr[1]) if addr[0] in ("gin", "gout") else (addr[1], addr[2])

    for sp in supplies:
        if sp[0] != "dn":
            ends[find(sp)].add(end(sp))
    for dm, sp in spec.supplier.items():
        if dm[0] != "dn":
            ends[find(sp)].add(end(dm))
    return Counter((spec.value_at(root), frozenset(e)) for root, e in ends.items())


def uwd_partition(uwd) -> Counter:
    """An undirected diagram's cables as (value, wire ends) with multiplicity."""
    ends = {c: set() for c in uwd.cables.elements}
    for (i, w), c in uwd.input_solder.items():
        ends[c].add((i, w))
    for y, c in uwd.output_solder.items():
        ends[c].add(("out", y))
    values = dict(uwd.cables.pairs)
    return Counter((values[c], frozenset(e)) for c, e in ends.items())


def check_partition(uwd, expected: Counter, what: str) -> None:
    require(uwd_partition(uwd) == expected, f"{what}: cable partition differs")


# -- conjunctive queries --------------------------------------------------


def join(spec: QuerySpec) -> set:
    """The query's answer by nested loops over the atoms' tuples.

    Variables no atom binds range over their alphabet; the idle variable
    only requires its alphabet to be nonempty.
    """
    partial = [{}]
    for atom, rows in zip(spec.atoms, spec.rows):
        grown = []
        for assignment in partial:
            for row in rows:
                if all(assignment.get(v, x) == x for v, x in zip(atom, row)):
                    extended = dict(assignment)
                    extended.update(zip(atom, row))
                    grown.append(extended)
        partial = grown
    if not ALPHABETS[spec.variables[spec.idle]]:
        return set()
    head_vars = list(dict.fromkeys(v for _, v in spec.head))
    answers = set()
    for assignment in partial:
        unbound = [v for v in head_vars if v not in assignment]
        for combo in itertools.product(*(ALPHABETS[spec.variables[v]] for v in unbound)):
            full = dict(assignment)
            full.update(zip(unbound, combo))
            answers.add(tuple(full[v] for _, v in spec.head))
    return answers


def check_answer(relation, spec: QuerySpec, expected: set) -> None:
    wires = [w for w, _ in spec.head]
    require(
        sorted(relation.wires.elements) == sorted(wires), "answer has the wrong wires"
    )
    got = {tuple(vec[w] for w in wires) for vec in relation.vectors}
    require(got == expected, "answer rows differ from the nested-loop join")


def query_partition(spec: QuerySpec) -> Counter:
    """The composed query's cables: one per variable, with its wire ends."""
    ends = {v: set() for v in spec.variables}
    for k, atom in enumerate(spec.atoms, start=1):
        for j, v in enumerate(atom):
            ends[v].add((k, f"r{k - 1}w{j}"))
    for w, v in spec.head:
        ends[v].add(("out", w))
    return Counter((spec.variables[v], frozenset(e)) for v, e in ends.items())


# -- propagators ------------------------------------------------------------


def simulate_propagators(spec: DirectedSpec, salts: list, profile: list, base: dict) -> list:
    """Global outputs at times 0..len(profile) of the unstratified diagram.

    A box's output at time t comes from its input entry at t-1 (through
    the same step function as its leaf propagator); a delay node emits its
    previous input, with the base point first.
    """
    horizon = len(profile)
    box_in: list = [None] * len(spec.boxes)  # each box's input entry at t-1
    delay_in: dict = {}
    outputs = []
    for t in range(horizon + 1):
        supply = {}
        for i, (ins, outs) in enumerate(spec.boxes, start=1):
            values = leaf_outputs(salts[i - 1], ins, outs, t, box_in[i - 1])
            for w, _ in outs:
                supply[("bout", i, w)] = values[w]
        for d, v in spec.delays:
            supply[("dn", d)] = base[v] if t == 0 else delay_in[d]
        if t < horizon:
            for x, _ in spec.gins:
                supply[("gin", x)] = profile[t][x]
            box_in = [
                {x: supply[spec.supplier[("bin", i, x)]] for x, _ in ins}
                for i, (ins, _) in enumerate(spec.boxes, start=1)
            ]
            delay_in = {d: supply[spec.supplier[("dn", d)]] for d, _ in spec.delays}
        outputs.append({y: supply[spec.supplier[("gout", y)]] for y, _ in spec.gouts})
    return outputs


def check_profile(out, expected: list) -> None:
    require(len(out) == len(expected), "output profile has the wrong length")
    require([dict(entry) for entry in out] == expected, "output profile differs from the simulation")


# -- Moore machines -----------------------------------------------------------


def simulate_moore(spec: DirectedSpec, machines: list, inputs: list) -> tuple:
    """States and global outputs of the leaf machines wired by the diagram.

    The composite state is the tuple of leaf states in box order; at each
    step every box reads its suppliers' current readouts (or the stream
    entry) and all boxes update at once.
    """
    state = [m.states[0] for m in machines]
    states, outputs = [tuple(state)], []

    def supply_values(entry):
        supply = {}
        for i, ((_, outs), m, s) in enumerate(zip(spec.boxes, machines, state), start=1):
            for (w, _), letter in zip(outs, m.readout[s]):
                supply[("bout", i, w)] = letter
        if entry is not None:
            supply.update({("gin", x): entry[x] for x, _ in spec.gins})
        return supply

    for entry in inputs:
        supply = supply_values(entry)
        outputs.append({y: supply[spec.supplier[("gout", y)]] for y, _ in spec.gouts})
        state = [
            m.update[(tuple(supply[spec.supplier[("bin", i, x)]] for x, _ in ins), s)]
            for i, ((ins, _), m, s) in enumerate(zip(spec.boxes, machines, state), start=1)
        ]
        states.append(tuple(state))
    supply = supply_values(None)
    outputs.append({y: supply[spec.supplier[("gout", y)]] for y, _ in spec.gouts})
    return states, outputs


def check_trace(states, outputs, expected: tuple) -> None:
    want_states, want_outputs = expected
    require(list(states) == want_states, "state trace differs from the simulation")
    require([dict(o) for o in outputs] == want_outputs, "output trace differs from the simulation")


def check_table_cover(system, spec: DirectedSpec, machines: list) -> None:
    """The composite update table has one entry per global input and state,
    each landing on a state, and the readout covers every state."""
    names = [x for x, _ in spec.gins]
    n_states = 1
    for m in machines:
        n_states *= len(m.states)
    states = set(system.states)
    require(len(states) == n_states, "composite has the wrong number of states")
    keys = {(tuple(vec[x] for x in names), s) for vec, s in system.update}
    want = {
        (combo, s)
        for combo in itertools.product(*(ALPHABETS[v] for _, v in spec.gins))
        for s in states
    }
    require(len(system.update) == len(want) and keys == want, "update table does not cover inputs x states")
    require(all(t in states for t in system.update.values()), "update leaves the state set")
    require(set(system.readout) == states, "readout does not cover the states")

