"""The propagator algebra over the full operad of wiring diagrams.

A propagator of type X is a function from finite sequences of input-wire
assignments to sequences of output-wire assignments that is one entry
longer, with the earlier output entries depending only on the earlier
inputs (historicity).  Such a function is equivalently given by a step
function from input prefixes to single output entries, or by a stream:
output entry 0 together with a feed that takes input entry k and returns
output entry k + 1, advancing a private state one entry at a time.

A propagator given by a step function streams by calling it once per
prefix.  The eight generating structure maps build streams from the
streams of their inputs: a loop feeds its last looped output back in as
the next input, which the paper's one-step delay makes well founded, so
a composite advances each leaf once per time step and its run is linear
in the horizon.  A composite still answers ``step`` by resuming its last
run when the prefix extends the one it last saw.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from wiring_operads.finset import Value, coproduct
from wiring_operads.algebras.actions import GeneratorAction, require_box
from wiring_operads.algebras.vectors import Vec
from wiring_operads.wd import Box, EMPTY_BOX, box_coproduct

Profile = tuple[Vec, ...]
Feed = Callable[[Vec], Vec]
Stream = tuple[Vec, Feed]


@dataclass(frozen=True)
class PointedSet:
    elements: tuple
    base: object

    def __post_init__(self):
        if self.base not in self.elements:
            raise ValueError("base point must belong to the set")


@dataclass(frozen=True)
class Propagator:
    """A length-incrementing, history-respecting profile function.

    ``step`` returns the output entry that follows an input prefix.
    ``start``, when given, begins a fresh run of the same function and
    returns its output entry 0 and its feed; see ``Propagator.streaming``.
    """

    box: Box
    step: Callable[[Profile], Vec]
    start: Callable[[], Stream] | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def streaming(box: Box, start: Callable[[], Stream]) -> Propagator:
        """The propagator whose runs ``start`` begins; its ``step`` resumes
        the last run whenever the prefix extends the one it last saw."""
        return Propagator(box, _resuming_step(start), start)

    def stream(self) -> Stream:
        """Output entry 0 and a feed from input entry k to output entry k + 1."""
        if self.start is not None:
            return self.start()
        step = self.step
        prefix: Profile = ()

        def feed(entry: Vec) -> Vec:
            nonlocal prefix
            prefix += (entry,)
            return step(prefix)

        return step(()), feed

    def __call__(self, profile: Sequence[Vec]) -> Profile:
        first, feed = self.stream()
        return (first, *(feed(entry) for entry in profile))

    def check_historicity(self, profiles: Sequence[Profile]) -> bool:
        """Length shift and prefix stability on the sampled profiles."""
        for profile in profiles:
            out = self(profile)
            if len(out) != len(profile) + 1:
                return False
            if profile and self(profile[:-1]) != out[:-1]:
                return False
        return True


def _resuming_step(start: Callable[[], Stream]) -> Callable[[Profile], Vec]:
    """A step function over ``start``'s runs that keeps the last run and
    feeds it only the entries a longer prefix adds; any other prefix
    restarts.  A feed that raises leaves no run to resume."""
    seen: Profile = ()
    last: Vec | None = None
    feed: Feed | None = None

    def step(profile: Profile) -> Vec:
        nonlocal seen, last, feed
        done = len(seen)
        if feed is None or profile[:done] != seen:
            (last, feed), done = start(), 0
        run, feed = feed, None
        for entry in profile[done:]:
            last = run(entry)
        seen, feed = profile, run
        return last

    return step


def propagators_agree(p: Propagator, q: Propagator, profiles: Sequence[Profile]) -> bool:
    """Extensional equality over a finite battery of input profiles."""
    return p.box == q.box and all(p(t) == q(t) for t in profiles)


def _mapped(
    g: Propagator, box: Box, inward: Callable[[Vec], Vec], outward: Callable[[Vec], Vec]
) -> Propagator:
    """``g`` on ``box``: each input entry passes through ``inward`` and each
    output entry through ``outward``."""

    def start() -> Stream:
        first, feed = g.stream()
        return outward(first), lambda entry: outward(feed(inward(entry)))

    return Propagator.streaming(box, start)


def _same(entry: Vec) -> Vec:
    return entry


def propagator_action(alphabets: Mapping[Value, PointedSet]) -> GeneratorAction:
    """The eight generating structure maps of the propagator algebra.

    ``alphabets`` interprets each value tag as a pointed set; the base
    points feed the empty-diagram and delay-node actions.
    """

    def act_empty(gen) -> Propagator:
        empty = Vec({})
        return Propagator.streaming(EMPTY_BOX, lambda: (empty, lambda entry: empty))

    def act_delay(gen) -> Propagator:
        (value,) = gen.params
        first = Vec({value: alphabets[value].base})
        box = Box.of({value: value}, {value: value})
        return Propagator.streaming(box, lambda: (first, lambda entry: Vec({value: entry[value]})))

    def act_name_change(gen, g: Propagator) -> Propagator:
        source, target, f_in, f_out = gen.params
        require_box(g, source)
        f_in, f_out = dict(f_in), dict(f_out)
        return _mapped(
            g,
            target,
            lambda entry: Vec({x: entry[f_in[x]] for x in source.inputs}),
            lambda val: Vec({y: val[f_out[y]] for y in target.outputs}),
        )

    def act_two_cell(gen, gx: Propagator, gy: Propagator) -> Propagator:
        left, right = gen.params
        require_box(gx, left)
        require_box(gy, right)
        _, (in_l, in_r) = coproduct([left.inputs, right.inputs])
        _, (out_l, out_r) = coproduct([left.outputs, right.outputs])
        in_l, in_r, out_l, out_r = in_l.table, in_r.table, out_l.table, out_r.table

        def joined(vx: Vec, vy: Vec) -> Vec:
            out = {out_l[w]: vx[w] for w in left.outputs}
            out.update({out_r[w]: vy[w] for w in right.outputs})
            return Vec(out)

        def start() -> Stream:
            first_x, feed_x = gx.stream()
            first_y, feed_y = gy.stream()

            def feed(entry: Vec) -> Vec:
                vx = feed_x(Vec({x: entry[in_l[x]] for x in left.inputs}))
                vy = feed_y(Vec({y: entry[in_r[y]] for y in right.inputs}))
                return joined(vx, vy)

            return joined(first_x, first_y), feed

        return Propagator.streaming(box_coproduct([left, right]), start)

    def act_loop(gen, g: Propagator) -> Propagator:
        box, x_plus, x_minus = gen.params
        require_box(g, box)

        def start() -> Stream:
            first, inner = g.stream()
            looped = first[x_plus]

            def feed(entry: Vec) -> Vec:
                nonlocal looped
                val = inner(entry.merged({x_minus: looped}))
                looped = val[x_plus]
                return val.without(x_plus)

            return first.without(x_plus), feed

        return Propagator.streaming(box.remove(inputs=[x_minus], outputs=[x_plus]), start)

    def act_in_split(gen, g: Propagator) -> Propagator:
        box, x1, x2 = gen.params
        require_box(g, box)
        merged = Box(box.inputs.quotient([x1, x2]), box.outputs)
        return _mapped(g, merged, lambda entry: entry.merged({x2: entry[x1]}), _same)

    def act_out_split(gen, g: Propagator) -> Propagator:
        box, y1, y2 = gen.params
        require_box(g, Box(box.inputs, box.outputs.quotient([y1, y2])))
        return _mapped(g, box, _same, lambda val: val.merged({y2: val[y1]}))

    def act_wasted(gen, g: Propagator) -> Propagator:
        box, y = gen.params
        require_box(g, Box(box.inputs.remove([y]), box.outputs))
        return _mapped(g, box, lambda entry: entry.without(y), _same)

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


def sample_profiles(
    box: Box, alphabets: Mapping[Value, PointedSet], horizon: int, rng, count: int
) -> list[Profile]:
    """Random input profiles of lengths 0..horizon."""
    wires = list(box.inputs)
    out: list[Profile] = [()]
    for _ in range(count):
        n = rng.randrange(horizon + 1)
        out.append(
            tuple(
                Vec({w: rng.choice(alphabets[box.inputs.value(w)].elements) for w in wires})
                for _ in range(n)
            )
        )
    return out


def random_propagator(box: Box, alphabets: Mapping[Value, PointedSet], rng) -> Propagator:
    """A pseudo-random propagator: each output entry is drawn reproducibly
    from a sha256 digest of the whole input prefix, which a run keeps
    running and extends by one entry per step."""
    import hashlib

    salt = rng.randrange(2**32)
    outputs = [
        (w, repr(w).encode(), alphabets[box.outputs.value(w)].elements) for w in box.outputs
    ]

    def start() -> Stream:
        running = hashlib.sha256(repr(salt).encode())

        def emit() -> Vec:
            out = {}
            for w, tag, alphabet in outputs:
                digest = running.copy()
                digest.update(tag)
                out[w] = alphabet[digest.digest()[0] % len(alphabet)]
            return Vec(out)

        def feed(entry: Vec) -> Vec:
            data = repr(entry).encode()
            # The length prefix keeps the concatenated entries unambiguous.
            running.update(len(data).to_bytes(8, "big") + data)
            return emit()

        return emit(), feed

    return Propagator.streaming(box, start)
