import random

import pytest

from propagator_replay import (
    double_feedback_history,
    double_loop_propagator,
    feedback_history,
    loop_propagator,
    replay_action,
)
from wiring_operads.algebras.actions import GeneratorAction, eval_structure_map
from wiring_operads.algebras.propagator import (
    PointedSet,
    Propagator,
    propagator_action,
    propagators_agree,
    random_propagator,
    sample_profiles,
)
from wiring_operads.algebras.vectors import Vec
from wiring_operads.finset import FinSet
from wiring_operads.simplex import Leaf, Node
from wiring_operads.wd import Box, EMPTY_BOX, make_wd, random_wd
from wiring_operads.wd_presentation import (
    RELATION_IDS,
    delay_node,
    elementary_relation,
    eval_simplex,
    in_split,
    one_loop,
    out_split,
    random_relation_params,
    stratify,
    two_cell,
    wasted_wire,
)

NUMBERS = PointedSet(tuple(range(0, 40)), 1)
ALPHABETS = {"N": NUMBERS}


def summing_box():
    return Box.of({"z1": "N", "z2": "N", "z3": "N"}, {"zo1": "N", "zo2": "N"})


def summing_propagator() -> Propagator:
    """Echo the first input; sum the other two; constant first entry."""

    def step(profile):
        if not profile:
            return Vec({"zo1": 1, "zo2": 1})
        last = profile[-1]
        return Vec({"zo1": last["z1"], "zo2": last["z2"] + last["z3"]})

    return Propagator(summing_box(), step)


def profile(wires, *rows):
    return tuple(Vec(dict(zip(wires, row))) for row in rows)


def test_delay_golden():
    action = propagator_action(ALPHABETS)
    d = action.apply(delay_node("N"), ())
    out = d(profile(["N"], (1,), (5,), (6,)))
    assert [v["N"] for v in out] == [1, 1, 5, 6]


def test_loop_golden():
    action = propagator_action(ALPHABETS)
    looped = action.apply(one_loop(summing_box(), "zo1", "z1"), (summing_propagator(),))
    out = looped(profile(["z2", "z3"], (2, 5), (4, 9), (3, 7)))
    assert [v["zo2"] for v in out] == [1, 7, 13, 10]


def test_feedback_history_stays_constant():
    g = summing_propagator()
    history = feedback_history(g, "zo1", "z1")
    assert history(profile(["z2", "z3"], (2, 5), (4, 9))) == (1, 1, 1)


def test_in_split_golden():
    action = propagator_action(ALPHABETS)
    split = action.apply(in_split(summing_box(), "z1", "z2"), (summing_propagator(),))
    out = split(profile(["z1", "z3"], (2, 5), (4, 9), (3, 7)))
    assert [(v["zo1"], v["zo2"]) for v in out] == [(1, 1), (2, 7), (4, 13), (3, 10)]


def test_out_split_golden():
    action = propagator_action(ALPHABETS)
    bigger = Box.of(
        {"z1": "N", "z2": "N", "z3": "N"}, {"zo1": "N", "zocopy": "N", "zo2": "N"}
    )
    split = action.apply(out_split(bigger, "zo1", "zocopy"), (summing_propagator(),))
    out = split(profile(["z1", "z2", "z3"], (2, 5, 1), (4, 9, 10), (3, 7, 6)))
    assert [(v["zo1"], v["zocopy"], v["zo2"]) for v in out] == [
        (1, 1, 1),
        (2, 2, 6),
        (4, 4, 19),
        (3, 3, 13),
    ]


def test_wasted_wire_golden():
    action = propagator_action(ALPHABETS)
    bigger = Box.of(
        {"u": "N", "z1": "N", "z2": "N", "z3": "N"}, {"zo1": "N", "zo2": "N"}
    )
    padded = action.apply(wasted_wire(bigger, "u"), (summing_propagator(),))
    out = padded(
        profile(["u", "z1", "z2", "z3"], (2, 5, 1, 7), (4, 9, 10, 2), (3, 7, 6, 5))
    )
    assert [(v["zo1"], v["zo2"]) for v in out] == [(1, 1), (5, 8), (9, 12), (7, 11)]


def test_double_loop_golden():
    history = double_feedback_history(
        summing_propagator(), ("zo1", "z1"), ("zo2", "z2")
    )
    out = history(profile(["z3"], (6,), (3,), (2,), (9,)))
    assert [(v["zo1"], v["zo2"]) for v in out] == [
        (1, 1),
        (1, 7),
        (1, 10),
        (1, 12),
        (1, 21),
    ]


def test_double_loop_agrees_with_iterated_loops():
    rng = random.Random(40)
    alphabets = {"a": PointedSet(("p", "q"), "p"), "b": PointedSet(("x", "y", "z"), "x")}
    action = propagator_action(alphabets)
    for _ in range(10):
        box = Box.of(
            {"i1": "a", "i2": "b", "i3": "a"}, {"o1": "a", "o2": "b", "o3": "a"}
        )
        g = random_propagator(box, alphabets, rng)
        one_then_two = loop_propagator(loop_propagator(g, "o1", "i1"), "o2", "i2")
        two_then_one = loop_propagator(loop_propagator(g, "o2", "i2"), "o1", "i1")
        both = double_loop_propagator(g, ("o1", "i1"), ("o2", "i2"))
        inner = action.apply(one_loop(box, "o1", "i1"), (g,))
        streamed = action.apply(one_loop(inner.box, "o2", "i2"), (inner,))
        profiles = sample_profiles(both.box, alphabets, horizon=5, rng=rng, count=12)
        assert propagators_agree(one_then_two, both, profiles)
        assert propagators_agree(two_then_one, both, profiles)
        assert propagators_agree(streamed, both, profiles)


def test_historicity_of_action_outputs():
    rng = random.Random(41)
    alphabets = {"a": PointedSet(("p", "q"), "p"), "b": PointedSet(("x", "y"), "x")}
    action = propagator_action(alphabets)
    box = Box.of({"i1": "a", "i2": "a"}, {"o1": "a", "o2": "b"})
    g = random_propagator(box, alphabets, rng)
    looped = action.apply(one_loop(box, "o1", "i1"), (g,))
    profiles = sample_profiles(looped.box, alphabets, horizon=5, rng=rng, count=15)
    assert looped.check_historicity(profiles)


def test_random_propagator_reads_the_whole_prefix():
    rng = random.Random(44)
    alphabets = {"a": PointedSet(("p", "q", "r", "s"), "p")}
    box = Box.of({"i": "a"}, {"o1": "a", "o2": "a"})
    g = random_propagator(box, alphabets, rng)
    tail = tuple(Vec({"i": rng.choice("pqrs")}) for _ in range(40))
    profiles = [(Vec({"i": head}),) + tail for head in "pqrs"]
    # Only entry 0 differs, yet the entries 41 steps later differ too.
    assert len({g(t)[-1] for t in profiles}) > 1
    assert all(g.step(t) == g(t)[-1] for t in profiles)
    assert g.check_historicity(profiles)


ALG_ALPHABETS = {
    "a": PointedSet(("p", "q"), "p"),
    "b": PointedSet(("x", "y", "z"), "x"),
}


@pytest.mark.parametrize("rel_id", RELATION_IDS)
def test_axiom_squares(rel_id):
    rng = random.Random(hash(rel_id) % 65_537)
    action = propagator_action(ALG_ALPHABETS)
    for _ in range(4):
        params = random_relation_params(rel_id, rng)
        lhs, rhs = elementary_relation(rel_id, params)
        diagram = eval_simplex(lhs)
        inputs = tuple(
            random_propagator(box, ALG_ALPHABETS, rng) for box in diagram.input_boxes
        )
        left = eval_structure_map(action, lhs, inputs)
        right = eval_structure_map(action, rhs, inputs)
        profiles = sample_profiles(
            diagram.output_box, ALG_ALPHABETS, horizon=5, rng=rng, count=10
        )
        assert propagators_agree(left, right, profiles), rel_id


def test_identity_name_change_is_identity():
    rng = random.Random(42)
    from wiring_operads.wd_presentation import identity_change

    box = Box.of({"i": "a"}, {"o": "b"})
    g = random_propagator(box, ALG_ALPHABETS, rng)
    action = propagator_action(ALG_ALPHABETS)
    out = action.apply(identity_change(box), (g,))
    profiles = sample_profiles(box, ALG_ALPHABETS, horizon=4, rng=rng, count=10)
    assert propagators_agree(out, g, profiles)


def test_presentation_independence():
    rng = random.Random(43)
    from wiring_operads.simplex import Leaf, Node
    from wiring_operads.wd import random_wd
    from wiring_operads.wd_presentation import empty_wd, two_cell

    action = propagator_action(ALG_ALPHABETS)
    done = 0
    while done < 8:
        psi = random_wd(rng, max_wires=2)
        simplex = stratify(psi).to_simplex()
        wrapped = Node(
            Node(Leaf(two_cell(psi.output_box, EMPTY_BOX)), 2, Leaf(empty_wd())),
            1,
            simplex,
        )
        diagram = eval_simplex(simplex)
        inputs = tuple(
            random_propagator(box, ALG_ALPHABETS, rng) for box in diagram.input_boxes
        )
        left = eval_structure_map(action, simplex, inputs)
        right = eval_structure_map(action, wrapped, inputs)
        profiles = sample_profiles(
            diagram.output_box, ALG_ALPHABETS, horizon=4, rng=rng, count=8
        )
        assert propagators_agree(left, right, profiles)
        done += 1


def test_stream_composites_agree_with_replay():
    rng = random.Random(44)
    stream, replay = propagator_action(ALG_ALPHABETS), replay_action(ALG_ALPHABETS)
    for _ in range(30):
        psi = random_wd(rng, max_boxes=3, max_wires=2, max_delay=2)
        simplex = stratify(psi).to_simplex()
        inputs = tuple(
            random_propagator(box, ALG_ALPHABETS, rng) for box in psi.input_boxes
        )
        left = eval_structure_map(stream, simplex, inputs)
        right = eval_structure_map(replay, simplex, inputs)
        profiles = sample_profiles(psi.output_box, ALG_ALPHABETS, horizon=4, rng=rng, count=6)
        assert propagators_agree(left, right, profiles)


def counting_propagator(box: Box, calls: list) -> Propagator:
    """Output entry k is k on every wire; each step call is recorded."""

    def step(prefix):
        calls.append(len(prefix))
        return Vec({y: len(prefix) for y in box.outputs})

    return Propagator(box, step)


def step_only(action: GeneratorAction) -> GeneratorAction:
    """Every result rewrapped as a propagator given by its step function alone."""

    def wrap(fn):
        def mapped(gen, *inputs):
            g = fn(gen, *inputs)
            return Propagator(g.box, g.step)

        return mapped

    return GeneratorAction({kind: wrap(fn) for kind, fn in action.maps.items()})


@pytest.mark.parametrize("horizon", [4, 24])
@pytest.mark.parametrize("wrapped", [False, True])
def test_leaf_steps_are_linear_in_horizon(horizon, wrapped):
    """Box 1 loops onto itself and reaches box 2 through a delay node, which
    feeds back through a second one; a global output shares its source with
    a delay node."""
    numbers = {"N": PointedSet(tuple(range(horizon + 1)), 0)}
    boxes = [
        Box.of({"a1": "N", "a2": "N"}, {"p": "N", "q": "N"}),
        Box.of({"b1": "N", "b2": "N"}, {"r": "N"}),
    ]
    diagram = make_wd(
        boxes,
        Box.of({"i": "N"}, {"o": "N"}),
        FinSet.of({"d1": "N", "d2": "N"}),
        {
            ("gout", "o"): ("bout", 1, "q"),
            ("bin", 1, "a1"): ("bout", 1, "p"),
            ("bin", 1, "a2"): ("dn", "d1"),
            ("bin", 2, "b1"): ("gin", "i"),
            ("bin", 2, "b2"): ("dn", "d2"),
            ("dn", "d1"): ("bout", 2, "r"),
            ("dn", "d2"): ("bout", 1, "q"),
        },
    )
    action = propagator_action(numbers)
    if wrapped:
        action = step_only(action)
    calls: list = []
    leaves = [counting_propagator(box, calls) for box in boxes]
    g = eval_structure_map(action, stratify(diagram).to_simplex(), leaves)
    out = g(tuple(Vec({"i": t}) for t in range(horizon)))
    assert [v["o"] for v in out] == list(range(horizon + 1))
    assert len(calls) == len(boxes) * (horizon + 1)
