import random
from collections import Counter

import pytest

from wiring_operads.finset import FinSet
from wiring_operads.simplex import Leaf, Node
from wiring_operads.uwd import census, comp_i_u, equivalent_u, make_uwd, random_uwd, unit_u
from wiring_operads.uwd_presentation import (
    OUTPUT_WIRE,
    U_LOOP,
    U_RELATION_IDS,
    U_SPLIT,
    U_TWO_CELL,
    InvalidParamsError,
    StratifiedUWD,
    elementary_relation_u,
    empty_cell,
    eval_simplex_u,
    expand_cells_outputs,
    expand_loops_u,
    expand_splits,
    generator_u,
    output_wire,
    random_relation_params_u,
    split_phi,
    split_psi,
    stratify_u,
    u_loop,
    u_split,
    u_two_cell,
    wires_change_u,
)
from tests.test_uwd_core import first_picture


def test_loop_generator_shape():
    x = FinSet.of({"p": "a", "q": "a", "r": "b"})
    loop = generator_u(u_loop(x, "p", "q"))
    assert loop.output_box == FinSet.of({"r": "b"})
    assert set(loop.cables.elements) == {"p", "r"}
    assert loop.input_solder[(1, "q")] == "p"
    assert census(loop) == Counter({(2, 0): 1, (1, 1): 1})


def test_split_generator_shape():
    x = FinSet.of({"p": "a", "q": "a", "r": "b"})
    split = generator_u(u_split(x, "p", "q"))
    assert split.output_solder["p"] == "p" and split.output_solder["q"] == "p"
    assert census(split) == Counter({(1, 2): 1, (1, 1): 1})


def test_two_cell_with_empty_is_unit():
    x = FinSet.of({"p": "a"})
    lhs = comp_i_u(generator_u(u_two_cell(x, FinSet(()))), 2, generator_u(empty_cell()))
    assert equivalent_u(lhs, unit_u(x))


def test_invalid_params():
    x = FinSet.of({"p": "a", "r": "b"})
    with pytest.raises(InvalidParamsError):
        generator_u(u_loop(x, "p", "p"))
    with pytest.raises(InvalidParamsError):
        generator_u(u_split(x, "p", "r"))


@pytest.mark.parametrize("rel_id", U_RELATION_IDS)
def test_elementary_relations_u_randomized(rel_id):
    rng = random.Random(hash(rel_id) % 99_991)
    for _ in range(25):
        params = random_relation_params_u(rel_id, rng)
        lhs, rhs = elementary_relation_u(rel_id, params)
        dl, dr = eval_simplex_u(lhs), eval_simplex_u(rhs)
        assert equivalent_u(dl, dr), rel_id


def test_wasted_cable_five_leaf_simplex():
    # A loop over two output wires creates a wasted cable out of nothing.
    x1, x2 = "x1", "x2"
    x = FinSet.of({x1: "v", x2: "v"})
    inner = Node(
        Node(
            Node(
                Leaf(u_two_cell(FinSet(()), x)),
                2,
                Leaf(u_two_cell(FinSet.of({x1: "v"}), FinSet.of({x2: "v"}))),
            ),
            2,
            Leaf(output_wire(x1, "v")),
        ),
        2,
        Leaf(output_wire(x2, "v")),
    )
    simplex = Node(Leaf(u_loop(x, x1, x2)), 1, inner)
    result = eval_simplex_u(simplex)
    assert census(result) == Counter({(0, 0): 1})
    # One (empty) input box survives the substitutions, as in the source
    # composite; the output box is empty.
    assert result.input_boxes == (FinSet(()),)
    assert len(result.output_box) == 0


def test_two_presentations_of_wasted_cable_over_y():
    y = FinSet.of({"p": "a", "q": "b"})
    x1, x2 = "x1", "x2"
    yx = FinSet(y.pairs + ((x1, "v"), (x2, "v")))
    lhs = Node(
        Leaf(u_loop(yx, x1, x2)),
        1,
        Node(
            Node(
                Node(
                    Leaf(u_two_cell(y, FinSet.of({x1: "v", x2: "v"}))),
                    2,
                    Leaf(u_two_cell(FinSet.of({x1: "v"}), FinSet.of({x2: "v"}))),
                ),
                2,
                Leaf(output_wire(x1, "v")),
            ),
            2,
            Leaf(output_wire(x2, "v")),
        ),
    )
    yx1 = FinSet(y.pairs + ((x1, "v"),))
    rhs = Node(
        Node(Leaf(u_loop(yx, x1, x2)), 1, Leaf(u_split(yx, x1, x2))),
        1,
        Node(Leaf(u_two_cell(y, FinSet.of({x1: "v"}))), 2, Leaf(output_wire(x1, "v"))),
    )
    zeta = make_uwd(
        [y], y, FinSet(y.pairs + (("waste", "v"),)),
        {(1, w): w for w in y}, {w: w for w in y},
    )
    assert equivalent_u(eval_simplex_u(lhs), zeta)
    assert equivalent_u(eval_simplex_u(rhs), zeta)


def test_split_psi_contract():
    rng = random.Random(20)
    for _ in range(40):
        uwd = random_uwd(rng)
        psi1, psi2 = split_psi(uwd)
        assert equivalent_u(comp_i_u(psi1, 1, psi2), uwd)
        # psi2 cables are (1,1) or (0,1); psi1 cables all touch an input wire.
        for c in psi2.cables:
            assert psi2.cable_type(c) in ((1, 1), (0, 1))
        for c in psi1.cables:
            m, n = psi1.cable_type(c)
            assert m >= 1
            assert (m, n) != (1, 0) or uwd.cable_type(c) != (1, 0) or m >= 1
        assert not any(psi1.cable_type(c) == (1, 0) for c in psi1.cables) or all(
            psi1.cable_type(c) != (1, 0) for c in psi1.cables
        )


def test_split_psi_excludes_bad_cables_in_psi1():
    rng = random.Random(21)
    for _ in range(40):
        uwd = random_uwd(rng)
        psi1, _ = split_psi(uwd)
        for c in psi1.cables:
            m, n = psi1.cable_type(c)
            assert m >= 1 and (m, n) != (1, 0)


def test_split_phi_contract():
    rng = random.Random(22)
    for _ in range(40):
        uwd = random_uwd(rng)
        psi1, _ = split_psi(uwd)
        phi1, phi2 = split_phi(psi1)
        assert equivalent_u(comp_i_u(phi1, 1, phi2), psi1)
        assert all(phi1.cable_type(c) in ((1, 1), (2, 0)) for c in phi1.cables)
        # phi2: identity input solder, surjective output solder.
        a_box = phi2.input_boxes[0]
        assert {phi2.input_solder[(1, w)] for w in a_box} == set(a_box.elements)
        assert {phi2.output_solder[y] for y in phi2.output_box} == set(a_box.elements)


def _expanded_u(gens, end, box, wires):
    """An expansion's composite, renamed onto the factor's output box."""
    built = generator_u(wires_change_u(end, box, wires))
    for g in gens:
        built = comp_i_u(built, 1, generator_u(g))
    return built


def test_expand_pieces():
    rng = random.Random(23)
    for _ in range(25):
        uwd = random_uwd(rng)
        psi1, psi2 = split_psi(uwd)
        phi1, phi2 = split_phi(psi1)

        for piece, expand in ((phi1, expand_loops_u), (phi2, expand_splits)):
            inner = piece.input_boxes[0]
            gens, end, wires = expand(piece, inner, {w: w for w in inner})
            assert equivalent_u(_expanded_u(gens, end, piece.output_box, wires), piece)

        thetas, omegas, tower, wires = expand_cells_outputs(psi2)
        assert len(omegas) == sum(
            1 for c in psi2.cables if psi2.cable_type(c) == (0, 1)
        )
        if psi2.input_boxes or omegas:
            cells = StratifiedUWD(
                name_chg=wires_change_u(tower, psi2.output_box, wires),
                two_cells=tuple(thetas),
                output_wires=tuple(omegas),
            )
            assert equivalent_u(eval_simplex_u(cells.to_simplex()), psi2)


def test_stratify_empty_cell():
    empty = generator_u(empty_cell())
    strat = stratify_u(empty)
    assert strat.empty
    assert eval_simplex_u(strat.to_simplex()) == empty


def test_stratify_unit_is_name_change():
    y = FinSet.of({"p": "a", "q": "b"})
    strat = stratify_u(unit_u(y))
    assert not strat.empty
    assert strat.loops == strat.splits == strat.two_cells == strat.output_wires == ()
    assert equivalent_u(eval_simplex_u(strat.to_simplex()), unit_u(y))


def test_stratify_worked_example_counts():
    # The seven-cable example needs 6 loops, 5 splits, 6 two-cells, and 5
    # output wires.
    uwd = first_picture()
    strat = stratify_u(uwd)
    assert len(strat.loops) == 6
    assert len(strat.splits) == 5
    assert len(strat.two_cells) == 6
    assert len(strat.output_wires) == 5
    assert equivalent_u(eval_simplex_u(strat.to_simplex()), uwd)


def test_stratify_round_trip_random():
    rng = random.Random(24)
    for _ in range(60):
        uwd = random_uwd(rng)
        strat = stratify_u(uwd)
        assert equivalent_u(eval_simplex_u(strat.to_simplex()), uwd)


def test_stratify_keeps_a_lone_box_with_coproduct_names():
    # A box left over from a coproduct may carry an @-renamed wire alone.
    box = FinSet((("x@2", "a"),))
    uwd = make_uwd([box], FinSet.of({"p": "a"}), FinSet.of({"c": "a"}), {(1, "x@2"): "c"}, {"p": "c"})
    assert equivalent_u(eval_simplex_u(stratify_u(uwd).to_simplex()), uwd)
