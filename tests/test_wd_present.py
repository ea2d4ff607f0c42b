import random

import pytest

from wiring_operads.finset import EMPTY, FinSet
from wiring_operads.simplex import Leaf, Node, leaves
from wiring_operads.wd import Box, EMPTY_BOX, classify, comp_i, equivalent, make_wd, unit
from wiring_operads.wd_presentation import (
    DELAY_NODE,
    EMPTY_WD,
    NAME_CHANGE,
    ONE_LOOP,
    RELATION_IDS,
    TWO_CELL,
    InvalidParamsError,
    StratifiedWD,
    delay_node,
    elementary_relation,
    empty_wd,
    eval_simplex,
    expand_cells_delays,
    expand_insplits,
    expand_loops,
    expand_outsplits,
    expand_wasted,
    generator,
    identity_change,
    identity_wires,
    in_split,
    one_loop,
    out_split,
    random_relation_params,
    split_alpha_phi,
    split_beta,
    split_pi,
    stratify,
    two_cell,
    wasted_wire,
    wires_change,
)
from tests.test_wd_core import first_example


def test_delay_node_generator_shape():
    wd = generator(delay_node("s"))
    assert set(wd.demands()) == {("gout", "s"), ("dn", "s")}
    assert wd.supplier[("gout", "s")] == ("dn", "s")
    assert wd.supplier[("dn", "s")] == ("gin", "s")


def test_two_cell_with_empty_is_unit():
    x = Box.of({"p": "a"}, {"q": "b"})
    lhs = comp_i(generator(two_cell(x, EMPTY_BOX)), 2, generator(empty_wd()))
    assert lhs == unit(x)


def test_invalid_split_params():
    x = Box.of({"p": "a", "r": "b"}, {"q": "a"})
    with pytest.raises(InvalidParamsError):
        generator(in_split(x, "p", "p"))
    with pytest.raises(InvalidParamsError):
        generator(in_split(x, "p", "r"))  # value mismatch
    with pytest.raises(InvalidParamsError):
        generator(one_loop(x, "q", "r"))


def test_internal_wasted_wire_from_loop_and_wasted():
    # Substituting a 1-wasted wire into a 1-loop yields the diagram whose
    # only effect is an unused box output.
    x = Box.of({"p": "a"}, {"q": "a", "drop": "b"})
    w_box = Box.of({"p": "a", "w": "b"}, {"q": "a", "drop": "b"})
    loop = generator(one_loop(w_box, "drop", "w"))
    wasted = generator(wasted_wire(w_box, "w"))
    composite = comp_i(loop, 1, wasted)
    assert composite.input_boxes == (x,)
    assert classify(composite).internal_wasted == {("bout", 1, "drop")}
    expected = make_wd(
        [x],
        Box.of({"p": "a"}, {"q": "a"}),
        EMPTY,
        {
            ("gout", "q"): ("bout", 1, "q"),
            ("bin", 1, "p"): ("gin", "p"),
        },
    )
    assert composite == expected


def test_in_split_then_wasted_is_unit():
    y = Box.of({"p": "a", "q": "a"}, {"r": "b"})
    lhs = comp_i(generator(in_split(y, "p", "q")), 1, generator(wasted_wire(y, "q")))
    merged = Box.of({"p": "a"}, {"r": "b"})
    assert lhs == unit(merged)


@pytest.mark.parametrize("rel_id", RELATION_IDS)
def test_elementary_relations_randomized(rel_id):
    rng = random.Random(hash(rel_id) % 100_000)
    for _ in range(25):
        params = random_relation_params(rel_id, rng)
        lhs, rhs = elementary_relation(rel_id, params)
        assert eval_simplex(lhs) == eval_simplex(rhs), rel_id


def test_relation_by_number_matches_name():
    rng = random.Random(0)
    params = random_relation_params("c1", rng)
    by_name = elementary_relation("c1", params)
    by_pos = elementary_relation(RELATION_IDS.index("c1") + 1, params)
    assert by_name == by_pos


def test_split_alpha_phi_contract():
    rng = random.Random(11)
    from wiring_operads.wd import random_wd

    for _ in range(30):
        psi = random_wd(rng)
        alpha, phi = split_alpha_phi(psi)
        assert len(alpha.input_boxes) == 1 and alpha.is_normal()
        # phi's supplier is the identity up to the coproduct injections.
        for dm, sp in phi.supplier.items():
            assert phi.value_at(dm) == phi.value_at(sp)
            assert {dm[0], sp[0]} in ({"gout", "bout"}, {"bin", "gin"}, {"dn", "gout"}, {"dn", "gin"})
        assert comp_i(alpha, 1, phi) == psi


def test_split_pi_and_beta_contract():
    rng = random.Random(12)
    from wiring_operads.wd import random_wd

    done = 0
    while done < 30:
        psi = random_wd(rng)
        alpha, _ = split_alpha_phi(psi)
        pi1, pi2 = split_pi(alpha)
        assert comp_i(pi1, 1, pi2) == alpha
        cls2 = classify(pi2)
        assert cls2.loop_elements == frozenset()
        assert cls2.internal_wasted == frozenset()
        beta1, beta2, beta3 = split_beta(pi2)
        assert comp_i(comp_i(beta1, 1, beta2), 1, beta3) == pi2
        # The inner out-restriction is surjective when there are no internal
        # wasted wires.
        covered = {sp for sp in beta3.supplier.values() if sp[0] == "bout"}
        assert covered == {("bout", 1, w) for w in beta3.input_boxes[0].outputs}
        done += 1


def _expanded(gens, end, box, wires):
    """An expansion's composite, renamed onto the factor's outer box."""
    built = generator(wires_change(end, box, wires))
    for g in gens:
        built = comp_i(built, 1, generator(g))
    return built


def test_expand_pieces_reproduce_their_diagrams():
    rng = random.Random(13)
    from wiring_operads.wd import random_wd

    done = 0
    while done < 20:
        psi = random_wd(rng)
        alpha, phi = split_alpha_phi(psi)
        pi1, pi2 = split_pi(alpha)
        beta1, beta2, beta3 = split_beta(pi2)

        for piece, expand in (
            (pi1, expand_loops),
            (beta1, expand_wasted),
            (beta2, expand_insplits),
            (beta3, expand_outsplits),
        ):
            inner = piece.input_boxes[0]
            gens, end, wires = expand(piece, inner, identity_wires(inner))
            assert _expanded(gens, end, piece.output_box, wires) == piece

        if phi.input_boxes or phi.delay_nodes:
            thetas, deltas = expand_cells_delays(phi)
            cells = StratifiedWD(
                external_form=False,
                name_chg=identity_change(phi.output_box),
                two_cells=tuple(thetas),
                delays=tuple(deltas),
            )
            assert equivalent(eval_simplex(cells.to_simplex()), phi)
        done += 1


def test_stratify_external_form():
    y = Box.of({"p": "a", "q": "b"}, {})
    psi = make_wd([], y, EMPTY, {})
    strat = stratify(psi)
    assert strat.external_form
    assert len(strat.wasted_then_empty) == 2
    assert eval_simplex(strat.to_simplex()) == psi


def test_stratify_unit_is_name_change_only():
    box = Box.of({"p": "a"}, {"q": "b"})
    strat = stratify(unit(box))
    assert not strat.external_form
    assert strat.loops == strat.wasted == strat.in_splits == strat.out_splits == ()
    assert strat.two_cells == strat.delays == ()
    assert eval_simplex(strat.to_simplex()) == unit(box)


def test_stratify_counts_on_unary_example():
    # One box, a loop element, an internal wasted wire, two in-fibers and a
    # split output: 2 loops, 2 wasted wires, 2 in-splits, 1 out-split.
    x = Box.of(
        {"x1": "a", "x2": "a", "x3": "b", "x4": "b"},
        {"xo1": "a", "xo2": "c", "xo3": "d"},
    )
    y = Box.of({"y1": "b", "y2": "w"}, {"yo1": "a", "yo2": "c"})
    pi = make_wd(
        [x],
        y,
        EMPTY,
        {
            ("bin", 1, "x1"): ("bout", 1, "xo1"),
            ("bin", 1, "x2"): ("bout", 1, "xo1"),
            ("bin", 1, "x3"): ("gin", "y1"),
            ("bin", 1, "x4"): ("gin", "y1"),
            ("gout", "yo1"): ("bout", 1, "xo1"),
            ("gout", "yo2"): ("bout", 1, "xo2"),
        },
    )
    strat = stratify(pi)
    assert len(strat.loops) == 2
    assert len(strat.wasted) == 2
    assert len(strat.in_splits) == 2
    assert len(strat.out_splits) == 1
    assert equivalent(eval_simplex(strat.to_simplex()), pi)


def test_stratify_round_trip_random():
    rng = random.Random(14)
    from wiring_operads.wd import random_wd

    for _ in range(60):
        psi = random_wd(rng)
        strat = stratify(psi)
        assert equivalent(eval_simplex(strat.to_simplex()), psi)


def test_stratify_first_example():
    psi = first_example()
    strat = stratify(psi)
    assert equivalent(eval_simplex(strat.to_simplex()), psi)
    assert DELAY_NODE in strat.leaf_kinds()


def test_stratify_normal_has_no_delay_leaves():
    rng = random.Random(15)
    from wiring_operads.wd import random_wd

    for _ in range(30):
        psi = random_wd(rng, max_delay=0)
        strat = stratify(psi)
        assert DELAY_NODE not in strat.leaf_kinds()
        assert equivalent(eval_simplex(strat.to_simplex()), psi)


def test_stratify_strict_uses_strict_leaves_only():
    rng = random.Random(16)
    from wiring_operads.wd import random_wd

    for _ in range(30):
        psi = random_wd(rng, strict=True)
        strat = stratify(psi)
        assert strat.leaf_kinds() <= {EMPTY_WD, NAME_CHANGE, TWO_CELL, ONE_LOOP}
        assert equivalent(eval_simplex(strat.to_simplex()), psi)


def test_stratify_keeps_a_lone_box_with_coproduct_names():
    # A box left over from a coproduct may carry an @-renamed wire alone.
    box = Box(FinSet((("x@2", "a"),)), FinSet((("y", "a"),)))
    out = Box.of({"p": "a"}, {"q": "a"})
    psi = make_wd(
        [box], out, EMPTY, {("gout", "q"): ("bout", 1, "y"), ("bin", 1, "x@2"): ("gin", "p")}
    )
    assert equivalent(eval_simplex(stratify(psi).to_simplex()), psi)
