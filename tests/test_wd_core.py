import random

import pytest

from wiring_operads.finset import EMPTY, FinSet, Permutation, compose, compose_i_perm
from wiring_operads.wd import (
    Box,
    EMPTY_BOX,
    NonInstantaneityError,
    canonical_form,
    classify,
    comp_i,
    change_of_values_wd,
    equivalent,
    gamma,
    make_wd,
    permute,
    random_wd,
    unit,
)


def first_example():
    """The one-box, one-delay-node diagram with an external and an internal
    wasted wire: s(x1)=s(yo1)=xo1, s(x2)=s(d)=y1, s(x3)=s(yo2)=s(yo3)=d."""
    x = Box.of(
        {"x1": "t", "x2": "s", "x3": "s"},
        {"xo1": "t", "xo2": "u"},
    )
    y = Box.of(
        {"y1": "s", "y2": "w"},
        {"yo1": "t", "yo2": "s", "yo3": "s"},
    )
    supplier = {
        ("bin", 1, "x1"): ("bout", 1, "xo1"),
        ("gout", "yo1"): ("bout", 1, "xo1"),
        ("bin", 1, "x2"): ("gin", "y1"),
        ("dn", "d"): ("gin", "y1"),
        ("bin", 1, "x3"): ("dn", "d"),
        ("gout", "yo2"): ("dn", "d"),
        ("gout", "yo3"): ("dn", "d"),
    }
    return make_wd([x], y, FinSet.of({"d": "s"}), supplier)


def test_first_example_accepted_and_classified():
    wd = first_example()
    c = classify(wd)
    assert c.external_wasted == {"y2"}
    assert c.internal_wasted == {("bout", 1, "xo2")}
    assert not wd.is_normal()
    assert not wd.is_strict()


def test_empty_diagram():
    wd = make_wd([], EMPTY_BOX, EMPTY, {})
    assert wd.is_strict()
    assert classify(wd).external_wasted == frozenset()


def test_non_instantaneity_rejected():
    y = Box.of({"a": "v"}, {"b": "v"})
    with pytest.raises(NonInstantaneityError):
        make_wd([], y, EMPTY, {("gout", "b"): ("gin", "a")})


def test_supplier_is_read_only_after_make_wd():
    y = Box.of({"a": "v"}, {"b": "v"})
    x = Box.of({"p": "v"}, {"q": "v"})
    table = {("bin", 1, "p"): ("gin", "a"), ("gout", "b"): ("bout", 1, "q")}
    wd = make_wd([x], y, EMPTY, table)
    with pytest.raises(TypeError):
        wd.supplier[("gout", "b")] = ("gin", "a")
    table[("gout", "b")] = ("gin", "a")
    assert wd.supplier[("gout", "b")] == ("bout", 1, "q")


def test_partial_supplier_and_value_mismatch_rejected():
    y = Box.of({"a": "v"}, {"b": "v"})
    x = Box.of({"p": "v"}, {"q": "w"})
    with pytest.raises(ValueError):
        make_wd([x], y, EMPTY, {("bin", 1, "p"): ("gin", "a")})  # gout b missing
    with pytest.raises(ValueError):
        make_wd(
            [x],
            y,
            EMPTY,
            {("bin", 1, "p"): ("gin", "a"), ("gout", "b"): ("bout", 1, "q")},
        )


def test_unit_laws():
    rng = random.Random(0)
    for _ in range(25):
        psi = random_wd(rng)
        assert comp_i(unit(psi.output_box), 1, psi) == psi
        for i, box in enumerate(psi.input_boxes, start=1):
            assert comp_i(psi, i, unit(box)) == psi


def test_unit_of_empty_box():
    u = unit(EMPTY_BOX)
    assert u.input_boxes == (EMPTY_BOX,)
    assert classify(u).external_wasted == frozenset()


def _composable_pair(rng, phi=None):
    phi = phi or random_wd(rng, max_boxes=3)
    while not phi.input_boxes:
        phi = random_wd(rng, max_boxes=3)
    i = rng.randrange(1, len(phi.input_boxes) + 1)
    psi = random_wd(rng, output_box=phi.input_boxes[i - 1])
    return phi, i, psi


def test_horizontal_associativity():
    rng = random.Random(1)
    done = 0
    while done < 40:
        phi = random_wd(rng)
        if len(phi.input_boxes) < 2:
            continue
        n = len(phi.input_boxes)
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        psi = random_wd(rng, output_box=phi.input_boxes[i - 1])
        zeta = random_wd(rng, output_box=phi.input_boxes[j - 1])
        l = len(psi.input_boxes)
        lhs = comp_i(comp_i(phi, j, zeta), i, psi)
        rhs = comp_i(comp_i(phi, i, psi), j - 1 + l, zeta)
        assert equivalent(lhs, rhs)
        done += 1


def test_vertical_associativity():
    rng = random.Random(2)
    done = 0
    while done < 40:
        phi, i, psi = _composable_pair(rng)
        if not psi.input_boxes:
            continue
        j = rng.randrange(1, len(psi.input_boxes) + 1)
        zeta = random_wd(rng, output_box=psi.input_boxes[j - 1])
        lhs = comp_i(comp_i(phi, i, psi), i - 1 + j, zeta)
        rhs = comp_i(phi, i, comp_i(psi, j, zeta))
        assert equivalent(lhs, rhs)
        done += 1


def test_equivariance_square():
    rng = random.Random(3)
    done = 0
    while done < 40:
        phi = random_wd(rng)
        n = len(phi.input_boxes)
        if n == 0:
            continue
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        i = rng.randrange(1, n + 1)
        psi = random_wd(rng, output_box=phi.input_boxes[sigma(i) - 1])
        m = len(psi.input_boxes)
        tau = Permutation(tuple(rng.sample(range(1, m + 1), m))) if m else Permutation(())
        lhs = permute(comp_i(phi, sigma(i), psi), compose_i_perm(sigma, i, tau))
        rhs = comp_i(permute(phi, sigma), i, permute(psi, tau) if m else psi)
        assert equivalent(lhs, rhs)
        done += 1


def test_permute_group_action():
    rng = random.Random(4)
    for _ in range(25):
        phi = random_wd(rng)
        n = len(phi.input_boxes)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        tau = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert permute(phi, Permutation.identity(n)) == phi
        assert permute(permute(phi, sigma), tau) == permute(phi, compose(sigma, tau))


def test_gamma_is_left_nested_comp():
    rng = random.Random(5)
    done = 0
    while done < 25:
        phi = random_wd(rng)
        if len(phi.input_boxes) != 2:
            continue
        p1 = random_wd(rng, output_box=phi.input_boxes[0])
        p2 = random_wd(rng, output_box=phi.input_boxes[1])
        k1 = len(p1.input_boxes)
        assert gamma(phi, [p1, p2]) == comp_i(comp_i(phi, 1, p1), k1 + 1, p2)
        done += 1


def test_gamma_unity():
    rng = random.Random(6)
    for _ in range(10):
        phi = random_wd(rng)
        assert gamma(phi, [unit(b) for b in phi.input_boxes]) == phi


def test_normal_and_strict_closed_under_composition():
    rng = random.Random(7)
    done = 0
    while done < 30:
        phi = random_wd(rng, max_delay=0)
        if not phi.input_boxes:
            continue
        i = rng.randrange(1, len(phi.input_boxes) + 1)
        psi = random_wd(rng, output_box=phi.input_boxes[i - 1], max_delay=0)
        assert comp_i(phi, i, psi).is_normal()
        done += 1
    done = 0
    while done < 30:
        phi = random_wd(rng, strict=True)
        if not phi.input_boxes:
            continue
        i = rng.randrange(1, len(phi.input_boxes) + 1)
        psi = random_wd(rng, output_box=phi.input_boxes[i - 1], strict=True)
        assert phi.is_strict() and psi.is_strict()
        assert comp_i(phi, i, psi).is_strict()
        done += 1


def test_classification_partition_laws():
    # Demand/supply decompositions for one-box, no-delay diagrams.
    rng = random.Random(8)
    done = 0
    while done < 40:
        wd = random_wd(rng, max_boxes=1, max_delay=0)
        if len(wd.input_boxes) != 1:
            continue
        box = wd.input_boxes[0]
        c = classify(wd)
        assert c.internally_supplied | c.externally_supplied == set(box.inputs)
        assert c.internally_supplied & c.externally_supplied == frozenset()
        assert {wd.supplier[("bin", 1, x)][2] for x in c.internally_supplied} == c.loop_elements
        supplied_gin = {wd.supplier[("bin", 1, x)][1] for x in c.externally_supplied}
        assert supplied_gin | c.external_wasted == set(wd.output_box.inputs)
        for y in wd.output_box.outputs:
            target = wd.supplier[("gout", y)]
            assert target[0] == "bout" and target not in c.internal_wasted
        done += 1


def test_equivalence_under_delay_node_renaming():
    wd = first_example()
    renamed = make_wd(
        list(wd.input_boxes),
        wd.output_box,
        FinSet.of({"node": "s"}),
        {
            dm if dm[0] != "dn" else ("dn", "node"): (
                sp if sp[0] != "dn" else ("dn", "node")
            )
            for dm, sp in wd.supplier.items()
        },
    )
    assert equivalent(wd, renamed)
    assert wd != renamed


def test_equivalence_distinguishes_delay_count():
    y = Box.of({}, {})
    one = make_wd([], y, FinSet.of({"d": "v"}), {("dn", "d"): ("dn", "d")})
    two = make_wd(
        [], y, FinSet.of({"d": "v", "e": "v"}),
        {("dn", "d"): ("dn", "d"), ("dn", "e"): ("dn", "e")},
    )
    assert not equivalent(one, two)


def test_two_self_looping_delay_nodes_swap():
    y = Box.of({}, {})
    a = make_wd(
        [], y, FinSet.of({"p": "v", "q": "v"}),
        {("dn", "p"): ("dn", "p"), ("dn", "q"): ("dn", "q")},
    )
    b = make_wd(
        [], y, FinSet.of({"q": "v", "p": "v"}),
        {("dn", "p"): ("dn", "q"), ("dn", "q"): ("dn", "p")},
    )
    # a has two self-loops; b has a 2-cycle: not equivalent.
    assert not equivalent(a, b)
    # Brute-force ground truth on the swap case: renaming p<->q fixes a.
    swapped = make_wd(
        [], y, FinSet.of({"p": "v", "q": "v"}),
        {("dn", "q"): ("dn", "q"), ("dn", "p"): ("dn", "p")},
    )
    assert equivalent(a, swapped)
    assert canonical_form(a) == canonical_form(swapped)


def test_change_of_values_commutes_with_comp():
    rng = random.Random(9)
    f = lambda v: "z"
    done = 0
    while done < 20:
        phi, i, psi = _composable_pair(rng)
        lhs = change_of_values_wd(f, comp_i(phi, i, psi))
        rhs = comp_i(change_of_values_wd(f, phi), i, change_of_values_wd(f, psi))
        assert lhs == rhs
        done += 1
