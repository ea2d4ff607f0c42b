import random
from collections import Counter

import pytest

from wiring_operads.finset import FinSet, Permutation, compose, compose_i_perm
from wiring_operads.uwd import (
    canonical_form_u,
    census,
    change_of_values_uwd,
    comp_i_u,
    equivalent_u,
    gamma_u,
    make_uwd,
    permute_u,
    random_uwd,
    unit_u,
)


def first_picture():
    """The seven-cable example: census {(0,2), (1,1), (3,2), (0,0), (0,1),
    (3,0), (1,0)} with two input boxes."""
    u1 = FinSet.of({f"x{k}": "v" for k in range(1, 7)})
    u2 = FinSet.of({"xs1": "v", "xs2": "v"})
    y = FinSet.of({f"y{k}": "v" for k in range(1, 7)})
    cables = FinSet.of({f"c{k}": "v" for k in range(1, 8)})
    input_solder = {
        (1, "x1"): "c2",
        (1, "x2"): "c3",
        (1, "x3"): "c3",
        (1, "x4"): "c6",
        (1, "x5"): "c6",
        (1, "x6"): "c7",
        (2, "xs1"): "c3",
        (2, "xs2"): "c6",
    }
    output_solder = {
        "y1": "c1",
        "y2": "c1",
        "y3": "c2",
        "y4": "c3",
        "y5": "c3",
        "y6": "c5",
    }
    return make_uwd([u1, u2], y, cables, input_solder, output_solder)


def test_first_picture_census():
    expected = Counter(
        {(0, 2): 1, (1, 1): 1, (3, 2): 1, (0, 0): 1, (0, 1): 1, (3, 0): 1, (1, 0): 1}
    )
    assert census(first_picture()) == expected


def test_solders_are_read_only_after_make_uwd():
    uwd = first_picture()
    with pytest.raises(TypeError):
        uwd.input_solder[(1, "x1")] = "c1"
    with pytest.raises(TypeError):
        uwd.output_solder["y6"] = "c4"


def test_unit_census_and_validation():
    y = FinSet.of({"a": "v", "b": "w"})
    assert census(unit_u(y)) == Counter({(1, 1): 2})
    with pytest.raises(ValueError):
        make_uwd([], y, FinSet.of({"c": "v"}), {}, {"a": "c", "b": "missing"})
    with pytest.raises(ValueError):
        make_uwd([], y, FinSet.of({"c": "v"}), {}, {"a": "c", "b": "c"})  # value mismatch


def test_wasted_cable_from_jointly_surjective_pair():
    x = FinSet.of({"x1": "v", "x2": "v"})
    phi = make_uwd(
        [x], FinSet.of({}), FinSet.of({"c": "v"}),
        {(1, "x1"): "c", (1, "x2"): "c"}, {},
    )
    psi = make_uwd([], x, x, {}, {w: w for w in x})
    assert census(phi)[(0, 0)] == 0 and census(psi)[(0, 0)] == 0
    composite = comp_i_u(phi, 1, psi)
    assert census(composite) == Counter({(0, 0): 1})


def test_unit_laws_up_to_equivalence():
    rng = random.Random(0)
    for _ in range(25):
        psi = random_uwd(rng)
        assert equivalent_u(comp_i_u(unit_u(psi.output_box), 1, psi), psi)
        for i, box in enumerate(psi.input_boxes, start=1):
            assert equivalent_u(comp_i_u(psi, i, unit_u(box)), psi)


def test_horizontal_associativity_u():
    rng = random.Random(1)
    done = 0
    while done < 40:
        phi = random_uwd(rng)
        if len(phi.input_boxes) < 2:
            continue
        n = len(phi.input_boxes)
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        psi = random_uwd(rng, output_box=phi.input_boxes[i - 1])
        zeta = random_uwd(rng, output_box=phi.input_boxes[j - 1])
        l = len(psi.input_boxes)
        lhs = comp_i_u(comp_i_u(phi, j, zeta), i, psi)
        rhs = comp_i_u(comp_i_u(phi, i, psi), j - 1 + l, zeta)
        assert equivalent_u(lhs, rhs)
        done += 1


def test_vertical_associativity_u():
    rng = random.Random(2)
    done = 0
    while done < 40:
        phi = random_uwd(rng)
        if not phi.input_boxes:
            continue
        i = rng.randrange(1, len(phi.input_boxes) + 1)
        psi = random_uwd(rng, output_box=phi.input_boxes[i - 1])
        if not psi.input_boxes:
            continue
        j = rng.randrange(1, len(psi.input_boxes) + 1)
        zeta = random_uwd(rng, output_box=psi.input_boxes[j - 1])
        lhs = comp_i_u(comp_i_u(phi, i, psi), i - 1 + j, zeta)
        rhs = comp_i_u(phi, i, comp_i_u(psi, j, zeta))
        assert equivalent_u(lhs, rhs)
        done += 1


def test_equivariance_square_u():
    rng = random.Random(3)
    done = 0
    while done < 40:
        phi = random_uwd(rng)
        n = len(phi.input_boxes)
        if n == 0:
            continue
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        i = rng.randrange(1, n + 1)
        psi = random_uwd(rng, output_box=phi.input_boxes[sigma(i) - 1])
        m = len(psi.input_boxes)
        tau = Permutation(tuple(rng.sample(range(1, m + 1), m))) if m else Permutation(())
        lhs = permute_u(comp_i_u(phi, sigma(i), psi), compose_i_perm(sigma, i, tau))
        rhs = comp_i_u(permute_u(phi, sigma), i, permute_u(psi, tau) if m else psi)
        assert equivalent_u(lhs, rhs)
        done += 1


def test_permute_group_action_u():
    rng = random.Random(4)
    for _ in range(25):
        phi = random_uwd(rng)
        n = len(phi.input_boxes)
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        tau = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        assert permute_u(phi, Permutation.identity(n)) == phi
        assert permute_u(permute_u(phi, sigma), tau) == permute_u(phi, compose(sigma, tau))


def test_gamma_u_matches_double_comp():
    rng = random.Random(5)
    done = 0
    while done < 25:
        phi = random_uwd(rng)
        if len(phi.input_boxes) != 2:
            continue
        p1 = random_uwd(rng, output_box=phi.input_boxes[0])
        p2 = random_uwd(rng, output_box=phi.input_boxes[1])
        k1 = len(p1.input_boxes)
        assert gamma_u(phi, [p1, p2]) == comp_i_u(comp_i_u(phi, 1, p1), k1 + 1, p2)
        done += 1


def test_composite_cables_are_pushout_classes():
    rng = random.Random(6)
    done = 0
    while done < 30:
        phi = random_uwd(rng)
        if not phi.input_boxes:
            continue
        i = rng.randrange(1, len(phi.input_boxes) + 1)
        psi = random_uwd(rng, output_box=phi.input_boxes[i - 1])
        composite = comp_i_u(phi, i, psi)
        assert len(composite.cables) <= len(phi.cables) + len(psi.cables)
        # Solder maps factor through the quotient: images agree cable-wise.
        for y in phi.output_box:
            assert composite.output_solder[y] in composite.cables
        done += 1


def test_equivalence_cable_renaming_and_multisets():
    uwd = first_picture()
    renamed = make_uwd(
        list(uwd.input_boxes),
        uwd.output_box,
        uwd.cables.relabel({"c1": "z9"}),
        {w: ("z9" if c == "c1" else c) for w, c in uwd.input_solder.items()},
        {y: ("z9" if c == "c1" else c) for y, c in uwd.output_solder.items()},
    )
    assert equivalent_u(uwd, renamed)
    assert uwd != renamed
    assert canonical_form_u(uwd) == canonical_form_u(renamed)

    y = FinSet.of({})
    one = make_uwd([], y, FinSet.of({"c": "a"}), {}, {})
    other = make_uwd([], y, FinSet.of({"c": "b"}), {}, {})
    assert not equivalent_u(one, other)
    two_a = make_uwd([], y, FinSet.of({"p": "a", "q": "a"}), {}, {})
    two_b = make_uwd([], y, FinSet.of({"q": "a", "p": "a"}), {}, {})
    assert equivalent_u(two_a, two_b)


def test_change_of_values_commutes_with_comp_u():
    rng = random.Random(7)
    f = lambda v: "z"
    done = 0
    while done < 20:
        phi = random_uwd(rng)
        if not phi.input_boxes:
            continue
        i = rng.randrange(1, len(phi.input_boxes) + 1)
        psi = random_uwd(rng, output_box=phi.input_boxes[i - 1])
        lhs = change_of_values_uwd(f, comp_i_u(phi, i, psi))
        rhs = comp_i_u(change_of_values_uwd(f, phi), i, change_of_values_uwd(f, psi))
        assert lhs == rhs
        done += 1
