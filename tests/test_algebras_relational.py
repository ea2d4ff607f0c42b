import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from relational_eager import eager_relational_action
from wiring_operads.algebras.actions import eval_structure_map
from wiring_operads.algebras.relational import (
    Relation,
    full_relation,
    is_bijection,
    push_forward,
    random_relation,
    relational_action,
    rigidity_check,
    typed_relational_action,
)
from wiring_operads.algebras.vectors import Vec
from wiring_operads.finset import FinSet
from wiring_operads.uwd import make_uwd, random_uwd
from wiring_operads.uwd_presentation import (
    U_RELATION_IDS,
    elementary_relation_u,
    eval_simplex_u,
    output_wire,
    random_relation_params_u,
    stratify_u,
    u_loop,
    u_split,
    u_two_cell,
)


def test_output_wire_is_full_alphabet():
    action = relational_action(("0", "1"))
    rel = action.apply(output_wire("w", "v"), ())
    assert rel.vectors == frozenset({Vec({"w": "0"}), Vec({"w": "1"})})


def test_two_cell_is_product():
    # Brute force over all subsets for a two-letter alphabet.
    a = ("0", "1")
    action = relational_action(a)
    x = FinSet.of({"p": "v"})
    y = FinSet.of({"q": "v"})
    vec_x = [Vec({"p": t}) for t in a]
    vec_y = [Vec({"q": t}) for t in a]
    for bits_x in range(4):
        for bits_y in range(4):
            u = frozenset(v for k, v in enumerate(vec_x) if bits_x >> k & 1)
            v = frozenset(w for k, w in enumerate(vec_y) if bits_y >> k & 1)
            out = action.apply(u_two_cell(x, y), (Relation(x, u), Relation(y, v)))
            expected = frozenset(a.merged(b) for a in u for b in v)
            assert out.vectors == expected


def test_loop_filters_equal_entries():
    action = relational_action(("0", "1"))
    x = FinSet.of({"p": "v", "q": "v", "r": "v"})
    rel = Relation(
        x,
        frozenset(
            {
                Vec({"p": "0", "q": "0", "r": "1"}),
                Vec({"p": "0", "q": "1", "r": "1"}),
            }
        ),
    )
    out = action.apply(u_loop(x, "p", "q"), (rel,))
    assert out.vectors == frozenset({Vec({"r": "1"})})


def test_split_duplicates_entries():
    action = relational_action(("0", "1"))
    x = FinSet.of({"p": "v", "q": "v"})
    merged = x.quotient(["p", "q"])
    rel = Relation(merged, frozenset({Vec({"p": "0"})}))
    out = action.apply(u_split(x, "p", "q"), (rel,))
    assert out.vectors == frozenset({Vec({"p": "0", "q": "0"})})


ALPHABETS = {"a": ("0", "1"), "b": ("x", "y", "z")}


@pytest.mark.parametrize("rel_id", U_RELATION_IDS)
def test_axiom_squares_by_set_equality(rel_id):
    rng = random.Random(hash(rel_id) % 104_729)
    action = typed_relational_action(ALPHABETS)
    for _ in range(5):
        params = random_relation_params_u(rel_id, rng)
        lhs, rhs = elementary_relation_u(rel_id, params)
        diagram = eval_simplex_u(lhs)
        inputs = tuple(
            random_relation(box, ALPHABETS, rng) for box in diagram.input_boxes
        )
        left = eval_structure_map(action, lhs, inputs)
        right = eval_structure_map(action, rhs, inputs)
        assert left == right, rel_id


def test_presentation_independence_via_stratification():
    rng = random.Random(70)
    from wiring_operads.simplex import Leaf, Node
    from wiring_operads.uwd import random_uwd
    from wiring_operads.uwd_presentation import empty_cell

    action = typed_relational_action(ALPHABETS)
    done = 0
    while done < 10:
        uwd = random_uwd(rng, max_wires=2)
        simplex = stratify_u(uwd).to_simplex()
        wrapped = Node(
            Node(Leaf(u_two_cell(uwd.output_box, FinSet(()))), 2, Leaf(empty_cell())),
            1,
            simplex,
        )
        inputs = tuple(random_relation(box, ALPHABETS, rng) for box in uwd.input_boxes)
        assert eval_structure_map(action, simplex, inputs) == eval_structure_map(
            action, wrapped, inputs
        )
        done += 1


def test_rigidity_counterexample_zero_one_to_point():
    # Collapsing {0,1} to a point: the loop square fails because the
    # filtered image is empty on one side and a singleton on the other.
    action01 = relational_action(("0", "1"))
    wires = FinSet.of({"e0": "v", "e1": "v"})
    ident = Relation(wires, frozenset({Vec({"e0": "0", "e1": "1"})}))
    f = {"0": "*", "1": "*"}
    point_action = relational_action(("*",))
    loop = u_loop(wires, "e0", "e1")
    lhs = push_forward(f, action01.apply(loop, (ident,)))
    rhs = point_action.apply(loop, (push_forward(f, ident),))
    assert lhs.vectors == frozenset()
    assert len(rhs.vectors) == 1
    assert not rigidity_check(f, ("0", "1"), ("*",))


def test_rigidity_check_matches_bijectivity_exhaustively():
    # All functions between sets of size <= 3.
    for n in range(1, 4):
        for m in range(1, 4):
            source = tuple(str(k) for k in range(n))
            target = tuple(chr(ord("a") + k) for k in range(m))
            for images in itertools.product(target, repeat=n):
                f = dict(zip(source, images))
                assert rigidity_check(f, source, target) == is_bijection(f, target)


def test_full_relation_size():
    wires = FinSet.of({"p": "a", "q": "b"})
    assert len(full_relation(wires, ALPHABETS).vectors) == 6


def test_vec_equality_compares_keys_and_values():
    v = Vec({"p": "0", "q": "1"})
    assert v == Vec(q="1", p="0")
    assert v == {"p": "0", "q": "1"} and {"q": "1", "p": "0"} == v
    assert v != Vec({"p": "0", "r": "1"})
    assert v != Vec({"p": "0", "q": "0"})
    assert v != Vec({"p": "0"})
    assert v != {"p": "0", "q": "1", "r": "2"}
    assert v != ("p", "q")


def test_explicit_vectors_must_be_total_on_the_wires():
    wires = FinSet.of({"p": "a", "q": "a"})
    Relation.of(wires, [{"p": "0", "q": "1"}])
    with pytest.raises(ValueError):
        Relation.of(wires, [{"p": "0"}])
    with pytest.raises(ValueError):
        Relation.of(wires, [{"p": "0", "q": "1", "r": "0"}])


# The fold's alphabets: one ordinary set, and one with an empty alphabet.
# Two letters each keep the eager oracle's products small.
FOLD_ALPHABETS = ({"a": ("0", "1"), "b": ("x", "y")}, {"a": ("0", "1"), "b": ()})
# Leaf rows may hold "2" and "w", which lie outside every fold alphabet.
LEAF_ALPHABETS = {"a": ("0", "1", "2"), "b": ("x", "w")}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), alphabets=st.sampled_from(FOLD_ALPHABETS))
def test_deferred_fold_equals_eager_fold(seed, alphabets):
    rng = random.Random(seed)
    uwd = random_uwd(rng, max_boxes=3, max_wires=2)
    simplex = stratify_u(uwd).to_simplex()
    leaves = tuple(random_relation(box, LEAF_ALPHABETS, rng) for box in uwd.input_boxes)
    deferred = eval_structure_map(typed_relational_action(alphabets), simplex, leaves)
    eager = eval_structure_map(eager_relational_action(alphabets), simplex, leaves)
    # Hash before any read of the rows, so it is the deferred form that hashes.
    assert hash(deferred) == hash(eager)
    assert deferred == eager
    assert deferred.wires == uwd.output_box
    twin = Relation(deferred.wires, deferred.vectors)
    assert twin == deferred and hash(twin) == hash(deferred)


def _query_uwd(atoms, head, idle_value):
    """A conjunctive query as an undirected diagram: one binary box per
    atom, one cable per variable, the head soldered to the output box,
    plus an output-only cable ``free`` and a wasted cable ``idle``."""
    variables = sorted({x for atom in atoms for x in atom} | set(head.values()))
    cables = {x: "v" for x in variables} | {"free": "v", "idle": idle_value}
    boxes = [FinSet.of({"s": "v", "t": "v"}) for _ in atoms]
    in_solder = {
        (i, w): x for i, atom in enumerate(atoms, start=1) for w, x in zip(("s", "t"), atom)
    }
    out_box = FinSet.of({w: "v" for w in head} | {"free": "v"})
    out_solder = dict(head) | {"free": "free"}
    return make_uwd(boxes, out_box, FinSet.of(cables), in_solder, out_solder)


def _nested_loop_join(atoms, head, rows, alphabets, idle_value):
    """Every assignment of every cable, ``free`` and ``idle`` included,
    kept when each atom holds its pair and read off the head."""
    variables = sorted({x for atom in atoms for x in atom} | set(head.values()))
    letters = [alphabets["v"]] * (len(variables) + 1) + [alphabets[idle_value]]
    answers = set()
    for combo in itertools.product(*letters):
        value = dict(zip(variables + ["free", "idle"], combo))
        if all((value[x], value[y]) in r for (x, y), r in zip(atoms, rows)):
            row = {w: value[x] for w, x in head.items()} | {"free": value["free"]}
            answers.add(tuple(sorted(row.items())))
    return answers


PATH5 = ([("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")],
         {"first": "x0", "last": "x5"})
CYCLE6 = ([(f"y{k}", f"y{(k + 1) % 6}") for k in range(6)], {"top": "y0", "mid": "y3"})


@pytest.mark.parametrize("query", [PATH5, CYCLE6], ids=["path5", "cycle6"])
@pytest.mark.parametrize("idle", [("p", "q"), ()], ids=["idle", "idle_empty"])
def test_query_answers_match_a_nested_loop_join(query, idle):
    atoms, head = query
    alphabets = {"v": ("0", "1", "2", "3"), "u": idle}
    rng = random.Random(len(atoms))
    pairs = list(itertools.product(alphabets["v"], repeat=2))
    rows = [{p for p in pairs if rng.random() < 0.4} for _ in atoms]
    uwd = _query_uwd(atoms, head, "u")
    leaves = [
        Relation.of(box, [{"s": a, "t": b} for a, b in r]) for box, r in zip(uwd.input_boxes, rows)
    ]
    answer = eval_structure_map(
        typed_relational_action(alphabets), stratify_u(uwd).to_simplex(), leaves
    )
    got = {tuple(sorted(v.items())) for v in answer.vectors}
    expected = _nested_loop_join(atoms, head, rows, alphabets, "u")
    assert got == expected
    assert bool(got) == bool(idle)
