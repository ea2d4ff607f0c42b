"""Simplices: parenthesized words of generators with composition positions.

A simplex is a binary tree whose leaves are generators (directed or
undirected) and whose internal nodes record the slot of an operadic
composition.  A ``Perm`` node applies the symmetric-group action to the
subtree, which is how the commutativity relation for 2-cells is expressed.
Evaluation is deferred to the caller through an ``eval_leaf``/``comp``
pair so the same tree shape serves both operads and their algebras.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from wiring_operads.finset import Permutation


@dataclass(frozen=True)
class Leaf:
    generator: object


@dataclass(frozen=True)
class Node:
    left: "Simplex"
    pos: int
    right: "Simplex"


@dataclass(frozen=True)
class Perm:
    inner: "Simplex"
    sigma: Permutation


Simplex = Leaf | Node | Perm


def leaves(simplex: Simplex) -> list:
    if isinstance(simplex, Leaf):
        return [simplex.generator]
    if isinstance(simplex, Perm):
        return leaves(simplex.inner)
    return leaves(simplex.left) + leaves(simplex.right)


def arity(simplex: Simplex, leaf_arity: Callable[[object], int]) -> int:
    if isinstance(simplex, Leaf):
        return leaf_arity(simplex.generator)
    if isinstance(simplex, Perm):
        return arity(simplex.inner, leaf_arity)
    return arity(simplex.left, leaf_arity) + arity(simplex.right, leaf_arity) - 1


def evaluate(
    simplex: Simplex,
    eval_leaf: Callable[[object], object],
    comp: Callable[[object, int, object], object],
    permute: Callable[[object, Permutation], object],
) -> object:
    """Fold a simplex: leaves through eval_leaf, nodes through comp at pos."""
    if isinstance(simplex, Leaf):
        return eval_leaf(simplex.generator)
    if isinstance(simplex, Perm):
        return permute(evaluate(simplex.inner, eval_leaf, comp, permute), simplex.sigma)
    left = evaluate(simplex.left, eval_leaf, comp, permute)
    right = evaluate(simplex.right, eval_leaf, comp, permute)
    return comp(left, simplex.pos, right)


def chain(parts: Sequence[Simplex]) -> Simplex:
    """Left-nested composition of unary-shaped simplices at slot 1."""
    if not parts:
        raise ValueError("cannot chain zero simplices")
    out = parts[0]
    for part in parts[1:]:
        out = Node(out, 1, part)
    return out


def two_cell_tower(parts: Sequence, join: Callable, cell: Callable) -> list:
    """The 2-cells that assemble the boxes ``parts`` into their coproduct.

    The k-th 2-cell joins ``parts[k]`` to the coproduct of all later parts
    (built by ``join``), so nesting each 2-cell into slot 2 of the one
    before it has the coproduct of every part as its output box.
    """
    thetas = []
    right = parts[-1] if parts else None
    for k in reversed(range(len(parts) - 1)):
        thetas.append(cell(parts[k], right))
        if k:
            right = join(parts[k], right)
    thetas.reverse()
    return thetas


def tower_simplex(thetas: Sequence, nullary: Sequence) -> Simplex | None:
    """The simplex of a 2-cell tower whose last slots are filled by the
    nullary generators ``nullary``; None when both strings are empty."""
    if not thetas:
        return Leaf(nullary[0]) if nullary else None
    out: Simplex = Leaf(thetas[-1])
    for theta in reversed(thetas[:-1]):
        out = Node(Leaf(theta), 2, out)
    slot = len(thetas) + 2 - len(nullary)
    for g in nullary:
        out = Node(out, slot, Leaf(g))
    return out
