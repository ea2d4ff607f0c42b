"""Algebras presented by generating structure maps.

An algebra over one of the four operads is specified by one executable map
per generator kind (8 for the full directed operad, 7 without delay nodes,
4 for the strict fragment, 6 for the undirected operad).  The structure map
of an arbitrary element is then computed along any simplex presenting it:
composition nodes substitute the inner result into the matching input slot,
and the symmetric action reorders the inputs.  Well-definedness across
presentations is exactly what the generating-relation axiom squares assert,
and the test suites check it rather than assume it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from wiring_operads.simplex import Leaf, Perm, Simplex, arity
from wiring_operads.uwd_presentation import generator_arity_u
from wiring_operads.wd_presentation import WDGenerator, generator_arity


class MissingActionError(KeyError):
    """A simplex leaf has no generating structure map in this algebra."""


@dataclass(frozen=True)
class GeneratorAction:
    """One executable map per generator kind.

    Each callable takes the generator (for its parameters) followed by one
    carrier element per input slot and returns one carrier element.
    """

    maps: Mapping[str, Callable]

    def apply(self, gen, inputs: Sequence):
        fn = self.maps.get(gen.kind)
        if fn is None:
            raise MissingActionError(
                f"no generating structure map for kind {gen.kind!r}"
            )
        return fn(gen, *inputs)


def require_box(element, box) -> None:
    """Reject a carrier element whose color is not ``box``."""
    if element.box != box:
        raise ValueError(f"element of color {element.box} supplied where {box} expected")


def _leaf_arity(gen) -> int:
    if isinstance(gen, WDGenerator):
        return generator_arity(gen)
    return generator_arity_u(gen)


def eval_structure_map(action: GeneratorAction, simplex: Simplex, inputs: Sequence):
    """Evaluate the structure map presented by ``simplex`` on ``inputs``.

    Inputs are matched positionally with the input boxes of the simplex's
    composition; the result is independent of the presentation whenever the
    action satisfies the generating axioms.
    """
    inputs = tuple(inputs)
    need = arity(simplex, _leaf_arity)
    if len(inputs) != need:
        raise ValueError(f"expected {need} inputs, got {len(inputs)}")

    def go(s: Simplex, args: tuple):
        if isinstance(s, Leaf):
            return action.apply(s.generator, args)
        if isinstance(s, Perm):
            return go(s.inner, tuple(s.sigma.inverse().apply(list(args))))
        k = arity(s.right, _leaf_arity)
        i = s.pos
        before, mid, after = args[: i - 1], args[i - 1 : i - 1 + k], args[i - 1 + k :]
        return go(s.left, before + (go(s.right, mid),) + after)

    return go(simplex, inputs)
