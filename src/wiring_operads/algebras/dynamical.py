"""The algebra of open dynamical systems over strict wiring diagrams.

State spaces are Euclidean: an element's state shape is a valued finite set
whose value tags are nonnegative integers naming the dimension of each
coordinate block.  The vector field maps (state, input assignment) to a
tangent assignment of the same shape; the readout maps states to output
assignments.  Both are opaque callables over dicts of numpy arrays, so
composed systems are compared pointwise at sampled states.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from wiring_operads.finset import EMPTY, FinSet, coproduct
from wiring_operads.algebras.actions import GeneratorAction, require_box
from wiring_operads.wd import Box, EMPTY_BOX

Arrays = Mapping[str, np.ndarray]


def wire_dim(tag: str) -> int:
    try:
        dim = int(tag)
    except ValueError:
        raise ValueError(f"value tag {tag!r} is not a dimension") from None
    if dim < 0:
        raise ValueError("dimensions must be nonnegative")
    return dim


@dataclass(frozen=True)
class EuclideanODS:
    box: Box
    state_shape: FinSet
    field: Callable[[Arrays, Arrays], Arrays]
    readout: Callable[[Arrays], Arrays]


def ods_action() -> GeneratorAction:
    """The four generating structure maps of the open-dynamical-systems
    algebra (strict generators only)."""

    def act_empty(gen) -> EuclideanODS:
        return EuclideanODS(
            EMPTY_BOX, EMPTY, lambda state, inp: {}, lambda state: {}
        )

    def act_name_change(gen, ods: EuclideanODS) -> EuclideanODS:
        source, target, f_in, f_out = gen.params
        require_box(ods, source)
        f_in, f_out = dict(f_in), dict(f_out)

        def field(state: Arrays, inp: Arrays) -> Arrays:
            return ods.field(state, {x: inp[f_in[x]] for x in source.inputs})

        def readout(state: Arrays) -> Arrays:
            val = ods.readout(state)
            return {y: val[f_out[y]] for y in target.outputs}

        return EuclideanODS(target, ods.state_shape, field, readout)

    def act_two_cell(gen, ox: EuclideanODS, oy: EuclideanODS) -> EuclideanODS:
        left, right = gen.params
        require_box(ox, left)
        require_box(oy, right)
        _, (in_l, in_r) = coproduct([left.inputs, right.inputs])
        _, (out_l, out_r) = coproduct([left.outputs, right.outputs])
        shape, (st_l, st_r) = coproduct([ox.state_shape, oy.state_shape])
        from wiring_operads.wd import box_coproduct

        def split_state(state: Arrays) -> tuple[dict, dict]:
            return (
                {m: state[st_l(m)] for m in ox.state_shape},
                {m: state[st_r(m)] for m in oy.state_shape},
            )

        def field(state: Arrays, inp: Arrays) -> Arrays:
            sx, sy = split_state(state)
            tx = ox.field(sx, {x: inp[in_l(x)] for x in left.inputs})
            ty = oy.field(sy, {y: inp[in_r(y)] for y in right.inputs})
            out = {st_l(m): tx[m] for m in ox.state_shape}
            out.update({st_r(m): ty[m] for m in oy.state_shape})
            return out

        def readout(state: Arrays) -> Arrays:
            sx, sy = split_state(state)
            rx, ry = ox.readout(sx), oy.readout(sy)
            out = {out_l(w): rx[w] for w in left.outputs}
            out.update({out_r(w): ry[w] for w in right.outputs})
            return out

        return EuclideanODS(box_coproduct([left, right]), shape, field, readout)

    def act_loop(gen, ods: EuclideanODS) -> EuclideanODS:
        box, x_plus, x_minus = gen.params
        require_box(ods, box)
        smaller = box.remove(inputs=[x_minus], outputs=[x_plus])

        def field(state: Arrays, inp: Arrays) -> Arrays:
            fed = dict(inp)
            fed[x_minus] = ods.readout(state)[x_plus]
            return ods.field(state, fed)

        def readout(state: Arrays) -> Arrays:
            val = dict(ods.readout(state))
            val.pop(x_plus)
            return val

        return EuclideanODS(smaller, ods.state_shape, field, readout)

    from wiring_operads.wd_presentation import EMPTY_WD, NAME_CHANGE, ONE_LOOP, TWO_CELL

    return GeneratorAction(
        {
            EMPTY_WD: act_empty,
            NAME_CHANGE: act_name_change,
            TWO_CELL: act_two_cell,
            ONE_LOOP: act_loop,
        }
    )


def sample_point(shape: FinSet, box: Box, rng) -> tuple[dict, dict]:
    """A deterministic pseudo-random (state, input) pair for comparisons."""
    state = {
        m: np.array([rng.uniform(-2.0, 2.0) for _ in range(wire_dim(shape.value(m)))])
        for m in shape
    }
    inp = {
        w: np.array([rng.uniform(-2.0, 2.0) for _ in range(wire_dim(box.inputs.value(w)))])
        for w in box.inputs
    }
    return state, inp


def ods_agree(
    a: EuclideanODS, b: EuclideanODS, rng, samples: int = 100, tol: float = 1e-12
) -> bool:
    """Pointwise agreement of field and readout at sampled points.

    The state shapes may differ by the renamings that composition introduces,
    so coordinates are matched positionally after sorting by name.
    """
    if a.box != b.box:
        return False
    if len(a.state_shape) != len(b.state_shape):
        return False
    names_a = sorted(a.state_shape)
    names_b = sorted(b.state_shape)
    if [a.state_shape.value(m) for m in names_a] != [
        b.state_shape.value(m) for m in names_b
    ]:
        return False
    rename = dict(zip(names_a, names_b))
    for _ in range(samples):
        state_a, inp = sample_point(a.state_shape, a.box, rng)
        state_b = {rename[m]: v for m, v in state_a.items()}
        fa, fb = a.field(state_a, inp), b.field(state_b, inp)
        for m in names_a:
            if not np.allclose(fa[m], fb[rename[m]], rtol=0.0, atol=tol):
                return False
        ra, rb = a.readout(state_a), b.readout(state_b)
        for w in a.box.outputs:
            if not np.allclose(ra[w], rb[w], rtol=0.0, atol=tol):
                return False
    return True


def random_linear_ods(box: Box, rng, max_state_blocks: int = 2) -> EuclideanODS:
    """A random linear system: dm/dt = A m + B u, readout C m."""
    tag = rng.randrange(10_000)
    shape = FinSet.of(
        {f"m{tag}b{k}": str(rng.randrange(1, 3)) for k in range(rng.randrange(1, max_state_blocks + 1))}
    )
    state_names = sorted(shape)
    state_dim = sum(wire_dim(shape.value(m)) for m in state_names)
    in_names = sorted(box.inputs)
    in_dim = sum(wire_dim(box.inputs.value(w)) for w in in_names)
    a_mat = np.array([[rng.uniform(-1, 1) for _ in range(state_dim)] for _ in range(state_dim)])
    b_mat = np.array([[rng.uniform(-1, 1) for _ in range(in_dim)] for _ in range(state_dim)])
    out_rows = {
        w: np.array(
            [[rng.uniform(-1, 1) for _ in range(state_dim)] for _ in range(wire_dim(box.outputs.value(w)))]
        )
        for w in box.outputs
    }

    def flatten(parts: Arrays, names, sizes) -> np.ndarray:
        if not names:
            return np.zeros(0)
        return np.concatenate([np.asarray(parts[n], dtype=float) for n in names])

    def unflatten(vec: np.ndarray, names, sizes) -> dict:
        out = {}
        at = 0
        for n, s in zip(names, sizes):
            out[n] = vec[at : at + s]
            at += s
        return out

    state_sizes = [wire_dim(shape.value(m)) for m in state_names]
    in_sizes = [wire_dim(box.inputs.value(w)) for w in in_names]

    def field(state: Arrays, inp: Arrays) -> Arrays:
        m = flatten(state, state_names, state_sizes)
        u = flatten(inp, in_names, in_sizes)
        return unflatten(a_mat @ m + (b_mat @ u if in_dim else 0.0), state_names, state_sizes)

    def readout(state: Arrays) -> Arrays:
        m = flatten(state, state_names, state_sizes)
        return {w: out_rows[w] @ m for w in box.outputs}

    return EuclideanODS(box, shape, field, readout)
