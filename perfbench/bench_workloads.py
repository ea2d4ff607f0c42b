"""The four workloads: a seeded job list per pass, the timed job, its check.

A workload draws one pass of job specs from ``random.Random`` (plain data,
untimed), builds the package inputs for them in set-up, runs each job under
the timer and checks its output afterwards.  Every pass has the same size
classes and job counts; only the seeded wiring, names, tables and streams
change, so no input repeats within a run.
"""
from __future__ import annotations

from dataclasses import dataclass

from wiring_operads import Box, FinSet, gamma, make_wd
from wiring_operads.algebras.actions import eval_structure_map
from wiring_operads.algebras.discrete import DiscreteSystem, discrete_systems_action, simulate
from wiring_operads.algebras.propagator import PointedSet, Propagator, propagator_action
from wiring_operads.algebras.relational import Relation, typed_relational_action
from wiring_operads.algebras.vectors import Vec
from wiring_operads.maps import rho
from wiring_operads.uwd import gamma_u, make_uwd
from wiring_operads.uwd_presentation import stratify_u
from wiring_operads.wd import equivalent
from wiring_operads.wd_presentation import eval_simplex, stratify

import bench_gen as gen
import bench_refs as refs
from bench_spans import traced_action


@dataclass
class Job:
    cls: str  # size class
    spec: object  # the benchmark's plain-data spec, read by the check
    inputs: tuple  # package objects built in set-up


def _wd(boxes, out, delays, supplier):
    return make_wd(
        [Box.of(dict(ins), dict(outs)) for ins, outs in boxes],
        Box.of(dict(out[0]), dict(out[1])),
        FinSet.of(dict(delays)),
        supplier,
    )


def _spec_wd(spec: gen.DirectedSpec):
    return _wd(spec.boxes, (spec.gins, spec.gouts), spec.delays, spec.supplier)


def _stratify(wd):
    return stratify(wd).to_simplex()


def _stratify_u(uwd):
    return stratify_u(uwd).to_simplex()


class Workload:
    """One workload: ``plan`` draws a pass, ``build`` makes its inputs,
    ``run`` is the timed job and ``check`` compares with the references."""

    name = ""
    classes: tuple = ()  # (class name, jobs per pass, shape parameters)

    def plan(self, rng) -> list:
        """[(class name, spec)] for one pass, in a seeded random order so
        that every size class is timed across the whole pass."""
        jobs = [(cls, self.draw(rng, cls, **shape)) for cls, shape in self.slots()]
        rng.shuffle(jobs)
        return jobs

    def slots(self) -> list:
        return [(cls, shape) for cls, count, shape in self.classes for _ in range(count)]

    def warm_up_spec(self, rng):
        cls, shape = self.slots()[0]
        return cls, self.draw(rng, cls, **shape)

    def action(self, tracer):
        raise NotImplementedError

    def draw(self, rng, cls, **shape):
        raise NotImplementedError

    def build(self, cls, spec) -> Job:
        raise NotImplementedError

    def run(self, job: Job, action, tracer):
        raise NotImplementedError

    def check(self, job: Job, output) -> None:
        raise NotImplementedError


# -- wd_roundtrip -----------------------------------------------------------


class WDRoundTrip(Workload):
    """gamma, stratify, eval_simplex, equivalent and rho; no algebra."""

    name = "wd_roundtrip"
    classes = (
        ("w10", 16, dict(boxes=2, ins=2, outs=2, gin=2, gout=2, delays=1, idle=0, groups=2, gin_reads=2)),
        ("w10_idle7", 1, dict(boxes=2, ins=2, outs=2, gin=2, gout=2, delays=1, idle=7, groups=2, gin_reads=2)),
        ("w40", 8, dict(boxes=6, ins=4, outs=3, gin=4, gout=4, delays=4, idle=2, groups=3, gin_reads=6)),
        ("w100", 3, dict(boxes=14, ins=6, outs=3, gin=6, gout=6, delays=8, idle=0, groups=4, gin_reads=14)),
        ("w200", 2, dict(boxes=30, ins=6, outs=4, gin=8, gout=8, delays=12, idle=0, groups=5, gin_reads=30)),
    )

    def draw(self, rng, cls, boxes, ins, outs, gin, gout, delays, idle, groups, gin_reads):
        spec = gen.directed_spec(
            rng, [ins] * boxes, [outs] * boxes, gin, gout, delays, idle, gin_reads
        )
        sizes = [boxes // groups] * groups
        sizes[-1] += boxes - sum(sizes)
        return spec, gen.cut_directed(rng, spec, sizes)

    def action(self, tr):
        return None  # no algebra runs here

    def build(self, cls, spec) -> Job:
        _, cut = spec
        return Job(cls, spec, (_wd(*cut.outer), [_wd(*p) for p in cut.parts]))

    def run(self, job, action, tr):
        phi, parts = job.inputs
        comp = tr.call("wd.gamma", gamma, phi, parts)
        simplex = tr.call("wd_presentation.stratify", _stratify, comp)
        back = tr.call("wd_presentation.eval_simplex", eval_simplex, simplex)
        same = tr.call("wd.equivalent", equivalent, back, comp)
        cables = tr.call("maps.rho", rho, comp)
        if tr.enabled:
            tr.count("wd.wires", len(comp.supplier))
            tr.count("wd.delay_nodes", len(comp.delay_nodes))
            tr.count("wd_presentation.leaves", sum(refs.leaf_census(simplex).values()))
        return comp, simplex, back, same, cables

    def check(self, job, output) -> None:
        spec, _ = job.spec
        comp, simplex, back, same, cables = output
        phi, parts = job.inputs
        refs.check_same_diagram(comp, spec)
        refs.check_leaves(refs.leaf_census(simplex), len(spec.boxes), len(spec.delays))
        refs.check_round_trip(back, spec, same)
        expected = refs.spec_partition(spec)
        refs.check_partition(cables, expected, "rho(gamma(phi, parts))")
        square = gamma_u(rho(phi), [rho(p) for p in parts])
        refs.check_partition(square, expected, "gamma_u(rho(phi), rho(parts))")


# -- uwd_query ----------------------------------------------------------------


class UWDQuery(Workload):
    """Conjunctive queries: gamma_u, stratify_u, the relational fold."""

    name = "uwd_query"
    classes = (
        ("atoms2", 9, dict(atoms=2)),
        ("atoms3", 6, dict(atoms=3)),
        ("atoms4", 3, dict(atoms=4)),
        ("atoms5", 3, dict(atoms=5)),
        ("atoms6", 3, dict(atoms=6)),
    )
    shapes = ("path", "star", "cycle")

    def slots(self) -> list:
        return [
            (cls, dict(shape, shape=self.shapes[k % len(self.shapes)]))
            for cls, count, shape in self.classes
            for k in range(count)
        ]

    def draw(self, rng, cls, shape, atoms):
        return gen.query_spec(rng, shape, atoms, sizes=(3, 2))

    def action(self, tr):
        action = typed_relational_action(gen.ALPHABETS)
        if not tr.enabled:
            return action

        def counted(kind, rel):
            tr.count("relational.rows_built", len(rel.vectors))
            tr.peak("relational.peak_rows", len(rel.vectors))
            return rel

        groups = {"u_two_cell": "two_cell", "u_loop": "loop", "u_split": "split"}
        return traced_action(action, tr, "relational", groups, counted)

    def build(self, cls, spec) -> Job:
        outer, pieces = gen.query_pieces(spec)

        def uwd(boxes, out, cables, in_solder, out_solder):
            return make_uwd(
                [FinSet.of(dict(b)) for b in boxes],
                FinSet.of(dict(out)),
                FinSet.of(dict(cables)),
                in_solder,
                out_solder,
            )

        relations = []
        for k, rows in enumerate(spec.rows):
            wires = gen.atom_wires(spec, k)
            box = FinSet.of({w: spec.variables[v] for w, v in wires})
            names = [w for w, _ in wires]
            relations.append(Relation(box, frozenset(Vec(dict(zip(names, r))) for r in rows)))
        return Job(cls, spec, (uwd(*outer), [uwd(*p) for p in pieces], relations))

    def run(self, job, action, tr):
        outer, pieces, relations = job.inputs
        query = tr.call("uwd.gamma_u", gamma_u, outer, pieces)
        simplex = tr.call("uwd_presentation.stratify_u", _stratify_u, query)
        answer = tr.call("actions.eval_structure_map", eval_structure_map, action, simplex, relations)
        if tr.enabled:
            tr.count("relational.answer_rows", len(answer.vectors))
        return query, answer

    def check(self, job, output) -> None:
        query, answer = output
        refs.check_partition(query, refs.query_partition(job.spec), "gamma_u(outer, pieces)")
        refs.check_answer(answer, job.spec, refs.join(job.spec))


# -- propagator_stream --------------------------------------------------------


POINTED = {v: PointedSet(letters, letters[0]) for v, letters in gen.ALPHABETS.items()}
BASE = {v: p.base for v, p in POINTED.items()}


class StepCounter:
    """Counts calls into the benchmark-owned leaf step functions."""

    def __init__(self):
        self.calls = 0


def leaf_propagator(ins, outs, salt, counter: StepCounter) -> Propagator:
    def step(profile):
        counter.calls += 1
        return Vec(gen.leaf_outputs(salt, ins, outs, len(profile), profile[-1] if profile else None))

    return Propagator(Box.of(dict(ins), dict(outs)), step)


def shared_delay_sources(spec) -> int:
    """Global outputs whose supplier also feeds a delay node."""
    delay_sources = {sp for (kind, *_), sp in spec.supplier.items() if kind == "dn"}
    return sum(1 for (kind, *_), sp in spec.supplier.items() if kind == "gout" and sp in delay_sources)


class PropagatorStream(Workload):
    """Lazy propagators over loops and delay nodes, run over a horizon."""

    name = "propagator_stream"
    shape = dict(ins=[2, 2, 1], outs=[2, 1, 2], gin=2, gout=2, delays=2, gin_reads=2)
    classes = (
        ("h4", 8, dict(horizon=4)),
        ("h8", 4, dict(horizon=8)),
        ("h16", 2, dict(horizon=16)),
        ("h24", 2, dict(horizon=24)),
    )

    def __init__(self):
        self.counter = StepCounter()

    def draw(self, rng, cls, horizon):
        # The package's leaf calls grow with the number of global outputs
        # that read a box output a delay node also reads (165, 195 and 225
        # calls at horizon 4 for 0, 1 and 2 of them).  Draws with 0 and 1
        # are about equally likely, and a class mixing them has a median
        # that jumps between the two modes, so every job keeps exactly 1.
        s = self.shape
        while True:
            spec = gen.directed_spec(
                rng, s["ins"], s["outs"], s["gin"], s["gout"], s["delays"], gin_reads=s["gin_reads"]
            )
            if shared_delay_sources(spec) == 1:
                break
        salts = [rng.randrange(1000) for _ in spec.boxes]
        return spec, salts, gen.stream(rng, spec.gins, horizon)

    def action(self, tr):
        action = propagator_action(POINTED)
        if not tr.enabled:
            return action
        groups = {"two_cell": "two_cell", "one_loop": "loop", "name_change": "name_change"}

        def stepped(kind, g):
            span = f"propagator.{groups.get(kind, 'other')}"
            loop = kind == "one_loop"
            inner = g.step

            def step(profile):
                if loop:
                    tr.count("propagator.loop_steps")
                return tr.call(span, inner, profile)

            return Propagator(g.box, step)

        return traced_action(action, tr, "propagator_build", {}, stepped)

    def build(self, cls, spec) -> Job:
        d, salts, profile = spec
        leaves = [
            leaf_propagator(ins, outs, salt, self.counter)
            for (ins, outs), salt in zip(d.boxes, salts)
        ]
        return Job(cls, spec, (_spec_wd(d), leaves, tuple(Vec(e) for e in profile)))

    def run(self, job, action, tr):
        diagram, leaves, profile = job.inputs
        if tr.enabled:
            leaves = [Propagator(p.box, _traced_leaf(tr, p.step)) for p in leaves]
        before = self.counter.calls
        simplex = tr.call("wd_presentation.stratify", _stratify, diagram)
        g = tr.call("actions.eval_structure_map", eval_structure_map, action, simplex, leaves)
        out = tr.call("propagator.run", g, profile)
        if tr.enabled:
            tr.count("propagator.leaf_steps", self.counter.calls - before)
            tr.count("propagator.useful_steps", len(leaves) * (len(profile) + 1))
        return out

    def check(self, job, output) -> None:
        d, salts, profile = job.spec
        refs.check_profile(output, refs.simulate_propagators(d, salts, profile, BASE))


def _traced_leaf(tr, step):
    def traced(profile):
        return tr.call("propagator.leaf", step, profile)

    return traced


# -- moore_tables ---------------------------------------------------------------


class MooreTables(Workload):
    """Discrete systems: eager composite tables, then a simulated stream."""

    name = "moore_tables"
    classes = (
        ("boxes2", 8, dict(ins=[1, 2], outs=[1, 1], gin=1, gout=2, gin_reads=2, states=[2, 2])),
        ("boxes3", 4, dict(ins=[1, 2, 1], outs=[1, 1, 1], gin=2, gout=3, gin_reads=3, states=[2, 3, 2])),
        ("boxes4", 4, dict(ins=[1, 1, 1, 1], outs=[1, 1, 1, 1], gin=1, gout=3, gin_reads=2, states=[2, 2, 3, 2])),
        ("boxes5", 3, dict(ins=[1, 1, 2, 1, 1], outs=[1, 1, 1, 1, 1], gin=2, gout=4, gin_reads=3, states=[2, 2, 2, 2, 2])),
    )
    stream_length = 32

    def draw(self, rng, cls, ins, outs, gin, gout, gin_reads, states):
        spec = gen.directed_spec(rng, ins, outs, gin, gout, gin_reads=gin_reads, values=("a",))
        machines = [
            gen.leaf_machine(rng, b_ins, b_outs, n)
            for (b_ins, b_outs), n in zip(spec.boxes, states)
        ]
        return spec, machines, gen.stream(rng, spec.gins, self.stream_length)

    def action(self, tr):
        action = discrete_systems_action(gen.ALPHABETS)
        if not tr.enabled:
            return action

        def counted(kind, ds):
            tr.count("discrete.entries_built", len(ds.update))
            tr.peak("discrete.peak_entries", len(ds.update))
            return ds

        groups = {"two_cell": "two_cell", "one_loop": "loop", "in_split": "split", "out_split": "split"}
        return traced_action(action, tr, "discrete", groups, counted)

    def build(self, cls, spec) -> Job:
        d, machines, inputs = spec
        leaves = []
        for (ins, outs), m in zip(d.boxes, machines):
            in_names = [w for w, _ in ins]
            out_names = [w for w, _ in outs]
            leaves.append(
                DiscreteSystem.make(
                    Box.of(dict(ins), dict(outs)),
                    m.states,
                    {s: dict(zip(out_names, r)) for s, r in m.readout.items()},
                    {(Vec(dict(zip(in_names, i))), s): t for (i, s), t in m.update.items()},
                )
            )
        return Job(cls, spec, (_spec_wd(d), leaves, [Vec(e) for e in inputs]))

    def run(self, job, action, tr):
        diagram, leaves, inputs = job.inputs
        simplex = tr.call("wd_presentation.stratify", _stratify, diagram)
        system = tr.call("actions.eval_structure_map", eval_structure_map, action, simplex, leaves)
        states, outputs = tr.call("discrete.simulate", simulate, system, inputs)
        if tr.enabled:
            tr.count("discrete.final_entries", len(system.update))
        return system, states, outputs

    def check(self, job, output) -> None:
        d, machines, inputs = job.spec
        system, states, outputs = output
        refs.check_trace(states, outputs, refs.simulate_moore(d, machines, inputs))
        refs.check_table_cover(system, d, machines)


WORKLOADS = {w.name: w for w in (WDRoundTrip, UWDQuery, PropagatorStream, MooreTables)}
