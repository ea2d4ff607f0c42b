"""The benchmark's reference checks accept the package's answers and reject
corrupted ones; the metric lists agree with BENCHMARK.json."""
from __future__ import annotations

import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_gen as gen  # noqa: E402
import bench_refs as refs  # noqa: E402
from bench_spans import NoTracer, Tracer  # noqa: E402
from bench_workloads import WORKLOADS, _spec_wd  # noqa: E402
from wiring_operads.algebras.relational import Relation  # noqa: E402
from wiring_operads.algebras.vectors import Vec  # noqa: E402
from wiring_operads.uwd import UndirectedWiringDiagram  # noqa: E402
from wiring_operads.wd import WiringDiagram  # noqa: E402


def run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_jobs(name: str, seed: int, classes: int = 2):
    """One built job from each of the ``classes`` smallest size classes."""
    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    wanted = [cls for cls, _, _ in workload.classes[:classes]]
    jobs = []
    for cls, shape in workload.slots():
        if cls in wanted:
            wanted.remove(cls)
            jobs.append(workload.build(cls, workload.draw(rng, cls, **shape)))
    return workload, jobs


def run_job(name: str, seed: int = 3):
    workload, jobs = first_jobs(name, seed, classes=1)
    tracer = NoTracer()
    return workload, jobs[0], workload.run(jobs[0], workload.action(tracer), tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_package_answers_pass_the_checks(name, seed):
    workload, jobs = first_jobs(name, seed)
    for job in jobs:
        tracer = NoTracer()
        workload.check(job, workload.run(job, workload.action(tracer), tracer))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_job_records_spans_and_passes(name):
    workload, jobs = first_jobs(name, 5, classes=1)
    tracer = Tracer()
    out = workload.run(jobs[0], workload.action(tracer), tracer)
    workload.check(jobs[0], out)
    assert len(tracer.start) > 0
    assert all(end >= start for start, end in zip(tracer.start, tracer.end))
    assert sum(tracer.self_times().values()) == pytest.approx(
        sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start)) if tracer.parent[i] < 0)
    )


# -- wd_roundtrip ------------------------------------------------------------


def with_supplier(wd, supplier):
    return WiringDiagram(wd.input_boxes, wd.output_box, wd.delay_nodes, supplier)


def swap_two_demands(supplier):
    """Exchange the suppliers of two demands that read different supplies."""
    items = sorted(supplier.items(), key=repr)
    for (d1, s1) in items:
        for (d2, s2) in items:
            if s1 != s2 and d1[0] == d2[0] == "bin" and "dn" not in (s1[0], s2[0]):
                out = dict(supplier)
                out[d1], out[d2] = s2, s1
                return out
    raise AssertionError("no two demands read different supplies")


def test_same_diagram_rejects_a_changed_supplier():
    _, job, (comp, *_rest) = run_job("wd_roundtrip")
    spec, _ = job.spec
    refs.check_same_diagram(comp, spec)
    with pytest.raises(refs.Mismatch):
        refs.check_same_diagram(with_supplier(comp, swap_two_demands(comp.supplier)), spec)


def test_round_trip_rejects_a_corrupted_diagram_and_a_wrong_verdict():
    _, job, (_, _, back, same, _) = run_job("wd_roundtrip")
    spec, _ = job.spec
    refs.check_round_trip(back, spec, same)
    with pytest.raises(refs.Mismatch):
        refs.check_round_trip(with_supplier(back, swap_two_demands(back.supplier)), spec, True)
    with pytest.raises(refs.Mismatch):
        refs.check_round_trip(back, spec, False)


def test_delay_matcher_handles_renaming_and_interchangeable_nodes():
    spec = gen.directed_spec(random.Random(7), [2, 2], [2, 2], 2, 2, n_delays=3, n_idle=7, gin_reads=2)
    names = [d for d, _ in spec.delays]
    rename = dict(zip(names, reversed(names)))

    def moved(addr):
        return ("dn", rename[addr[1]]) if addr[0] == "dn" else addr

    renamed = {moved(dm): moved(sp) for dm, sp in spec.supplier.items()}
    delays = dict(spec.delays)
    renamed_delays = {rename[d]: v for d, v in delays.items()}
    assert refs.match_delays(renamed, renamed_delays, spec.supplier, delays)
    broken = dict(renamed)
    gout = next(dm for dm in broken if dm[0] == "gout")
    other = next(sp for sp in sorted(set(broken.values())) if sp != broken[gout] and sp[0] == "bout")
    broken[gout] = other
    assert not refs.match_delays(broken, renamed_delays, spec.supplier, delays)


def test_leaf_counts_reject_a_missing_two_cell():
    _, job, (_, simplex, *_rest) = run_job("wd_roundtrip")
    spec, _ = job.spec
    census = refs.leaf_census(simplex)
    refs.check_leaves(census, len(spec.boxes), len(spec.delays))
    census["two_cell"] -= 1
    with pytest.raises(refs.Mismatch):
        refs.check_leaves(census, len(spec.boxes), len(spec.delays))


def merge_two_cables(uwd):
    """Move every end of one cable onto another cable of the same value."""
    values = dict(uwd.cables.pairs)
    used = set(uwd.input_solder.values())
    a, b = next(
        (a, b) for a in sorted(used) for b in sorted(values) if a != b and values[a] == values[b]
    )
    return UndirectedWiringDiagram(
        uwd.input_boxes,
        uwd.output_box,
        uwd.cables,
        {w: (b if c == a else c) for w, c in uwd.input_solder.items()},
        {y: (b if c == a else c) for y, c in uwd.output_solder.items()},
    )


def test_cable_partition_rejects_merged_cables():
    _, job, (_, _, _, _, cables) = run_job("wd_roundtrip")
    spec, _ = job.spec
    expected = refs.spec_partition(spec)
    refs.check_partition(cables, expected, "rho")
    with pytest.raises(refs.Mismatch):
        refs.check_partition(merge_two_cables(cables), expected, "rho")


# -- uwd_query -----------------------------------------------------------------


def test_join_rejects_a_missing_or_extra_answer_row():
    _, job, (query, answer) = run_job("uwd_query")
    expected = refs.join(job.spec)
    refs.check_answer(answer, job.spec, expected)
    refs.check_partition(query, refs.query_partition(job.spec), "query")
    fewer = Relation(answer.wires, frozenset(sorted(answer.vectors, key=repr)[1:]))
    with pytest.raises(refs.Mismatch):
        refs.check_answer(fewer, job.spec, expected)
    names = list(answer.wires)
    letters = [gen.ALPHABETS[answer.wires.value(w)] for w in names]
    every = {Vec(dict(zip(names, combo))) for combo in itertools.product(*letters)}
    extra = Relation(answer.wires, answer.vectors | {next(iter(every - set(answer.vectors)))})
    with pytest.raises(refs.Mismatch):
        refs.check_answer(extra, job.spec, expected)
    with pytest.raises(refs.Mismatch):
        refs.check_partition(merge_two_cables(query), refs.query_partition(job.spec), "query")


def test_join_by_hand():
    spec = gen.QuerySpec(
        variables={"x": "a", "y": "a", "z": "a", "vz": "a", "vf": "a"},
        atoms=[["x", "y"], ["y", "z"]],
        rows=[[(0, 1), (1, 2)], [(1, 0), (2, 2), (0, 0)]],
        head=[("q0", "x"), ("q1", "z"), ("qf", "vf")],
        idle="vz",
        free="vf",
        pieces=[(0, 1), (1, 2)],
    )
    assert refs.join(spec) == {(0, 0, f) for f in (0, 1, 2)} | {(1, 2, f) for f in (0, 1, 2)}


# -- propagator_stream -----------------------------------------------------------


def test_propagator_simulation_rejects_a_changed_entry():
    _, job, out = run_job("propagator_stream")
    d, salts, profile = job.spec
    expected = refs.simulate_propagators(d, salts, profile, {"a": 0, "b": 0})
    refs.check_profile(out, expected)
    entry = dict(out[-1])
    wire = next(iter(entry))
    letters = gen.ALPHABETS[next(v for y, v in d.gouts if y == wire)]
    entry[wire] = letters[(letters.index(entry[wire]) + 1) % len(letters)]
    with pytest.raises(refs.Mismatch):
        refs.check_profile(out[:-1] + (Vec(entry),), expected)
    with pytest.raises(refs.Mismatch):
        refs.check_profile(out[:-1], expected)


def test_propagator_simulation_by_hand():
    # One box reading the global input and feeding a delay node that is the
    # global output: the output is the base point, then the box's outputs.
    ins, outs = [("b1i0", "a")], [("b1o0", "a")]
    spec = gen.DirectedSpec(
        boxes=[(ins, outs)],
        gins=[("x0", "a")],
        gouts=[("y0", "a")],
        delays=[("d0", "a")],
        supplier={("bin", 1, "b1i0"): ("gin", "x0"), ("dn", "d0"): ("bout", 1, "b1o0"),
                  ("gout", "y0"): ("dn", "d0")},
    )
    profile = [{"x0": 2}, {"x0": 1}]
    got = [e["y0"] for e in refs.simulate_propagators(spec, [5], profile, {"a": 0})]
    box_in = [None] + [{"b1i0": entry["x0"]} for entry in profile]
    box = [gen.leaf_outputs(5, ins, outs, t, box_in[t])["b1o0"] for t in range(2)]
    assert got == [0] + box


# -- moore_tables ------------------------------------------------------------------


def test_moore_simulation_rejects_a_changed_state_or_output():
    _, job, (system, states, outputs) = run_job("moore_tables")
    d, machines, inputs = job.spec
    expected = refs.simulate_moore(d, machines, inputs)
    refs.check_trace(states, outputs, expected)
    bad_states = list(states)
    bad_states[-1] = next(s for s in system.states if s != states[-1])
    with pytest.raises(refs.Mismatch):
        refs.check_trace(bad_states, outputs, expected)
    with pytest.raises(refs.Mismatch):
        refs.check_trace(states, outputs[:-1], expected)


def test_table_cover_rejects_a_missing_or_stray_entry():
    _, job, (system, _, _) = run_job("moore_tables")
    d, machines, _ = job.spec
    refs.check_table_cover(system, d, machines)
    key = next(iter(system.update))
    missing = dict(system.update)
    del missing[key]
    with pytest.raises(refs.Mismatch):
        refs.check_table_cover(type(system)(system.box, system.states, system.readout, missing), d, machines)
    stray = dict(system.update)
    stray[key] = ("nowhere",)
    with pytest.raises(refs.Mismatch):
        refs.check_table_cover(type(system)(system.box, system.states, system.readout, stray), d, machines)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = run_module()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert bench["paths"] == ["perfbench"]
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_specs_depend_on_the_seed_only():
    for name, workload in WORKLOADS.items():
        a = repr(workload().plan(random.Random(11)))
        assert a == repr(workload().plan(random.Random(11)))
        assert a != repr(workload().plan(random.Random(12)))


def test_spec_wd_builds_the_spec():
    spec = gen.directed_spec(random.Random(2), [2, 1], [1, 2], 2, 2, n_delays=2, gin_reads=1)
    refs.check_same_diagram(_spec_wd(spec), spec)
