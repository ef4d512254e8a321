"""Tests of the benchmark itself: seeded jobs, checks and the tracer.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import anisocurve as ac  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_jobs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    a, b, c = make(7, tmp_path / "a"), make(7, tmp_path / "b"), make(8, tmp_path / "c")
    for batch in (0, 3):
        assert a.batch(batch) == b.batch(batch)
        assert a.batch(batch) != c.batch(batch)
    assert a.batch(0) != a.batch(1)


def test_fuzz_data_has_at_least_two_levels():
    rng = np.random.default_rng(0)
    for n in (32, 128, 1024):
        for _ in range(50):
            assert len(set(workloads._fuzz(rng, n))) >= 2


def _solved_job(tmp_path, slot):
    wl = workloads.EuclidSweep(0, tmp_path)
    job = wl.prepare(wl.batch(0))[slot]
    return wl, job, wl.run(job)


def test_checker_accepts_a_solved_job(tmp_path):
    wl, job, rep = _solved_job(tmp_path, 0)
    problems, fingerprint, _ = wl.check(job, rep)
    assert problems == []
    assert fingerprint == [rep.energy.total, rep.iterations]


def test_checker_fails_a_profile_shifted_above_the_datum(tmp_path):
    wl, job, rep = _solved_job(tmp_path, 0)
    shifted = ac.Profile(job["grid"], rep.profile.values + 0.01)
    bad = type(rep)(shifted, ac.energy(job["aniso"], shifted, job["g_nodes"], job["p"]),
                    rep.iterations, rep.converged, rep.final_stagnation,
                    rep.dual_feasibility_max_violation)
    problems, _, _ = wl.check(job, bad)
    assert any("maximum principle" in p for p in problems)
    assert any("above the closed form" in p for p in problems)


def test_checker_fails_a_rearrangement_that_loses_cells(tmp_path):
    wl = workloads.CliMix(0, tmp_path)
    job = next(j for j in wl.prepare(wl.batch(0)) if j["kind"] == "rearrange")
    assert wl.run(job) == 0
    problems, _, _ = wl.check(job, 0)
    assert problems == []
    path = Path(job["out"]) / "rearranged.raster"
    lines = path.read_text().splitlines()
    lines[-1] = " ".join("0" for _ in lines[-1].split())
    path.write_text("\n".join(lines) + "\n")
    problems, _, _ = wl.check(job, 0)
    assert "column counts not preserved" in problems


def test_wrappers_leave_results_unchanged(tmp_path):
    wl = workloads.AnisoSweep(0, tmp_path)
    jobs = wl.prepare(wl.batch(0))
    picked = [jobs[k] for k in (0, 7, 9)]
    plain = [wl.run(job) for job in picked]
    tracer = Tracer().install()
    try:
        traced = [wl.run(job) for job in picked]
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        assert a.iterations == b.iterations
        assert a.energy == b.energy
        assert np.array_equal(a.profile.values, b.profile.values)
    assert tracer.totals["solver.solve"][0] == len(picked)
    assert tracer.counters["solver.iterations"] == sum(r.iterations for r in plain)
    assert tracer.totals["anisotropy.project_wulff_many"][0] == tracer.counters["solver.iterations"]


def test_tracer_rebinds_every_lookup_and_restores_it():
    import anisocurve.cli
    import anisocurve.regularity

    originals = (ac.solve, ac.solver.solve, anisocurve.cli.solve,
                 anisocurve.regularity.solve, ac.Anisotropy.eval_many)
    tracer = Tracer().install()
    try:
        wrapped = (ac.solve, ac.solver.solve, anisocurve.cli.solve,
                   anisocurve.regularity.solve, ac.Anisotropy.eval_many)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert len({id(w) for w in wrapped[:4]}) == 1
    finally:
        tracer.uninstall()
    restored = (ac.solve, ac.solver.solve, anisocurve.cli.solve,
                anisocurve.regularity.solve, ac.Anisotropy.eval_many)
    assert restored == originals


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    wl = workloads.CliMix(0, tmp_path)
    job = next(j for j in wl.prepare(wl.batch(0)) if j["kind"] == "diagnose")
    tracer = Tracer().install()
    try:
        tracer.job = job["id"]
        assert wl.run(job) == 0
    finally:
        tracer.uninstall()
    spans = {s["id"]: s for s in tracer.spans}
    solves = [s for s in spans.values() if s["name"] == "solver.solve"]
    assert len(solves) == 4  # the base grid, then three refinement levels
    under_study = [s for s in solves if spans[s["parent"]]["name"] == "regularity.refinement_study"]
    assert len(under_study) == 3
    assert all(s["job"] == job["id"] for s in spans.values())
    for name, (calls, busy, self_s) in tracer.totals.items():
        assert 0.0 <= self_s <= busy + 1e-9, name


def test_checker_fails_a_threshold_report_with_a_wrong_alpha0(tmp_path):
    wl = workloads.CliMix(0, tmp_path)
    job = next(j for j in wl.prepare(wl.batch(0)) if j["kind"] == "threshold")
    assert wl.run(job) == 0
    problems, _, _ = wl.check(job, 0)
    assert problems == []
    path = Path(job["out"]) / "threshold.json"
    rep = json.loads(path.read_text())
    rep["alpha0"] *= 1.001
    path.write_text(json.dumps(rep))
    problems, _, _ = wl.check(job, 0)
    assert any(p.startswith("alpha0") for p in problems)
