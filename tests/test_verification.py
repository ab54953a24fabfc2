"""The property suite behind `daepencil verify`: how much solver work it does."""

from types import SimpleNamespace

import numpy as np

import daepencil.solvers as solvers_mod
import daepencil.verification as verification_mod
from daepencil.analysis import build_analysis
from daepencil.chains import compute_chain, consistent_space
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import new_pencil
from daepencil.rng import make_rng
from daepencil.verification import (
    _chain_rows,
    _resolvent_identity_row,
    _Row,
    _subspace_laws_row,
    random_specs,
    run_suite,
)


def test_three_evolutions_per_fixture_with_consistent_values(monkeypatch):
    """One solution block and one oracle block per fixture.

    The transform match takes the classical solution's transform in closed
    form and evolves nothing.  A per-column suite evolves 2 m times for m
    consistent basis vectors.
    """
    specs = random_specs(12, (2, 12), (0, 3), seed=5)
    solvable = 0
    for spec in specs:
        pencil, _ = generate(spec)
        solvable += consistent_space(pencil, compute_chain(pencil)).dim > 0
    assert 0 < solvable < len(specs)

    calls = []
    evolve = solvers_mod._evolve

    def counted(M, C0, times):
        calls.append(C0.shape)
        return evolve(M, C0, times)

    monkeypatch.setattr(solvers_mod, "_evolve", counted)
    result = run_suite(specs, seed=5)
    assert result.passed
    assert len(calls) == 2 * solvable
    assert any(m > 1 for _, m in calls)


def test_a_nan_metric_is_the_worst_of_its_row():
    row = _Row("r")
    row.add(1e-12, True)
    row.add(np.array([np.nan, 1e-11]), np.array([False, True]))
    row.add(1e-10, True)
    done = row.done()
    assert np.isnan(done.worst)
    assert (done.checked, done.failures, done.passed) == (4, 1, False)


def test_subspace_laws_build_each_space_once(monkeypatch):
    """Per trial: M S, M^-1 S and I S, then M (M^-1 S) and M^-1 (M S).

    The Gram check and the two containment checks share M S and M^-1 S,
    so each of the 25 trials builds 3 images and 2 preimages.
    """
    calls = {"image": 0, "preimage": 0}

    def counted(name):
        build = getattr(verification_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verification_mod, name, counted(name))
    row = _subspace_laws_row(0)
    assert row.passed and row.checked == 25 * 4
    assert calls == {"image": 3 * 25, "preimage": 2 * 25}


def test_k5_fixture_skips_the_expansion_row():
    result = run_suite([FixtureSpec(1, (6,), seed=3)])
    row = {r.name: r for r in result.rows}["resolvent_expansion"]
    assert (row.checked, row.failures, row.passed) == (0, 0, True)
    assert row.note == "1 skipped: k too high for float64 at s >= 1e3"
    assert "(1 skipped: k too high for float64 at s >= 1e3)" in result.table()


def test_one_identity_battery_per_fixture(monkeypatch):
    """run_suite takes every Laplace check of a fixture from one identity_checks
    call, with u0 drawn from spec.seed + 2."""
    specs = random_specs(6, (2, 12), (0, 3), seed=5)
    calls = []
    battery = verification_mod.identity_checks

    def counted(a, seed):
        calls.append(seed)
        return battery(a, seed)

    monkeypatch.setattr(verification_mod, "identity_checks", counted)
    result = run_suite(specs, seed=5)
    assert calls == [spec.seed + 2 for spec in specs]
    names = [row.name for row in result.rows]
    assert names[2:5] == ["resolvent_commutation", "resolvent_shift", "solution_formula"]
    assert names[6] == "resolvent_expansion" and names[-1] == "transform_match"


def test_resolvent_identity_takes_its_gap_from_the_points_used():
    # a pole exactly on the first drawn s: the sample moves to 1.01 s, and
    # R(s) - R(t) = (t - s) R(s) E R(t) holds only with the moved s
    seed = 4
    s = make_rng(seed + 1).uniform(0.5, 50.0, size=(3, 2))[0, 0]
    pencil = new_pencil(np.eye(2), -s * np.eye(2))
    row = _resolvent_identity_row([(None, None, SimpleNamespace(pencil=pencil))], seed)
    assert row.passed and row.checked == 3


def test_restricted_iso_reports_its_smallest_sigma_min():
    # the row's worst map is the one nearest to losing bijectivity
    analyzed = []
    for spec in random_specs(20, (2, 20), (0, 4), seed=7):
        pencil, truth = generate(spec)
        analyzed.append((spec, truth, build_analysis(pencil, spec.seed)))
    row = _chain_rows(analyzed)[3]
    sigmas = [a.iso.sigma_min for _, _, a in analyzed if a.iso.sigma_min is not None]
    assert row.name == "restricted_iso"
    assert row.worst == min(sigmas) < max(sigmas)
