"""The property suite behind `daepencil verify`: how much solver work it does,
and which rows fail under each planted fault."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import daepencil.laplace as laplace_mod
import daepencil.pencils as pencils_mod
import daepencil.solvers as solvers_mod
import daepencil.verification as verification_mod
from daepencil.analysis import build_analysis
from daepencil.chains import compute_chain, consistent_space
from daepencil.fixtures import FixtureSpec, generate
from daepencil.pencils import new_pencil
from daepencil.rng import make_rng
from daepencil.subspaces import Subspace, image, span
from daepencil.verification import (
    _chain_rows,
    _resolvent_identity_row,
    _Row,
    _subspace_laws_row,
    random_specs,
    run_suite,
)


def test_one_evolution_per_fixture_with_consistent_values(monkeypatch):
    """One solution block per fixture with a nonempty consistent space, and one
    oracle call per fixture with an inconsistent u0, which it rejects unevolved.

    The transform match takes the classical solution's transform in closed
    form and evolves nothing.  A per-column suite evolves m times for m
    consistent basis vectors.
    """
    specs = random_specs(12, (2, 12), (0, 3), seed=5)
    solvable = inconsistent = 0
    for spec in specs:
        pencil, _ = generate(spec)
        dim = consistent_space(pencil, compute_chain(pencil)).dim
        solvable += dim > 0
        inconsistent += dim < pencil.n
    assert 0 < solvable < len(specs) and 0 < inconsistent

    calls, oracle_calls = [], []
    evolve, oracle = solvers_mod._evolve, verification_mod.decomposition_oracle

    def counted(M, C0, times):
        calls.append(C0.shape)
        return evolve(M, C0, times)

    def counted_oracle(pencil, u0, times):
        oracle_calls.append(u0.shape)
        return oracle(pencil, u0, times)

    monkeypatch.setattr(solvers_mod, "_evolve", counted)
    monkeypatch.setattr(verification_mod, "decomposition_oracle", counted_oracle)
    result = run_suite(specs, seed=5)
    assert result.passed
    assert len(calls) == solvable
    assert any(m > 1 for _, m in calls)
    assert len(oracle_calls) == inconsistent and all(len(shape) == 1 for shape in oracle_calls)


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


def test_identity_image_needs_no_norm():
    # ||I||_2 = 1 exactly, so the subspace_laws row passes the scale of I S
    rng = make_rng(2)
    for n in range(2, 9):
        S = span(list(rng.standard_normal((max(1, n // 2), n))))
        assert np.array_equal(image(np.eye(n), S, 1.0).basis, image(np.eye(n), S).basis)


def test_k5_fixture_skips_the_expansion_row():
    result = run_suite([FixtureSpec(1, (6,), seed=3)])
    row = {r.name: r for r in result.rows}["resolvent_expansion"]
    assert (row.checked, row.failures, row.passed) == (0, 0, True)
    assert row.note == "1 skipped: k too high for float64 at s >= 1e3"
    assert "(1 skipped: k too high for float64 at s >= 1e3)" in result.table()


def test_expansion_note_says_why_checks_failed():
    # a k = 5 fixture; two whose reduced generator is refused, at k = 0, where
    # the expansion needs none, and at k = 2 (fixture 52 of random_specs(60,
    # (2, 20), (0, 4), seed=1, conditioning=1e6)); and one whose grid point
    # stays singular (fixture 18 of the same draw at seed=7)
    specs = [
        FixtureSpec(1, (6,), seed=3),
        FixtureSpec(11, (3,), 1e6, 7769129907283941149),
        FixtureSpec(11, (3,), 1e6, 3180602004695187180),
        FixtureSpec(0, (2,), 1e6, 6105875996742672204),
    ]
    analyzed = [(spec, None, build_analysis(generate(spec)[0])) for spec in specs]
    row = verification_mod._identity_rows(analyzed)["expansion_e"]
    assert (row.checked, row.failures) == (3, 2)
    assert row.note == (
        "1 skipped: k too high for float64 at s >= 1e3; "
        "1 not evaluated: reduced generator refused; "
        "1 dropped a grid point singular after its nudges"
    )


def test_solver_and_transform_notes_count_refused_generators():
    # the two refused fixtures of test_expansion_note_says_why_checks_failed,
    # with 11 and 10 consistent columns, and a healthy one with 3
    specs = [
        FixtureSpec(11, (3,), 1e6, 7769129907283941149),
        FixtureSpec(11, (3,), 1e6, 3180602004695187180),
        FixtureSpec(3, (2,), seed=4),
    ]
    analyzed = [(spec, None, build_analysis(generate(spec)[0])) for spec in specs]
    transform = verification_mod._identity_rows(analyzed)["transform_match"]
    assert (transform.checked, transform.failures) == (3, 2)
    assert transform.note == "2 not evaluated: reduced generator refused"
    residual = verification_mod._solver_rows(analyzed)[0]
    assert residual.name == "classical_residual"
    assert (residual.checked, residual.failures) == (24, 21)
    assert residual.note == "21 not evaluated: reduced generator refused on 2 of 3 fixtures"


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
        analyzed.append((spec, truth, build_analysis(pencil)))
    row = _chain_rows(analyzed)[3]
    sigmas = [a.iso.sigma_min for _, _, a in analyzed if a.iso.sigma_min is not None]
    assert row.name == "restricted_iso"
    assert row.worst == min(sigmas) < max(sigmas)


def test_random_specs_cap_the_growth_index_at_n_minus_1():
    # a growth index k needs a nilpotent block of size k + 1
    capped = 0
    for n in range(2, 21):
        for asked in range(5):
            for seed in range(5):
                (spec,) = random_specs(1, (n, n), (asked, asked), seed)
                assert spec.dim == n
                assert generate(spec)[1].growth_index == min(asked, n - 1)
                capped += asked > n - 1
    assert capped == 30


# the planted-fault matrix: conditioning-100 fixtures, each with a nilpotent
# part, so every row runs on each of them
FAULT_SPECS = [
    FixtureSpec(3, (2,), 100.0, 5),
    FixtureSpec(2, (3,), 100.0, 12),
    FixtureSpec(4, (2, 1), 100.0, 1),
]


def _failing_rows():
    return {row.name for row in run_suite(FAULT_SPECS, seed=1).rows if not row.passed}


def test_fault_guard_fixtures_pass_unfaulted():
    assert _failing_rows() == set()


def _scaled_generator(build):
    # the oracle evolves by the same kept M, so only the residual can see this
    def scaled(chain):
        gen = build(chain)
        return replace(gen, M=gen.M * (1.0 + 1e-6))

    return scaled


def _kernel_part(change):
    """A W chain whose W* is change(pencil, W*)."""

    def planted(wong):
        def chain(pencil):
            *head, ker, last = wong(pencil)
            return (*head, Subspace(change(pencil, ker.basis), ker.tol), last)

        return chain

    return planted


def _one_more_vector(pencil, W):
    off = np.eye(pencil.n) - W @ W.conj().T
    w = off[:, np.argmax(np.linalg.norm(off, axis=0))]
    return np.column_stack([W, w / np.linalg.norm(w)])


def _scaled_solves(solve):
    return lambda *args, **kwargs: solve(*args, **kwargs) * (1.0 + 1e-7)


def _one_step_late(evolve):
    return lambda M, C0, times: evolve(M, C0, times - (times[1] - times[0]))


# fault -> ((module, name, wrapper of the real function), ...) and the rows it fails
PLANTED_FAULTS = {
    "scaled_generator": (
        ((solvers_mod, "_generator", _scaled_generator),),
        {"classical_residual"},
    ),
    "kernel_part_short_of_a_vector": (
        ((solvers_mod, "_wong_chain", _kernel_part(lambda pencil, W: W[:, 1:])),),
        {"inconsistency_detection"},
    ),
    "kernel_part_with_one_more_vector": (
        ((solvers_mod, "_wong_chain", _kernel_part(_one_more_vector)),),
        {"inconsistency_detection"},
    ),
    "scaled_shifted_solves": (
        (
            (pencils_mod, "_solve_shifted", _scaled_solves),
            (laplace_mod, "_solve_shifted", _scaled_solves),
        ),
        {"resolvent_shift", "solution_formula"},
    ),
    "evolution_one_step_late": (
        ((solvers_mod, "_evolve", _one_step_late),),
        {"initial_value"},
    ),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_fault_fails_its_rows(fault, monkeypatch):
    patches, rows = PLANTED_FAULTS[fault]
    for module, name, wrap in patches:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert _failing_rows() == rows
