"""The ladder's decision ledger: every decision on 600 fixtures, kept in the repository.

The ladder is random_specs(60, (2, 20), (0, 4), seed, conditioning) at
seeds 1 and 7 and conditioning 1e2, 1e5, 1e6, 1e7 and 1e8.  For each
fixture, ladder_ledger.json holds its GroundTruth next to what
build_analysis decides: regularity, the IV and W chain dimensions, the
consistent dimension, the restricted map's bijectivity and the growth
route's k and confident flag.  It holds integers and booleans only, so
roundoff that moves no decision cannot move its bytes.  The test names each
moved fixture with its changed fields.  A change that moves a decision
rewrites the ledger, and its diff shows each moved fixture:

    PYTHONPATH=src python tests/test_ledger.py

Seeds 3 and 11 stay out of it, so that a change to a rank rule can still be
tried on ladder seeds it was not written against.
"""

from __future__ import annotations

import json
from pathlib import Path

from daepencil.analysis import build_analysis
from daepencil.chains import consistent_space
from daepencil.fixtures import generate
from daepencil.verification import random_specs

LEDGER = Path(__file__).with_name("ladder_ledger.json")
SEEDS = (1, 7)
LOG10_CONDITIONING = (2, 5, 6, 7, 8)


def _record(seed, exponent, i, spec):
    pencil, truth = generate(spec)
    a = build_analysis(pencil)
    record = {
        "ladder": [seed, exponent, i],
        "spec": [spec.n1, list(spec.nilpotent_blocks), spec.seed],
        "truth": [truth.kronecker_index, truth.growth_index, truth.consistent_dim],
        "regular": a.certificate.regular,
    }
    if a.certificate.regular:
        record.update(
            iv_dims=list(a.chain.dims),
            w_dims=a.nilpotency.diagnostics["kernel_dims"],
            consistent_dim=consistent_space(pencil, a.chain).dim,
            bijective=a.iso.bijective,
            growth=[a.growth.k, a.growth.confident],
        )
    return record


def ladder_ledger() -> list:
    """One record per ladder fixture, in ladder order."""
    return [
        _record(seed, exponent, i, spec)
        for seed in SEEDS
        for exponent in LOG10_CONDITIONING
        for i, spec in enumerate(random_specs(60, (2, 20), (0, 4), seed, 10.0**exponent))
    ]


def ledger_text(records) -> str:
    """The ledger file: one sorted-key JSON record per line."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def ledger_moves(records, committed, shown=20) -> str:
    """Each fixture whose record differs from the committed one of its ladder
    id, with its spec, truth and every changed field as old -> new; the first
    `shown` of them and a count of the rest.  Empty where none moved."""
    old = {tuple(r["ladder"]): r for r in committed}
    new = {tuple(r["ladder"]): r for r in records}
    moves = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, {}), new.get(key, {})
        changed = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
        if changed:
            r = b or a
            fields = ", ".join(f"{f} {a.get(f)} -> {b.get(f)}" for f in changed)
            moves.append(f"ladder {list(key)} spec {r['spec']} truth {r['truth']}: {fields}")
    if len(moves) > shown:
        moves[shown:] = [f"and {len(moves) - shown} more"]
    return "\n".join(moves)


def test_the_ledger_is_unchanged():
    records = ladder_ledger()
    text = LEDGER.read_text()
    moves = ledger_moves(records, json.loads(text))
    assert not moves, "moved fixtures:\n" + moves
    assert ledger_text(records) == text
    # the growth route is never confident and wrong; the chain and nilpotency
    # routes always say confident, so the equality above binds them
    for r in records:
        if r["regular"] and r["growth"][1]:
            assert r["growth"][0] == r["truth"][1], r["ladder"]


def test_a_moved_record_is_named_with_its_field():
    committed = json.loads(LEDGER.read_text())
    records = [dict(r) for r in committed]
    moved = next(r for r in records if r["regular"])
    moved["consistent_dim"] += 1
    moves = ledger_moves(records, committed)
    old = moved["consistent_dim"] - 1
    assert moves == (
        f"ladder {moved['ladder']} spec {moved['spec']} truth {moved['truth']}: "
        f"consistent_dim {old} -> {old + 1}"
    )
    assert ledger_moves(committed, committed) == ""
    # past 20 moves the listing ends in a count of the rest
    for r in records:
        r["regular"] = not r["regular"]
    lines = ledger_moves(records, committed).split("\n")
    assert len(lines) == 21 and lines[-1] == f"and {len(records) - 20} more"


if __name__ == "__main__":
    LEDGER.write_text(ledger_text(ladder_ledger()))
