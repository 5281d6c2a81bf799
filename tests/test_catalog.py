import pytest

from stuquandle import UnknownFixture
from stuquandle import formats
from stuquandle.catalog import (
    fixture, list_fixtures, payload_document, run_golden_sweep, verify_fixture)


REQUIRED = {
    "X1_ex63", "X2_ex63", "X_ex71", "X_ex72", "X_ex74",
    "unknot", "infinity_0_1_k_plus", "trefoil_2_1_k_minus",
    "K1_ex72", "K2_ex72",
    "rna_K1_ex74", "rna_K2_ex74",
}


def test_listing_contains_required_ids():
    ids = list_fixtures()
    assert ids
    assert "trefoil_2_1_k_minus" in ids
    assert "infinity_0_1_k_plus" in ids
    assert REQUIRED <= set(ids)


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixture):
        fixture("no_such_fixture")


def test_x74_payload_tables():
    X = fixture("X_ex74").payload
    assert X.star == ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3))
    assert X.r1 == ((0, 1, 2, 3), (3, 0, 1, 2), (2, 3, 0, 1), (1, 2, 3, 0))
    assert X.r2 == ((0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3), (3, 2, 1, 0))
    assert X.r3 == ((0, 2, 0, 2), (1, 3, 1, 3), (2, 0, 2, 0), (3, 1, 3, 1))
    assert X.r4 == ((0, 1, 2, 3), (2, 3, 0, 1), (0, 1, 2, 3), (2, 3, 0, 1))


def test_k1_expected_coloring_set():
    fx = fixture("K1_ex72")
    assert fx.expected["colorings:X_ex72"] == [
        [0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1],
    ]


def test_unknot_payload():
    fx = fixture("unknot")
    assert fx.payload["presentation"].generator_count == 1
    assert fx.payload["presentation"].relations == ()


def test_fixture_kinds():
    for fid in list_fixtures():
        assert fixture(fid).kind in ("stuquandle", "presentation", "arc_diagram")


def test_golden_sweep_passes(tmp_path):
    rows = run_golden_sweep(tmp_path)
    failures = [row for row in rows if not row[2]]
    assert not failures, failures
    assert len(rows) >= 30


def test_fixture_check_rewrites_target_files(tmp_path):
    # a stale X_ex71.json holding another structure must not be trusted
    formats.save_document(tmp_path / "X_ex71.json", payload_document(fixture("X2_ex63")))
    results = verify_fixture(fixture("unknot"), tmp_path)
    assert any(name == "phi:X_ex71" for name, _, _ in results)
    failures = [row for row in results if not row[1]]
    assert not failures, failures
