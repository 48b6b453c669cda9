"""Enumeration: completeness, filters, rendering, catalog persistence."""

import hashlib
import json
from collections import Counter
from math import inf, lcm

import pytest

from wfano import (
    CatalogError,
    CatalogMismatch,
    EnumerationQuery,
    EnumerationResult,
    WeightSystem,
    check_lemma_ineq,
    enumerate_bruteforce,
    enumerate_systems,
    enumeration,
    load_catalog,
    render_table,
    save_catalog,
)

SURFACES = {
    WeightSystem((1, 1, 1, 1), 3),
    WeightSystem((1, 1, 1, 2), 4),
    WeightSystem((1, 1, 2, 3), 6),
    WeightSystem((3, 3, 5, 5), 15),
}


def test_surface_catalog_exact(surface_catalog):
    assert set(surface_catalog.systems) == SURFACES
    assert surface_catalog.complete


def test_threefold_catalog_size_and_members(threefold_catalog):
    assert len(threefold_catalog.systems) == 30
    assert WeightSystem((1, 1, 6, 14, 21), 42) in threefold_catalog.systems
    assert WeightSystem((5, 5, 18, 18, 45), 90) in threefold_catalog.systems
    assert threefold_catalog.complete


def test_catalog_sorted_unique_with_invariants(surface_catalog, threefold_catalog):
    for result in (surface_catalog, threefold_catalog):
        systems = list(result.systems)
        assert systems == sorted(set(systems))
        for ws in systems:
            assert ws.index == 1
            assert ws.divisible
            assert ws.well_formed
            assert not ws.is_linear_cone


def test_dmax_truncation():
    truncated = enumerate_systems(EnumerationQuery(num_weights=4, index=1, d_max=10))
    assert set(truncated.systems) == {ws for ws in SURFACES if ws.degree <= 10}
    assert not truncated.complete

    full = enumerate_systems(EnumerationQuery(num_weights=4, index=1, d_max=15))
    assert set(full.systems) == SURFACES
    # a d_max is still a truncation promise, even when nothing was cut
    assert not full.complete


def test_index_above_one_requires_dmax():
    with pytest.raises(ValueError, match="d_max"):
        enumerate_systems(EnumerationQuery(num_weights=4, index=2))


# (num_weights, index, d_max, count) slices checked against the brute-force oracle
BRUTEFORCE_SLICES = [
    (4, 2, 12, 9),
    (4, 2, 60, 34),
    (5, 2, 40, 58),
    (6, 2, 24, 54),
    (4, 3, 60, 14),
    (5, 3, 40, 36),
    (6, 3, 24, 46),
    (4, 4, 60, 14),
    (5, 4, 40, 48),
    (6, 4, 24, 57),
    (5, 5, 40, 24),
    (6, 5, 24, 41),
]


@pytest.mark.parametrize("num_weights, index, d_max, count", BRUTEFORCE_SLICES)
def test_index_two_matches_bruteforce(num_weights, index, d_max, count):
    bounded = enumerate_systems(EnumerationQuery(num_weights=num_weights, index=index, d_max=d_max))
    assert len(bounded.systems) == count
    # no linear cones, so every weight of a degree <= d_max system is at most d_max // 2
    oracle = enumerate_bruteforce(num_weights, index, d_max // 2).systems
    assert list(bounded.systems) == [ws for ws in oracle if ws.degree <= d_max]


def test_bruteforce_slices_reach_every_window():
    # the closed form picks the second-to-last quotient in one of three windows, set by
    # the sign of L - sigma over the quotients before it; the oracle must see all three
    signs = set()
    for num_weights, index, d_max, _ in BRUTEFORCE_SLICES:
        query = EnumerationQuery(num_weights=num_weights, index=index, d_max=d_max)
        for ws in enumerate_systems(query).systems:
            prefix = sorted(ws.quotients)[:-2]
            big_l = lcm(*prefix)
            sigma = sum(big_l // b for b in prefix)
            signs.add((sigma > big_l) - (sigma < big_l))
    assert signs == {-1, 0, 1}


# (num_weights, index, d_max, count, SHA-256 of the JSON table) of catalogs too large for the oracle
LARGE_DMAX_PINS = [
    (4, 2, 3000, 1504, "f7432678c7cdf604803130dd9d6e4dad9a526cb1c19e5c49ba99e795345730b0"),
    (5, 2, 3000, 2335, "e8cfddd4d92d1f00a0953b23b8f3a12bec3d38d7e36850fabb1e8c9d518fcd8a"),
    (6, 2, 600, 1876, "fa5b3549fcb699be70b74c5a75cf401520c8bba3eedbd46856dc01f38953bfb3"),
    (5, 3, 600, 441, "5f69de006e26a0881b260156fcf6cc41517cadcdafce39d740322137e264e680"),
    (6, 3, 300, 754, "fec6c0469edf1cd2fa6e34266ff58f04d1ece7da7614b39ea08f0e814cc72052"),
    (6, 4, 400, 1511, "328752258561927e8b04bc3bff9c5546efc88df11ee96dc2c973f0f51034f3c1"),
]


@pytest.mark.parametrize("num_weights, index, d_max, count, digest", LARGE_DMAX_PINS)
def test_large_dmax_catalogs_pinned(num_weights, index, d_max, count, digest):
    result = enumerate_systems(EnumerationQuery(num_weights=num_weights, index=index, d_max=d_max))
    assert len(result.systems) == count
    text = render_table(result, "json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_fivefold_catalog_pinned():
    result = enumerate_systems(EnumerationQuery(num_weights=7, index=1))
    assert len(result.systems) == 49647
    text = repr(sorted(result.systems))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "410c8307dd901f86690ca3d761308c0491ae21f4641ea95a7976750d33e99609"
    )
    table = render_table(result, "json")
    assert hashlib.sha256(table.encode("utf-8")).hexdigest() == (
        "e4cdc78c9e40549b470cf4af7ef6c052fe2c879d23a2c540610a4613f4a1df15"
    )
    assert all(check_lemma_ineq(ws).passed for ws in result.systems)


INDEX_ONE_DMAX_SLICES = [(6, 77), (7, 155)]


@pytest.mark.parametrize("num_weights, count", INDEX_ONE_DMAX_SLICES)
def test_index_one_dmax_matches_bruteforce(num_weights, count):
    bounded = enumerate_systems(EnumerationQuery(num_weights=num_weights, index=1, d_max=40))
    assert len(bounded.systems) == count
    # no linear cones, so every weight of a degree <= 40 system is at most 20
    oracle = [ws for ws in enumerate_bruteforce(num_weights, 1, 20).systems if ws.degree <= 40]
    assert list(bounded.systems) == oracle


@pytest.mark.parametrize("divisor_window", [0, inf], ids=["divisor_path", "scan_path"])
def test_oracles_on_each_path(monkeypatch, divisor_window, surface_catalog, threefold_catalog, fourfold_catalog):
    # a cutoff of 0 sends every window with P != 0 through the divisor pairs of L, one
    # above every window sends none: each path alone passes every oracle and pin above
    monkeypatch.setattr(enumeration, "DIVISOR_WINDOW", divisor_window)
    for catalog in (surface_catalog, threefold_catalog, fourfold_catalog):
        assert enumerate_systems(catalog.query) == catalog
    for args in BRUTEFORCE_SLICES:
        test_index_two_matches_bruteforce(*args)
    test_bruteforce_slices_reach_every_window()
    for args in INDEX_ONE_DMAX_SLICES:
        test_index_one_dmax_matches_bruteforce(*args)
    for args in LARGE_DMAX_PINS:
        test_large_dmax_catalogs_pinned(*args)


def test_default_cutoff_takes_both_paths(monkeypatch):
    # of the 800 windows of the fourfold search, the 97 with hi - lo >= DIVISOR_WINDOW take divisor pairs
    taken = Counter()

    def counted(name):
        pairs = getattr(enumeration, name)
        return lambda *args: taken.update([name]) or pairs(*args)

    for name in ("_divisor_pairs", "_scan_pairs"):
        monkeypatch.setattr(enumeration, name, counted(name))
    assert len(enumerate_systems(EnumerationQuery(num_weights=6, index=1)).systems) == 661
    assert taken == {"_divisor_pairs": 97, "_scan_pairs": 703}


def test_divisors_ascending():
    for n in range(1, 500):
        assert enumeration._divisors(n) == [x for x in range(1, n + 1) if n % x == 0]


def test_bruteforce_small_window():
    result = enumerate_bruteforce(4, 1, 2)
    assert set(result.systems) == {
        WeightSystem((1, 1, 1, 1), 3),
        WeightSystem((1, 1, 1, 2), 4),
    }
    assert not result.complete


def test_query_validation():
    with pytest.raises(ValueError, match="num_weights"):
        EnumerationQuery(num_weights=2, index=1)
    with pytest.raises(ValueError, match="index"):
        EnumerationQuery(num_weights=4, index=0)
    with pytest.raises(ValueError, match="d_max"):
        EnumerationQuery(num_weights=4, index=1, d_max=0)
    with pytest.raises(ValueError, match="a_max"):
        enumerate_bruteforce(4, 1, 0)


def test_render_markdown(surface_catalog):
    text = render_table(surface_catalog, format="md")
    assert text.splitlines() == [
        "weights | degree",
        "--- | ---",
        "1 1 1 1 | 3",
        "1 1 1 2 | 4",
        "1 1 2 3 | 6",
        "3 3 5 5 | 15",
    ]


def test_render_tsv(surface_catalog):
    text = render_table(surface_catalog, format="tsv")
    assert text.splitlines() == [
        "weights\tdegree",
        "1 1 1 1\t3",
        "1 1 1 2\t4",
        "1 1 2 3\t6",
        "3 3 5 5\t15",
    ]


def test_render_json_round_trips(surface_catalog):
    payload = json.loads(render_table(surface_catalog, format="json"))
    assert payload == [
        {"weights": [1, 1, 1, 1], "degree": 3},
        {"weights": [1, 1, 1, 2], "degree": 4},
        {"weights": [1, 1, 2, 3], "degree": 6},
        {"weights": [3, 3, 5, 5], "degree": 15},
    ]


@pytest.mark.parametrize(
    "num_weights, index, d_max", [(4, 1, None), (5, 1, None), (6, 1, None), (5, 2, 3000)]
)
def test_render_json_is_json_dumps(num_weights, index, d_max):
    result = enumerate_systems(EnumerationQuery(num_weights=num_weights, index=index, d_max=d_max))
    payload = [{"weights": list(ws.weights), "degree": ws.degree} for ws in result.systems]
    assert render_table(result, format="json") == json.dumps(payload, indent=2)


def test_render_empty_result():
    empty = enumerate_systems(EnumerationQuery(num_weights=4, index=1, d_max=2))
    assert empty.systems == ()
    assert render_table(empty, format="tsv") == "weights\tdegree"
    assert render_table(empty, format="md") == "weights | degree\n--- | ---"
    assert render_table(empty, format="json") == "[]"


def test_render_unknown_format(surface_catalog):
    with pytest.raises(ValueError, match="format"):
        render_table(surface_catalog, format="csv")


class TestCatalogPersistence:
    def test_round_trip(self, surface_catalog, tmp_path):
        path = tmp_path / "surfaces.json"
        save_catalog(surface_catalog, path)
        loaded = load_catalog(path, surface_catalog.query)
        assert loaded == surface_catalog

    def test_round_trip_without_query(self, surface_catalog, tmp_path):
        path = tmp_path / "surfaces.json"
        save_catalog(surface_catalog, path)
        assert load_catalog(path) == surface_catalog

    def test_query_mismatch(self, surface_catalog, tmp_path):
        path = tmp_path / "surfaces.json"
        save_catalog(surface_catalog, path)
        other = EnumerationQuery(num_weights=4, index=1, d_max=10)
        with pytest.raises(CatalogMismatch):
            load_catalog(path, other)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(CatalogError, match="parse"):
            load_catalog(path)

    def test_non_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(CatalogError, match="catalog parse error: 'utf-8' codec can't decode"):
            load_catalog(path)

    def test_version_mismatch(self, surface_catalog, tmp_path):
        path = tmp_path / "old.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="version"):
            load_catalog(path)

    def test_schema_error(self, surface_catalog, tmp_path):
        path = tmp_path / "bad.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["systems"][0]["degree"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="schema"):
            load_catalog(path)

    def test_unsorted_rejected(self, surface_catalog, tmp_path):
        path = tmp_path / "shuffled.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["systems"].reverse()
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="sorted"):
            load_catalog(path)

    def test_filter_flags_must_be_true(self, surface_catalog, tmp_path):
        path = tmp_path / "unfiltered.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["query"]["require_well_formed"] is True
        payload["query"]["require_well_formed"] = False
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="schema"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            # each was read as a valid value: true == 1, 4.0 == 4, "false" and 1 are truthy
            (lambda p: p["systems"][0].update(weights=[True, 1, 1, 1]), "weights must be positive integers"),
            (lambda p: p["query"].update(num_weights=4.0), "num_weights must be an integer, got 4.0"),
            (lambda p: p["query"].update(d_max=True), "d_max must be an integer, got True"),
            (lambda p: p.update(complete="false"), 'complete must be true or false, got "false"'),
            (lambda p: p.update(complete=1), "complete must be true or false, got 1"),
        ],
        ids=["weight_true", "num_weights_float", "d_max_true", "complete_string", "complete_one"],
    )
    def test_values_that_are_not_integers_or_booleans(self, surface_catalog, tmp_path, edit, message):
        path = tmp_path / "typed.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match=f"schema error: {message}"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "query, system",
        [
            (EnumerationQuery(6, 1), WeightSystem((1, 1, 2), 2)),
            (EnumerationQuery(4, 1), WeightSystem((1, 1, 1, 1, 1), 4)),
            (EnumerationQuery(4, 1), WeightSystem((1, 1, 1, 1), 2)),
            (EnumerationQuery(4, 1, d_max=10), WeightSystem((2, 3, 3, 4), 11)),
            (EnumerationQuery(3, 2, d_max=10), WeightSystem((1, 1, 2), 2)),
            (EnumerationQuery(6, 1), WeightSystem((1, 2, 2, 2, 2, 2), 10)),
            (EnumerationQuery(6, 1), WeightSystem((1, 1, 1, 1, 1, 3), 7)),
        ],
        ids=[
            "every_field", "weight_count", "index", "above_d_max", "linear_cone",
            "not_well_formed", "not_divisible",
        ],
    )
    def test_system_outside_the_stored_query(self, tmp_path, query, system):
        # each system was loaded as a member of a catalog that cannot hold it
        path = tmp_path / "outside.json"
        save_catalog(EnumerationResult(query, (system,), complete=False), path)
        with pytest.raises(CatalogError, match=f"catalog system {system.render()} lies outside its query"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "query", [EnumerationQuery(4, 1, d_max=30), EnumerationQuery(3, 2, d_max=10)], ids=["d_max", "index_2"]
    )
    def test_complete_only_for_index_one_without_d_max(self, tmp_path, query):
        # a search bounded by d_max cannot list every system; complete=false stays valid
        result = enumerate_systems(query)
        path = tmp_path / "bounded.json"
        save_catalog(EnumerationResult(query, result.systems, complete=True), path)
        with pytest.raises(CatalogError, match="catalog is marked complete"):
            load_catalog(path)
        save_catalog(result, path)
        assert load_catalog(path) == result

    def test_stored_query_must_be_searchable(self, tmp_path):
        # enumerate_systems refuses index > 1 without d_max, so no catalog answers it
        query = EnumerationQuery(4, 2)
        with pytest.raises(ValueError, match="an explicit d_max is required"):
            enumerate_systems(query)
        # save_catalog refuses to write such a file, so drop d_max from a saved one
        path = tmp_path / "unbounded.json"
        bounded = EnumerationQuery(4, 2, d_max=4)
        save_catalog(EnumerationResult(bounded, (WeightSystem((1, 1, 2, 2), 4),), complete=False), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["query"]["d_max"] = None
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="has index > 1 and no d_max; no search answers it"):
            load_catalog(path)

    def test_unsearchable_query_is_not_saved(self, tmp_path):
        # the brute-force oracle labels its systems with a query that has no
        # d_max; a file of it would not load back, so none is written
        result = enumerate_bruteforce(4, 2, 6)
        assert len(result.systems) == 9 and result.query == EnumerationQuery(4, 2)
        path = tmp_path / "oracle.json"
        with pytest.raises(ValueError, match="has index > 1 and no d_max; no search answers it"):
            save_catalog(result, path)
        assert not path.exists()

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, surface_catalog, tmp_path, version):
        path = tmp_path / "typed_version.json"
        save_catalog(surface_catalog, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = version
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CatalogError, match="version"):
            load_catalog(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"num_weights": 4.0, "index": 1}, "num_weights must be an integer, got 4.0"),
        ({"num_weights": 4, "index": True}, "index must be an integer, got True"),
        ({"num_weights": 4, "index": 1, "d_max": 10.5}, "d_max must be an integer, got 10.5"),
    ],
    ids=["num_weights_float", "index_true", "d_max_float"],
)
def test_query_requires_integer_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        EnumerationQuery(**fields)
