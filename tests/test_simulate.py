"""XOR delivery: placement contents, the frozen signal schedule, byte-exact
decoding, and the guarantee that a corrupted array cannot decode cleanly."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from conftest import GOLDEN_PARAMS, SIGNAL_TERMS_K6_F4_Z2, golden_grid
from pda_workbench.constructions import mn_pda, partition_pda
from pda_workbench.core import STAR, PdaGrid, verify_pda
from pda_workbench.simulate import (
    DecodeError,
    FileLibrary,
    all_demands,
    decode,
    deliver,
    measure_rate,
    place,
    _xor,
    run_sweep,
    sample_demands,
)


def xor(parts):
    return reduce(lambda a, b: bytes(x ^ y for x, y in zip(a, b)), parts)


# ---------------------------------------------------------------------------
# library and placement
# ---------------------------------------------------------------------------


def test_library_generation_is_seeded_and_consistent():
    lib = FileLibrary.generate(3, 4, packet_len=8, seed=11)
    assert lib.packet(2, 3) == FileLibrary.generate(3, 4, packet_len=8, seed=11).packet(2, 3)
    assert lib.packets != FileLibrary.generate(3, 4, packet_len=8, seed=12).packets
    assert lib.file_bytes(2) == b"".join(lib.packet(2, j) for j in range(1, 5))
    assert all(len(lib.packet(n, j)) == 8 for n in (1, 2, 3) for j in (1, 4))


def test_library_rejects_degenerate_shapes():
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            FileLibrary.generate(*bad)


def test_placement_caches_exactly_the_starred_rows():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(3, 4, packet_len=16, seed=2)
    caches = place(grid, lib)
    assert len(caches) == 6
    for k in range(1, 7):
        starred = [j for j in range(1, 5) if grid.cells[j - 1][k - 1] == STAR]
        assert set(caches[k - 1]) == {(n, j) for n in (1, 2, 3) for j in starred}
        assert all(caches[k - 1][(n, j)] == lib.packet(n, j) for n, j in caches[k - 1])


# ---------------------------------------------------------------------------
# the frozen signal schedule
# ---------------------------------------------------------------------------


def test_delivery_matches_the_frozen_terms():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(6, 4, seed=0)
    d = (1, 2, 3, 4, 5, 6)
    t = deliver(grid, lib, d)
    assert tuple(s.id for s in t.signals) == (1, 2, 3, 4)
    assert tuple(s.terms for s in t.signals) == SIGNAL_TERMS_K6_F4_Z2
    for s in t.signals:
        assert s.payload == xor(lib.packet(d[k - 1], j) for k, j in s.terms)
        assert len(s.payload) == lib.packet_len


def test_decode_log_covers_every_symbol_cell():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(6, 4, seed=0)
    t = deliver(grid, lib, (1, 1, 1, 1, 1, 1))
    expected = {
        (k, j): grid.cells[j - 1][k - 1]
        for j in range(1, 5)
        for k in range(1, 7)
        if grid.cells[j - 1][k - 1] != STAR
    }
    assert t.decode_log == expected


def test_decode_reassembles_every_file_byte_for_byte():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(6, 4, packet_len=32, seed=5)
    caches = place(grid, lib)
    for d in [(1, 2, 3, 4, 5, 6), (2, 2, 2, 2, 2, 2), (6, 1, 6, 1, 6, 1)]:
        res = decode(grid, deliver(grid, lib, d), caches, d, lib)
        assert res.ok
        assert res.files == tuple(lib.file_bytes(n) for n in d)


def test_transcript_as_dict_shape():
    grid = golden_grid("GRID_K4_F6_Z3")
    lib = FileLibrary.generate(2, 6, packet_len=4, seed=1)
    d = (1, 2, 1, 2)
    out = deliver(grid, lib, d).as_dict()
    assert out["demand"] == [1, 2, 1, 2]
    assert len(out["signals"]) == 4
    first = out["signals"][0]
    assert set(first) == {"id", "terms", "payload_hex"}
    assert all(set(term) == {"user", "row"} for term in first["terms"])
    assert all(set(e) == {"user", "row", "signal"} for e in out["decode_log"])
    assert len(out["decode_log"]) == 12  # one entry per symbol cell
    assert bytes.fromhex(first["payload_hex"])  # round-trips as hex


def test_demand_validation():
    grid = golden_grid("GRID_K4_F6_Z3")
    lib = FileLibrary.generate(2, 6, seed=0)
    with pytest.raises(ValueError):
        deliver(grid, lib, (1, 2, 1))  # wrong length
    with pytest.raises(ValueError):
        deliver(grid, lib, (1, 2, 1, 3))  # file id beyond the library


# ---------------------------------------------------------------------------
# rates and sweeps
# ---------------------------------------------------------------------------


def test_measured_rates_are_the_exact_constants():
    lib6 = FileLibrary.generate(2, 4, packet_len=4, seed=3)
    assert measure_rate(
        golden_grid("GRID_K6_F4_Z2"), lib6, all_demands(2, 6)
    ) == Fraction(1)
    grid = partition_pda(3, 2)
    lib9 = FileLibrary.generate(2, 9, packet_len=4, seed=3)
    assert measure_rate(grid, lib9, sample_demands(2, 9, 10, seed=4)) == Fraction(2)


def test_all_star_grid_broadcasts_nothing():
    grid = PdaGrid(((STAR, STAR), (STAR, STAR)))
    lib = FileLibrary.generate(2, 2, packet_len=4, seed=0)
    assert measure_rate(grid, lib, all_demands(2, 2)) == 0
    res = run_sweep(grid, lib, all_demands(2, 2))
    assert res.all_ok and res.rate == 0 and res.demands_checked == 4


def test_full_sweep_small_library():
    grid = mn_pda(4, 2)
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=9)
    res = run_sweep(grid, lib, all_demands(2, 4))
    assert res.demands_checked == 16
    assert res.all_ok and res.first_failure is None
    assert res.rate == Fraction(2, 3)


def test_demand_helpers():
    assert list(all_demands(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    sample = sample_demands(3, 5, 7, seed=42)
    assert sample == sample_demands(3, 5, 7, seed=42)
    assert len(sample) == 7
    assert all(len(d) == 5 and all(1 <= x <= 3 for x in d) for d in sample)


def test_xor_matches_bytewise_and_keeps_zero_bytes():
    rng = random.Random(3)
    for n in (0, 1, 7, 64, 1024):
        a, b = rng.randbytes(n), rng.randbytes(n)
        assert _xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
    # leading and trailing zero bytes survive the integer round trip
    assert _xor(b"\x00\x01\x00", b"\x00\x01\x00") == bytes(3)
    assert _xor(b"\x00\x00\x05", b"\x00\x00\x00") == b"\x00\x00\x05"


def test_xor_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        _xor(b"ab", b"abc")


# ---------------------------------------------------------------------------
# corrupted arrays must fail loudly
# ---------------------------------------------------------------------------


def test_overwriting_a_star_with_a_known_symbol_breaks_decoding():
    # Cell (1,1) of the half-memory grid is a star; stamping symbol 4 on it
    # hands user 1 a signal whose other terms it cannot cancel.
    cells = [list(r) for r in golden_grid("GRID_K6_F4_Z2").cells]
    cells[0][0] = 4
    grid = PdaGrid(tuple(tuple(r) for r in cells))
    assert not verify_pda(grid).valid
    lib = FileLibrary.generate(6, 4, seed=0)
    caches = place(grid, lib)
    d = (1, 2, 3, 4, 5, 6)
    with pytest.raises(DecodeError) as err:
        decode(grid, deliver(grid, lib, d), caches, d, lib)
    assert (err.value.signal, err.value.user, err.value.row) == (4, 1, 1)


def test_sweep_reports_cross_cell_corruption_as_failures():
    # Uniform star counts (so parameters still read off), symbols on a
    # clean diagonal pair (so delivery runs), but the cross cells hold
    # symbols instead of stars: every decode must miss a cancellation.
    grid = PdaGrid(((1, 2), (2, 1)))
    assert not verify_pda(grid).valid
    lib = FileLibrary.generate(2, 2, packet_len=4, seed=6)
    res = run_sweep(grid, lib, all_demands(2, 2))
    assert not res.all_ok
    assert res.first_failure == (1, 1)
    assert res.demands_checked == 4


def test_same_row_symbol_reuse_is_rejected_at_delivery():
    # Both occurrences of the repeated symbol sit in row 1, which can
    # never be served by one XOR signal.
    grid = PdaGrid(((1, 1, STAR), (STAR, STAR, 2)))
    lib = FileLibrary.generate(2, 2, seed=0)
    with pytest.raises(ValueError, match="repeats a row or column"):
        deliver(grid, lib, (1, 2, 1))


def test_star_corruption_fuzz_never_decodes_silently():
    """Flipping a star to an existing symbol is always caught by verify_pda,
    and for each of these 100 seeded corruptions the delivery path fails
    loudly as well: either rejected up front (symbol lands in an occupied
    row/column) or DecodeError for the user whose cancellation went missing."""
    rng = random.Random(2024)
    names = sorted(GOLDEN_PARAMS)
    libs = {}
    failures = 0
    for _ in range(100):
        name = rng.choice(names)
        base = golden_grid(name)
        cells = [list(r) for r in base.cells]
        stars = [
            (j, k)
            for j in range(base.f)
            for k in range(base.k)
            if cells[j][k] == STAR
        ]
        j, k = rng.choice(stars)
        cells[j][k] = rng.randint(1, base.max_symbol())
        grid = PdaGrid(tuple(tuple(r) for r in cells))
        assert not verify_pda(grid).valid
        if base.f not in libs:
            libs[base.f] = FileLibrary.generate(2, base.f, packet_len=4, seed=8)
        lib = libs[base.f]
        d = tuple(rng.randint(1, 2) for _ in range(base.k))
        try:
            t = deliver(grid, lib, d)
            decode(grid, t, place(grid, lib), d, lib)
        except (ValueError, DecodeError):
            failures += 1
    assert failures == 100
