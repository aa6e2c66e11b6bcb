"""XOR delivery: placement contents, the frozen signal schedule, byte-exact
decoding, and the guarantee that a corrupted array cannot decode cleanly."""

import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce

import pytest

from conftest import GOLDEN_PARAMS, SIGNAL_TERMS_K6_F4_Z2, golden_grid
from pda_workbench.constructions import bipartite_pda, grouping_pda, mn_pda, partition_pda
from pda_workbench.core import STAR, PdaGrid, verify_pda
from pda_workbench.simulate import (
    DecodeError,
    FileLibrary,
    _schedule,
    _xor_fold,
    all_demands,
    decode,
    deliver,
    measure_rate,
    place,
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
    def xor_bytes(packets, n):
        return _xor_fold(packets, n).to_bytes(n, "little")

    rng = random.Random(3)
    for n in (0, 1, 7, 64, 1024):
        a, b, c = rng.randbytes(n), rng.randbytes(n), rng.randbytes(n)
        assert xor_bytes([a, b], n) == bytes(x ^ y for x, y in zip(a, b))
        assert xor_bytes([a, b, c], n) == bytes(x ^ y ^ z for x, y, z in zip(a, b, c))
        assert xor_bytes([a], n) == a
    # leading and trailing zero bytes survive the integer round trip
    assert xor_bytes([b"\x00\x01\x00", b"\x00\x01\x00"], 3) == bytes(3)
    assert xor_bytes([b"\x00\x00\x05", b"\x00\x00\x00"], 3) == b"\x00\x00\x05"
    assert xor_bytes([], 3) == bytes(3)


def test_xor_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        _xor_fold([b"ab", b"abc"], 2)
    with pytest.raises(ValueError):
        _xor_fold([b"abc", b"ab"], 3)


def test_zero_bytes_survive_delivery_and_decoding():
    grid = golden_grid("GRID_K6_F4_Z2")
    edge = [b"\x00\x00\x00\x00", b"\x00\x07\x00\x00", b"\x00\x00\x00\x09", b"\x05\x00\x00\x00"]
    lib = FileLibrary(n=2, f=4, packet_len=4, packets=(tuple(edge), tuple(reversed(edge))))
    d = (1, 2, 1, 2, 1, 2)
    t = deliver(grid, lib, d)
    assert all(len(s.payload) == 4 for s in t.signals)
    res = decode(grid, t, place(grid, lib), d, lib)
    assert res.ok and res.files == tuple(lib.file_bytes(n) for n in d)


def test_packets_of_the_wrong_length_are_rejected():
    grid = golden_grid("GRID_K4_F6_Z3")
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=1)
    d = (1, 2, 1, 2)
    caches = place(grid, lib)
    short_w16 = lib.packets[0][:5] + (bytes(7),)  # W[1,6] is one byte short
    short = FileLibrary(n=2, f=6, packet_len=8, packets=(short_w16, lib.packets[1]))
    with pytest.raises(ValueError, match="7 bytes"):
        deliver(grid, short, d)
    t = deliver(grid, lib, d)
    caches[0][(2, 3)] = bytes(9)  # user 1 cancels W[2,3] out of signal 2
    with pytest.raises(ValueError, match="9 bytes"):
        decode(grid, t, caches, d, lib)


# ---------------------------------------------------------------------------
# differential check against a byte-wise reference, and the schedule memo
# ---------------------------------------------------------------------------


def reference_delivery(grid, lib, d):
    """Signals, decode log and files by byte-wise XOR straight off the cells."""
    cells = {}
    for j in range(1, grid.f + 1):
        for k in range(1, grid.k + 1):
            s = grid.cells[j - 1][k - 1]
            if s != STAR:
                cells.setdefault(s, []).append((k, j))
    signals = []
    payload_of = {}
    for s in sorted(cells):
        terms = tuple(sorted(cells[s]))
        payload_of[s] = xor(lib.packet(d[k - 1], j) for k, j in terms)
        signals.append((s, terms, payload_of[s]))
    log = {cell: s for s, cs in cells.items() for cell in cs}
    files = []
    for k in range(1, grid.k + 1):
        parts = []
        for j in range(1, grid.f + 1):
            s = grid.cells[j - 1][k - 1]
            if s == STAR:
                parts.append(lib.packet(d[k - 1], j))
            else:
                others = [
                    lib.packet(d[k2 - 1], j2) for k2, j2 in cells[s] if (k2, j2) != (k, j)
                ]
                parts.append(xor([payload_of[s], *others]))
        files.append(b"".join(parts))
    return signals, log, tuple(files)


DIFFERENTIAL_GRIDS = [golden_grid(name) for name in sorted(GOLDEN_PARAMS)] + [
    mn_pda(4, 1),
    mn_pda(5, 2),
    partition_pda(2, 2),
    partition_pda(3, 2),
    bipartite_pda(5, 1, 2),
    bipartite_pda(6, 2, 2),
    grouping_pda(4, 1, 2, 2),
]


@pytest.mark.parametrize("grid", DIFFERENTIAL_GRIDS, ids=lambda g: f"K{g.k}-F{g.f}")
def test_delivery_and_decode_match_the_bytewise_reference(grid):
    assert verify_pda(grid).valid
    lib = FileLibrary.generate(3, grid.f, packet_len=8, seed=grid.k * 100 + grid.f)
    caches = place(grid, lib)
    for d in sample_demands(3, grid.k, 6, seed=grid.f):
        signals, log, files = reference_delivery(grid, lib, d)
        t = deliver(grid, lib, d)
        assert [(s.id, s.terms, s.payload) for s in t.signals] == signals
        assert t.decode_log == log
        res = decode(grid, t, caches, d, lib)
        assert res.files == files == tuple(lib.file_bytes(n) for n in d)
        assert res.ok and res.log == log


def test_transcripts_share_no_state_through_the_memo():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(6, 4, seed=0)
    d = (1, 2, 3, 4, 5, 6)
    first = deliver(grid, lib, d)
    expected = dict(first.decode_log)
    first.decode_log[(1, 4)] = 99
    del first.decode_log[(2, 2)]
    again = deliver(grid, lib, d)
    assert again.decode_log == expected
    assert again.signals == deliver(PdaGrid(grid.cells), lib, d).signals
    res = decode(grid, again, place(grid, lib), d, lib)
    assert res.ok and res.log == expected
    res.log.clear()
    assert deliver(grid, lib, d).decode_log == expected


def test_grids_of_one_shape_never_share_a_schedule():
    # Same shape and stars, symbols 1 and 2 swapped: each array must be
    # delivered by its own cells, even when both sit in the memo.
    grid = golden_grid("GRID_K6_F4_Z2")
    swapped = PdaGrid(
        tuple(tuple({1: 2, 2: 1}.get(c, c) for c in row) for row in grid.cells)
    )
    assert verify_pda(swapped).valid and swapped != grid
    assert _schedule(grid) is not _schedule(swapped)
    lib = FileLibrary.generate(6, 4, packet_len=8, seed=4)
    d = (6, 5, 4, 3, 2, 1)
    for g in (grid, swapped, grid):
        signals, log, _ = reference_delivery(g, lib, d)
        t = deliver(g, lib, d)
        assert [(s.id, s.terms, s.payload) for s in t.signals] == signals
        assert t.decode_log == log


def test_a_sweep_builds_the_schedule_once():
    grid = mn_pda(4, 2)
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=9)
    _schedule.cache_clear()
    res = run_sweep(PdaGrid(grid.cells), lib, all_demands(2, 4))
    assert _schedule.cache_info().misses == 1
    assert res.all_ok and res.demands_checked == 16
    # four symbols, each on three cells: 3 delivery + 3 * 2 cancellation terms
    assert {key: res.stats[key] for key in ("demands", "signals", "xor_terms")} == {
        "demands": 16,
        "signals": 16 * 4,
        "xor_terms": 16 * 4 * 9,
    }
    assert res.stats["elapsed_s"] >= 0


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


def test_importing_simulate_loads_only_core():
    # The package namespace re-exports nothing, so a library caller of the
    # simulator never pays for the bound, fill or formula modules.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pda_workbench.simulate;"
         " print(' '.join(sorted(m for m in sys.modules if m.startswith('pda_workbench'))))"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pda_workbench", "pda_workbench.core", "pda_workbench.simulate"]
