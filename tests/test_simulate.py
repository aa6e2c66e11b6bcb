"""XOR delivery: placement contents, the frozen signal schedule, byte-exact
decoding, and the guarantee that a corrupted array cannot decode cleanly."""

import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from conftest import GOLDEN_PARAMS, SIGNAL_TERMS_K6_F4_Z2, golden_grid
from pda_workbench.constructions import bipartite_pda, grouping_pda, mn_pda, partition_pda
from pda_workbench import simulate
from pda_workbench.core import STAR, PdaGrid, pda_params, verify_pda
from pda_workbench.simulate import (
    DecodeError,
    FileLibrary,
    _schedule,
    _xor_fold,
    all_demands,
    decode,
    deliver,
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


@pytest.mark.parametrize("packet_len", [1 << 28, 10**11])
def test_library_refuses_packet_lengths_randbytes_cannot_draw(monkeypatch, packet_len):
    # randbytes draws 8 * len bits into a C int; the length is refused
    # before any packet is drawn, so nothing this large is allocated.
    def no_draw(self, n):
        raise AssertionError(f"drew {n} bytes")

    monkeypatch.setattr(random.Random, "randbytes", no_draw)
    with pytest.raises(ValueError, match=f"packet_len must be at most {(1 << 28) - 1}"):
        FileLibrary.generate(1, 1, packet_len=packet_len)
    with pytest.raises(AssertionError, match=f"drew {(1 << 28) - 1} bytes"):
        FileLibrary.generate(1, 1, packet_len=(1 << 28) - 1)  # the largest is drawn


def test_library_refuses_a_size_it_cannot_hold(monkeypatch):
    # N*F packets of packet_len bytes, each with its bytes header and a tuple
    # slot, may take up to 2^31 bytes; a larger library is refused before
    # any packet is drawn.
    def no_draw(self, n):
        raise AssertionError(f"drew {n} bytes")

    monkeypatch.setattr(random.Random, "randbytes", no_draw)
    per_packet = sys.getsizeof(b"") + 8
    for n, f, packet_len in [
        (5, 10, (1 << 28) - 1),  # mn(5,2) with 5 files: about 12.5 GiB
        (8, 1, (1 << 28) - per_packet + 1),  # one byte past the cap
        (1 << 40, 1, 1),
    ]:
        with pytest.raises(ValueError, match=f"takes about {n * f * (packet_len + per_packet)}"
                                             f" bytes in memory, more than {1 << 31}"):
            FileLibrary.generate(n, f, packet_len=packet_len)
    with pytest.raises(ValueError, match="packet_len must be at most"):  # checked first
        FileLibrary.generate(5, 10, packet_len=1 << 28)
    with pytest.raises(AssertionError, match="drew"):  # exactly at the cap
        FileLibrary.generate(8, 1, packet_len=(1 << 28) - per_packet)


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


def test_place_and_deliver_refuse_a_library_of_another_row_count():
    grid = mn_pda(4, 2)
    lib = FileLibrary.generate(4, 7, seed=0)
    refusal = "library has 7 packets per file, grid has 6 rows"
    with pytest.raises(ValueError, match=refusal):
        place(grid, lib)
    with pytest.raises(ValueError, match=refusal):
        deliver(grid, lib, (1, 2, 3, 4))


# ---------------------------------------------------------------------------
# rates and sweeps
# ---------------------------------------------------------------------------


def test_measured_rates_are_the_exact_constants():
    lib6 = FileLibrary.generate(2, 4, packet_len=4, seed=3)
    res6 = run_sweep(golden_grid("GRID_K6_F4_Z2"), lib6, all_demands(2, 6))
    assert res6.all_ok and res6.rate == Fraction(1)
    grid = partition_pda(3, 2)
    lib9 = FileLibrary.generate(2, 9, packet_len=4, seed=3)
    res9 = run_sweep(grid, lib9, sample_demands(2, 9, 10, seed=4))
    assert res9.all_ok and res9.rate == Fraction(2)


def test_all_star_grid_broadcasts_nothing():
    grid = PdaGrid(((STAR, STAR), (STAR, STAR)))
    lib = FileLibrary.generate(2, 2, packet_len=4, seed=0)
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
    sample = list(sample_demands(3, 5, 7, seed=42))
    assert sample == list(sample_demands(3, 5, 7, seed=42))
    assert len(sample) == 7
    assert all(len(d) == 5 and all(1 <= x <= 3 for x in d) for d in sample)
    # drawn as consumed: the first of 10**12 demands comes without the rest
    assert next(iter(sample_demands(3, 5, 10**12, seed=42))) == sample[0]


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


def test_decode_checks_payloads_then_looks_up_a_rows_terms_before_their_lengths():
    grid = golden_grid("GRID_K4_F6_Z3")
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=1)
    d = (1, 2, 2, 1)
    t = deliver(grid, lib, d)
    # user 1 decodes row 4 from signal 1, cancelling W[2,2] and then W[2,1]
    assert _schedule(grid).rows[0][3] == (1, ((2, 2), (3, 1)))
    caches = place(grid, lib)
    del caches[0][(2, 1)]
    last = t.signals[-1]  # signal 4, which user 1 never reads
    short = t._replace(signals=t.signals[:-1] + (last._replace(payload=last.payload[:7]),))
    with pytest.raises(ValueError, match="cannot XOR 7 bytes with 8 bytes"):
        decode(grid, short, caches, d, lib)
    for missing, wrong in [((2, 1), (2, 2)), ((2, 2), (2, 1))]:
        caches = place(grid, lib)
        del caches[0][missing]
        caches[0][wrong] = bytes(9)
        with pytest.raises(DecodeError) as err:
            decode(grid, t, caches, d, lib)
        assert (err.value.signal, err.value.user, err.value.row) == (1, 1, 4)
    # a wrong-length library packet that no cache holds fails the comparison
    w16 = lib.packets[0][:5] + (bytes(7),)
    res = decode(grid, t, place(grid, lib), d, lib._replace(packets=(w16, lib.packets[1])))
    assert not res.ok and res.files == tuple(lib.file_bytes(n) for n in d)


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
        assert res.ok


def cancellation_cells(grid):
    """(user k, row j, the other cells of its symbol) for every symbol cell,
    read straight off the cells."""
    cells = {}
    for j in range(1, grid.f + 1):
        for k in range(1, grid.k + 1):
            if grid.cells[j - 1][k - 1] != STAR:
                cells.setdefault(grid.cells[j - 1][k - 1], []).append((k, j))
    return [
        (k, j, [c for c in cs if c != (k, j)]) for cs in cells.values() for k, j in cs
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_PARAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_path_matches_bytes_and_reads_only_the_cache(name, seed):
    grid = golden_grid(name)
    rng = random.Random(seed)
    lib = FileLibrary.generate(3, grid.f, packet_len=rng.choice([1, 5, 16]), seed=seed)
    d = tuple(rng.randint(1, 3) for _ in range(grid.k))
    t = deliver(grid, lib, d)
    for sig in t.signals:
        assert sig.payload == xor([lib.packet(d[k - 1], j) for k, j in sig.terms])
    files = tuple(lib.file_bytes(n) for n in d)
    res = decode(grid, t, place(grid, lib), d, lib)
    assert res.ok and res.files == files

    def swapped(k, key):
        """Decode with user k's entry `key` replaced by other bytes of its length."""
        caches = place(grid, lib)
        caches[k - 1][key] = bytes(b ^ 0xFF for b in caches[k - 1][key])
        return decode(grid, t, caches, d, lib)

    cells = cancellation_cells(grid)
    cancelled = {  # the cache entries each user cancels out of its signals
        (k, d[k2 - 1], j2) for k, _, others in cells for k2, j2 in others
    }
    k, j = rng.choice([  # a cached row of user k's own file, and nothing else
        (k, j) for k in range(1, grid.k + 1) for j in range(1, grid.f + 1)
        if grid.cells[j - 1][k - 1] == STAR and (k, d[k - 1], j) not in cancelled
    ])
    res = swapped(k, (d[k - 1], j))
    assert not res.ok and res.files[k - 1] != files[k - 1]
    assert res.files[:k - 1] + res.files[k:] == files[:k - 1] + files[k:]
    k, j, k2, j2 = rng.choice([  # a term user k cancels, not of its own file
        (k, j, k2, j2) for k, j, others in cells for k2, j2 in others if d[k2 - 1] != d[k - 1]
    ])
    res = swapped(k, (d[k2 - 1], j2))
    assert not res.ok and res.files[k - 1] != files[k - 1]
    assert res.files[:k - 1] + res.files[k:] == files[:k - 1] + files[k:]

    caches = place(grid, lib)
    for cache in caches:
        for key, packet in cache.items():
            cache[key] = bytes(bytearray(packet))  # equal bytes, a new object
            assert cache[key] is not packet
    res = decode(grid, t, caches, d, lib)
    assert res.ok and res.files == files


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
    assert res.ok
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


@pytest.mark.parametrize("flip", [False, True])
def test_a_sweep_decodes_only_the_demands_it_cannot_prove(monkeypatch, flip):
    # With place's caches the sweep proves every demand by C3 and decodes none.
    # Flipping user 1's entry (3, 3) leaves the sweep nothing to prove, so it
    # decodes each demand in order; files 1 and 2 still decode.
    grid = mn_pda(4, 2)
    real_place, real_decode = simulate.place, simulate.decode

    def place(grid, lib):
        caches = real_place(grid, lib)
        if flip:
            flip_entry(caches, (3, 3))
        return caches

    calls = []

    def decode(grid, transcript, caches, d, lib):
        calls.append(tuple(d))
        return real_decode(grid, transcript, caches, d, lib)

    monkeypatch.setattr(simulate, "place", place)
    monkeypatch.setattr(simulate, "decode", decode)
    lib = FileLibrary.generate(3, 6, packet_len=8, seed=5)
    res = run_sweep(grid, lib, all_demands(2, 4))
    assert res.all_ok and res.demands_checked == 16
    assert calls == (list(all_demands(2, 4)) if flip else [])


# ---------------------------------------------------------------------------
# the schedule sweep against one deliver and decode per demand
# ---------------------------------------------------------------------------


def per_demand_sweep(grid, lib, demands):
    """What run_sweep reports, from one deliver and decode per demand:
    (demands_checked, all_ok, first_failure, stats less elapsed_s), or the
    ValueError it raises.  A cached row that decode cannot find (KeyError)
    counts as a failure, as a missing cancellation term (DecodeError) does."""
    try:
        params = pda_params(grid)
        caches = simulate.place(grid, lib)
        checked = signals = xor_terms = 0
        first_failure = None
        for d in map(tuple, demands):
            t = deliver(grid, lib, d)
            checked += 1
            signals += len(t.signals)
            xor_terms += sum(len(s.terms) ** 2 for s in t.signals)
            try:
                ok = len(t.signals) == params.s and decode(grid, t, caches, d, lib).ok
            except (DecodeError, KeyError):
                ok = False
            if not ok and first_failure is None:
                first_failure = d
    except ValueError as e:
        return "ValueError", str(e)
    stats = {"demands": checked, "signals": signals, "xor_terms": xor_terms}
    return checked, first_failure is None, first_failure, stats


def block_sweep(grid, lib, demands):
    """run_sweep's outcome in per_demand_sweep's form."""
    try:
        res = run_sweep(grid, lib, demands)
    except ValueError as e:
        return "ValueError", str(e)
    stats = dict(res.stats)
    assert stats.pop("elapsed_s") >= 0
    return res.demands_checked, res.all_ok, res.first_failure, stats


def column_swaps(count, seed):
    """Golden grids with a star and a symbol swapped within one column: star
    counts stay uniform, so each one reaches delivery."""
    rng = random.Random(seed)
    grids = []
    for _ in range(count):
        cells = [list(r) for r in golden_grid(rng.choice(sorted(GOLDEN_PARAMS))).cells]
        k = rng.randrange(len(cells[0]))
        star = rng.choice([j for j in range(len(cells)) if cells[j][k] == STAR])
        symbol = rng.choice([j for j in range(len(cells)) if cells[j][k] != STAR])
        cells[star][k], cells[symbol][k] = cells[symbol][k], cells[star][k]
        grids.append(PdaGrid(tuple(map(tuple, cells))))
    return grids


def overwritten_star():
    cells = [list(r) for r in golden_grid("GRID_K6_F4_Z2").cells]
    cells[0][0] = 4
    return PdaGrid(tuple(map(tuple, cells)))


SWEEP_GRIDS = DIFFERENTIAL_GRIDS + [partition_pda(3, 3)] + [
    PdaGrid(((1, 2), (2, 1))),  # cross cells hold symbols: no cancellation is cached
    overwritten_star(),  # star counts no longer uniform
    PdaGrid(((1, 1, STAR), (STAR, STAR, 2))),  # a symbol repeats row 1
    PdaGrid(((STAR, 2), (2, STAR))),  # one symbol where S = 2: every demand fails
] + column_swaps(12, seed=7)


EIGHT_PER_BLOCK = 4096  # a long packet length, as well as a short one


@pytest.mark.parametrize("packet_len", [5, EIGHT_PER_BLOCK])  # short and long packets
@pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=lambda g: f"K{g.k}-F{g.f}")
def test_block_sweep_matches_a_per_demand_sweep(grid, packet_len):
    lib = FileLibrary.generate(3, grid.f, packet_len=packet_len, seed=grid.k + grid.f)
    if 3 ** grid.k <= 729:
        demands = list(all_demands(3, grid.k))
    else:
        demands = list(sample_demands(3, grid.k, 100, seed=grid.f))
    demands *= -(-24 // len(demands))  # at least 24 demands, repeats included
    expected = per_demand_sweep(grid, lib, demands)
    assert block_sweep(grid, lib, iter(demands)) == expected


def test_block_sweep_raises_as_the_per_demand_sweep_does():
    grid = mn_pda(4, 2)
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=3)
    short = FileLibrary(n=2, f=6, packet_len=8, packets=(lib.packets[0][:5] + (bytes(7),),
                                                          lib.packets[1]))
    later_bad = [(1, 1, 1, 1), (1, 2, 1, 2), (1, 2, 3, 1), (1, 2, 1)]
    for library, demands, message in [
        (lib, later_bad, "demanded file 3 outside"),
        (lib, [(1, 2, 1), (1, 2, 3, 1)], "demand length 3"),
        (short, [(1, 1, 1, 1)], "7 bytes"),
    ]:
        expected = per_demand_sweep(grid, library, demands)
        assert block_sweep(grid, library, demands) == expected
        assert message in expected[1]
    assert block_sweep(grid, lib, []) == (0, True, None, {"demands": 0, "signals": 0,
                                                          "xor_terms": 0})


def test_a_sweep_refuses_a_short_packet_that_its_first_demand_never_reads():
    # A sweep delivers only its first demand, so no fold would read the short
    # W[2,6] that a later demand broadcasts; the sweep refuses it up front.
    grid = mn_pda(4, 2)
    lib = FileLibrary.generate(2, 6, packet_len=8, seed=3)
    short = lib._replace(packets=(lib.packets[0], lib.packets[1][:5] + (bytes(7),)))
    demands = [(1, 1, 1, 1), (2, 2, 2, 2)]
    deliver(grid, short, demands[0])  # the first demand reads no packet of file 2
    with pytest.raises(ValueError, match="cannot XOR 7 bytes with 8 bytes"):
        run_sweep(grid, short, demands)
    assert block_sweep(grid, short, demands) == per_demand_sweep(grid, short, demands)


def test_a_sweep_holds_no_second_copy_of_the_library():
    grid = mn_pda(5, 2)
    lib = FileLibrary.generate(5, grid.f, packet_len=1 << 18, seed=1)
    payload_bytes = lib.n * lib.f * lib.packet_len
    demands = list(sample_demands(5, grid.k, 4, seed=1))
    tracemalloc.start()
    try:
        res = run_sweep(grid, lib, demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.all_ok and res.demands_checked == 4
    assert peak < payload_bytes / 2, peak / payload_bytes


def drop_entry(caches, key):
    del caches[0][key]


def flip_entry(caches, key):
    caches[0][key] = bytes(b ^ 0xFF for b in caches[0][key])


def copy_entries(caches, key):
    for cache in caches:
        for entry, packet in cache.items():
            cache[entry] = bytes(bytearray(packet))  # equal bytes, a new object


@pytest.mark.parametrize("change", [drop_entry, flip_entry, copy_entries])
@pytest.mark.parametrize("failing", [(1, 2, 3, 1), (3, 1, 1, 2)])
def test_block_sweep_reads_each_users_own_cache(monkeypatch, change, failing):
    # User 1 caches row 3 of mn(4, 2) and cancels W[d_3, 3] out of one of its
    # signals.  Changing its entry for file 3 fails a demand with d_3 = 3 (a
    # cancellation) or d_1 = 3 (its own cached row); files 1 and 2 decode.
    grid = mn_pda(4, 2)
    assert grid.cells[2][0] == STAR and grid.cells[2][2] != STAR
    real_place = simulate.place

    def place(grid, lib):
        caches = real_place(grid, lib)
        change(caches, (3, 3))
        return caches

    monkeypatch.setattr(simulate, "place", place)
    lib = FileLibrary.generate(3, 6, packet_len=EIGHT_PER_BLOCK, seed=5)
    w3 = lib.packets[2]  # W[3, 3] all zeros: a missing entry must not pass as one
    lib = lib._replace(packets=lib.packets[:2] + (w3[:2] + (bytes(EIGHT_PER_BLOCK),) + w3[3:],))
    demands = list(all_demands(2, 4)) + [(2, 1, 2, 1)] * 8
    demands[19:19] = [failing, (3, 3, 3, 3)]  # demand 20, after 19 that pass
    expected = per_demand_sweep(grid, lib, demands)
    assert block_sweep(grid, lib, demands) == expected
    assert expected[2] == (None if change is copy_entries else failing)


def test_block_sweep_fails_a_cached_entry_of_the_wrong_length(monkeypatch):
    # decode refuses to XOR such an entry (ValueError); the sweep fails the
    # demands that read it and goes on.
    real_place = simulate.place

    def place(grid, lib):
        caches = real_place(grid, lib)
        caches[0][(3, 3)] = caches[0][(3, 3)][:-1]
        return caches

    monkeypatch.setattr(simulate, "place", place)
    lib = FileLibrary.generate(3, 6, packet_len=8, seed=5)
    for failing in [(1, 2, 3, 1), (3, 1, 1, 2)]:
        demands = list(all_demands(2, 4)) + [failing, (3, 3, 3, 3)]
        res = run_sweep(mn_pda(4, 2), lib, demands)
        assert res.demands_checked == 18 and res.first_failure == failing


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
