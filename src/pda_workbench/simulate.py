"""End-to-end broadcast simulation on concrete byte payloads.

The pipeline follows the scheme an array encodes: split every file into F
packets, give user k the starred rows of column k (same rows for every
file), then for each symbol s broadcast the XOR of W_{d_k, j} over the
cells p_{j,k} = s.  A user recovers a missing packet by cancelling the
other terms of its signal out of its own cache; the array's axioms are
exactly what makes every cancellation term cached and every needed packet
covered by one signal.

The work splits in two.  Which cells share a symbol is fixed by the array,
so the schedule (the symbols in id order with their sorted terms and the
check that none repeats a row or column, and for each user which rows it
caches and which signal and cancellation terms serve the rest) is built
once per call.  Only the payloads depend on the demand.  For one demand,
delivery XORs each symbol's packets, and decoding XORs each signal with
the cancellation terms taken from the user's own cache, one fold of packet
bytes (`_xor_fold`) per signal or cell.

A sweep either proves every demand from the schedule or decodes each one.
Where every cache entry a user reads is the library's own packet object,
C3 makes the signal less its other terms equal W[d_k, j] for every demand,
so the sweep only validates and counts the demands; otherwise it delivers
each demand and runs `decode` on it.

Nothing memoises the payloads: the caches share the library's packet
objects, and a fold converts each packet when it reads it.  Every packet
a fold reads is length-checked, so delivery refuses a wrong-length packet
it broadcasts, decoding a wrong-length payload or cancellation term, and
a sweep, which may deliver no demand at all, any wrong-length packet of
the library before it counts a demand.  Decoding reads the user's cache
alone and compares each joined file with the library's bytes.

XOR over raw bytes stands in for the unspecified field: GF(2) suffices for
one-shot decoding.  Payloads come from a seeded generator so transcripts
are reproducible.
"""

from __future__ import annotations

import random
import sys
import time
from collections import namedtuple
from itertools import product

from .core import DEFAULT_PACKET_LEN, STAR, PdaGrid, pda_params

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
    Cache = Dict[Tuple[int, int], bytes]  # (file n, row j) -> packet
    Term = Tuple[int, int]  # (user k, row j) of one cell

_MAX_PACKET_LEN = (1 << 28) - 1  # randbytes on Python 3.11 draws 8 * len bits via a C int
_MAX_LIBRARY_BYTES = 1 << 31  # N*F packets, each with its bytes header and a tuple slot


class DecodeError(Exception):
    """A packet was not in the decoding user's cache: a cancellation term of
    a signal, or (signal None) the user's own cached row."""

    def __init__(self, signal: Optional[int], user: int, row: int):
        self.signal = signal
        self.user = user
        self.row = row
        if signal is None:
            super().__init__(f"user {user} cannot read row {row}: it is not cached")
        else:
            super().__init__(
                f"user {user} cannot decode row {row} from signal {signal}: "
                "a cancellation term is not cached"
            )


def _xor_fold(packets: Iterable[bytes], length: int) -> int:
    """XOR of packets that are each `length` bytes long, as a little-endian
    integer (0 for none); `.to_bytes(length, "little")` gives the bytes."""
    acc = 0
    for packet in packets:
        if len(packet) != length:
            raise ValueError(f"cannot XOR {len(packet)} bytes with {length} bytes")
        acc ^= int.from_bytes(packet, "little")
    return acc


class FileLibrary(namedtuple("FileLibrary", "n f packet_len packets")):
    """N files of F equal-length packets each."""

    # packets[file-1][row-1]
    __slots__ = ()

    @classmethod
    def generate(
        cls,
        n: int,
        f: int,
        packet_len: int = DEFAULT_PACKET_LEN,
        seed: int = 0,
    ) -> "FileLibrary":
        if n < 1 or f < 1 or packet_len < 1:
            raise ValueError("need n, f, packet_len >= 1")
        if packet_len > _MAX_PACKET_LEN:
            raise ValueError(f"packet_len must be at most {_MAX_PACKET_LEN}, got {packet_len}")
        size = n * f * (packet_len + sys.getsizeof(b"") + 8)
        if size > _MAX_LIBRARY_BYTES:
            raise ValueError(
                f"a library of {n} files of {f} packets of {packet_len} bytes takes about"
                f" {size} bytes in memory, more than {_MAX_LIBRARY_BYTES}"
            )
        rng = random.Random(seed)
        packets = tuple(
            tuple(rng.randbytes(packet_len) for _ in range(f))
            for _ in range(n)
        )
        return cls(n=n, f=f, packet_len=packet_len, packets=packets)

    def packet(self, n: int, j: int) -> bytes:
        """Packet j (1-based row) of file n (1-based)."""
        return self.packets[n - 1][j - 1]

    def file_bytes(self, n: int) -> bytes:
        return b"".join(self.packets[n - 1])


class Signal(namedtuple("Signal", "id terms payload")):
    # terms: (user, row), sorted
    __slots__ = ()


class DeliveryTranscript(namedtuple("DeliveryTranscript", "demand signals decode_log")):
    # decode_log: (user, row) -> signal id
    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "demand": list(self.demand),
            "signals": [
                {
                    "id": s.id,
                    "terms": [{"user": k, "row": j} for k, j in s.terms],
                    "payload_hex": s.payload.hex(),
                }
                for s in self.signals
            ],
            "decode_log": [
                {"user": k, "row": j, "signal": s}
                for (k, j), s in sorted(self.decode_log.items())
            ],
        }


def _check_demand(grid: PdaGrid, lib: FileLibrary, d: Sequence[int]) -> Tuple[int, ...]:
    d = tuple(d)
    if len(d) != grid.k:
        raise ValueError(f"demand length {len(d)} != K = {grid.k}")
    for n in d:
        if not 1 <= n <= lib.n:
            raise ValueError(f"demanded file {n} outside [1, {lib.n}]")
    if lib.f != grid.f:
        raise ValueError(f"library has {lib.f} packets per file, grid has {grid.f} rows")
    return d


def place(grid: PdaGrid, lib: FileLibrary) -> List[Cache]:
    """Fill each user's cache: starred rows of its column, for every file.

    Returns caches indexed by user-1; each maps (file n, row j) to the
    packet bytes.  Every cache holds N*Z packets.
    """
    if lib.f != grid.f:
        raise ValueError(f"library has {lib.f} packets per file, grid has {grid.f} rows")
    caches: List[Cache] = []
    for k in range(1, grid.k + 1):
        cache: Cache = {}
        for j in range(1, grid.f + 1):
            if grid.cells[j - 1][k - 1] == STAR:
                for n in range(1, lib.n + 1):
                    cache[(n, j)] = lib.packet(n, j)
        caches.append(cache)
    return caches


class _Schedule(namedtuple("_Schedule", "symbols repeated rows")):
    """Everything delivery, decoding and a sweep's proof need of one array,
    whatever the demand."""

    # symbols: (id, sorted terms), by id; one pass over them fills in
    # repeated: the first symbol that repeats a row or column, and
    # rows[k - 1][j - 1]: None if user k caches row j, else (signal id, the
    # signal's other terms, which user k cancels out of its cache)
    __slots__ = ()

    def refuse_repeats(self) -> None:
        if self.repeated is not None:
            raise ValueError(f"symbol {self.repeated} repeats a row or column; not a valid array")


def _schedule(grid: PdaGrid) -> _Schedule:
    by_symbol: Dict[int, List[Term]] = {}
    for j, row in enumerate(grid.cells, start=1):
        for k, s in enumerate(row, start=1):
            if s != STAR:
                by_symbol.setdefault(s, []).append((k, j))
    symbols = tuple((s, tuple(sorted(by_symbol[s]))) for s in sorted(by_symbol))
    rows: List[list] = [[None] * grid.f for _ in range(grid.k)]  # as _Schedule.rows
    repeated = None
    for s, terms in symbols:
        ks, js = zip(*terms)
        if repeated is None and len(terms) > min(len(set(ks)), len(set(js))):
            repeated = s
        for k, j in terms:
            rows[k - 1][j - 1] = (s, tuple(t for t in terms if t != (k, j)))
    return _Schedule(symbols=symbols, repeated=repeated, rows=tuple(map(tuple, rows)))


def deliver(grid: PdaGrid, lib: FileLibrary, d: Sequence[int]) -> DeliveryTranscript:
    """Broadcast one signal per symbol: XOR of W_{d_k, j} over its cells."""
    d = _check_demand(grid, lib, d)
    schedule = _schedule(grid)
    schedule.refuse_repeats()
    n = lib.packet_len
    signals, decode_log = [], {}
    for s, terms in schedule.symbols:
        payload = _xor_fold((lib.packet(d[k - 1], j) for k, j in terms), n)
        signals.append(Signal(id=s, terms=terms, payload=payload.to_bytes(n, "little")))
        decode_log.update(dict.fromkeys(terms, s))
    return DeliveryTranscript(demand=d, signals=tuple(signals), decode_log=decode_log)


class DecodeResult(namedtuple("DecodeResult", "files ok")):
    # files: per user, the reassembled requested file
    __slots__ = ()


def decode(
    grid: PdaGrid,
    transcript: DeliveryTranscript,
    caches: Sequence[Cache],
    lib: FileLibrary,
) -> DecodeResult:
    """Reassemble every user's requested file from cache plus signals.

    For each uncached row, the user takes its one signal's payload from the
    transcript, XORs the other terms' packets out of its cache, and keeps
    the remainder.  A missing cancellation packet raises DecodeError naming
    the (signal, user, row) — that means the array never satisfied the
    axioms — and a missing cached row raises it with no signal.  The ok
    flag compares every reassembled file byte-for-byte against the
    library.  The demand is the transcript's own.
    """
    d = _check_demand(grid, lib, transcript.demand)
    n = lib.packet_len
    payload_of = {s.id: _xor_fold((s.payload,), n) for s in transcript.signals}
    files: List[bytes] = []
    for k, rows in enumerate(_schedule(grid).rows, start=1):
        cache = caches[k - 1]
        want = d[k - 1]
        parts: List[bytes] = []
        for j, entry in enumerate(rows, start=1):
            if entry is None:
                if (want, j) not in cache:
                    raise DecodeError(signal=None, user=k, row=j)
                parts.append(cache[(want, j)])
                continue
            sid, others = entry
            try:  # every term is looked up before any is length-checked
                terms = [cache[(d[k2 - 1], j2)] for k2, j2 in others]
            except KeyError:
                raise DecodeError(signal=sid, user=k, row=j) from None
            parts.append((payload_of[sid] ^ _xor_fold(terms, n)).to_bytes(n, "little"))
        files.append(b"".join(parts))
    ok = all(file == lib.file_bytes(want) for file, want in zip(files, d))
    return DecodeResult(files=tuple(files), ok=ok)


def all_demands(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Every demand vector in [n]^k, lexicographic."""
    return product(range(1, n + 1), repeat=k)


def sample_demands(n: int, k: int, count: int, seed: int = 0) -> Iterator[Tuple[int, ...]]:
    """`count` seeded random demands in [n]^k, drawn as they are consumed."""
    rng = random.Random(seed)
    return (tuple(rng.randint(1, n) for _ in range(k)) for _ in range(count))


class SweepResult(
    namedtuple("SweepResult", "demands_checked all_ok rate first_failure stats")
):
    """Outcome of a demand sweep.

    rate is the array's S/F as a `core.ratio` pair.  stats holds the
    demands, the signals and the XOR terms (each delivery term and each
    cancellation term, sum of g_s^2 per demand) that the scheme broadcasts
    and decodes for them, not the XORs the sweep itself performs, and
    elapsed_s.
    """

    __slots__ = ()


def run_sweep(
    grid: PdaGrid,
    lib: FileLibrary,
    demands: Iterable[Sequence[int]],
) -> SweepResult:
    """Deliver and decode every demand; report byte-exactness across all.

    Caches are placed once and shared by every demand, and the array's
    schedule is built once.  The sweep proves the demands from the schedule
    when the array has S symbols and every cache entry a user reads (its
    cached rows and its signals' other terms) is the library's own packet:
    by C3 each user then recovers its file for every demand.  Otherwise
    each demand is delivered and decoded: it fails when `decode` misses a
    cache entry or folds one of the wrong length, or a file differs from
    the library, and every demand fails when the array has other than S
    symbols.  A proved sweep delivers no demand.  Every demand is
    validated, and before the first is counted the sweep refuses a symbol
    that repeats a row or column and a library packet of the wrong length,
    as delivering it would.  The first failure in input order is reported.
    """
    start = time.perf_counter()
    params = pda_params(grid)
    caches = place(grid, lib)
    schedule = _schedule(grid)
    terms_per_demand = sum(len(terms) ** 2 for _, terms in schedule.symbols)
    has_s_symbols = len(schedule.symbols) == params.s
    # (user k, row j) of each cache row a user reads: its cached rows and the
    # rows of its signals' other terms
    read = {(k, j2) for k, rows in enumerate(schedule.rows, start=1)
            for j, entry in enumerate(rows, start=1)
            for j2 in ([j] if entry is None else [t[1] for t in entry[1]])}
    proved = has_s_symbols and all(caches[k - 1].get((n, j)) is lib.packet(n, j)
                                   for k, j in read for n in range(1, lib.n + 1))
    checked = 0
    first_failure = None
    for d in demands:
        d = _check_demand(grid, lib, d)
        if not checked:  # refuse a bad array or library as a per-demand sweep would
            schedule.refuse_repeats()
            # fold (and so refuse) every packet of another length
            _xor_fold((p for row in lib.packets for p in row if len(p) != lib.packet_len),
                      lib.packet_len)
        checked += 1
        if first_failure is None and not proved:
            transcript = deliver(grid, lib, d)
            try:
                ok = has_s_symbols and decode(grid, transcript, caches, lib).ok
            except (DecodeError, ValueError):  # a missing or wrong-length entry
                ok = False
            if not ok:
                first_failure = d
    return SweepResult(
        demands_checked=checked,
        all_ok=first_failure is None,
        rate=params.rate,
        first_failure=first_failure,
        stats={
            "demands": checked,
            "signals": checked * len(schedule.symbols),
            "xor_terms": checked * terms_per_demand,
            "elapsed_s": time.perf_counter() - start,
        },
    )
