"""The result and parameter records: immutable named tuples whose checks
and normalisation run on construction, and whose equality means what each
record's callers rely on."""

import pytest

from pda_workbench import bounds, constructions, core, filler, formulas, simulate
from pda_workbench.bounds import BoundCertificate, eval_ordering, theorem3_search
from pda_workbench.constructions import mn_pda
from pda_workbench.core import (
    STAR,
    MalformedGridError,
    PdaGrid,
    PdaParams,
    StarPattern,
    Violation,
    VerifyResult,
    to_star_pattern,
    verify_pda,
)
from pda_workbench.filler import build_conflict_graph, fill_exact
from pda_workbench.formulas import RatioReport, ratio_report
from pda_workbench.simulate import (
    FileLibrary,
    _schedule,
    decode,
    deliver,
    place,
    run_sweep,
)

MODULES = (core, constructions, bounds, filler, formulas, simulate)


def _samples():
    grid = mn_pda(3, 1)
    pattern = to_star_pattern(grid)
    lib = FileLibrary.generate(n=2, f=grid.f, packet_len=4, seed=1)
    demand = (1, 2, 1)
    transcript = deliver(grid, lib, demand)
    return [
        core.pda_params(grid),
        grid,
        pattern,
        Violation("C2", (), "symbol 1 never appears"),
        verify_pda(grid),
        eval_ordering(pattern, (1, 2, 3)),
        theorem3_search(2, 2, 1),
        build_conflict_graph(pattern),
        fill_exact(pattern),
        ratio_report(2, 2),
        lib,
        transcript.signals[0],
        transcript,
        _schedule(grid),
        decode(grid, transcript, place(grid, lib), lib),
        run_sweep(grid, lib, [demand]),
    ]


SAMPLES = _samples()


def test_samples_cover_every_record_type():
    defined = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and hasattr(obj, "_fields")
        and obj.__module__ == module.__name__
    }
    assert {type(r) for r in SAMPLES} == defined
    assert len(defined) == 16


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_carry_no_instance_dict(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_rebuild_from_their_fields_by_position_and_keyword(record):
    cls = type(record)
    assert cls(*record) == record
    assert cls(**record._asdict()) == record


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PdaParams(0, 1, 0, 0), ValueError, "need K >= 1 and F >= 1, got K=0, F=1"),
        (lambda: PdaParams(k=2, f=3, z=4, s=0), ValueError, "need 0 <= Z <= F, got Z=4, F=3"),
        (
            lambda: PdaGrid(((1,), (1, 2))),
            MalformedGridError,
            "ragged grid: row 1 has 1 cells, row 2 has 2",
        ),
        (
            lambda: StarPattern(2, (4,)),
            ValueError,
            "user 1 mask 0x4 out of range for F=2",
        ),
        (lambda: VerifyResult(True, (Violation("C2", ()),)), AssertionError, ""),
        (
            lambda: BoundCertificate(3, 2, (1, 2), (1, 1), "prescribed", False),
            ValueError,
            "certificate value disagrees with its steps",
        ),
        (
            lambda: RatioReport(3, 2, 18, 10, 20, None, (1, 1)),
            ValueError,
            "exact value 20 outside [10, 18]",
        ),
    ],
    ids=[
        "PdaParams-k", "PdaParams-z", "PdaGrid", "StarPattern", "VerifyResult",
        "BoundCertificate", "RatioReport",
    ],
)
def test_checked_records_reject_bad_input_as_before(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_grid_rows_are_normalised_to_tuples():
    from_lists = PdaGrid([[1, STAR], [STAR, 1]])
    from_tuples = PdaGrid(((1, STAR), (STAR, 1)))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.cells == ((1, STAR), (STAR, 1))
    assert all(type(row) is tuple for row in from_lists.cells)


def test_star_pattern_masks_are_normalised_to_a_tuple():
    pattern = StarPattern(2, [1, 2])
    assert pattern.masks == (1, 2)
    assert type(pattern.masks) is tuple
    assert pattern == StarPattern(f=2, masks=(1, 2))


@pytest.mark.parametrize(
    "grid",
    [mn_pda(4, 2), PdaGrid(((1, 2), (2, 1))), PdaGrid(((STAR, 1), (STAR, STAR)))],
    ids=["valid", "cross-cell", "ragged-stars"],
)
def test_verify_takes_a_grid_and_its_raw_cells_alike(grid):
    # A PdaGrid is itself a sequence (the 1-tuple of its cells), so the
    # checker must not mistake it for raw rows.
    assert verify_pda(grid) == verify_pda(grid.cells)
    assert verify_pda(grid) == verify_pda([list(row) for row in grid.cells])
