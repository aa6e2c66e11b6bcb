"""Placement delivery arrays: construction, verification, bounds, filling,
and byte-level scheme simulation.

Import each name from the module that defines it:

* core:          PdaGrid, StarPattern, verify_pda, pda_params, text formats
* constructions: partition_pda, bipartite_pda, mn_pda, grouping_pda,
                 the per-family orderings
* bounds:        eval_ordering, theorem1_exact/greedy, theorem3_search
* formulas:      the closed forms `table` reports
* simulate:      FileLibrary, place/deliver/decode, demand sweeps
* filler:        conflict-graph coloring (fill_exact); its budget also caps
                 the ordering bound at min(budget, 1e6) intersections
* cli:           the pda-workbench command; each subcommand's arguments
                 and handler are in _cmd_<subcommand> (_cmd_construct ...
                 _cmd_table), imported only to run it
"""

__version__ = "0.1.0"
