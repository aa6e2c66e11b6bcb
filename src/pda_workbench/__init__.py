"""Placement delivery arrays: construction, verification, bounds, filling,
and byte-level scheme simulation.

Import each name from the module that defines it:

* core:          PdaGrid, StarPattern, verify_pda, pda_params, text formats
* constructions: partition_pda, bipartite_pda, mn_pda, grouping_pda
* bounds:        eval_ordering, theorem1_exact/greedy, theorem3_search,
                 the families' prescribed orderings
* formulas:      the closed forms `table` reports
* simulate:      FileLibrary, place/deliver/decode, demand sweeps
* filler:        conflict-graph coloring (fill_greedy, fill_exact)
* cli:           the pda-workbench command
"""

__version__ = "0.1.0"
