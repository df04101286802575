"""Resource allocation for inter-GEO communication relayed by a storage-coded LEO constellation.

Modules by concern: orbital kinematics (:mod:`georelay.geometry`), RF link
budgets (:mod:`georelay.link`), regenerating codes over finite fields
(:mod:`georelay.coding`, :mod:`georelay.gf`), capped waterfilling
(:mod:`georelay.waterfill`), the shared stage request and horizon search
(:mod:`georelay.horizon`), the downlink/uplink/repair optimizers, and the
scenario-driven CLI (:mod:`georelay.cli`). The uplink file counts, the MDS
repair's file counts and the regenerating repair's helper set come from one
exact marginal-cost greedy (:func:`georelay.uplink_opt.oa_solve`), and their
horizons from one search (:func:`georelay.uplink_opt.min_time_solve`).
Regenerating repair takes its D helpers and beta files per helper from the
code parameters, which :func:`georelay.coding.validate_params` checks
against the cut-set bound.
:mod:`georelay.lp_solver` holds only stubs the benchmark's tracer names. The
package exports no names of its own: import them from their modules.
"""

__version__ = "0.1.0"
