"""Resource allocation for inter-GEO communication relayed by a storage-coded LEO constellation.

Modules by concern: orbital kinematics (:mod:`georelay.geometry`), RF link
budgets (:mod:`georelay.link`), regenerating codes over finite fields
(:mod:`georelay.coding`, :mod:`georelay.gf`), capped waterfilling
(:mod:`georelay.waterfill`), the shared stage request and horizon search
(:mod:`georelay.horizon`), the downlink/uplink/repair optimizers, and the
scenario-driven CLI (:mod:`georelay.cli`). :mod:`georelay.lp_solver` holds
the LP/MILP engines of the outer-approximation allocator that exact greedy
replaced; no solve path uses them. The package exports no names of its own:
import them from their modules.
"""

__version__ = "0.1.0"
