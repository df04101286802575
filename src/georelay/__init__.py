"""Resource allocation for inter-GEO communication relayed by a storage-coded LEO constellation.

Subpackages by concern: orbital kinematics (:mod:`georelay.geometry`), RF
link budgets (:mod:`georelay.link`), regenerating codes over finite fields
(:mod:`georelay.coding`, :mod:`georelay.gf`), capped waterfilling
(:mod:`georelay.waterfill`), the downlink/uplink/repair optimizers, and the
scenario-driven CLI. :mod:`georelay.lp_solver` holds the LP/MILP engines of
the outer-approximation allocator that exact greedy replaced; no solve path
uses them. The exact dynamic-programming allocator that checks the greedy is
a test oracle, not part of the package.
"""

__version__ = "0.1.0"

from .coding import (
    CodedStore,
    OperatingPoint,
    RegenParams,
    check_mu_reconstructable,
    encode,
    mbr_point,
    msr_point,
    reconstruct,
    repair_requirement,
    validate_params,
)
from .downlink_opt import (
    AllocationResult,
    DownlinkRequest,
    constant_power_baseline,
    min_energy_downlink,
    min_time_downlink,
)
from .errors import (
    ConfigError,
    GeorelayError,
    InfeasibleError,
    InternalError,
    SingularSystemError,
)
from .geometry import (
    ConstellationScenario,
    Geos,
    coverage_entry_time,
    geos_distance,
    inter_leos_distance,
    rotation_angle,
)
from .link import LinkParams, PowerProfile, aggregate_gain
from .repair_opt import (
    RepairRequest,
    mds_repair_baseline,
    mds_repair_min_time,
    repair_min_energy,
    repair_min_time,
)
from .uplink_opt import (
    UplinkRequest,
    min_time_uplink,
    oa_min_energy_uplink,
    solve_nlp_fixed_mu,
)

__all__ = [
    "AllocationResult",
    "CodedStore",
    "ConfigError",
    "ConstellationScenario",
    "DownlinkRequest",
    "Geos",
    "GeorelayError",
    "InfeasibleError",
    "InternalError",
    "LinkParams",
    "OperatingPoint",
    "PowerProfile",
    "RegenParams",
    "RepairRequest",
    "SingularSystemError",
    "UplinkRequest",
    "aggregate_gain",
    "check_mu_reconstructable",
    "constant_power_baseline",
    "coverage_entry_time",
    "encode",
    "geos_distance",
    "inter_leos_distance",
    "mbr_point",
    "mds_repair_baseline",
    "mds_repair_min_time",
    "min_energy_downlink",
    "min_time_downlink",
    "min_time_uplink",
    "msr_point",
    "oa_min_energy_uplink",
    "reconstruct",
    "repair_min_energy",
    "repair_min_time",
    "repair_requirement",
    "rotation_angle",
    "solve_nlp_fixed_mu",
    "validate_params",
]
