"""Scenario configuration: defaults, schema validation, request construction.

An empty configuration file reproduces the reference five-LEO scenario; any
block or scalar can be overridden. Units are SI (meters, seconds, watts,
hertz, bits) except angles (degrees) and gains/attenuations/noise levels
(dB). The default noise levels sit 94 dB below the values -126.56 / -129.08
often quoted for this scenario: at those literal values no link in this
geometry can deliver a single file at full power, so the defaults are
re-anchored to the feasible operating decade; override ``noise_level_db``
to study other regimes.

``leos`` and ``carriers_hz`` arrays replace the defaults wholesale; scalar
fields merge individually. Unknown keys and non-finite numbers are rejected.
The ``solver`` block's tolerances reach the solvers only through the stage
requests built here.
"""

from __future__ import annotations

import copy
import functools
import json
import math

import jsonschema

from .coding import OperatingPoint, RegenParams, msr_point, mbr_point
from .downlink_opt import DownlinkRequest
from .errors import ConfigError
from .geometry import ConstellationScenario, Geos
from .link import LinkParams
from .repair_opt import RepairRequest
from .uplink_opt import UplinkRequest

DEFAULT_CONFIG: dict = {
    "constellation": {
        "earth_radius_m": 6371.0e3,
        "geos_altitude_m": 35786.0e3,
        "geos_coverage_angle_deg": 12.0,
        "entry_boundary_angle_deg": -41.06,
        "leos": [
            {"altitude_m": 500.0e3, "velocity_mps": 7200.0, "phase_offset_deg": 12.0, "attenuation_db": 10.0},
            {"altitude_m": 700.0e3, "velocity_mps": 7300.0, "phase_offset_deg": 9.0, "attenuation_db": 8.0},
            {"altitude_m": 900.0e3, "velocity_mps": 7400.0, "phase_offset_deg": 6.0, "attenuation_db": 6.0},
            {"altitude_m": 1100.0e3, "velocity_mps": 7500.0, "phase_offset_deg": 3.0, "attenuation_db": 4.0},
            {"altitude_m": 1300.0e3, "velocity_mps": 7600.0, "phase_offset_deg": 0.0, "attenuation_db": 2.0},
        ],
    },
    "code": {
        "total_files": 30,
        "nodes": 5,
        "reconstruct_k": 3,
        "repair_d": 4,
        "per_node_files": 10,
        "per_helper_files": 5,
        "file_bits": 1.6e8,
        "field_order": 256,
        "point": "msr",
    },
    "downlink": {
        "carrier_hz": 19.7e9,
        "bandwidth_hz": 40.0e6,
        "tx_gain_db": 40.0,
        "rx_gain_db": 10.0,
        "noise_level_db": -220.56,
        "p_max_w": 40.0,
        "e_max_j": 3.7e4,
        "t_start_s": 0.0,
        "horizon_s": 600.0,
    },
    "uplink": {
        "carriers_hz": [29.5e9, 29.875e9, 30.25e9, 30.625e9, 31.0e9],
        "bandwidth_hz": 20.0e6,
        "tx_gain_db": 20.0,
        "rx_gain_db": 20.0,
        "noise_level_db": -223.08,
        "p_max_w": 900.0,
        "e_max_j": 5.8e5,
        "t_start_s": 0.0,
        "horizon_s": 600.0,
    },
    # short maintenance slot: keeps helper loads in the convex rate region,
    # where regeneration's lower traffic volume beats skipping weak helpers
    "repair": {
        "failed_node": 5,
        "p_max_w": 900.0,
        "e_max_j": 3.1e4,
        "t_start_s": 0.0,
        "horizon_s": 20.0,
    },
    "solver": {
        "grid_step_s": 1.0,
        "time_energy_rel_tol": 1e-3,
        "time_upper_factor": 4.0,
        "seed": 1,
    },
}

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}

SCHEMA: dict = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "constellation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "earth_radius_m": _POSITIVE,
                "geos_altitude_m": _POSITIVE,
                "geos_coverage_angle_deg": _POSITIVE,
                "entry_boundary_angle_deg": _NUMBER,
                "leos": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["altitude_m", "velocity_mps", "phase_offset_deg", "attenuation_db"],
                        "properties": {
                            "altitude_m": _POSITIVE,
                            "velocity_mps": _POSITIVE,
                            "phase_offset_deg": {"type": "number", "minimum": 0},
                            "attenuation_db": _NUMBER,
                        },
                    },
                },
            },
        },
        "code": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "total_files": _COUNT,
                "nodes": _COUNT,
                "reconstruct_k": _COUNT,
                "repair_d": _COUNT,
                "per_node_files": _COUNT,
                "per_helper_files": _COUNT,
                "file_bits": _POSITIVE,
                "field_order": {"type": "integer", "minimum": 2},
                "point": {"enum": ["msr", "mbr"]},
            },
        },
        "downlink": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "carrier_hz": _POSITIVE,
                "bandwidth_hz": _POSITIVE,
                "tx_gain_db": _NUMBER,
                "rx_gain_db": _NUMBER,
                "noise_level_db": _NUMBER,
                "p_max_w": _POSITIVE,
                "e_max_j": _POSITIVE,
                "t_start_s": {"type": "number", "minimum": 0},
                "horizon_s": _POSITIVE,
            },
        },
        "uplink": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "carriers_hz": {"type": "array", "minItems": 1, "items": _POSITIVE},
                "bandwidth_hz": _POSITIVE,
                "tx_gain_db": _NUMBER,
                "rx_gain_db": _NUMBER,
                "noise_level_db": _NUMBER,
                "p_max_w": _POSITIVE,
                "e_max_j": _POSITIVE,
                "t_start_s": {"type": "number", "minimum": 0},
                "horizon_s": _POSITIVE,
            },
        },
        "repair": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "failed_node": _COUNT,
                "p_max_w": _POSITIVE,
                "e_max_j": _POSITIVE,
                "t_start_s": {"type": "number", "minimum": 0},
                "horizon_s": _POSITIVE,
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid_step_s": _POSITIVE,
                "time_energy_rel_tol": _POSITIVE,
                "time_upper_factor": {"type": "number", "exclusiveMinimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Read, validate and default-fill a scenario file (None = pure defaults).

    ``overrides`` ({block: {field: value}}, the command-line flags) replace
    the file's fields before validation, so they pass the same schema.
    """
    if path is None:
        user: dict = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    for block, fields in (overrides or {}).items():
        if isinstance(user, dict) and isinstance(user.setdefault(block, {}), dict):
            user[block].update(fields)
    return resolve_config(user)


@functools.cache
def _validator():
    """The schema's validator, built on first use (``SCHEMA`` itself is checked by the tests)."""
    return jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def resolve_config(user: dict) -> dict:
    # the error jsonschema.validate would raise, without checking SCHEMA again
    exc = jsonschema.exceptions.best_match(_validator().iter_errors(user))
    if exc is not None:
        raise ConfigError(f"scenario invalid: {exc.message} (at {list(exc.absolute_path)})")
    # NaN passes every schema bound (all its comparisons are false) and
    # infinity passes every lower bound
    try:
        json.dumps(user, allow_nan=False)
    except ValueError as exc:
        raise ConfigError("scenario invalid: NaN or infinite number") from exc
    config = _merge(DEFAULT_CONFIG, user)
    n_leos = len(config["constellation"]["leos"])
    if len(config["uplink"]["carriers_hz"]) != n_leos:
        raise ConfigError(
            f"{len(config['uplink']['carriers_hz'])} uplink carriers for {n_leos} LEOs"
        )
    if config["code"]["nodes"] != n_leos:
        raise ConfigError(f"code block declares {config['code']['nodes']} nodes, constellation has {n_leos}")
    if not 1 <= config["repair"]["failed_node"] <= n_leos:
        raise ConfigError("repair.failed_node out of range (1-based)")
    offsets = [leo["phase_offset_deg"] for leo in config["constellation"]["leos"]]
    if sum(1 for p in offsets if p == 0.0) != 1:
        raise ConfigError("exactly one LEO must have phase_offset_deg = 0")
    return config


def build_constellation(config: dict) -> ConstellationScenario:
    c = config["constellation"]
    return ConstellationScenario(
        earth_radius_m=c["earth_radius_m"],
        geos_altitude_m=c["geos_altitude_m"],
        geos_coverage_angle_rad=math.radians(c["geos_coverage_angle_deg"]),
        leos_altitude_m=tuple(leo["altitude_m"] for leo in c["leos"]),
        leos_velocity_mps=tuple(leo["velocity_mps"] for leo in c["leos"]),
        leos_phase_offset_rad=tuple(math.radians(leo["phase_offset_deg"]) for leo in c["leos"]),
        entry_boundary_angle_rad=math.radians(c["entry_boundary_angle_deg"]),
        reference_geos=Geos.GEOS1,
    )


def build_regen_params(config: dict) -> RegenParams:
    code = config["code"]
    return RegenParams(
        n_files=code["total_files"],
        n_nodes=code["nodes"],
        reconstruct_k=code["reconstruct_k"],
        repair_d=code["repair_d"],
        per_node_files=code["per_node_files"],
        per_helper_files=code["per_helper_files"],
        file_bits=code["file_bits"],
    )


def operating_point(config: dict) -> OperatingPoint:
    return OperatingPoint(config["code"]["point"])


def code_point_check(config: dict):
    """The closed-form operating point for the configured (M, K, D)."""
    code = config["code"]
    fn = msr_point if config["code"]["point"] == "msr" else mbr_point
    return fn(code["total_files"], code["reconstruct_k"], code["repair_d"])


def _search_settings(config: dict) -> dict:
    """The budget-search settings of every time solve."""
    solver = config["solver"]
    return {"upper_factor": solver["time_upper_factor"], "energy_rel_tol": solver["time_energy_rel_tol"]}


def build_downlink_request(config: dict) -> DownlinkRequest:
    scenario = build_constellation(config)
    d = config["downlink"]
    links = tuple(
        LinkParams(
            carrier_hz=d["carrier_hz"],
            bandwidth_hz=d["bandwidth_hz"],
            tx_gain_db=d["tx_gain_db"],
            rx_gain_db=d["rx_gain_db"],
            attenuation_db=leo["attenuation_db"],
            noise_level_db=d["noise_level_db"],
        )
        for leo in config["constellation"]["leos"]
    )
    return DownlinkRequest(
        scenario=scenario,
        links=links,
        files_per_leos=config["code"]["per_node_files"],
        file_bits=config["code"]["file_bits"],
        t_start_s=d["t_start_s"],
        horizon_s=d["horizon_s"],
        p_max_w=d["p_max_w"],
        e_max_j=d["e_max_j"],
        grid_step_s=config["solver"]["grid_step_s"],
        **_search_settings(config),
    )


def _uplink_links(config: dict) -> tuple[LinkParams, ...]:
    u = config["uplink"]
    return tuple(
        LinkParams(
            carrier_hz=carrier,
            bandwidth_hz=u["bandwidth_hz"],
            tx_gain_db=u["tx_gain_db"],
            rx_gain_db=u["rx_gain_db"],
            attenuation_db=leo["attenuation_db"],
            noise_level_db=u["noise_level_db"],
        )
        for carrier, leo in zip(u["carriers_hz"], config["constellation"]["leos"])
    )


def build_uplink_request(config: dict) -> UplinkRequest:
    u = config["uplink"]
    return UplinkRequest(
        scenario=build_constellation(config),
        links=_uplink_links(config),
        total_files=config["code"]["total_files"],
        files_per_leos=config["code"]["per_node_files"],
        file_bits=config["code"]["file_bits"],
        t_start_s=u["t_start_s"],
        horizon_s=u["horizon_s"],
        p_max_w=u["p_max_w"],
        e_max_j=u["e_max_j"],
        grid_step_s=config["solver"]["grid_step_s"],
        serving_geos=Geos.GEOS2,
        **_search_settings(config),
    )


def build_repair_request(config: dict) -> RepairRequest:
    r = config["repair"]
    return RepairRequest(
        scenario=build_constellation(config),
        links=_uplink_links(config),
        params=build_regen_params(config),
        point=operating_point(config),
        failed_node=r["failed_node"] - 1,
        t_start_s=r["t_start_s"],
        horizon_s=r["horizon_s"],
        p_max_w=r["p_max_w"],
        e_max_j=r["e_max_j"],
        grid_step_s=config["solver"]["grid_step_s"],
        **_search_settings(config),
    )
