"""Scenario configuration: defaults, schema validation, request construction.

An empty configuration file reproduces the reference five-LEO scenario; any
block or scalar can be overridden. Units are SI (meters, seconds, watts,
hertz, bits) except angles (degrees) and gains/attenuations/noise levels
(dB). The default noise levels sit 94 dB below the values -126.56 / -129.08
often quoted for this scenario: at those literal values no link in this
geometry can deliver a single file at full power, so the defaults are
re-anchored to the feasible operating decade; override ``noise_level_db``
to study other regimes.

Each field is declared once, its default next to its schema entry;
``DEFAULT_CONFIG`` and ``SCHEMA`` are read off that table. ``leos`` and
``carriers_hz`` arrays replace the defaults wholesale; scalar fields merge
individually. ``_errors`` checks a scenario against ``SCHEMA`` for the few
keywords ``_FIELDS`` uses and words a refusal as ``jsonschema.validate``
(4.26, Draft 2020-12) would, without jsonschema. As in that draft, an
integral float such as 30.0 is an integer; it resolves to the int 30, so the
solvers and the manifest see ints. Unknown keys and non-finite numbers are
rejected. So is a code block of other than one node per LEO, or one that the
encoder's own check, :func:`~georelay.coding.check_code`, refuses: a field
that is not GF(256) or a prime up to ``gf.MAX_PRIME_ORDER``, fewer field
elements or stored symbols than the code needs, or an N alpha x M generator
of more than ``MAX_GENERATOR_ENTRIES`` entries. Its alpha and beta must be
its operating point's, checked once through
:func:`~georelay.coding.code_point`. Resolving also builds the three stage
requests, so a scenario their own checks refuse (say, a LEO above the GEO
altitude, repeated uplink carriers, a code whose D helpers cannot regenerate
a node, or a horizon of more than ``horizon.MAX_CELLS`` grid steps) fails as
a configuration error before any solve. The ``solver`` block's settings
reach the solvers only through the stage requests built here, and
``time_energy_rel_tol`` reaches none: the time searches stop on horizon
widths of their own.
"""

from __future__ import annotations

import copy
import json
import math
import numbers

from .coding import OperatingPoint, RegenParams, check_code, code_point
from .downlink_opt import DownlinkRequest
from .errors import ConfigError
from .geometry import ConstellationScenario
from .link import LinkParams
from .repair_opt import RepairRequest
from .uplink_opt import UplinkRequest

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_NONNEGATIVE = {"type": "number", "minimum": 0}


def _object(properties: dict, **keywords) -> dict:
    """A JSON-schema object that takes no properties beyond ``properties``."""
    return {"type": "object", "additionalProperties": False, **keywords, "properties": properties}


# block -> field -> (default, schema); DEFAULT_CONFIG and SCHEMA are read off it
_FIELDS: dict = {
    "constellation": {
        "earth_radius_m": (6371.0e3, _POSITIVE),
        "geos_altitude_m": (35786.0e3, _POSITIVE),
        "entry_boundary_angle_deg": (-41.06, _NUMBER),
        "leos": (
            [
                {"altitude_m": 500.0e3, "velocity_mps": 7200.0, "phase_offset_deg": 12.0, "attenuation_db": 10.0},
                {"altitude_m": 700.0e3, "velocity_mps": 7300.0, "phase_offset_deg": 9.0, "attenuation_db": 8.0},
                {"altitude_m": 900.0e3, "velocity_mps": 7400.0, "phase_offset_deg": 6.0, "attenuation_db": 6.0},
                {"altitude_m": 1100.0e3, "velocity_mps": 7500.0, "phase_offset_deg": 3.0, "attenuation_db": 4.0},
                {"altitude_m": 1300.0e3, "velocity_mps": 7600.0, "phase_offset_deg": 0.0, "attenuation_db": 2.0},
            ],
            {
                "type": "array",
                "minItems": 1,
                "items": _object(
                    {
                        "altitude_m": _POSITIVE,
                        "velocity_mps": _POSITIVE,
                        "phase_offset_deg": _NONNEGATIVE,
                        "attenuation_db": _NUMBER,
                    },
                    required=["altitude_m", "velocity_mps", "phase_offset_deg", "attenuation_db"],
                ),
            },
        ),
    },
    "code": {
        "total_files": (30, _COUNT),
        "nodes": (5, _COUNT),
        "reconstruct_k": (3, _COUNT),
        "repair_d": (4, _COUNT),
        "per_node_files": (10, _COUNT),
        "per_helper_files": (5, _COUNT),
        "file_bits": (1.6e8, _POSITIVE),
        "field_order": (256, {"type": "integer", "minimum": 2}),
        "point": ("msr", {"enum": [point.value for point in OperatingPoint]}),
    },
    "downlink": {
        "carrier_hz": (19.7e9, _POSITIVE),
        "bandwidth_hz": (40.0e6, _POSITIVE),
        "tx_gain_db": (40.0, _NUMBER),
        "rx_gain_db": (10.0, _NUMBER),
        "noise_level_db": (-220.56, _NUMBER),
        "p_max_w": (40.0, _POSITIVE),
        "e_max_j": (3.7e4, _POSITIVE),
        "t_start_s": (0.0, _NONNEGATIVE),
        "horizon_s": (600.0, _POSITIVE),
    },
    "uplink": {
        "carriers_hz": (
            [29.5e9, 29.875e9, 30.25e9, 30.625e9, 31.0e9],
            {"type": "array", "minItems": 1, "items": _POSITIVE},
        ),
        "bandwidth_hz": (20.0e6, _POSITIVE),
        "tx_gain_db": (20.0, _NUMBER),
        "rx_gain_db": (20.0, _NUMBER),
        "noise_level_db": (-223.08, _NUMBER),
        "p_max_w": (900.0, _POSITIVE),
        "e_max_j": (5.8e5, _POSITIVE),
        "t_start_s": (0.0, _NONNEGATIVE),
        "horizon_s": (600.0, _POSITIVE),
    },
    # short maintenance slot: keeps helper loads in the convex rate region,
    # where regeneration's lower traffic volume beats skipping weak helpers
    "repair": {
        "failed_node": (5, _COUNT),
        "p_max_w": (900.0, _POSITIVE),
        "e_max_j": (3.1e4, _POSITIVE),
        "t_start_s": (0.0, _NONNEGATIVE),
        "horizon_s": (20.0, _POSITIVE),
    },
    "solver": {
        "grid_step_s": (1.0, _POSITIVE),
        # read by no solver; kept for the scenario files that set it and for
        # the benchmark, which checks budget-bound energies against it
        "time_energy_rel_tol": (1e-3, _POSITIVE),
        "time_upper_factor": (4.0, {"type": "number", "exclusiveMinimum": 1}),
        "seed": (1, {"type": "integer", "minimum": 0}),
    },
}

DEFAULT_CONFIG: dict = {
    block: {name: default for name, (default, _) in fields.items()} for block, fields in _FIELDS.items()
}

SCHEMA: dict = _object(
    {block: _object({name: schema for name, (_, schema) in fields.items()}) for block, fields in _FIELDS.items()}
)


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Read, validate and default-fill a scenario file (None = pure defaults).

    ``overrides`` ({block: {field: value}}, the command-line flags) replace
    the file's fields before validation, so they pass the same schema.
    """
    user: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON is a ValueError
            raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    for block, fields in (overrides or {}).items():
        if isinstance(user, dict) and isinstance(user.setdefault(block, {}), dict):
            user[block].update(fields)
    return resolve_config(user)


def _is(value, kind: str) -> bool:
    """jsonschema's type check: a bool is no number, and an integral float is an integer."""
    if kind == "object":
        return isinstance(value, dict)
    if kind == "array":
        return isinstance(value, list)
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return False
    return kind == "number" or isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _errors(value, schema: dict, path: tuple = ()):
    """``(path, message)`` for each way ``value`` fails ``schema``, in jsonschema 4.26's Draft 2020-12 order and words.

    It reads the nine keywords ``_FIELDS`` uses, ``additionalProperties`` only as false, in each schema's
    key order and each only on the kind of value it constrains. A NaN passes every bound.
    """
    for key, bound in schema.items():
        if key == "type" and not _is(value, bound):
            yield path, f"{value!r} is not of type {bound!r}"
        elif key == "enum" and value not in bound:
            yield path, f"{value!r} is not one of {bound!r}"
        elif key == "minimum" and _is(value, "number") and value < bound:
            yield path, f"{value!r} is less than the minimum of {bound!r}"
        elif key == "exclusiveMinimum" and _is(value, "number") and value <= bound:
            yield path, f"{value!r} is less than or equal to the minimum of {bound!r}"
        elif key == "minItems" and _is(value, "array") and len(value) < bound:
            yield path, f"{value!r} {'should be non-empty' if bound == 1 else 'is too short'}"
        elif key == "items" and _is(value, "array"):
            for index, item in enumerate(value):
                yield from _errors(item, bound, (*path, index))
        elif key == "additionalProperties" and _is(value, "object") and (extra := value.keys() - schema["properties"]):
            names = ", ".join(map(repr, sorted(extra, key=str)))
            verb = "was" if len(extra) == 1 else "were"
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "required" and _is(value, "object"):
            yield from ((path, f"{name!r} is a required property") for name in bound if name not in value)
        elif key == "properties" and _is(value, "object"):
            for name, sub in bound.items():
                if name in value:
                    yield from _errors(value[name], sub, (*path, name))


def resolve_config(user: dict) -> dict:
    # best_match's relevance key less its last three terms, which tie under SCHEMA: no keyword in it is weak (anyOf,
    # oneOf) or strong, and errors at one path share one value and subschema; max keeps the first of equal keys
    try:
        worst = max(_errors(user, SCHEMA), key=lambda error: (-len(error[0]), error[0]), default=None)
    except RecursionError as exc:  # a message quotes its value in full, as jsonschema's does
        raise ConfigError("scenario invalid: a value nested too deeply to quote") from exc
    if worst:
        raise ConfigError(f"scenario invalid: {worst[1]} (at {list(worst[0])})")
    # NaN passes every schema bound (all its comparisons are false) and
    # infinity passes every lower bound
    try:
        json.dumps(user, allow_nan=False)
    except ValueError as exc:
        raise ConfigError("scenario invalid: NaN or infinite number") from exc
    # the schema admits only known blocks of scalars and arrays, so fields merge one level down
    config = copy.deepcopy({block: {**fields, **user.get(block, {})} for block, fields in DEFAULT_CONFIG.items()})
    # the schema takes an integral float as an integer; the solvers and the manifest get the int
    for block, fields in _FIELDS.items():
        for name, (_, schema) in fields.items():
            if schema.get("type") == "integer":
                config[block][name] = int(config[block][name])
    n_leos = len(config["constellation"]["leos"])
    if len(config["uplink"]["carriers_hz"]) != n_leos:
        raise ConfigError(
            f"{len(config['uplink']['carriers_hz'])} uplink carriers for {n_leos} LEOs"
        )
    if config["code"]["nodes"] != n_leos:
        raise ConfigError(f"code block declares {config['code']['nodes']} nodes, constellation has {n_leos}")
    code = config["code"]
    # the encoder's check, the code point, then the dataclasses' own checks, before any solve meets them
    try:
        check_code(build_regen_params(config), code["field_order"])
        point = code_point(code["point"], code["total_files"], code["reconstruct_k"], code["repair_d"])
        if (code["per_node_files"], code["per_helper_files"]) != (point.per_node_files, point.per_helper_files):
            raise ValueError(
                f"per_node_files {code['per_node_files']} and per_helper_files {code['per_helper_files']} "
                f"are not the {code['point']} point of total_files {code['total_files']}, "
                f"reconstruct_k {code['reconstruct_k']} and repair_d {code['repair_d']}: "
                f"alpha {point.per_node_files}, beta {point.per_helper_files}"
            )
        build_downlink_request(config)
        build_uplink_request(config)
        build_repair_request(config)
    except ValueError as exc:
        raise ConfigError(f"scenario invalid: {exc}") from exc
    return config


def build_constellation(config: dict) -> ConstellationScenario:
    c = config["constellation"]
    return ConstellationScenario(
        earth_radius_m=c["earth_radius_m"],
        geos_altitude_m=c["geos_altitude_m"],
        leos_altitude_m=tuple(leo["altitude_m"] for leo in c["leos"]),
        leos_velocity_mps=tuple(leo["velocity_mps"] for leo in c["leos"]),
        leos_phase_offset_rad=tuple(math.radians(leo["phase_offset_deg"]) for leo in c["leos"]),
        entry_boundary_angle_rad=math.radians(c["entry_boundary_angle_deg"]),
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


def _links(config: dict, block: str) -> tuple[LinkParams, ...]:
    """One link per LEO from a block's RF fields, on its one carrier or one carrier each."""
    b, leos = config[block], config["constellation"]["leos"]
    carriers = b["carriers_hz"] if "carriers_hz" in b else [b["carrier_hz"]] * len(leos)
    return tuple(
        LinkParams(
            carrier_hz=carrier,
            bandwidth_hz=b["bandwidth_hz"],
            tx_gain_db=b["tx_gain_db"],
            rx_gain_db=b["rx_gain_db"],
            attenuation_db=leo["attenuation_db"],
            noise_level_db=b["noise_level_db"],
        )
        for carrier, leo in zip(carriers, leos)
    )


def _stage_fields(config: dict, block: str, links: tuple[LinkParams, ...]) -> dict:
    """The shared request fields: a block's window and budget, and the solver settings."""
    b, solver = config[block], config["solver"]
    return {
        "scenario": build_constellation(config),
        "links": links,
        "t_start_s": b["t_start_s"],
        "horizon_s": b["horizon_s"],
        "p_max_w": b["p_max_w"],
        "e_max_j": b["e_max_j"],
        "grid_step_s": solver["grid_step_s"],
        "upper_factor": solver["time_upper_factor"],
    }


def build_downlink_request(config: dict) -> DownlinkRequest:
    code = config["code"]
    return DownlinkRequest(
        files_per_leos=code["per_node_files"],
        file_bits=code["file_bits"],
        **_stage_fields(config, "downlink", _links(config, "downlink")),
    )


def build_uplink_request(config: dict) -> UplinkRequest:
    code = config["code"]
    return UplinkRequest(
        total_files=code["total_files"],
        files_per_leos=code["per_node_files"],
        file_bits=code["file_bits"],
        **_stage_fields(config, "uplink", _links(config, "uplink")),
    )


def build_repair_request(config: dict) -> RepairRequest:
    """Repair helpers send on their uplink carriers."""
    return RepairRequest(
        params=build_regen_params(config),
        failed_node=config["repair"]["failed_node"] - 1,
        **_stage_fields(config, "repair", _links(config, "uplink")),
    )
