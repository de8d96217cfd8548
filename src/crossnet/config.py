"""Run configuration: JSON schema, defaults, overrides, strict validation.

A run is described by one JSON document with a block per concern (graph,
model, integrator, experiment) plus an output directory and a master seed.
Unknown keys are rejected rather than ignored.  Override precedence, lowest
to highest: built-in defaults, config file, ``--set``/flag overrides.
"""
from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass

from .dynamics import IntegratorConfig
from .errors import ConfigError, require_int, require_real
from .graphs import GraphSpec
from .rng import check_seed
from .stability import DEFAULT_SKT_PARAMS, SktParams


@dataclass(frozen=True)
class ExperimentConfig:
    perturbation: float = 0.01
    seeds: tuple[int, ...] = (0,)
    realizations: int = 1000
    sweep_param: str | None = None
    sweep_values: tuple | None = None
    threads: int | None = None

    def __post_init__(self):
        require_real("perturbation", self.perturbation)
        require_int("realizations", self.realizations)
        for i, seed in enumerate(self.seeds):
            check_seed(seed, f"seeds[{i}]")
        if self.threads is not None:
            require_int("threads", self.threads)
        if not 0 <= self.perturbation < 1:
            raise ValueError(f"perturbation must be >= 0 and < 1, got {self.perturbation}")
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            # each seed's files go to seed_<s>/, so a repeat would overwrite them
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.sweep_param is not None and self.sweep_param not in ("k", "n", "p"):
            raise ValueError(f"sweep_param must be 'k', 'n' or 'p', got {self.sweep_param!r}")
        if (self.sweep_param is None) != (self.sweep_values is None):
            raise ValueError("sweep_param and sweep_values must be given together")
        if self.sweep_values is not None and len(self.sweep_values) == 0:
            raise ValueError("sweep_values must be non-empty")
        values = self.sweep_values or ()
        if any(value in values[:i] for i, value in enumerate(values)):
            # a repeat would compute and write the same rows twice
            raise ValueError(f"sweep_values must be distinct, got {list(values)}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


# every GraphSpec field, in its order; an unset seed becomes master_seed
_BLANK_GRAPH: dict = {f.name: None for f in dataclasses.fields(GraphSpec)} | {"require_connected": False}

_DEFAULTS: dict = {
    "graph": _BLANK_GRAPH | {"family": "ring", "n": 100, "k": 10},
    "skt": dataclasses.asdict(DEFAULT_SKT_PARAMS),
    "integrator": dataclasses.asdict(IntegratorConfig()),
    # as JSON reads it: tuples become lists
    "experiment": {key: list(value) if isinstance(value, tuple) else value
                   for key, value in dataclasses.asdict(ExperimentConfig()).items()},
    "output_dir": "runs/out",
    "master_seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    graph: GraphSpec
    skt: SktParams
    integrator: IntegratorConfig
    experiment: ExperimentConfig
    output_dir: str
    master_seed: int


def _set_key(doc: dict, block: str, key: str, value) -> None:
    if key not in doc[block]:
        raise ConfigError(f"unknown key {block}.{key!r}; known keys: {sorted(doc[block])}")
    doc[block][key] = value


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(doc: dict, assignment: str) -> None:
    """Apply one 'section.key=value' (or top-level 'key=value') override."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like section.key=value, got {assignment!r}")
    target, raw = assignment.split("=", 1)
    value = _parse_set_value(raw)
    parts = target.strip().split(".")
    if len(parts) == 1:
        key = parts[0]
        if key not in ("output_dir", "master_seed"):
            raise ConfigError(f"unknown top-level key {key!r}")
        doc[key] = value
    elif len(parts) == 2:
        block, key = parts
        if block not in ("graph", "skt", "integrator", "experiment"):
            raise ConfigError(f"unknown config block {block!r}")
        _set_key(doc, block, key, value)
    else:
        raise ConfigError(f"override target must have at most one dot, got {target!r}")


def load_config_doc(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Resolved plain-dict config with every key explicit."""
    doc = copy.deepcopy(_DEFAULTS)
    incoming: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                incoming = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(incoming, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
    # an explicit family invalidates the bundled ring defaults (n=100, k=10);
    # start that block from scratch so unrelated keys do not leak in
    file_graph = incoming.get("graph")
    if (isinstance(file_graph, dict) and "family" in file_graph) or any(
        assignment.split("=", 1)[0].strip() == "graph.family" for assignment in overrides or []
    ):
        doc["graph"] = dict(_BLANK_GRAPH)
    for key, value in incoming.items():
        if key in ("graph", "skt", "integrator", "experiment"):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: block {key!r} must be a JSON object")
            for name, item in value.items():
                _set_key(doc, key, name, item)
        elif key in ("output_dir", "master_seed"):
            doc[key] = value
        else:
            raise ConfigError(f"{path}: unknown top-level key {key!r}")
    for assignment in overrides or []:
        apply_override(doc, assignment)
    if doc["graph"].get("seed") is None:
        doc["graph"]["seed"] = doc["master_seed"]
    # a swept graph key needs no base value of its own: an unset one starts
    # at the first swept value (sweep_values is checked by ExperimentConfig)
    swept, values = doc["experiment"]["sweep_param"], doc["experiment"]["sweep_values"]
    if swept in ("k", "n", "p") and doc["graph"].get(swept) is None and isinstance(values, list) and values:
        doc["graph"][swept] = values[0]
    return doc


def build_run_config(doc: dict) -> RunConfig:
    """Typed RunConfig from a resolved dict; validation errors become ConfigError."""
    try:
        # before the graph block, which inherits master_seed as its seed
        check_seed(doc["master_seed"], "master_seed")
        graph = GraphSpec(**doc["graph"])
        skt = SktParams(**doc["skt"])
        integrator = IntegratorConfig(**doc["integrator"])
        exp = dict(doc["experiment"])
        exp["seeds"] = tuple(exp["seeds"])
        if exp["sweep_values"] is not None:
            exp["sweep_values"] = tuple(exp["sweep_values"])
        experiment = ExperimentConfig(**exp)
        for i, value in enumerate(experiment.sweep_values or ()):
            try:
                dataclasses.replace(graph, **{experiment.sweep_param: value})
            except (TypeError, ValueError) as exc:
                raise ValueError(f"sweep_values[{i}] must be a valid {experiment.sweep_param}: {exc}") from exc
        if not isinstance(doc["output_dir"], str):
            raise ValueError(f"output_dir must be a string, got {doc['output_dir']!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        graph=graph,
        skt=skt,
        integrator=integrator,
        experiment=experiment,
        output_dir=doc["output_dir"],
        master_seed=doc["master_seed"],
    )


def load_config(path: str | None = None, overrides: list[str] | None = None) -> tuple[RunConfig, dict]:
    """Typed RunConfig and the resolved dict it was built from."""
    doc = load_config_doc(path, overrides)
    return build_run_config(doc), doc
