"""Strict experiment configuration: parse, validate, canonicalize.

Config files are plain text with two sections::

    [run]
    experiment = dag-exploration
    seed = 42
    output_dir = out        # optional; CLI --out overrides

    [params]
    graph_file = configs/custom_graph.txt

A comment starts with a ``#`` at the start of a line or after whitespace, so a
``#`` inside a value (``output_dir = runs/#3``) is part of it.
Parsing is strict: unknown sections, unknown keys and duplicate keys raise
ConfigError with the full key path.  An experiment's schema maps each of its
params to its default; every param is a string, kept as written, and
dag-exploration's ``graph_file`` is the only one.  A seed must be supplied
(file or CLI); nothing in the harness has implicit randomness.
``canonical_text`` renders a config in a unique normal form (fixed section
order, sorted keys), so ``parse -> canonicalize -> serialize -> parse`` is
the identity and the config hash is well-defined.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .errors import ConfigError

_RUN_KEYS = {"experiment", "seed", "output_dir"}
_COMMENT = re.compile(r"(?:^|\s)#")
_SECTIONS = ("run", "params")
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class RawConfig:
    """Config file contents before schema validation."""

    experiment: str | None
    seed: int | None
    output_dir: str | None
    raw_params: dict[str, str]


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration: every param set, required seed."""

    experiment: str
    seed: int
    params: dict[str, str] = field(default_factory=dict)
    output_dir: str = "out"


def parse_config_text(text: str) -> RawConfig:
    """Parse the two-section key=value format, strictly."""
    section: str | None = None
    run: dict[str, str] = {}
    params: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        bucket = run if section == "run" else params
        if key in bucket:
            raise ConfigError(f"line {lineno}: duplicate key {section}.{key}")
        bucket[key] = value
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [run]: {', '.join('run.' + k for k in sorted(unknown))}")
    seed = None
    if "seed" in run:
        seed = _parse_seed(run["seed"])
    return RawConfig(
        experiment=run.get("experiment"),
        seed=seed,
        output_dir=run.get("output_dir"),
        raw_params=params,
    )


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError as exc:
        raise ConfigError(f"run.seed: not an integer: {text!r}") from exc
    return check_seed(seed, "run.seed")


def check_seed(seed: int, source: str) -> int:
    """``seed`` once it is checked to be an unsigned 64-bit integer; ``source`` names where it came from."""
    if not (0 <= seed <= MAX_SEED):
        raise ConfigError(f"{source}: must be an unsigned 64-bit integer, got {seed}")
    return seed


def build_config(
    raw: RawConfig,
    schema: dict[str, str],
    *,
    experiment_names,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    """Validate a raw config against its experiment's schema: each param's default."""
    if raw.experiment is None:
        raise ConfigError("run.experiment is required")
    if raw.experiment not in experiment_names:
        raise ConfigError(
            f"run.experiment: unknown experiment {raw.experiment!r}; "
            f"expected one of {', '.join(sorted(experiment_names))}"
        )
    seed = check_seed(seed_override, "--seed") if seed_override is not None else raw.seed
    if seed is None:
        raise ConfigError("run.seed is required (set it in the file or pass --seed)")
    unknown = set(raw.raw_params) - set(schema)
    if unknown:
        raise ConfigError(
            "unknown parameter keys: " + ", ".join("params." + k for k in sorted(unknown))
        )
    params = {**schema, **raw.raw_params}
    output_dir = out_override if out_override is not None else (raw.output_dir or "out")
    return ExperimentConfig(
        experiment=raw.experiment, seed=int(seed), params=params, output_dir=output_dir
    )


def canonical_text(config: ExperimentConfig) -> str:
    """Unique normal form: fixed section order, sorted param keys."""
    lines = [
        "[run]",
        f"experiment = {config.experiment}",
        f"seed = {config.seed}",
        f"output_dir = {config.output_dir}",
        "",
        "[params]",
    ]
    for key in sorted(config.params):
        lines.append(f"{key} = {config.params[key]}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()
