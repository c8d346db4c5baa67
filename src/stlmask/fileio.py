"""CSV and config-file round-tripping for the CLI and app drivers.

Signal CSV: a header row of identifier column names, one row per timestep.
A ``t`` column, when present, sets ``dt`` from its first two entries and is
otherwise ignored by the semantics.  Values are written with ``repr`` so a
write/read round trip is bit-identical.

Dataset CSV (mining): columns are individual signals (``sig0``, ``sig1``,
...), rows are timesteps.

Config files: ``key = value`` lines, ``#`` comments.  Schedules are written
``kind:start:end`` (e.g. ``sigmoid:1:30``); tuples are comma-separated.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import NamedSignals, StlError

__all__ = [
    "ConfigError",
    "read_signals_csv",
    "write_signals_csv",
    "read_dataset_csv",
    "write_dataset_csv",
    "parse_config_text",
    "load_config",
    "parse_schedule",
]


class ConfigError(StlError):
    """Malformed CSV or config input."""


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"not a number in {where}: {text!r}") from None


def read_signals_csv(path) -> NamedSignals:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ConfigError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    for name in header:
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise ConfigError(f"{path}: column name {name!r} is not an identifier")
    if len(set(header)) != len(header):
        raise ConfigError(f"{path}: duplicate column names")
    data = np.empty((len(rows) - 1, len(header)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            data[i, j] = _parse_float(cell.strip(), f"{path} row {i + 2}")
    dt = 1.0
    if "t" in header:
        tcol = data[:, header.index("t")]
        if len(tcol) >= 2:
            dt = float(tcol[1]) - float(tcol[0])
            if not 0 < dt < np.inf:
                raise ConfigError(f"{path}: t column must increase by a finite step")
    channels = {name: data[:, j] for j, name in enumerate(header) if name != "t"}
    if not channels:
        raise ConfigError(f"{path}: no signal columns besides t")
    return NamedSignals.from_arrays(channels, dt=dt)


def write_signals_csv(path, signals: NamedSignals):
    names = signals.names()
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(signals.length):
            writer.writerow([repr(float(signals[n].values[i])) for n in names])


def read_dataset_csv(path) -> np.ndarray:
    signals = read_signals_csv(path)
    return np.stack([signals[n].values for n in signals.names()])


def write_dataset_csv(path, dataset: np.ndarray):
    dataset = np.asarray(dataset, dtype=np.float64)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"sig{i}" for i in range(dataset.shape[0])])
        for t in range(dataset.shape[1]):
            writer.writerow([repr(float(v)) for v in dataset[:, t]])


def parse_config_text(text: str, where: str = "config") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where} line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key or not value.strip():
            raise ConfigError(f"{where} line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{where} line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    try:
        return parse_config_text(path.read_text(), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def parse_schedule(text: str, where: str = "schedule") -> tuple[str, float, float]:
    parts = text.split(":")
    if parts[0] == "constant" and len(parts) == 2:
        v = _parse_float(parts[1], where)
        return ("constant", v, v)
    if len(parts) != 3 or parts[0] not in ("linear", "sigmoid"):
        raise ConfigError(
            f"{where}: expected 'constant:v', 'linear:start:end', or 'sigmoid:start:end', got {text!r}")
    return (parts[0], _parse_float(parts[1], where), _parse_float(parts[2], where))


def apply_config(mapping: Mapping[str, str], spec: Mapping[str, type], where: str = "config") -> dict:
    """Convert raw string values per a name->kind table; rejects unknown keys."""
    out = {}
    for key, raw in mapping.items():
        if key not in spec:
            raise ConfigError(f"{where}: unknown key {key!r} (known: {', '.join(sorted(spec))})")
        kind = spec[key]
        if kind is float:
            out[key] = _parse_float(raw, f"{where}.{key}")
        elif kind is int:
            value = _parse_float(raw, f"{where}.{key}")
            if not value.is_integer():
                raise ConfigError(f"{where}.{key}: expected an integer, got {raw!r}")
            out[key] = int(value)
        elif kind is tuple:
            out[key] = tuple(_parse_float(p, f"{where}.{key}") for p in raw.split(","))
        elif kind == "schedule":
            out[key] = parse_schedule(raw, f"{where}.{key}")
        else:
            out[key] = raw
    return out
