"""Run manifests and byte-reproducible CSV emission.

CSV cells are rendered with ``repr`` for floats (shortest string that
round-trips to the same double) and plain ``str`` for integers, so a rerun
with the same config and seed produces byte-identical files regardless of
thread count.  The manifest records the canonical config hash, the seed,
every emitted file by absolute path with its sha256, and the pass/fail
checks; timestamps live only in the manifest, never in data files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import CertlabError, ReportError

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class Check:
    """One named assertion with its outcome and a human-readable detail."""

    name: str
    passed: bool
    detail: str = ""


def format_cell(value: object) -> str:
    if hasattr(value, "item"):  # numpy scalar -> plain Python scalar
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    # floats take the shortest round-trip representation
    text = repr(value) if isinstance(value, float) else str(value)
    if "," in text or "\n" in text:
        raise ReportError(f"CSV cell would need quoting: {text!r}")
    return text


def write_csv(path: Path, header: list[str], rows) -> str:
    """Write rows and return the file's sha256 hex digest."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return write_text_file(path, "\n".join(lines) + "\n")


def write_text_file(path: Path, text: str) -> str:
    """Write a plain-text artifact as UTF-8, creating its directory, and return its sha256 hex digest.
    Every file certlab writes goes through here."""
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def read_text_file(path: str | Path, error: type[CertlabError]) -> str:
    """A UTF-8 text file's contents; bytes that are not UTF-8 raise ``error``, naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise ReportError(f"missing CSV file: {path}")
    lines = read_text_file(path, ReportError).splitlines()
    if not lines:
        raise ReportError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ReportError(f"CSV row width differs from its header: {path}")
    return header, rows


@dataclass
class RunManifest:
    """Record of one experiment run: inputs, outputs, and check results."""

    experiment: str
    config_hash: str
    seed: int
    version: str = ARTIFACT_VERSION
    started_at: str = ""
    finished_at: str = ""
    files: list[dict] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)

    @staticmethod
    def timestamp() -> str:
        return datetime.now(timezone.utc).isoformat(timespec="microseconds")

    def add_file(self, path: Path, digest: str) -> None:
        # absolute, so that a report run from any working directory finds the file
        self.files.append({"path": str(Path(path).resolve()), "sha256": digest})

    def add_checks(self, checks) -> None:
        self.checks.extend(asdict(c) for c in checks)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def save(self, path: Path) -> None:
        write_text_file(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


# What a report reads of each manifest entry: (field, type, value when absent; None if required).
_ENTRY_FIELDS = {
    "files": (("path", str, None), ("sha256", str, None)),
    "checks": (("name", str, None), ("passed", bool, None), ("detail", str, "")),
}


def load_manifest(path: Path) -> RunManifest:
    if not path.exists():
        raise ReportError(f"missing manifest: {path}")
    try:
        fields = json.loads(path.read_text(encoding="utf-8"))
        # a lone surrogate escape such as "\udcff" is no text a report can write
        json.dumps(fields, ensure_ascii=False).encode("utf-8")
        manifest = RunManifest(**fields)
    except (ValueError, TypeError) as exc:  # UnicodeError is a ValueError
        raise ReportError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(manifest.experiment, str):
        raise ReportError(f"malformed manifest {path}: experiment is not a string")
    for key, fields in _ENTRY_FIELDS.items():
        entries = getattr(manifest, key)
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) and all(isinstance(entry.get(name, absent), kind) for name, kind, absent in fields)
            for entry in entries
        ):
            spec = ", ".join(f"{kind.__name__} {name}" for name, kind, _ in fields)
            raise ReportError(f"malformed manifest {path}: {key} is not a list of objects with {spec}")
    return manifest
