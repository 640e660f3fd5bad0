"""Per-stage run manifests: config hash, input digests, timings, outputs, counts."""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config_hash: str
    seed: int
    artifact_version: str = __version__
    inputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    counts: dict[str, dict] = field(default_factory=dict)  # what was kept, dropped, fell back

    def add_input(self, path) -> None:
        self.inputs[str(path)] = file_digest(path)

    def add_output(self, path) -> None:
        name = str(path)
        if name not in self.outputs:
            self.outputs.append(name)

    @contextmanager
    def timed(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[stage] = round(time.perf_counter() - start, 6)

    def write(self, out_dir) -> Path:
        """Atomic write: temp file in the same directory, then rename."""
        out_dir = Path(out_dir)
        payload = {
            "artifact_version": self.artifact_version,
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "inputs": dict(sorted(self.inputs.items())),
            "timings": self.timings,
            "outputs": sorted(self.outputs),
            "counts": self.counts,
        }
        target = out_dir / MANIFEST_NAME
        tmp = out_dir / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, target)
        return target
