"""JSON and text artifacts; a file written here is either complete or absent."""

import json
import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write a whole artifact or nothing: a temporary file, then os.replace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload: dict) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
