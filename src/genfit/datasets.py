"""Bundled case-study datasets and the text data-file reader.

Data files are plain UTF-8 text: reals separated by whitespace, commas, or
newlines; lines starting with '#' are comments.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

__all__ = ["BUNDLED", "load_dataset", "parse_data_text", "DataParseError"]

BUNDLED = ("bearing", "earthquake", "pollution")


class DataParseError(ValueError):
    def __init__(self, token: str, line: int):
        self.token = token
        self.line = line
        super().__init__(f"non-numeric data token {token!r} on line {line}")


def parse_data_text(text: str) -> np.ndarray:
    values = []
    first_content_line = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.replace(",", " ").split()
        try:
            parsed = [float(token) for token in tokens]
        except ValueError:
            if first_content_line and not _is_number(tokens[0]):
                # a single leading line that starts with a word is a header
                first_content_line = False
                continue
            bad = next(t for t in tokens if not _is_number(t))
            raise DataParseError(bad, lineno) from None
        values.extend(parsed)
        first_content_line = False
    return np.asarray(values, dtype=float)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_dataset(name_or_path: str) -> np.ndarray:
    """Load a bundled dataset by name, or any data file by path."""
    if name_or_path in BUNDLED:
        text = (
            resources.files("genfit").joinpath(f"data/{name_or_path}.txt").read_text()
        )
        return parse_data_text(text)
    path = Path(name_or_path)
    if not path.exists():
        raise FileNotFoundError(
            f"no such data file {name_or_path!r} (bundled names: {', '.join(BUNDLED)})"
        )
    return parse_data_text(path.read_text())
