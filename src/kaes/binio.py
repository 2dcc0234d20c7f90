"""Opening the targets of the binary file formats (embeddings, kernel cache,
codebook, model)."""
from __future__ import annotations

import contextlib
from pathlib import Path
from typing import BinaryIO, Iterator


@contextlib.contextmanager
def open_binary(target: str | Path | BinaryIO, mode: str) -> Iterator[BinaryIO]:
    """A path is opened in ``mode`` and closed on exit; a stream is used as is."""
    if isinstance(target, (str, Path)):
        with open(target, mode) as stream:
            yield stream
    else:
        yield target
