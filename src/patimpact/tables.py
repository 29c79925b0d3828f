"""The file formats of a run's artifacts: CSV tables and JSON values.

Every table is written by `written_rows` and read by `table_rows`. A float
cell is written as its shortest repr, which reads back as the same double,
and every row ends in a line end, so a table whose last row has none was cut
and does not read. JSON values are written with sorted keys by `write_json`;
`check_shape` checks the keys and types that a reader indexes.
"""

from __future__ import annotations

import csv
import itertools
import json
import reprlib
from collections import deque
from typing import Iterator, Optional

import numpy as np


def written_rows(path, header: list, rows, lineterminator: str = "\r\n") -> Iterator[list[str]]:
    """Write a table, header first, and yield the text of each row's cells
    once it is written. A float cell, Python or numpy, is ``repr(float(x))``,
    the shortest text that reads back as the same double; ``None`` is an
    empty cell, and every other cell is ``str`` of its value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        for row in itertools.chain([header], rows):
            cells = [
                "" if x is None else repr(float(x)) if isinstance(x, (float, np.floating))
                else str(x) for x in row
            ]
            writer.writerow(cells)
            yield cells


def write_csv(path, header: list, rows, lineterminator: str = "\r\n") -> None:
    deque(written_rows(path, header, rows, lineterminator), maxlen=0)


def _whole_lines(fh) -> Iterator[str]:
    line = "\n"
    for line in fh:
        yield line
    if not line.endswith("\n"):
        raise ValueError("its last row has no line end: the file is cut")


def table_rows(path) -> Iterator[list[str]]:
    """The rows of a table, read one at a time, header first. An empty file,
    a row of another length than the header, or a last row without its line
    end is a ValueError."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = csv.reader(_whole_lines(fh))
        header = next(rows, None)
        if header is None:
            raise ValueError("the file is empty")
        yield header
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"a row does not have the header's {len(header)} fields")
            yield row


def write_json(path, obj, indent: Optional[int] = 2) -> str:
    """Write ``obj`` with sorted keys and a newline; return the JSON text."""
    # json.dumps runs the C encoder when there is no indent; json.dump never does
    text = json.dumps(obj, indent=indent, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return text


_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def check_shape(value, shape, where: str = "$") -> None:
    """Raise a ValueError that names the first part of ``value`` (at the
    JSONPath ``where``) that lacks a key of ``shape`` or holds another type.
    A shape is a JSON type, ``[shape]`` for an array of that shape, or a dict
    of keys and their shapes for an object."""
    if isinstance(shape, dict):
        check_shape(value, dict, where)
        for key, inner in shape.items():
            if key not in value:
                raise ValueError(f"{where} has no key {key!r}")
            check_shape(value[key], inner, f"{where}.{key}")
    elif isinstance(shape, list):
        check_shape(value, list, where)
        for i, item in enumerate(value):
            check_shape(item, shape[0], f"{where}[{i}]")
    # a JSON true or false is a bool, not an integer
    elif type(value) is not shape:
        raise ValueError(f"{where} must be {_JSON_TYPE_NAMES[shape]}, got {reprlib.repr(value)}")
