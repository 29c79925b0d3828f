"""The file formats of a run's artifacts: CSV tables and JSON values.

Every table is written by `written_rows` and read by `table_rows`. A float
cell is written as its shortest repr, which reads back as the same double,
and every row ends in a line end, so a table whose last row has none was cut
and does not read. JSON values are written with sorted keys by `write_json`.

The JSON values the program reads (the config, corpus record fields, a
checkpoint's network, history and standardizer, and the JSON artifacts) are
checked by the converters below. A converter
``(value, name)`` gives the value it accepts, never coerced from another JSON
type, and raises a ValueError that names ``name`` and shows the value through
`reprlib.repr` otherwise. `from_json` builds a dataclass from a table of
converters by field.
"""

from __future__ import annotations

import csv
import itertools
import json
import reprlib
import sys
from collections import deque
from typing import Callable, Iterator, Mapping, Optional

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


def json_error(name: str, what: str, value) -> ValueError:
    """The error of ``name``, which must be ``what`` but holds ``value``."""
    return ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")


def json_int(value, name: str) -> int:
    # a JSON true or false is a bool, and 2.7 or "3" is not an integer
    if type(value) is not int:
        raise json_error(name, "a JSON integer", value)
    return value


def json_int_or_null(value, name: str) -> Optional[int]:
    if value is not None and type(value) is not int:
        raise json_error(name, "a JSON integer or null", value)
    return value


def json_number(value, name: str) -> float:
    """A JSON number, NaN and the infinities included; an integer past the
    float range cannot become the float the field holds."""
    if type(value) is not float and (type(value) is not int or abs(value) > sys.float_info.max):
        raise json_error(name, "a JSON number", value)
    return float(value)


def json_finite(value, name: str) -> float:
    # json.loads reads NaN, Infinity and 1e999 (as inf), and every range check
    # is false for NaN
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise json_error(name, "a finite JSON number", value)
    return float(value)


def json_bool(value, name: str) -> bool:
    if type(value) is not bool:
        raise json_error(name, "true or false", value)
    return value


def json_str(value, name: str) -> str:
    if type(value) is not str:
        raise json_error(name, "a JSON string", value)
    return value


def json_str_or_null(value, name: str) -> Optional[str]:
    # these values key sets and dicts downstream, so a list or an object is an error
    if value is not None and type(value) is not str:
        raise json_error(name, "a JSON string or null", value)
    return value


def json_int_list(value, name: str) -> tuple[int, ...]:
    if type(value) is not list or any(type(v) is not int for v in value):
        raise json_error(name, "a list of JSON integers", value)
    return tuple(value)


def json_member(enum, value, name: str):
    """The member of ``enum`` that a string names, in any case (``"mid"``
    gives ``Horizon.MID``)."""
    if type(value) is not str or value.upper() not in enum.__members__:
        raise json_error(name, f"one of {', '.join(enum.__members__)}", value)
    return enum[value.upper()]


def json_keyed(enum, convert: Callable, value, name: str) -> dict:
    """A JSON object keyed by members of ``enum``, each value decoded by ``convert``."""
    if type(value) is not dict:
        raise json_error(name, f"a JSON object keyed by {enum.__name__.lower()}", value)
    return {
        json_member(enum, k, f"{name} key"): convert(v, f"{name}.{k}") for k, v in value.items()
    }


def json_object(value, name: str, fields: Mapping[str, Callable] = {}) -> dict:
    """``value`` if it is a JSON object that holds every key of ``fields``,
    each with a value that the key's converter accepts."""
    if type(value) is not dict:
        raise json_error(name, "a JSON object", value)
    for key, convert in fields.items():
        if key not in value:
            raise ValueError(f"{name} has no key {key!r}")
        convert(value[key], f"{name}.{key}")
    return value


def json_list(value, name: str, convert: Optional[Callable] = None) -> list:
    """``value`` if it is a JSON array each of whose items ``convert`` accepts."""
    if type(value) is not list:
        raise json_error(name, "a JSON array", value)
    if convert is not None:
        for i, item in enumerate(value):
            convert(item, f"{name}[{i}]")
    return value


def json_finite_array(value, name: str) -> np.ndarray:
    """A JSON array of finite numbers as a float64 array. One type scan and one
    `np.isfinite` check the whole array; only when they fail are the items
    checked one by one, so the error names the first bad one."""
    items = json_list(value, name)
    try:
        if set(map(type, items)) <= {int, float}:
            array = np.array(items, dtype=np.float64)
            if np.isfinite(array).all():
                return array
    except OverflowError:  # an integer past the float range
        pass
    for i, item in enumerate(items):
        json_finite(item, f"{name}[{i}]")
    return np.array(items, dtype=np.float64)


def from_json(cls, fields: Mapping[str, Callable], obj, name: str, keys=None, **derived):
    """A ``cls`` from the JSON object ``obj``: each key decoded by its
    converter in ``fields``, plus the ``derived`` fields; a field that ``obj``
    lacks keeps its default. A key outside ``keys`` (default: every key of
    ``fields``) is a ValueError that names it."""
    json_object(obj, name)
    unknown = sorted(set(obj) - set(fields if keys is None else keys))
    if unknown:
        raise ValueError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return cls(**derived, **{k: fields[k](v, f"{name}.{k}") for k, v in obj.items()})
