"""The columnar trace-row codec of checkpoint deltas and journal records.

A block of trace rows is encoded as each numeric column's raw buffer
(:data:`NUMERIC` order and dtypes), then each string column's int32
codes (:data:`STRINGS` order), then one UTF-8 JSON array holding each
string column's distinct values in first-seen order.  The bytes depend
only on the rows, so two stores holding the same rows encode them
identically.

:mod:`repro.recovery.checkpoint` frames a block as a row delta and
:mod:`repro.recovery.journal` as the rows of one pass record; each
wraps :func:`decode_rows`'s ``ValueError`` in its own typed error.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.traces.store import CSV_FIELDS, TraceStore

__all__ = ["NUMERIC", "ROW_BYTES", "STRINGS", "decode_rows", "encode_rows"]

#: Dtype of the string columns' codes.
_CODES = np.dtype("<i4")


def _layout() -> Tuple[List[list], List[str]]:
    """``[name, dtype]`` of each numeric trace column, and the string
    columns' names, in the order a block stores them."""
    store = TraceStore()
    numeric: List[list] = []
    strings: List[str] = []
    for name in CSV_FIELDS:
        col = store.column(name)
        if isinstance(col, list):
            strings.append(name)
        else:
            numeric.append([name, np.dtype(col.typecode).str])
    return numeric, strings


NUMERIC, STRINGS = _layout()

#: Fixed-width bytes per row: the numeric buffers plus the codes.
ROW_BYTES = (sum(np.dtype(dtype).itemsize for _, dtype in NUMERIC)
             + len(STRINGS) * _CODES.itemsize)


def encode_rows(store: TraceStore, start: int, stop: int) -> bytes:
    """Rows ``[start, stop)`` of ``store`` as one block."""
    buffers: List[Any] = [memoryview(store.column(name))[start:stop]
                          for name, _ in NUMERIC]
    values: List[list] = []
    for name in STRINGS:
        index: Dict[str, int] = {}
        buffers.append(np.array(
            [index.setdefault(v, len(index))
             for v in store.column(name)[start:stop]],
            dtype=_CODES).tobytes())
        values.append(list(index))
    return b"".join(buffers) + json.dumps(values).encode("utf-8")


#: Each numeric column's name and dtype, in block order.
_NUMERIC_DTYPES = [(name, np.dtype(dtype)) for name, dtype in NUMERIC]

#: The string columns' codes, read unsigned: one compare against each
#: table's length then also rejects a negative code.
_UCODES = np.dtype("<u4")


def decode_rows(payload: bytes, n: int) -> Dict[str, Any]:
    """The ``n`` rows of a block as :meth:`TraceStore.extend_columns`
    keyword columns.

    Raises ``ValueError`` when the block does not hold exactly ``n``
    rows: a short buffer, a string table that is not one list of
    strings per string column, or a code outside its column's table.
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"bad row count {n!r}")
    fixed = n * ROW_BYTES
    if len(payload) < fixed:
        raise ValueError(f"{len(payload)} bytes cannot hold {n} rows "
                         f"of {ROW_BYTES} bytes")
    columns: Dict[str, Any] = {}
    offset = 0
    for name, dtype in _NUMERIC_DTYPES:
        columns[name] = np.frombuffer(payload, dtype=dtype, count=n,
                                      offset=offset)
        offset += n * dtype.itemsize
    codes = np.frombuffer(payload, dtype=_UCODES, count=len(STRINGS) * n,
                          offset=offset).reshape(len(STRINGS), n)
    values = json.loads(payload[fixed:].decode("utf-8"))
    if (type(values) is not list or len(values) != len(STRINGS)
            or set(map(type, values)) != {list}):
        raise ValueError("string values do not match the columns")
    table = list(itertools.chain.from_iterable(values))
    try:
        "".join(table)  # a TypeError unless every value is a str
    except TypeError:
        raise ValueError("string values do not match the columns") from None
    sizes = [len(vals) for vals in values]
    if n:
        for name, top, size in zip(STRINGS, codes.max(axis=1).tolist(),
                                   sizes):
            if top >= size:
                raise ValueError(f"column {name!r} has out-of-range codes")
    # One lookup expands every column: codes offset into the joined table.
    starts = np.array([*itertools.accumulate(sizes[:-1], initial=0)])
    expanded = np.array(table, dtype=object)[codes + starts[:, None]]
    columns.update(zip(STRINGS, expanded.tolist()))
    return columns
