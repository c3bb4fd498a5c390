"""The columnar row codec of checkpoint deltas and journal records.

A block of rows is encoded as each numeric column's raw buffer (in the
layout's order and dtypes), then each string column's int32 codes,
then one UTF-8 JSON array holding each string column's distinct values
in first-seen order.  The bytes depend only on the rows.  Two layouts
share the codec: :data:`TRACE`, the trace store's (whose
:data:`NUMERIC`, :data:`STRINGS`, :data:`ROW_BYTES`, :func:`encode_rows`
and :func:`decode_rows` are the module's names), and :data:`INPUTS`, a
gathered shard's pass inputs (:mod:`repro.shard.gather`).

:mod:`repro.recovery.checkpoint` frames a block as a row delta and
:mod:`repro.recovery.journal` as the rows of one record; each wraps
:meth:`RowLayout.decode`'s ``ValueError`` in its own typed error.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Dict, List

import numpy as np

from repro.sim.kernel import FleetColumns
from repro.traces.store import CSV_FIELDS, TraceStore

__all__ = ["INPUTS", "NUMERIC", "ROW_BYTES", "RowLayout", "STRINGS",
           "TRACE", "decode_rows", "encode_rows"]

#: Dtype of the string columns' codes.
_CODES = np.dtype("<i4")

#: The string columns' codes, read unsigned: one compare against each
#: table's length then also rejects a negative code.
_UCODES = np.dtype("<u4")


class RowLayout:
    """The column order and dtypes of one kind of row block, taken from
    ``columns``: name to an (empty) numeric buffer or string list.

    :attr:`numeric` lists ``[name, dtype string]`` per fixed-width
    column and :attr:`strings` the string columns' names, in block order.
    """

    def __init__(self, columns: Dict[str, Any]):
        self.numeric = [[name, np.asarray(col).dtype.str]
                        for name, col in columns.items()
                        if not isinstance(col, list)]
        self.strings = [name for name, col in columns.items()
                        if isinstance(col, list)]
        self._dtypes = [(name, np.dtype(dtype))
                        for name, dtype in self.numeric]
        #: Fixed-width bytes per row: the numeric buffers plus the codes.
        self.row_bytes = (sum(dtype.itemsize for _, dtype in self._dtypes)
                          + len(self.strings) * _CODES.itemsize)

    def encode(self, column: Callable[[str], Any], start: int,
               stop: int) -> bytes:
        """Rows ``[start, stop)`` as one block; ``column(name)`` returns
        a column's buffer (an :mod:`array` or a NumPy array of the
        layout's dtype, sliced without a copy) or a string column's
        list."""
        buffers: List[Any] = [memoryview(column(name))[start:stop]
                              for name, _ in self.numeric]
        values: List[list] = []
        for name in self.strings:
            index: Dict[str, int] = {}
            buffers.append(np.array(
                [index.setdefault(v, len(index))
                 for v in column(name)[start:stop]],
                dtype=_CODES).tobytes())
            values.append(list(index))
        return b"".join(buffers) + json.dumps(values).encode("utf-8")

    def decode(self, payload: bytes, n: int) -> Dict[str, Any]:
        """The ``n`` rows of a block as one array per numeric column and
        one list per string column.

        Raises ``ValueError`` when the block does not hold exactly ``n``
        rows: a short buffer, a string table that is not one list of
        strings per string column, or a code outside its column's table.
        """
        if type(n) is not int or n < 0:
            raise ValueError(f"bad row count {n!r}")
        fixed = n * self.row_bytes
        if len(payload) < fixed:
            raise ValueError(f"{len(payload)} bytes cannot hold {n} rows "
                             f"of {self.row_bytes} bytes")
        strings = self.strings
        columns: Dict[str, Any] = {}
        offset = 0
        for name, dtype in self._dtypes:
            columns[name] = np.frombuffer(payload, dtype=dtype, count=n,
                                          offset=offset)
            offset += n * dtype.itemsize
        codes = np.frombuffer(payload, dtype=_UCODES,
                              count=len(strings) * n,
                              offset=offset).reshape(len(strings), n)
        values = json.loads(payload[fixed:].decode("utf-8"))
        if (type(values) is not list or len(values) != len(strings)
                or set(map(type, values)) != {list}):
            raise ValueError("string values do not match the columns")
        table = list(itertools.chain.from_iterable(values))
        try:
            "".join(table)  # a TypeError unless every value is a str
        except TypeError:
            raise ValueError("string values do not match the columns") from None
        sizes = [len(vals) for vals in values]
        if n:
            for name, top, size in zip(strings, codes.max(axis=1).tolist(),
                                       sizes):
                if top >= size:
                    raise ValueError(
                        f"column {name!r} has out-of-range codes")
        # One lookup expands every column: codes offset into the joined
        # table.
        starts = np.array([*itertools.accumulate(sizes[:-1], initial=0)])
        expanded = np.array(table, dtype=object)[codes + starts[:, None]]
        columns.update(zip(strings, expanded.tolist()))
        return columns


#: The trace store's columns: checkpoint deltas and ``iter`` records.
TRACE = RowLayout({name: TraceStore().column(name) for name in CSV_FIELDS})
#: A gathered instant's columns: roster position, the pass inputs and
#: the username, as :meth:`~repro.sim.kernel.FleetColumns.gather` holds
#: them; ``gather`` records.
INPUTS = RowLayout({"position": np.zeros(0, dtype=np.int64),
                       **FleetColumns(()).gather(np.zeros(0, dtype=int))})

NUMERIC, STRINGS, ROW_BYTES = TRACE.numeric, TRACE.strings, TRACE.row_bytes


def encode_rows(store: TraceStore, start: int, stop: int) -> bytes:
    """Rows ``[start, stop)`` of ``store`` as one :data:`TRACE` block."""
    return TRACE.encode(store.column, start, stop)


#: The rows of a :data:`TRACE` block as :meth:`TraceStore.extend_columns`
#: keyword columns (see :meth:`RowLayout.decode`).
decode_rows = TRACE.decode
