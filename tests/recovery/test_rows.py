"""The columnar row codec: exact round trips, and every malformed block
raises ``ValueError``."""

import json

import numpy as np
import pytest

from repro.recovery.rows import (
    NUMERIC,
    ROW_BYTES,
    STRINGS,
    decode_rows,
    encode_rows,
)
from repro.traces.records import Sample
from repro.traces.store import TraceStore


def store_of(n):
    store = TraceStore()
    for i in range(n):
        user = f"u{i % 4}" if i % 3 else ""
        store.add(Sample(
            machine_id=i, hostname=f"h{i % 5}", lab=f"L{i % 2:02d}",
            iteration=7, t=6300.0 + i, boot_time=-1.5 * i,
            uptime_s=60.0 * i + 1.0, cpu_idle_s=30.0 * i, mem_load_pct=0.25,
            swap_load_pct=3.0, disk_total_b=2**40, disk_free_b=2**39 - i,
            smart_cycles=i, smart_poh_h=i / 7, net_sent_b=i,
            net_recv_b=2**33, has_session=bool(user), username=user,
            session_start=float(i) if user else float("nan"),
        ))
    return store


def block(n):
    """A block of ``n`` rows split into its codes region and its table."""
    payload = encode_rows(store_of(n), 0, n)
    return bytearray(payload[:n * ROW_BYTES]), json.loads(
        payload[n * ROW_BYTES:])


def join(fixed, table):
    return bytes(fixed) + json.dumps(table).encode()


@pytest.mark.parametrize("n", [0, 1, 9])
def test_round_trip(n):
    store = store_of(n)
    columns = decode_rows(encode_rows(store, 0, n), n)
    assert list(columns) == [name for name, _ in NUMERIC] + STRINGS
    for name, dtype in NUMERIC:
        assert columns[name].dtype == np.dtype(dtype)
        assert columns[name].tobytes() == np.asarray(
            store.column(name)).astype(dtype).tobytes()
    for name in STRINGS:
        assert columns[name] == list(store.column(name))
        assert all(type(v) is str for v in columns[name])


def code_offset(n, column):
    return n * (ROW_BYTES - 4 * len(STRINGS) + 4 * STRINGS.index(column))


@pytest.mark.parametrize("column", STRINGS)
@pytest.mark.parametrize("code", [-1, 2, 2**31 - 1])
def test_code_outside_its_table(column, code):
    fixed, table = block(3)
    table[STRINGS.index(column)] = table[STRINGS.index(column)][:2]
    at = code_offset(3, column) + 4 * 2  # the third row's code
    fixed[at:at + 4] = code.to_bytes(4, "little", signed=True)
    with pytest.raises(ValueError, match=f"column '{column}'"):
        decode_rows(join(fixed, table), 3)


@pytest.mark.parametrize("table", [
    {"hostname": []},
    [["h0"], ["L00"]],
    [["h0"], ["L00"], [""], []],
    [["h0"], "L00", [""]],
    [["h0"], ["L00"], [None]],
    [["h0", 3], ["L00"], [""]],
    [["h0"], [["L00"]], [""]],
])
def test_table_that_is_not_one_list_of_strings_per_column(table):
    fixed, _ = block(1)
    with pytest.raises(ValueError, match="string values"):
        decode_rows(join(fixed, table), 1)


@pytest.mark.parametrize("payload", [b"", b"[[], [], []", b"\xff"])
def test_unreadable_table(payload):
    with pytest.raises(ValueError):
        decode_rows(payload, 0)


@pytest.mark.parametrize("n", [-1, 2.0, True, 4])
def test_row_count_the_block_does_not_hold(n):
    with pytest.raises(ValueError):
        decode_rows(encode_rows(store_of(3), 0, 3), n)
