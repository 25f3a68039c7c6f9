"""Tests for the Load-Store Push Unit."""

from repro.core.lsl import LSLAccess, LSLRecord, RecordKind
from tests.lspu_reference import LoadStorePushUnit


def load_record(index=0, size=8):
    return LSLRecord(RecordKind.LOAD,
                     (LSLAccess(0x1000 + index * 8, size, loaded=index),),
                     index)


def big_record(index=0, accesses=5):
    """A scatter/gather record bigger than half a line."""
    return LSLRecord(RecordKind.GATHER, tuple(
        LSLAccess(0x1000 + i * 64, 8, loaded=i) for i in range(accesses)
    ), index)


def test_buffers_until_line_full():
    lspu = LoadStorePushUnit()
    pushed = []
    for i in range(3):
        pushed += lspu.record(load_record(i))
    assert pushed == []  # 3 x 16 B = 48 B < 64 B
    pushed += lspu.record(load_record(3))
    assert len(pushed) == 1  # exactly one full line
    assert pushed[0].bytes_used == 64
    assert len(pushed[0].records) == 4


def test_entry_spills_to_next_line():
    lspu = LoadStorePushUnit()
    lspu.record(load_record(0))
    lspu.record(load_record(1))
    lspu.record(load_record(2))  # 48 B used
    # A 24 B entry does not fit the remaining 16 B: line pushed, entry
    # starts the next one.
    swap = LSLRecord(RecordKind.SWAP,
                     (LSLAccess(0x2000, 8, loaded=1, stored=2),), 3)
    pushed = lspu.record(swap)
    assert len(pushed) == 1
    assert len(pushed[0].records) == 3
    assert lspu.buffered_bytes == swap.entry_bytes()


def test_flush_pushes_partial_line():
    lspu = LoadStorePushUnit()
    lspu.record(load_record(0))
    line = lspu.flush()
    assert line is not None
    assert line.flush is True
    assert line.bytes_used == 16
    assert lspu.buffered_bytes == 0


def test_flush_empty_returns_none():
    assert LoadStorePushUnit().flush() is None


def test_oversized_entry_occupies_multiple_lines():
    lspu = LoadStorePushUnit()
    record = big_record(accesses=5)  # 5 x 16 B = 80 B > 64 B line
    pushed = lspu.record(record)
    assert len(pushed) == 1
    assert pushed[0].lines == 2


def test_stats_account_bytes_and_lines():
    lspu = LoadStorePushUnit()
    for i in range(8):
        lspu.record(load_record(i))
    lspu.flush()
    assert lspu.stats.records == 8
    assert lspu.stats.lines_pushed == 2
    assert lspu.stats.bytes_pushed == 128
    assert lspu.stats.flushes == 0  # both lines were full, no partial flush


def test_hash_mode_stores_push_nothing():
    lspu = LoadStorePushUnit(hash_mode=True)
    store = LSLRecord(RecordKind.STORE,
                      (LSLAccess(0x100, 8, stored=1),), 0)
    assert lspu.record(store) == []
    assert lspu.buffered_bytes == 0
    assert lspu.stats.records == 1


def test_hash_mode_loads_pack_densely():
    # 8 B per load instead of 16: 8 loads per line.
    lspu = LoadStorePushUnit(hash_mode=True)
    pushed = []
    for i in range(8):
        pushed += lspu.record(load_record(i))
    assert len(pushed) == 1
    assert len(pushed[0].records) == 8
