"""ResultStore: CAS roundtrip, persistence, integrity, FIFO eviction.

An object is a JSON header line plus the payload's canonical bytes; every
read re-verifies the body against the header, so a flipped byte, a wrong
length or an object in the old one-line format is a miss, never bytes
served.
"""

import json

import pytest

from repro.serve import ResultStore, payload_bytes, payload_sha, request_address

CANON, ADDR = request_address(
    {"kind": "chaos", "protocol": "broadcast", "n": 8, "extra_edges": 6,
     "graph_seed": 3, "backend": "python"})
PAYLOAD = {"status": "ok", "rounds": 3, "messages": [1, 2, 3]}


def _addr(i):
    canon, addr = request_address(
        {"kind": "chaos", "protocol": "broadcast", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "fault_seed": i, "backend": "python"})
    return canon, addr


# --------------------------------------------------------------------- #
# Roundtrip + persistence
# --------------------------------------------------------------------- #

def _object(root):
    return next((root / "objects").rglob("*.json"))


@pytest.mark.parametrize("persistent", [True, False])
def test_put_get_roundtrip(tmp_path, persistent):
    store = ResultStore(tmp_path / "cas" if persistent else None)
    assert store.get(ADDR) is None
    put = store.put(ADDR, CANON, PAYLOAD)
    got = store.get(ADDR)
    assert got == put
    assert got.address == ADDR and got.kind == "chaos"
    assert got.body == payload_bytes(PAYLOAD)
    assert got.payload_sha == payload_sha(PAYLOAD)
    assert json.loads(got.body) == PAYLOAD
    assert ADDR in store and len(store) == 1


def test_object_is_a_header_line_then_the_canonical_bytes(tmp_path):
    root = tmp_path / "cas"
    ResultStore(root).put(ADDR, CANON, PAYLOAD)
    head, body = _object(root).read_bytes().split(b"\n", 1)
    assert body == payload_bytes(PAYLOAD)
    assert json.loads(head) == {"v": 2, "address": ADDR, "kind": "chaos",
                                "request": CANON, "nbytes": len(body),
                                "payload_sha": payload_sha(PAYLOAD)}


def test_put_is_idempotent(tmp_path):
    store = ResultStore(tmp_path / "cas")
    store.put(ADDR, CANON, PAYLOAD)
    store.put(ADDR, CANON, PAYLOAD)
    assert store.puts == 1 and len(store) == 1


def test_persists_across_instances(tmp_path):
    root = tmp_path / "cas"
    ResultStore(root).put(ADDR, CANON, PAYLOAD)
    reopened = ResultStore(root)
    got = reopened.get(ADDR)
    assert got is not None and got.body == payload_bytes(PAYLOAD)


def test_journal_survives_torn_final_line(tmp_path):
    root = tmp_path / "cas"
    ResultStore(root).put(ADDR, CANON, PAYLOAD)
    with open(root / "index.jsonl", "a") as fh:
        fh.write('{"op": "put", "addr')  # crashed writer
    reopened = ResultStore(root)
    assert reopened.get(ADDR) is not None


def test_put_after_torn_final_line_survives_reopen(tmp_path):
    root = tmp_path / "cas"
    ResultStore(root).put(ADDR, CANON, PAYLOAD)
    with open(root / "index.jsonl", "a") as fh:
        fh.write('{"op": "put", "addr')  # crashed writer
    canon, addr = _addr(1)
    ResultStore(root).put(addr, canon, PAYLOAD)
    # Opening rewrote the torn journal, so the put did not land on the
    # torn line and is replayed.
    reopened = ResultStore(root)
    assert reopened.get(ADDR) is not None and reopened.get(addr) is not None


def test_journal_stays_short_under_eviction(tmp_path):
    root = tmp_path / "cas"
    index = root / "index.jsonl"
    store = ResultStore(root, max_entries=10)
    for i in range(300):
        canon, addr = _addr(i)
        store.put(addr, canon, dict(PAYLOAD, i=i))
        assert len(index.read_text().splitlines()) <= 2 * 10 + 64
    assert store.evictions == 290
    reopened = ResultStore(root, max_entries=10)
    # Same entries, same FIFO order, same sizes as the files on disk.
    assert list(reopened._entries.items()) == list(store._entries.items())
    on_disk = sum(p.stat().st_size for p in (root / "objects").rglob("*.json"))
    assert reopened.nbytes == store.nbytes == on_disk
    assert all(reopened.get(a) is not None for a in store._entries)


def test_long_journal_is_compacted_on_open(tmp_path):
    root = tmp_path / "cas"
    ResultStore(root).put(ADDR, CANON, PAYLOAD)
    _canon, gone = _addr(1)
    with open(root / "index.jsonl", "a") as fh:
        for _ in range(50):
            fh.write(json.dumps({"op": "put", "address": gone, "nbytes": 1}) + "\n")
            fh.write(json.dumps({"op": "del", "address": gone, "nbytes": 0}) + "\n")
    reopened = ResultStore(root)
    assert list(reopened._entries) == [ADDR]
    lines = (root / "index.jsonl").read_text().splitlines()
    assert [json.loads(line)["address"] for line in lines] == [ADDR]


def test_vanished_object_file_is_a_miss(tmp_path):
    root = tmp_path / "cas"
    store = ResultStore(root)
    store.put(ADDR, CANON, PAYLOAD)
    _object(root).unlink()
    reopened = ResultStore(root)
    assert reopened.get(ADDR) is None


# --------------------------------------------------------------------- #
# Integrity: a corrupt entry degrades to a miss, never to bad bytes
# --------------------------------------------------------------------- #

def test_corrupt_payload_detected_and_dropped(tmp_path):
    root = tmp_path / "cas"
    store = ResultStore(root)
    store.put(ADDR, CANON, PAYLOAD)
    obj = _object(root)
    data = obj.read_bytes()
    # bit-rot / tamper: one body byte, same length ("rounds": 3 -> 4)
    obj.write_bytes(data.replace(b'"rounds":3', b'"rounds":4'))
    assert obj.read_bytes() != data
    assert store.get(ADDR) is None
    assert store.integrity_failures == 1
    assert ADDR not in store and not obj.exists()
    # A re-put after the drop re-stores cleanly.
    store.put(ADDR, CANON, PAYLOAD)
    assert store.get(ADDR) is not None


def test_memory_store_checks_the_same_bytes():
    store = ResultStore(None)
    store.put(ADDR, CANON, PAYLOAD)
    store._memory[ADDR] = store._memory[ADDR].replace(b'"rounds":3',
                                                      b'"rounds":4')
    assert store.get(ADDR) is None
    assert store.integrity_failures == 1 and ADDR not in store


def test_nbytes_mismatch_is_an_integrity_failure(tmp_path):
    root = tmp_path / "cas"
    store = ResultStore(root)
    store.put(ADDR, CANON, PAYLOAD)
    obj = _object(root)
    head, body = obj.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["nbytes"] += 1  # the digest still matches the body
    obj.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    assert store.get(ADDR) is None
    assert store.integrity_failures == 1 and ADDR not in store


def plant_v1_object(root, address, canon, payload):
    """Write ``payload`` as the store's old one-line envelope, journaled."""
    data = json.dumps({"v": 1, "address": address, "kind": canon["kind"],
                       "request": canon, "payload_sha": payload_sha(payload),
                       "payload": payload}, sort_keys=True)
    path = root / "objects" / address[:2] / f"{address}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(data)
    with open(root / "index.jsonl", "a") as fh:
        fh.write(json.dumps({"op": "put", "address": address,
                             "nbytes": len(data)}) + "\n")


def test_v1_object_is_dropped(tmp_path):
    root = tmp_path / "cas"
    plant_v1_object(root, ADDR, CANON, PAYLOAD)
    store = ResultStore(root)
    assert ADDR in store
    assert store.get(ADDR) is None
    assert store.integrity_failures == 1
    assert ADDR not in store and not any((root / "objects").rglob("*.json"))


def test_unreadable_object_is_a_miss(tmp_path):
    root = tmp_path / "cas"
    store = ResultStore(root)
    store.put(ADDR, CANON, PAYLOAD)
    _object(root).write_text("{not json")
    assert store.get(ADDR) is None
    assert store.integrity_failures == 1


# --------------------------------------------------------------------- #
# Eviction: FIFO, capacity-bounded, deterministic
# --------------------------------------------------------------------- #

def test_fifo_eviction_by_entries(tmp_path):
    store = ResultStore(tmp_path / "cas", max_entries=2)
    addrs = []
    for i in range(3):
        canon, addr = _addr(i)
        store.put(addr, canon, dict(PAYLOAD, i=i))
        addrs.append(addr)
    assert store.evictions == 1 and len(store) == 2
    assert store.get(addrs[0]) is None          # oldest gone
    assert store.get(addrs[1]) is not None
    assert store.get(addrs[2]) is not None


def test_fifo_eviction_by_bytes(tmp_path):
    store = ResultStore(tmp_path / "cas", max_bytes=1)
    c0, a0 = _addr(0)
    c1, a1 = _addr(1)
    store.put(a0, c0, PAYLOAD)
    assert len(store) == 1        # a lone oversized entry is kept
    store.put(a1, c1, PAYLOAD)
    assert len(store) == 1 and store.evictions >= 1
    assert store.get(a0) is None and store.get(a1) is not None


def test_eviction_order_survives_reopen(tmp_path):
    root = tmp_path / "cas"
    store = ResultStore(root, max_entries=10)
    addrs = []
    for i in range(3):
        canon, addr = _addr(i)
        store.put(addr, canon, PAYLOAD)
        addrs.append(addr)
    reopened = ResultStore(root, max_entries=2)
    # Journal replay reconstructs insertion order, so capacity shrink
    # evicts the same oldest entry any host would evict.
    c3, a3 = _addr(3)
    reopened.put(a3, c3, PAYLOAD)
    assert reopened.get(addrs[0]) is None
    assert reopened.get(addrs[2]) is not None


def test_nbytes_is_the_running_sum_of_entry_sizes(tmp_path):
    root = tmp_path / "cas"
    canon, addr = _addr(0)
    probe = ResultStore(None)
    probe.put(addr, canon, PAYLOAD)
    size = probe.nbytes

    def check(store):
        on_disk = sum(p.stat().st_size
                      for p in (root / "objects").rglob("*.json"))
        assert store.nbytes == sum(store._entries.values()) == on_disk
        assert store.stats()["bytes"] == store.nbytes

    store = ResultStore(root, max_bytes=2 * size + size // 2)
    addrs = []
    for i in range(5):
        canon, addr = _addr(i)
        store.put(addr, canon, PAYLOAD)
        addrs.append(addr)
        check(store)
    assert store.evictions == 3 and len(store) == 2
    path = root / "objects" / addrs[-1][:2] / f"{addrs[-1]}.json"
    path.write_bytes(path.read_bytes().replace(b'"rounds":3', b'"rounds":4'))
    assert store.get(addrs[-1]) is None
    check(store)
    reopened = ResultStore(root, max_bytes=2 * size + size // 2)
    assert len(reopened) == 1
    check(reopened)


@pytest.mark.parametrize("kwargs", [{"max_entries": 0}, {"max_bytes": 0}])
def test_rejects_nonpositive_capacity(kwargs):
    with pytest.raises(ValueError):
        ResultStore(None, **kwargs)


def test_stats_shape(tmp_path):
    store = ResultStore(tmp_path / "cas")
    store.put(ADDR, CANON, PAYLOAD)
    store.get(ADDR)
    s = store.stats()
    assert s["entries"] == 1 and s["puts"] == 1 and s["gets"] >= 1
    assert s["persistent"] is True and s["bytes"] > 0
    assert ResultStore(None).stats()["persistent"] is False
