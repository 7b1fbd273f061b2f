"""The codec front: one inline call on a memoizing encoder/decoder.

Every codec site — a CAS/CASGC writer, a SODA/SODAerr dispersal server, a
reader of any coded protocol — calls ``encoder.encode(value)`` /
``decoder.decode(tag, elements)`` at the step the paper's automaton encodes
or decodes at.  The front is the cluster's shared ``CachedEncoder`` /
``CachedDecoder`` or, for a process constructed alone, a private one; there
is no collection point in front of it and no read parked waiting for one.
"""

import numpy as np
import pytest

from repro.baselines.cas import CasReader, CasServer, CasWriter
from repro.baselines.registry import make_cluster
from repro.consistency.history import History
from repro.core.soda.reader import SodaReader
from repro.core.soda.server import SodaServer
from repro.core.soda.writer import SodaWriter
from repro.core.sodaerr.cluster import SodaErrCluster
from repro.core.sodaerr.reader import SodaErrReader
from repro.core.tags import Tag
from repro.erasure.batch import CachedDecoder
from repro.erasure.mds import CodedElement, DecodingError
from repro.erasure.rs import ReedSolomonCode
from repro.sim.failures import DiskErrorModel
from repro.sim.network import FixedDelay
from repro.sim.simulation import Simulation
from repro.workloads.arrivals import parse_arrival
from repro.workloads.scenarios import WorkloadSpec, run_workload

CODED_PROTOCOLS = {"CAS": {}, "CASGC": {"delta": 4}, "SODA": {}, "SODAerr": {"e": 1}}

FRONT_KEYS = {
    f"{front}_{counter}"
    for front in ("encoder", "decoder")
    for counter in ("hits", "misses", "entries", "bytes")
}


# ----------------------------------------------------------------------
# (1) every driver: one decode per completed read, nothing else counted
# ----------------------------------------------------------------------
def _streamed(cluster):
    cluster.run_streamed(operations=120, value_size=96, mean_gap=0.5, seed=9)


def _open_loop(cluster):
    cluster.run_open_loop(
        operations=120,
        arrival=parse_arrival("poisson:2"),
        read_fraction=0.5,
        value_size=96,
        seed=9,
    )


def _workload(cluster):
    run_workload(
        cluster,
        WorkloadSpec(
            writes_per_writer=15, reads_per_reader=15, window=40.0, value_size=96, seed=9
        ),
    )


@pytest.mark.parametrize("drive", [_streamed, _open_loop, _workload])
@pytest.mark.parametrize("protocol", CODED_PROTOCOLS)
def test_one_decode_per_completed_read_under_every_driver(protocol, drive):
    n = 7 if protocol == "SODAerr" else 6
    cluster = make_cluster(
        protocol, n, 2, num_writers=3, num_readers=3, seed=5, **CODED_PROTOCOLS[protocol]
    )
    drive(cluster)

    stats = cluster.codec_stats()
    assert set(stats) == FRONT_KEYS
    completed_reads = [op for op in cluster.history.reads() if op.is_complete]
    assert len(completed_reads) >= 30
    assert stats["decoder_hits"] + stats["decoder_misses"] == len(completed_reads)
    # None parked: the decode is part of the delivery that completes the read.
    assert not any(reader.busy for reader in cluster.readers.values())
    assert stats["encoder_hits"] + stats["encoder_misses"] > 0


# ----------------------------------------------------------------------
# (2) processes constructed alone get a private front and use it
# ----------------------------------------------------------------------
N, F = 6, 2
SERVER_IDS = [f"s{i}" for i in range(N)]


def _simulation(*processes):
    sim = Simulation(seed=3, delay_model=FixedDelay(0.5))
    sim.add_processes(processes)
    return sim


def _write(sim, writer, value):
    writer.start_write(value)
    sim.run()
    assert not writer.busy


def _read(sim, reader):
    op_id = reader.start_read()
    sim.run()
    assert not reader.busy
    return reader.history.get(op_id).value


def _counts(front):
    return front.hits, front.misses, len(front)


def _soda_servers(code, *, threshold, flaky=()):
    initial = code.encode(b"")
    return [
        SodaServer(
            pid,
            index,
            SERVER_IDS,
            F,
            code,
            initial_element=initial[index],
            unregister_threshold=threshold,
            disk_error_model=(
                DiskErrorModel(np.random.default_rng(index), error_probability=1.0)
                if index in flaky
                else None
            ),
        )
        for index, pid in enumerate(SERVER_IDS)
    ]


def test_soda_processes_constructed_alone_memoize_privately():
    code = ReedSolomonCode(N, N - F)
    servers = _soda_servers(code, threshold=code.k)
    history = History()
    writer = SodaWriter("w0", SERVER_IDS, F, code, history)
    reader = SodaReader("r0", SERVER_IDS, F, code, history)
    sim = _simulation(*servers, writer, reader)

    _write(sim, writer, b"alone but memoized")
    # Each dispersal server encoded the value once on its own encoder; the
    # servers outside the dispersal set only ever saw coded elements.
    encoders = [server._md_engine._encoder for server in servers]
    assert len({id(encoder) for encoder in encoders}) == N
    assert [_counts(encoder) for encoder in encoders[: F + 1]] == [(0, 1, 1)] * (F + 1)
    assert [_counts(encoder) for encoder in encoders[F + 1 :]] == [(0, 0, 0)] * (N - F - 1)

    assert _read(sim, reader) == b"alone but memoized"
    assert _read(sim, reader) == b"alone but memoized"
    # Fixed delays: both reads decode from the same k elements.
    assert _counts(reader.decoder) == (1, 1, 1)
    assert reader.decoder.max_errors == 0


def test_sodaerr_reader_constructed_alone_decodes_around_a_corrupted_element():
    e = 1
    code = ReedSolomonCode(N, N - F - 2 * e)
    servers = _soda_servers(code, threshold=code.k + 2 * e, flaky={0})
    history = History()
    writer = SodaWriter("w0", SERVER_IDS, F, code, history)
    reader = SodaErrReader("r0", SERVER_IDS, F, code, e, history)
    sim = _simulation(*servers, writer, reader)

    _write(sim, writer, b"one flaky disk")
    assert _read(sim, reader) == b"one flaky disk"
    assert _read(sim, reader) == b"one flaky disk"
    assert servers[0].disk_errors.errors_injected == 2
    assert reader.decoder.max_errors == e
    assert _counts(reader.decoder) == (1, 1, 1)


def test_cas_clients_constructed_alone_memoize_privately():
    code = ReedSolomonCode(N, N - 2 * F)
    initial = code.encode(b"")
    servers = [
        CasServer(pid, index, code, initial_element=initial[index])
        for index, pid in enumerate(SERVER_IDS)
    ]
    history = History()
    writer = CasWriter("w0", SERVER_IDS, code, N - F, history)
    reader = CasReader("r0", SERVER_IDS, code, N - F, history)
    sim = _simulation(*servers, writer, reader)

    _write(sim, writer, b"same bytes twice")
    _write(sim, writer, b"same bytes twice")
    assert _counts(writer.encoder) == (1, 1, 1)

    assert _read(sim, reader) == b"same bytes twice"
    assert _read(sim, reader) == b"same bytes twice"
    assert _counts(reader.decoder) == (1, 1, 1)


# ----------------------------------------------------------------------
# (3) SODAerr: the errors-and-erasures decision lives in the decoder
# ----------------------------------------------------------------------
def test_sodaerr_read_with_e_corrupted_elements_hits_for_the_second_reader():
    e, value = 2, b"two flaky disks, two readers"
    cluster = SodaErrCluster(
        n=10,
        f=2,
        e=e,
        num_readers=2,
        error_probability=1.0,
        error_prone_servers=[0, 1],
        delay_model=FixedDelay(1.0),
        seed=4,
    )
    assert cluster.decoder.max_errors == e
    assert all(reader.decoder is cluster.decoder for reader in cluster.readers.values())
    decoded_from = []
    decode = cluster.decoder.decode

    def recording_decode(tag, elements):
        decoded_from.append(list(elements))
        return decode(tag, elements)

    cluster.decoder.decode = recording_decode

    cluster.write(value)
    assert cluster.read(0).value == value
    assert (cluster.decoder.hits, cluster.decoder.misses) == (0, 1)
    assert cluster.read(1).value == value
    assert (cluster.decoder.hits, cluster.decoder.misses) == (1, 1)

    clean = cluster.code.encode(value)
    for elements in decoded_from:
        assert len(elements) == cluster.code.k + 2 * e
        assert sum(el != clean[el.index] for el in elements) == e
    assert cluster.disk_error_model.errors_injected == 2 * e


# ----------------------------------------------------------------------
# (4) what the decoder refuses, it refuses every time
# ----------------------------------------------------------------------
def test_conflicting_duplicate_elements_raise_out_of_the_decoder():
    code = ReedSolomonCode(6, 3)
    decoder = CachedDecoder(code)
    elements = code.encode(b"conflict")[: code.k]
    bad = elements + [CodedElement(index=elements[0].index, data=b"\x00" * 8)]
    for _ in range(2):
        with pytest.raises(DecodingError):
            decoder.decode(Tag(1, "w0"), bad)
    assert _counts(decoder) == (0, 2, 0)
    # The clean subset is unaffected by the refused set sharing its tag.
    assert decoder.decode(Tag(1, "w0"), elements) == b"conflict"
