import copy

import numpy as np
import pytest

from vranphy.backends import SoftwareBackend, execute_descriptor
from vranphy.backends.emulated import make_emulated
from vranphy.backends.model import JitterSpec
from vranphy.errors import (CapabilityMismatchError, InvalidConfigError,
                            ResourceExhaustedError)
from vranphy.lpu import (BufferLocation, CallShape, CodingOpDescriptor,
                         Granularity, LpuCapabilities, OpKind, QueueAllocator,
                         discover, route_interface, validate_harq_placement)
from vranphy.nr import segment_tb


def test_discover_rfsoc_profile():
    caps = discover("t2")
    assert caps.supports_cb_interface
    assert not caps.supports_tb_interface
    assert not caps.tb_required_when_single_cb
    assert caps.internal_harq_memory


def test_discover_in_package_accelerator_profile():
    caps = discover("vran_boost")
    assert caps.supports_cb_interface and caps.supports_tb_interface
    assert caps.tb_required_when_single_cb
    assert not caps.internal_harq_memory


def test_discover_software_profile():
    caps = discover("software")
    assert caps.supports_cb_interface and caps.supports_tb_interface
    assert not caps.tb_required_when_single_cb
    assert not caps.internal_harq_memory


def test_discover_unknown_backend():
    with pytest.raises(InvalidConfigError):
        discover("quantum")


def test_routing_truth_table():
    assert route_interface(discover("t2"), 1) is Granularity.CB
    assert route_interface(discover("vran_boost"), 1) is Granularity.TB
    assert route_interface(discover("vran_boost"), 26) is Granularity.CB
    assert route_interface(discover("software"), 1) is Granularity.CB


def test_routing_totality_over_shipped_profiles():
    for name in ("t2", "vran_boost", "software"):
        caps = discover(name)
        for n in range(1, 133):
            assert route_interface(caps, n) in (Granularity.CB,
                                                Granularity.TB)


def test_routing_rejects_degenerate_count():
    with pytest.raises(InvalidConfigError):
        route_interface(discover("t2"), 0)


def test_capability_descriptor_invariants():
    with pytest.raises(InvalidConfigError):
        LpuCapabilities(name="x", supports_cb_interface=False,
                        supports_tb_interface=False,
                        tb_required_when_single_cb=False,
                        internal_harq_memory=False)
    with pytest.raises(InvalidConfigError):
        LpuCapabilities(name="x", supports_cb_interface=True,
                        supports_tb_interface=False,
                        tb_required_when_single_cb=True,
                        internal_harq_memory=False)


def test_queue_allocation_exclusive_and_exhaustible():
    alloc = QueueAllocator("dev", num_queues=16)
    device = object()
    for i in range(16):
        assert alloc.open_queue(instance_id=i, device=device) is device
    with pytest.raises(ResourceExhaustedError):
        alloc.open_queue(instance_id=99, device=device)


def _decode_op(plan, rng, location=None):
    from vranphy.nr import (buffer_length, encode_tb, new_soft_buffer,
                            noiseless_llrs)
    payload = rng.integers(0, 2, 300).astype(np.uint8)
    ncb = buffer_length(plan.base_graph, plan.lifting_size)
    e = 2 * ((ncb // 2) // 2)
    enc = encode_tb(payload, plan, e, qm=2, layers=1)
    item = (noiseless_llrs(enc.streams[0]), plan, enc.params[0],
            new_soft_buffer(plan))
    return CodingOpDescriptor(kind=OpKind.DECODE, granularity=Granularity.CB,
                              payload=[item], harq_location=location)


def test_enqueue_validates_harq_token_placement(rng):
    plan = segment_tb(300, 0.5)
    op = _decode_op(plan, rng, location=BufferLocation.DEVICE)
    # internal memory: fine
    validate_harq_placement(discover("t2"), op.harq_location)
    with pytest.raises(CapabilityMismatchError):
        validate_harq_placement(discover("vran_boost"), op.harq_location)
    with pytest.raises(CapabilityMismatchError):
        validate_harq_placement(discover("software"), op.harq_location)


def _backend(name):
    if name == "software":
        return SoftwareBackend()
    return make_emulated("t2-emulated", spike=JitterSpec())


@pytest.mark.parametrize("name", ["software", "t2-emulated"])
def test_process_conserves_ops_in_order(name, rng):
    backend = _backend(name)
    plan = segment_tb(300, 0.5)
    ops = []
    for _ in range(5):
        op = _decode_op(plan, rng)
        op.shape = CallShape("per_cb", 1.0, 1, 0.3)
        ops.append(op)
    # the reference runs on copies: decoding combines into the op's buffer
    refs = [execute_descriptor(op) for op in copy.deepcopy(ops)]
    # each op decodes its own payload, so a reordering changes the outputs
    assert len({ref[0].info_bits.tobytes() for ref in refs}) == len(ops)
    done = backend.process(ops)
    assert len(done) == len(ops)
    assert all(c.service_time_us > 0 for c in done)
    for ref, c in zip(refs, done):
        [got], [want] = c.outputs, ref
        np.testing.assert_array_equal(got.info_bits, want.info_bits)
        assert got.crc_ok == want.crc_ok
        assert got.iterations_used == want.iterations_used
    assert backend.process([]) == []


@pytest.mark.parametrize("name", ["software", "t2-emulated"])
def test_process_validates_capabilities(name, rng):
    backend = _backend(name)
    plan = segment_tb(300, 0.5)
    good = _decode_op(plan, rng)
    good.shape = CallShape("per_cb", 1.0, 1, 0.3)
    bad = _decode_op(plan, rng, location=BufferLocation.DEVICE)
    bad.shape = good.shape
    if name == "t2-emulated":
        # internal HARQ memory, but no TB interface
        bad = CodingOpDescriptor(kind=OpKind.DECODE,
                                 granularity=Granularity.TB,
                                 payload=good.payload, shape=good.shape)
    with pytest.raises(CapabilityMismatchError):
        backend.process([good, bad])


def test_emulated_process_needs_a_shape(t2_quiet, rng):
    op = _decode_op(segment_tb(300, 0.5), rng)
    with pytest.raises(InvalidConfigError):
        t2_quiet.process([op])


@pytest.mark.parametrize("name", ["software", "t2-emulated"])
def test_process_rejects_an_op_without_payload(name):
    op = CodingOpDescriptor(kind=OpKind.DECODE, granularity=Granularity.CB,
                            payload=None, shape=CallShape("per_cb", 1.0, 1,
                                                          0.3))
    with pytest.raises(InvalidConfigError):
        _backend(name).process([op])
