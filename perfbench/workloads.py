"""The three workloads. Each one generates its inputs from the seed, builds
the program's objects (timed as set-up), runs one step per call (timed),
and checks each step's output (untimed).

The program is reached only through its public functions; ``programs``
is the namespace of freshly imported ``vranphy`` modules.
"""
from __future__ import annotations

import argparse
import importlib
import sys

import numpy as np

from measure import nearest_rank, tail_percentile

DEPLOY_SLOTS = 4000
DEPLOY_INSTANCES = 7
DEPLOY_PROFILE = "ep_rfsoc"
DL_PAYLOAD_POOL = 4
UL_MAX_TRANSMISSIONS = 4
UL_RV_ORDER = (0, 2, 3, 1)
UL_HARQ_PROCESSES = 16
# BLERs cover the first UL_BLER_TBS transport blocks only, so they repeat
# exactly for a seed however many slots a run fits in its time
UL_BLER_TBS = 10
# The channel: in every block of UL_FADE_BLOCK transport blocks, one TB at a
# seeded position sends its first transmission through a fade (noise level
# drawn from UL_FADE_SIGMA) that no code block of it survives. Every other
# transmission sees a level drawn from UL_CLEAR_SIGMA, where the decoder
# corrects every code block in one transmission. So each block costs the
# same number of slot calls whatever the seed, and a decoder that corrects
# less turns into retransmissions, which ms_per_op counts.
UL_FADE_BLOCK = 5
UL_CLEAR_SIGMA = (0.44, 0.45)
UL_FADE_SIGMA = (0.62, 0.63)

PROGRAM_MODULES = {
    "highphy": "vranphy.highphy",
    "slot_coding": "vranphy.slot_coding",
    "software": "vranphy.backends.software",
    "model": "vranphy.backends.model",
    "pipeline": "vranphy.nr.pipeline",
    "softbuffer": "vranphy.nr.softbuffer",
    "mcs": "vranphy.nr.mcs",
    "segmentation": "vranphy.nr.segmentation",
    "harness": "vranphy.deployment.harness",
}


def import_program():
    """Import the program afresh: every ``vranphy`` module is dropped first,
    so module-level caches start empty as in a new process."""
    for name in [n for n in sys.modules
                 if n == "vranphy" or n.startswith("vranphy.")]:
        del sys.modules[name]
    return argparse.Namespace(**{
        short: importlib.import_module(full)
        for short, full in PROGRAM_MODULES.items()})


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, programs) -> None:
        """Generate inputs (untimed, before any set-up)."""

    def setup(self, programs) -> None:
        """Build the program's objects and run the warm-up step (timed)."""
        raise NotImplementedError

    def next_input(self, index: int):
        """Input of step ``index`` (untimed)."""
        return index

    def step(self, arg):
        """One timed call into the program."""
        raise NotImplementedError

    def check(self, arg, result) -> bool:
        """Whether the step's output is correct (untimed)."""
        raise NotImplementedError

    def ms_per_op(self, step_ms: list) -> float:
        """Time of the run's completed operations over their number.
        ``step_ms[i]`` is step ``i``'s normalised time, None when the step
        failed. Here every step is one op."""
        done = [ms for ms in step_ms if ms is not None]
        return sum(done) / len(done) if done else 0.0

    def quality(self, step_ms: list) -> dict:
        """Workload-specific metrics of the run (``step_ms`` as above)."""
        return {}

    def setup_state(self) -> dict:
        """Attributes ``setup`` needs from ``prepare``, to set up in a
        fresh process (see ``setup_once.py``)."""
        return {}

    def close(self) -> None:
        """Release what ``setup`` built."""


def _tb_geometry(programs, layers: int, mcs: int, table: str):
    """(TBS, plan, G, Qm) of a full-grid phy-test transport block."""
    traffic = programs.harness.PhyTestTraffic()
    mcs_mod = programs.mcs
    qm, rate = mcs_mod.mcs_params(mcs, table)
    tbs = mcs_mod.compute_tbs(traffic.prbs, traffic.symbols, layers, mcs,
                              table, traffic.overhead)
    plan = programs.segmentation.segment_tb(tbs, rate)
    g = mcs_mod.resource_elements(traffic.prbs, traffic.symbols,
                                  traffic.overhead) * qm * layers
    return tbs, plan, g, qm


def _software_queue(programs):
    backend = programs.software.SoftwareBackend(worker_count=1)
    return backend, backend.allocator.open_queue(0, device=backend)


class DlFullLoad(Workload):
    """Closed loop of full-load DL slot encodes on the software backend."""

    name = "dl_full_load"

    def prepare(self, programs):
        t = programs.harness.PhyTestTraffic()
        self.shape = (t.dl_layers, t.dl_mcs, t.dl_table, t.prbs)
        tbs, plan, g, qm = _tb_geometry(programs, t.dl_layers, t.dl_mcs,
                                        t.dl_table)
        rng = np.random.default_rng([self.seed, 1])
        self.tbs = tbs
        self.payloads = [rng.integers(0, 2, tbs, dtype=np.uint8)
                         for _ in range(DL_PAYLOAD_POOL)]
        self.expected = [
            programs.pipeline.encode_tb(p, plan, g, qm, t.dl_layers).streams
            for p in self.payloads]

    def setup(self, programs):
        self.programs = programs
        self.cell = programs.highphy.CellConfig(
            overhead=programs.harness.PhyTestTraffic().overhead)
        self.backend, self.queue = _software_queue(programs)
        self.step(0)

    def next_input(self, index):
        return index % DL_PAYLOAD_POOL

    def step(self, k):
        p = self.programs
        layers, mcs, table, prbs = self.shape
        job = p.slot_coding.TransportBlockJob(
            ue_id=0, payload=self.payloads[k], mcs_index=mcs,
            mcs_table=table, layers=layers, prb_share=prbs)
        _, coding = p.highphy.run_dl_slot(
            self.cell, [job], self.queue, mode=p.highphy.PrecodeMode.VECTOR,
            slot_id=0)
        return coding

    def check(self, k, coding):
        streams = coding.job_results[0].streams
        expected = self.expected[k]
        ok = (coding.generation.value == "per_slot"
              and streams is not None and len(streams) == len(expected)
              and all(np.array_equal(a, b) for a, b in zip(streams, expected)))
        return ok

    def quality(self, step_ms):
        out = {"tb_bits": self.tbs}
        p90 = tail_percentile([ms for ms in step_ms if ms is not None], 0.9)
        if p90 is not None:
            out["slot_ms_p90"] = p90
        return out

    def setup_state(self):
        return {"shape": self.shape, "payloads": self.payloads[:1]}

    def close(self):
        self.backend.close()


class UlHarqAwgn(Workload):
    """Closed loop of full-load UL slot decodes with HARQ retransmissions
    over BPSK-AWGN LLRs. One op is one transport block carried to delivery,
    so its time is the sum of its transmissions' slot calls."""

    name = "ul_harq_awgn"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pending = None      # [tb index, payload, transmissions made]
        self.next_tb = 0
        self.step_tb: list[int] = []   # step index -> its TB
        self.first_tx_failed: dict[int, bool] = {}   # tb -> rv0 CRC failed
        self.residual: dict[int, bool] = {}   # finished tb -> not delivered
        self.undetected = 0

    def prepare(self, programs):
        t = programs.harness.PhyTestTraffic()
        self.shape = (t.ul_layers, t.ul_mcs, t.ul_table, t.prbs)
        self.geometry = _tb_geometry(programs, t.ul_layers, t.ul_mcs,
                                     t.ul_table)
        self.programs = programs
        self.warmup = self._transmission(
            self._payload(-1), -1, 0, UL_CLEAR_SIGMA[0])

    def sigma(self, tb: int, tx: int) -> float:
        """Noise level of transmission ``tx`` of TB ``tb`` (seeded)."""
        block, pos = divmod(tb, UL_FADE_BLOCK)
        fade_pos = np.random.default_rng([self.seed, 2, block]).integers(
            UL_FADE_BLOCK)
        lo, hi = UL_FADE_SIGMA if tx == 0 and pos == fade_pos \
            else UL_CLEAR_SIGMA
        u = np.random.default_rng([self.seed, 5, tb, tx]).random()
        return lo + u * (hi - lo)

    def _payload(self, tb: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 3, tb + 1])
        return rng.integers(0, 2, self.geometry[0], dtype=np.uint8)

    def _transmission(self, payload, tb, tx, sigma):
        """Noisy LLR streams of transmission ``tx`` of TB ``tb``."""
        _, plan, g, qm = self.geometry
        layers = self.shape[0]
        rv = UL_RV_ORDER[tx]
        enc = self.programs.pipeline.encode_tb(payload, plan, g, qm, layers,
                                               rv)
        rng = np.random.default_rng([self.seed, 4, tb + 1, tx])
        awgn = self.programs.softbuffer.awgn_llrs
        return {"tb": tb, "tx": tx, "rv": rv, "payload": payload,
                "llrs": [awgn(s, sigma, rng) for s in enc.streams]}

    def setup(self, programs):
        self.programs = programs
        self.cell = programs.highphy.CellConfig(
            overhead=programs.harness.PhyTestTraffic().overhead)
        self.backend, self.queue = _software_queue(programs)
        self.harq = programs.slot_coding.HarqPool()
        self.step(self.warmup)
        self.harq.release(0, self.warmup["tb"] % UL_HARQ_PROCESSES)

    def next_input(self, index):
        if self.pending is None:
            self.pending = [self.next_tb, self._payload(self.next_tb), 0]
            self.next_tb += 1
        tb, payload, tx = self.pending
        self.step_tb.append(tb)
        return self._transmission(payload, tb, tx, self.sigma(tb, tx))

    def step(self, tx):
        p = self.programs
        layers, mcs, table, prbs = self.shape
        job = p.slot_coding.TransportBlockJob(
            ue_id=0, payload=None, mcs_index=mcs, mcs_table=table,
            layers=layers, prb_share=prbs, rv=tx["rv"],
            harq_pid=tx["tb"] % UL_HARQ_PROCESSES, new_data=tx["tx"] == 0,
            llr_streams=tx["llrs"])
        _, coding = p.highphy.run_ul_slot(self.cell, [job], self.queue,
                                          harq=self.harq, slot_id=4)
        return coding

    def check(self, tx, coding):
        """Advance the HARQ state. A CRC pass with a wrong payload (an
        undetected error) fails the step, and so does a TB that is still
        not delivered after its last transmission."""
        jr = coding.job_results[0]
        crc_ok = bool(jr.tb_crc_ok)
        match = crc_ok and np.array_equal(jr.payload, tx["payload"])
        if tx["tx"] == 0:
            self.first_tx_failed[tx["tb"]] = not crc_ok
        self.pending[2] += 1
        last = self.pending[2] == UL_MAX_TRANSMISSIONS
        if crc_ok or last:
            self.residual[tx["tb"]] = not match
            self.harq.release(0, tx["tb"] % UL_HARQ_PROCESSES)
            self.pending = None
        self.undetected += crc_ok and not match
        return match or not (crc_ok or last)

    def _counted_tbs(self) -> int:
        """TBs that ms_per_op covers: the finished ones of every complete
        fade block (all finished ones when no block is complete), so each
        run weighs faded and clear TBs alike."""
        finished = len(self.residual)
        whole = finished - finished % UL_FADE_BLOCK
        return whole or finished

    def ms_per_op(self, step_ms):
        counted = self._counted_tbs()
        times = [ms for ms, tb in zip(step_ms, self.step_tb) if tb < counted]
        if not counted or any(ms is None for ms in times):
            return 0.0
        return sum(times) / counted

    def quality(self, step_ms):
        ms = self.ms_per_op(step_ms)
        return {
            "goodput_mbps": self.geometry[0] / ms / 1e3 if ms else 0.0,
            "first_tx_bler": _share(self.first_tx_failed),
            "residual_bler": _share(self.residual),
            "tbs_started": self.next_tb, "tbs_finished": len(self.residual),
            "tbs_counted": self._counted_tbs(),
            "undetected_errors": self.undetected,
        }

    def setup_state(self):
        return {"shape": self.shape, "warmup": self.warmup}

    def close(self):
        self.backend.close()


def _share(flags: dict[int, bool]) -> float:
    """Share of True among the first UL_BLER_TBS transport blocks."""
    first = [flags[tb] for tb in sorted(flags)[:UL_BLER_TBS]]
    return sum(first) / len(first) if first else 0.0


def _fit_prediction(model, bench, calls_for, direction, generation, n_tb):
    """Slot time the linear service model predicts for the bench slot."""
    n_cb, kbits = bench.slot_shape(n_tb)
    calls = calls_for(generation, direction, n_tb, n_cb)
    return (model.fixed_per_call_us * calls + model.per_tb_us * n_tb
            + model.per_cb_us * n_cb + model.per_kbit_us * kbits)


def fig1_fidelity(model_mod) -> dict:
    """In-sample and leave-one-``n_tb``-out error of the calibration on the
    bundled measurements (virtual time only)."""
    observations = model_mod.load_reference_observations()
    in_sample = max(m.max_rel_residual
                    for m in model_mod.calibrate_per_generation().values())
    bench = model_mod.BenchConfig()
    groups: dict[tuple[str, str], list] = {}
    for direction, generation, n_tb, us in observations:
        groups.setdefault((direction, generation), []).append((n_tb, us))
    holdout = 0.0
    for (direction, generation), rows in groups.items():
        for n_tb, us in rows:
            rest = [(generation, n, u) for n, u in rows if n != n_tb]
            model = model_mod.calibrate_model(rest, direction=direction,
                                              bench=bench)
            pred = _fit_prediction(model, bench, model_mod.calls_for,
                                   direction, generation, n_tb)
            holdout = max(holdout, abs(pred - us) / us)
    return {"fig1_max_rel_err": in_sample,
            "fig1_holdout_max_rel_err": holdout}


class DeploySharedT2(Workload):
    """Seven ep_rfsoc instances sharing one emulated T2, in virtual time."""

    name = "deploy_shared_t2"

    def setup(self, programs):
        self.programs = programs
        h = programs.harness
        self.config = h.DeploymentConfig(
            profile=DEPLOY_PROFILE, n_instances=DEPLOY_INSTANCES,
            duration_slots=DEPLOY_SLOTS, seed=self.seed)
        self.reference = self.virtual_metrics(self.step(None))
        self.expected_goodput = h.expected_goodput_mbps(self.config)

    def step(self, arg):
        return self.programs.harness.run_deployment(self.config)

    def virtual_metrics(self, bundle) -> dict:
        """Virtual-time outcome of one run; identical for a given seed."""
        h = self.programs.harness
        ul = [v for m in bundle.instances for v in m.ul_decode_us]
        calls = sum(len(m.ul_decode_us) + len(m.dl_encode_us)
                    for m in bundle.instances)
        misses = sum(m.ul_deadline_misses for m in bundle.instances)
        passed = h.check_throughput(bundle)["instances"].values()
        return {
            "ul_decode_vus_p50": nearest_rank(ul, 0.5),
            "ul_decode_vus_p90": tail_percentile(ul, 0.9),
            "ul_miss_ratio": misses / len(ul),
            "targets_met_ratio": sum(r["pass"] for r in passed)
            / len(bundle.instances),
            "device_calls": calls,
            "goodput_mbps": [bundle.goodput_mbps(m.instance_id)
                             for m in bundle.instances],
            "failed": [m.failed for m in bundle.instances],
        }

    def check(self, arg, bundle):
        """The virtual outcome repeats the set-up's exactly, no instance
        failed, and every instance reaches the goodput its traffic implies."""
        virtual = self.virtual_metrics(bundle)
        return (virtual == self.reference and not any(virtual["failed"])
                and all(g == self.expected_goodput
                        for g in virtual["goodput_mbps"]))

    def quality(self, step_ms):
        ref = self.reference
        out = {k: ref[k] for k in ("ul_decode_vus_p50", "ul_decode_vus_p90",
                                   "ul_miss_ratio", "targets_met_ratio",
                                   "device_calls")}
        out["host_us_per_call"] = self.ms_per_op(step_ms) * 1e3 \
            / ref["device_calls"]
        out.update(fig1_fidelity(self.programs.model))
        return out


WORKLOADS = {w.name: w for w in (DlFullLoad, UlHarqAwgn, DeploySharedT2)}
