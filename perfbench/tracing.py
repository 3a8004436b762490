"""Per-layer spans recorded from outside the program.

The tracer replaces each public function listed in ``TARGETS`` at the
module attribute of every call site (a function imported by name into
several modules is replaced in each of them; methods are replaced on their
class). Each call becomes a span with name, layer, start, end, parent and
step id. Spans stay in memory and are written out as JSON lines at exit.
The counting hooks of a function run inside its span, so their cost is
booked to the function's own layer rather than to its caller.

A layer's self time is the duration of its spans minus the time their
child spans cover. Self times are folded per step, scaled by the step's
probe factor, so per-layer milliseconds are at reference speed like the
end-to-end timings. Counters are recorded at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from measure import tail_percentile

ROOT_LAYER = "bench"
MAX_SPANS = 50_000   # spans kept for the JSON lines file; the rest are counted

# (layer, module, function or Class.method) of every timed public entry
TARGETS = (
    ("highphy", "vranphy.highphy", "run_dl_slot"),
    ("highphy", "vranphy.highphy", "run_ul_slot"),
    ("highphy", "vranphy.highphy", "precode_and_map"),
    ("slot_coding", "vranphy.slot_coding", "encode_slot"),
    ("slot_coding", "vranphy.slot_coding", "decode_slot"),
    ("backends.software", "vranphy.backends.software",
     "SoftwareBackend.process"),
    ("backends.software", "vranphy.backends.software", "execute_descriptor"),
    ("nr.crc", "vranphy.nr.crc", "crc_compute"),
    ("nr.segmentation", "vranphy.nr.segmentation", "segment_tb"),
    ("nr.segmentation", "vranphy.nr.segmentation", "split_payload"),
    ("nr.segmentation", "vranphy.nr.segmentation", "assemble_payload"),
    ("nr.encoder", "vranphy.nr.encoder", "ldpc_encode"),
    ("nr.ratematch", "vranphy.nr.ratematch", "rate_match"),
    ("nr.ratematch", "vranphy.nr.ratematch", "selection_positions"),
    ("nr.softbuffer", "vranphy.nr.softbuffer", "rate_recover_and_combine"),
    ("nr.softbuffer", "vranphy.nr.softbuffer", "new_soft_buffer"),
    ("nr.decoder", "vranphy.nr.decoder", "ldpc_decode"),
    ("nr.basegraph", "vranphy.nr.basegraph", "lifted"),
    ("backends.emulated", "vranphy.backends.emulated",
     "EmulatedDevice.submit"),
    ("backends.emulated", "vranphy.backends.emulated",
     "EmulatedDevice.advance_to"),
    ("backends.emulated", "vranphy.backends.emulated",
     "EmulatedDevice.pop_completed"),
    ("backends.emulated", "vranphy.backends.emulated",
     "EmulatedDevice.drain"),
    ("backends.model", "vranphy.backends.model", "calibrate_per_generation"),
    ("backends.model", "vranphy.backends.model", "calibrate_model"),
    ("deployment.harness", "vranphy.deployment.harness", "run_deployment"),
)

# (name, unit, better) of the per-layer metrics: each is a mean per timed
# step unless it is a ratio or a percentile; ``setup.*`` metrics cover one
# traced set-up
PER_LAYER_METRICS = (
    ("nr.crc.calls", "count", "lower"),
    ("nr.crc.bits", "bits", "lower"),
    ("nr.crc.busy_ms", "ms", "lower"),
    ("nr.segmentation.calls", "count", "lower"),
    ("nr.segmentation.busy_ms", "ms", "lower"),
    ("nr.encoder.cbs", "count", "lower"),
    ("nr.encoder.busy_ms", "ms", "lower"),
    ("nr.encoder.us_per_cb", "us", "lower"),
    ("nr.ratematch.match_cbs", "count", "lower"),
    ("nr.ratematch.match_busy_ms", "ms", "lower"),
    ("nr.ratematch.selection_calls", "count", "lower"),
    ("nr.ratematch.selection_busy_ms", "ms", "lower"),
    ("nr.softbuffer.recover_cbs", "count", "lower"),
    ("nr.softbuffer.combined_cbs", "count", "lower"),
    ("nr.softbuffer.busy_ms", "ms", "lower"),
    ("nr.decoder.cbs", "count", "lower"),
    ("nr.decoder.iterations", "count", "lower"),
    ("nr.decoder.zero_iter_cbs", "count", "higher"),
    ("nr.decoder.busy_ms", "ms", "lower"),
    ("nr.decoder.us_per_cb_iter", "us", "lower"),
    ("nr.decoder.cb_crc_ok_ratio", "ratio", "higher"),
    ("highphy.precode_busy_ms", "ms", "lower"),
    ("highphy.self_ms", "ms", "lower"),
    ("slot_coding.calls_made", "count", "lower"),
    ("slot_coding.self_ms", "ms", "lower"),
    ("backends.software.descriptors", "count", "lower"),
    ("backends.software.self_ms", "ms", "lower"),
    ("backends.emulated.submits", "count", "lower"),
    ("backends.emulated.advance_calls", "count", "lower"),
    ("backends.emulated.busy_ms", "ms", "lower"),
    ("backends.emulated.queue_wait_vus_p50", "vus", "lower"),
    ("backends.emulated.queue_wait_vus_p90", "vus", "lower"),
    ("backends.emulated.spiked_ratio", "ratio", "lower"),
    ("deployment.harness.self_ms", "ms", "lower"),
    ("backends.model.calibrations", "count", "lower"),
    ("backends.model.calibrate_ms", "ms", "lower"),
    ("nr.basegraph.lifted_builds", "count", "lower"),
    ("nr.basegraph.lifted_ms", "ms", "lower"),
    ("setup.nr.basegraph.lifted_builds", "count", "lower"),
    ("setup.nr.basegraph.lifted_ms", "ms", "lower"),
    ("setup.backends.model.calibrations", "count", "lower"),
    ("setup.backends.model.calibrate_ms", "ms", "lower"),
)

# which per-layer time metric is the self time of which layer
_LAYER_TIME = {
    "nr.crc": "nr.crc.busy_ms",
    "nr.segmentation": "nr.segmentation.busy_ms",
    "nr.encoder": "nr.encoder.busy_ms",
    "nr.softbuffer": "nr.softbuffer.busy_ms",
    "nr.decoder": "nr.decoder.busy_ms",
    "highphy": "highphy.self_ms",
    "slot_coding": "slot_coding.self_ms",
    "backends.software": "backends.software.self_ms",
    "backends.emulated": "backends.emulated.busy_ms",
    "deployment.harness": "deployment.harness.self_ms",
    "backends.model": "backends.model.calibrate_ms",
}


def _count(key, value):
    """Post-hook adding ``value(args, result)`` to a counter."""
    def hook(tracer, args, result, token):
        tracer.add(key, value(args, result))
    return hook


def _decoder_post(tracer, args, result, token):
    tracer.add("decoder.iterations", result.iterations_used)
    tracer.add("decoder.zero_iter_cbs", int(result.iterations_used == 0))
    tracer.add("decoder.crc_ok", int(bool(result.crc_ok)))


def _new_buffer_post(tracer, args, result, token):
    tracer.fresh_buffers.add(id(result))


def _combine_pre(tracer, args, kwargs):
    """A buffer not made in this step already holds a transmission of an
    earlier step: this call combines into it."""
    if id(args[3]) not in tracer.fresh_buffers:
        tracer.add("softbuffer.combined_cbs")


def _lifted_pre(tracer, args, kwargs):
    return tracer.lifted_misses(), time.perf_counter_ns()


def _lifted_post(tracer, args, result, token):
    misses, start = token
    built = tracer.lifted_misses() - misses
    if built:
        tracer.add("basegraph.lifted_builds", built)
        tracer.add("basegraph.lifted_ns", time.perf_counter_ns() - start)


def _submit_post(tracer, args, result, token):
    tracer.calls.append(result)


_CALLS_MADE = _count("slot_coding.calls_made", lambda a, r: r.calls_made)
_HOOKS = {
    "crc_compute": (None, _count("crc.bits", lambda a, r: len(a[0]))),
    "new_soft_buffer": (None, _new_buffer_post),
    "rate_recover_and_combine": (_combine_pre, None),
    "ldpc_decode": (None, _decoder_post),
    "encode_slot": (None, _CALLS_MADE),
    "decode_slot": (None, _CALLS_MADE),
    "lifted": (_lifted_pre, _lifted_post),
    "EmulatedDevice.submit": (None, _submit_post),
}


class Tracer:
    """Records spans of the ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: list = []          # CallRecords submitted this step
        self.fresh_buffers: set[int] = set()   # ids of this step's buffers
        self._t0 = time.perf_counter_ns()
        self._next_id = 0
        self._stack: list[list] = []   # [span id, start ns, child ns]
        self._step = None
        self._restore: list[tuple] = []
        self._lifted = None
        self._step_ns: dict[str, int] = {}      # layer -> self ns
        self._step_fn_ns: dict[str, int] = {}   # function -> self ns
        self._step_counts: dict[str, float] = {}
        self.layer_ms: dict[str, float] = {}
        self.fn_ms: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.waits_vus: list[float] = []
        self.spiked = 0
        self.steps = 0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every ``vranphy`` module attribute bound to
        it. The program must already be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, qualname, original))
                continue
            original = getattr(module, qualname)
            if qualname == "lifted":
                self._lifted = original
            wrapper = self._wrap(layer, qualname, original)
            for mod in [m for n, m in sys.modules.items()
                        if n == "vranphy" or n.startswith("vranphy.")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def lifted_misses(self) -> int:
        return self._lifted.cache_info().misses

    def _wrap(self, layer, name, fn):
        pre, post = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter()
            try:
                token = pre(tracer, args, kwargs) if pre else None
                result = fn(*args, **kwargs)
                if post:
                    post(tracer, args, result, token)
            finally:
                tracer._exit(name, layer)
            return result
        return wrapper

    # -- spans ------------------------------------------------------------
    def _enter(self) -> None:
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self, name: str, layer: str) -> None:
        end = time.perf_counter_ns()
        span_id, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        parent = self._stack[-1][0] if self._stack else None
        for key, ns in ((layer, self._step_ns), (name, self._step_fn_ns)):
            ns[key] = ns.get(key, 0) + dur - child
        self.add(f"calls.{name}")
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, layer, self._step,
                               start - self._t0, end - self._t0))
        else:
            self.dropped += 1

    def add(self, key: str, amount: float = 1) -> None:
        self._step_counts[key] = self._step_counts.get(key, 0) + amount

    def begin_step(self, step) -> None:
        """Open the root span of one step (``step`` is its id)."""
        self._step = step
        self._step_ns = {}
        self._step_fn_ns = {}
        self._step_counts = {}
        self.calls = []
        self.fresh_buffers = set()
        self._enter()

    def end_step(self) -> None:
        self._exit("step", ROOT_LAYER)

    def fold_step(self, factor: float) -> None:
        """Add the closed step's self times, scaled by its probe factor,
        and its counters to the run totals."""
        for totals, step in ((self.layer_ms, self._step_ns),
                             (self.fn_ms, self._step_fn_ns)):
            for key, ns in step.items():
                totals[key] = totals.get(key, 0.0) + ns * 1e-6 * factor
        for key, value in self._step_counts.items():
            if key == "basegraph.lifted_ns":
                key, value = "basegraph.lifted_ms", value * 1e-6 * factor
            self.counts[key] = self.counts.get(key, 0) + value
        for call in self.calls:
            self.waits_vus.append(call.start_us - call.arrival_us)
            self.spiked += call.spike_us > 0
        self.calls = []
        self.steps += 1

    def self_sum_ratio(self) -> float:
        """Share of the traced steps' time covered by program layers (the
        rest is the benchmark's own code between its clock and the call)."""
        bench = self.layer_ms.get(ROOT_LAYER, 0.0)
        total = sum(self.layer_ms.values())
        return (total - bench) / total if total else 0.0

    # -- reporting --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-step layer metrics of the folded steps (setup.* excluded)."""
        n = max(self.steps, 1)
        c = self.counts
        per = {}

        def calls(*names):
            return sum(c.get(f"calls.{x}", 0) for x in names) / n

        for layer, key in _LAYER_TIME.items():
            per[key] = self.layer_ms.get(layer, 0.0) / n
        per["nr.crc.calls"] = calls("crc_compute")
        per["nr.crc.bits"] = c.get("crc.bits", 0) / n
        per["nr.segmentation.calls"] = calls(
            "segment_tb", "split_payload", "assemble_payload")
        per["nr.encoder.cbs"] = calls("ldpc_encode")
        per["nr.encoder.us_per_cb"] = _ratio(
            per["nr.encoder.busy_ms"] * 1e3, per["nr.encoder.cbs"])
        per["nr.ratematch.match_cbs"] = calls("rate_match")
        per["nr.ratematch.selection_calls"] = calls("selection_positions")
        per["nr.ratematch.match_busy_ms"] = \
            self.fn_ms.get("rate_match", 0.0) / n
        per["nr.ratematch.selection_busy_ms"] = \
            self.fn_ms.get("selection_positions", 0.0) / n
        per["nr.softbuffer.recover_cbs"] = calls("rate_recover_and_combine")
        per["nr.softbuffer.combined_cbs"] = \
            c.get("softbuffer.combined_cbs", 0) / n
        per["nr.decoder.cbs"] = calls("ldpc_decode")
        per["nr.decoder.iterations"] = c.get("decoder.iterations", 0) / n
        per["nr.decoder.zero_iter_cbs"] = \
            c.get("decoder.zero_iter_cbs", 0) / n
        per["nr.decoder.us_per_cb_iter"] = _ratio(
            per["nr.decoder.busy_ms"] * 1e3, per["nr.decoder.iterations"])
        per["nr.decoder.cb_crc_ok_ratio"] = _ratio(
            c.get("decoder.crc_ok", 0) / n, per["nr.decoder.cbs"])
        per["highphy.precode_busy_ms"] = \
            self.fn_ms.get("precode_and_map", 0.0) / n
        per["slot_coding.calls_made"] = \
            c.get("slot_coding.calls_made", 0) / n
        per["backends.software.descriptors"] = calls("execute_descriptor")
        per["backends.emulated.submits"] = calls("EmulatedDevice.submit")
        per["backends.emulated.advance_calls"] = calls(
            "EmulatedDevice.advance_to")
        per["backends.emulated.queue_wait_vus_p50"] = \
            tail_percentile(self.waits_vus, 0.5) or 0.0
        per["backends.emulated.queue_wait_vus_p90"] = \
            tail_percentile(self.waits_vus, 0.9) or 0.0
        per["backends.emulated.spiked_ratio"] = _ratio(
            self.spiked, len(self.waits_vus))
        per["backends.model.calibrations"] = calls("calibrate_per_generation")
        per["nr.basegraph.lifted_builds"] = \
            c.get("basegraph.lifted_builds", 0) / n
        per["nr.basegraph.lifted_ms"] = c.get("basegraph.lifted_ms", 0) / n
        return per

    def write_jsonl(self, f) -> None:
        """Write the kept spans to the open text file ``f``."""
        for sid, parent, name, layer, step, start, end in self.spans:
            f.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "layer": layer,
                "step": step, "start_us": start / 1e3,
                "end_us": end / 1e3}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
