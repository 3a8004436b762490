"""Bit-exact NR channel-coding primitives: CRC, TBS, segmentation, LDPC
encode/decode, rate matching and HARQ soft combining."""

from .crc import crc_check, crc_compute, crc_length
from .mcs import compute_tbs, mcs_params, resource_elements
from .segmentation import (SegmentationPlan, assemble_payload,
                           select_base_graph, segment_tb, split_payload)
from .basegraph import (base_graph, buffer_length, codeword_length,
                        lifting_sizes, lifted, set_index)
from .encoder import ldpc_encode
from .ratematch import (RateMatchParams, deinterleave, interleave, k0_offset,
                        rate_match, selection_positions)
from .softbuffer import (SoftBuffer, awgn_llrs, new_soft_buffer,
                         noiseless_llrs, rate_recover_and_combine)
from .decoder import DecodeResult, ldpc_decode, ldpc_decode_batch
from .pipeline import (EncodedTb, TbDecodeOutcome, cb_params, decode_cb,
                       decode_tb, e_splits, encode_cb, encode_tb)

__all__ = [
    "crc_compute", "crc_check", "crc_length",
    "compute_tbs", "mcs_params", "resource_elements",
    "SegmentationPlan", "segment_tb", "select_base_graph", "split_payload",
    "assemble_payload",
    "base_graph", "lifting_sizes", "lifted", "set_index", "codeword_length",
    "buffer_length",
    "ldpc_encode",
    "RateMatchParams", "rate_match", "k0_offset", "interleave",
    "deinterleave", "selection_positions",
    "SoftBuffer", "new_soft_buffer", "noiseless_llrs",
    "awgn_llrs", "rate_recover_and_combine",
    "DecodeResult", "ldpc_decode", "ldpc_decode_batch",
    "EncodedTb", "TbDecodeOutcome", "encode_tb", "decode_tb", "e_splits",
    "cb_params", "encode_cb", "decode_cb",
]
