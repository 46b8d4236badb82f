"""Workloads: the Facebook trace format, a statistically matching
synthetic generator, a binary streaming trace format, and the
evaluation's trace transforms."""

from repro._lazy import lazy_exports

# Submodules load on first access to one of their names (PEP 562), so
# importing one piece does not import numpy or the baseline schedulers.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "facebook": (
            "TraceFormatError", "TraceReader", "iter_trace", "parse_trace",
            "write_trace",
        ),
        "patterns": (
            "broadcast", "hotspot", "incast", "one_to_one", "permutation",
            "shuffle",
        ),
        "synthetic": (
            "CategoryMix", "FacebookLikeTraceGenerator", "GeneratorConfig",
            "paper_trace",
        ),
        "stream": (
            "ArrivalStream", "StreamTraceError", "StreamTraceReader",
            "StreamTraceWriter", "convert_text_trace", "is_stream_trace",
            "iter_chunks", "open_any_trace", "open_stream_trace",
            "read_stream_trace", "stream_facebook", "stream_synthetic",
            "write_stream_trace",
        ),
        "transforms": (
            "perturb_sizes", "perturb_sizes_iter", "scale_bytes",
            "scale_to_idleness",
        ),
    },
)

__all__ = [
    "TraceFormatError",
    "TraceReader",
    "iter_trace",
    "ArrivalStream",
    "StreamTraceError",
    "StreamTraceReader",
    "StreamTraceWriter",
    "convert_text_trace",
    "is_stream_trace",
    "iter_chunks",
    "open_any_trace",
    "open_stream_trace",
    "read_stream_trace",
    "stream_facebook",
    "stream_synthetic",
    "write_stream_trace",
    "broadcast",
    "hotspot",
    "incast",
    "one_to_one",
    "permutation",
    "shuffle",
    "parse_trace",
    "write_trace",
    "CategoryMix",
    "FacebookLikeTraceGenerator",
    "GeneratorConfig",
    "paper_trace",
    "perturb_sizes",
    "perturb_sizes_iter",
    "scale_bytes",
    "scale_to_idleness",
]
