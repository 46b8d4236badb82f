"""Flow-level discrete-event simulators for circuit and packet networks."""

from repro._lazy import lazy_exports

# Submodules load on first access to one of their names (PEP 562), so
# importing one piece does not import numpy or the baseline schedulers.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aalo": ("AaloAllocator",),
        "assignment_exec": (
            "ExecutionResult", "SwitchModel", "execute_assignments",
        ),
        "circuit_sim": (
            "InterCoflowSimulator", "simulate_inter_sunflow",
            "simulate_intra_assignment", "simulate_intra_sunflow",
        ),
        "engine": ("Event", "EventQueue"),
        "hybrid": (
            "HybridConfig", "simulate_inter_hybrid", "simulate_intra_hybrid",
            "split_coflow", "split_trace",
        ),
        "multicore_sim": (
            "MultiCoreInterSimulator", "simulate_inter_multicore",
            "simulate_intra_multicore",
        ),
        "packet_sim": (
            "PacketCoflowState", "PacketSimulator", "RateAllocator",
            "ReferencePacketSimulator", "simulate_packet",
        ),
        "packet_vector": ("VectorPacketSimulator", "vector_capable"),
        "results": (
            "CoflowRecord", "SimulationReport", "make_record", "mean",
            "percentile", "summarize",
        ),
        "streaming": (
            "StreamingReport", "StreamingResult",
            "simulate_inter_sunflow_stream",
        ),
        "varys": ("VarysAllocator",),
    },
)

__all__ = [
    "AaloAllocator",
    "ExecutionResult",
    "SwitchModel",
    "execute_assignments",
    "InterCoflowSimulator",
    "simulate_inter_sunflow",
    "simulate_intra_assignment",
    "simulate_intra_sunflow",
    "MultiCoreInterSimulator",
    "simulate_inter_multicore",
    "simulate_intra_multicore",
    "Event",
    "EventQueue",
    "HybridConfig",
    "simulate_inter_hybrid",
    "simulate_intra_hybrid",
    "split_coflow",
    "split_trace",
    "PacketCoflowState",
    "PacketSimulator",
    "RateAllocator",
    "ReferencePacketSimulator",
    "VectorPacketSimulator",
    "vector_capable",
    "simulate_packet",
    "CoflowRecord",
    "SimulationReport",
    "make_record",
    "mean",
    "percentile",
    "summarize",
    "StreamingReport",
    "StreamingResult",
    "simulate_inter_sunflow_stream",
    "VarysAllocator",
]
