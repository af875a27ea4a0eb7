"""repro — Prediction-Based Task Assignment in Spatial Crowdsourcing.

A full reproduction of the MQA system (Cheng, Lian, Chen, Shahabi,
ICDE 2017): grid-based worker/task prediction, uncertainty-aware
candidate pairs, and the GREEDY / Divide-and-Conquer assignment
heuristics, plus the workloads, simulation framework and experiment
harness needed to regenerate every figure of the paper's evaluation.

Quickstart::

    from repro import (
        SyntheticWorkload, WorkloadParams, SimulationEngine,
        EngineConfig, MQAGreedy,
    )

    workload = SyntheticWorkload(WorkloadParams(num_workers=600,
                                                num_tasks=600,
                                                num_instances=10), seed=7)
    engine = SimulationEngine(workload, MQAGreedy(),
                              EngineConfig(budget=100.0))
    result = engine.run()
    print(result.total_quality, result.average_cpu_seconds)
"""

from repro.core import (
    Assigner,
    AssignmentResult,
    MQAGreedy,
    GreedyConfig,
    MQADivideConquer,
    DivideConquerConfig,
    RandomAssigner,
    HungarianAssigner,
    exact_assignment,
)
from repro.geo import Point, Box, GridIndex, SpatialIndex
from repro.model import (
    Worker,
    Task,
    CandidatePair,
    ProblemInstance,
    build_problem,
)
from repro.obs import MetricsRegistry, TraceRecorder
from repro.prediction import GridPredictor, make_predictor
from repro.simulation import SimulationEngine, EngineConfig, SimulationResult
from repro.streaming import (
    StreamConfig,
    StreamingEngine,
    StreamingService,
    run_stream,
)
from repro.uncertainty import UncertainValue
from repro.workloads import (
    Workload,
    WorkloadParams,
    SyntheticWorkload,
    RealWorkload,
    HashQualityModel,
    generate_checkins,
    CheckinGeneratorConfig,
    BurstyWorkload,
    DriftingHotspotWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "Assigner",
    "AssignmentResult",
    "MQAGreedy",
    "GreedyConfig",
    "MQADivideConquer",
    "DivideConquerConfig",
    "RandomAssigner",
    "HungarianAssigner",
    "exact_assignment",
    "Point",
    "Box",
    "GridIndex",
    "SpatialIndex",
    "Worker",
    "Task",
    "CandidatePair",
    "ProblemInstance",
    "build_problem",
    "MetricsRegistry",
    "TraceRecorder",
    "GridPredictor",
    "make_predictor",
    "SimulationEngine",
    "EngineConfig",
    "SimulationResult",
    "StreamConfig",
    "StreamingEngine",
    "StreamingService",
    "run_stream",
    "UncertainValue",
    "Workload",
    "WorkloadParams",
    "SyntheticWorkload",
    "RealWorkload",
    "HashQualityModel",
    "generate_checkins",
    "CheckinGeneratorConfig",
    "BurstyWorkload",
    "DriftingHotspotWorkload",
    "__version__",
]
