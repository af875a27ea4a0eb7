"""Workload generation: synthetic (Table IV) and check-in based.

The paper evaluates on synthetic worker/task streams with configurable
spatial distributions (Uniform / Gaussian / Zipf) and on two real
check-in datasets (Gowalla for workers, Foursquare for tasks) mapped to
the unit square and split into ``R`` time subintervals.  This package
generates the synthetic streams, synthesizes Gowalla/Foursquare-style
check-in data (no network access; see docs/scenarios.md), loads genuine
check-in files when available, and adapts both into the common
:class:`~repro.workloads.base.Workload` interface the simulation
engine consumes.
"""

from repro.workloads.base import Workload, WorkloadParams
from repro.workloads.distributions import (
    SpatialSampler,
    UniformSampler,
    GaussianSampler,
    ZipfSampler,
    make_sampler,
    truncated_gaussian,
)
from repro.workloads.quality import HashQualityModel
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.checkins import (
    CheckinRecord,
    CheckinGeneratorConfig,
    generate_checkins,
    load_gowalla_checkins,
    save_checkins,
)
from repro.workloads.real import RealWorkload, map_to_unit_square
from repro.workloads.streaming import (
    BurstyWorkload,
    CitywideMultiHotspotWorkload,
    DriftingHotspotWorkload,
)

__all__ = [
    "Workload",
    "WorkloadParams",
    "SpatialSampler",
    "UniformSampler",
    "GaussianSampler",
    "ZipfSampler",
    "make_sampler",
    "truncated_gaussian",
    "HashQualityModel",
    "SyntheticWorkload",
    "CheckinRecord",
    "CheckinGeneratorConfig",
    "generate_checkins",
    "load_gowalla_checkins",
    "save_checkins",
    "RealWorkload",
    "map_to_unit_square",
    "BurstyWorkload",
    "CitywideMultiHotspotWorkload",
    "DriftingHotspotWorkload",
]
