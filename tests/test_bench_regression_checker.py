"""The bench-regression gate fails on regressions and passes on truth.

Exercises ``benchmarks/check_bench_regression.py`` against synthetic
baseline/fresh directories — including the committed repo baselines
compared against themselves (which must always pass) and a corrupted
baseline (which must fail), the end-to-end proof the CI gate bites.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
CHECKER = REPO_ROOT / "benchmarks" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_bench_regression", CHECKER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _streaming_payload(events: float, ratio: float) -> dict:
    leg = {"events_per_second": events, "pair_ratio": ratio}
    return {
        "bench": "streaming",
        "pair_ratio_floor": 5.0,
        "no_prediction": dict(leg),
        "with_prediction": dict(leg),
    }


class TestStreamingRules:
    def test_identical_results_pass(self, checker, tmp_path):
        payload = _streaming_payload(5000.0, 6.4)
        _write(tmp_path / "base", "BENCH_streaming.json", payload)
        _write(tmp_path / "fresh", "BENCH_streaming.json", payload)
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0

    def test_events_drop_over_tolerance_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(3000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_events_drop_within_tolerance_passes(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(3600.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0

    def test_pair_ratio_below_recorded_floor_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 4.9))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_leg_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        broken = _streaming_payload(5000.0, 6.4)
        del broken["with_prediction"]
        _write(tmp_path / "fresh", "BENCH_streaming.json", broken)
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_file_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        (tmp_path / "fresh").mkdir()
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_phases_fails(self, checker, tmp_path):
        base = _streaming_payload(5000.0, 6.4)
        base["no_prediction"]["phases"] = {"mean_build_ms": 3.0}
        base["with_prediction"]["phases"] = {"mean_build_ms": 9.0}
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def _delta_payload(self, build_speedup: float, round_speedup: float = 1.4) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        payload["delta"] = {
            "build_speedup_floor": 3.0,
            "round_speedup_floor": 1.15,
            "steady_state_build_speedup": build_speedup,
            "round_speedup": round_speedup,
        }
        return payload

    def test_delta_build_speedup_below_floor_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._delta_payload(4.1))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._delta_payload(2.8))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_delta_round_speedup_below_floor_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._delta_payload(4.1))
        _write(
            tmp_path / "fresh", "BENCH_streaming.json",
            self._delta_payload(4.1, round_speedup=1.0),
        )
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_delta_drop_over_tolerance_fails_even_above_floor(self, checker, tmp_path):
        # 8.0 -> 4.0 is a 50% collapse of the speedup even though the
        # 3.0 floor still holds — the drop rule must catch it.
        _write(tmp_path / "base", "BENCH_streaming.json", self._delta_payload(8.0))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._delta_payload(4.0))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_delta_round_drop_over_tolerance_fails_even_above_floor(
        self, checker, tmp_path
    ):
        _write(
            tmp_path / "base", "BENCH_streaming.json",
            self._delta_payload(4.1, round_speedup=3.0),
        )
        _write(
            tmp_path / "fresh", "BENCH_streaming.json",
            self._delta_payload(4.1, round_speedup=1.6),
        )
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_delta_healthy_passes(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._delta_payload(4.1))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._delta_payload(3.9))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0

    def test_missing_fresh_delta_section_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._delta_payload(4.1))
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_sharded_section_fails(self, checker, tmp_path):
        """A baseline with a sharded section demands one in the fresh
        results — the scaling bench silently not running must fail."""
        base = _streaming_payload(5000.0, 6.4)
        base["sharded"] = {"serial": {"rounds_per_second": 0.5}}
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def _warm_select_payload(
        self, speedup: float, mean_speedup: float = 1.6
    ) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        payload["warm_select"] = {
            "select_speedup_floor": 2.0,
            "steady_state_select_speedup": speedup,
            "mean_select_speedup": mean_speedup,
            "cold": {"median_select_ms": 10.0},
            "warm": {"median_select_ms": 10.0 / speedup},
        }
        return payload

    def test_warm_select_healthy_passes(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._warm_select_payload(2.3))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._warm_select_payload(2.2))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0

    def test_warm_select_below_recorded_floor_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._warm_select_payload(2.3))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._warm_select_payload(1.8))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_warm_select_drop_over_tolerance_fails_even_above_floor(
        self, checker, tmp_path
    ):
        # 4.0 -> 2.4 still clears the 2.0 floor but is a >30% collapse
        # of the committed speedup — the drop rule must catch it.
        _write(tmp_path / "base", "BENCH_streaming.json", self._warm_select_payload(4.0))
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._warm_select_payload(2.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_warm_select_section_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._warm_select_payload(2.3))
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_warm_select_missing_speedup_figure_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._warm_select_payload(2.3))
        broken = self._warm_select_payload(2.3)
        del broken["warm_select"]["steady_state_select_speedup"]
        _write(tmp_path / "fresh", "BENCH_streaming.json", broken)
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_single_phase_key_fails(self, checker, tmp_path):
        """A phase present in the committed breakdown must keep being
        measured — a fresh breakdown lacking the select/finalize split
        (but still present) fails."""
        base = _streaming_payload(5000.0, 6.4)
        base["with_prediction"]["phases"] = {
            "mean_build_ms": 9.0, "mean_select_ms": 4.0, "mean_finalize_ms": 1.0,
        }
        fresh = _streaming_payload(5000.0, 6.4)
        fresh["with_prediction"]["phases"] = {"mean_build_ms": 9.0}
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", fresh)
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def _health_payload(
        self,
        delta_rate: float = 0.95,
        repair_rate: float = 0.68,
        overhead: float = 1.005,
    ) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        payload["health"] = {
            "delta_incremental_rate": delta_rate,
            "delta_incremental_rate_floor": 0.85,
            "warm_select_repair_rate": repair_rate,
            "warm_select_repair_rate_floor": 0.5,
            "metrics_overhead_ratio": overhead,
            "metrics_overhead_ratio_ceil": 1.03,
        }
        return payload

    def test_health_healthy_passes(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._health_payload())
        _write(tmp_path / "fresh", "BENCH_streaming.json", self._health_payload(0.93))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_rate": 0.7},     # prime/fallback storm in the delta cache
            {"repair_rate": 0.3},    # warm selection regressed to cold primes
            {"overhead": 1.08},      # metrics layer got expensive
        ],
        ids=["delta-rate", "repair-rate", "overhead"],
    )
    def test_health_regression_fails(self, checker, tmp_path, kwargs):
        _write(tmp_path / "base", "BENCH_streaming.json", self._health_payload())
        _write(
            tmp_path / "fresh", "BENCH_streaming.json", self._health_payload(**kwargs)
        )
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_missing_fresh_health_section_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._health_payload())
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def test_health_missing_rate_figure_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_streaming.json", self._health_payload())
        broken = self._health_payload()
        del broken["health"]["warm_select_repair_rate"]
        _write(tmp_path / "fresh", "BENCH_streaming.json", broken)
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 1

    def _sharded_payload(
        self,
        k4_speedup: float = 2.1,
        k4_ipc: int | None = 800_000,
        scaling_asserted: bool = True,
        cpu_count: int = 8,
        ipc_ceil: int | None = 4_000_000,
    ) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        k4 = {
            "backend": "process",
            "num_shards": 4,
            "speedup_vs_serial": k4_speedup,
        }
        if k4_ipc is not None:
            k4["ipc_bytes_per_round"] = k4_ipc
        payload["sharded"] = {
            "cpu_count": cpu_count,
            "scaling_asserted": scaling_asserted,
            "scaling_floor": 1.8,
            "serial": {"rounds_per_second": 0.55},
            "variants": {"K4_process": k4},
        }
        if ipc_ceil is not None:
            payload["sharded"]["ipc_bytes_per_round_ceil"] = ipc_ceil
        return payload

    def _run_sharded(self, checker, tmp_path, base: dict, fresh: dict) -> int:
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", fresh)
        return checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )

    def test_sharded_healthy_passes(self, checker, tmp_path):
        rc = self._run_sharded(
            checker, tmp_path, self._sharded_payload(), self._sharded_payload(2.0)
        )
        assert rc == 0

    def test_sharded_ipc_over_recorded_ceiling_fails(self, checker, tmp_path):
        """Round messages swelling past the recorded per-round pipe
        budget — a regression from churn deltas back toward full
        pools — must trip the gate even when throughput looks fine."""
        rc = self._run_sharded(
            checker, tmp_path,
            self._sharded_payload(),
            self._sharded_payload(k4_ipc=9_000_000),
        )
        assert rc == 1

    def test_sharded_ipc_silently_dropped_fails(self, checker, tmp_path):
        rc = self._run_sharded(
            checker, tmp_path,
            self._sharded_payload(),
            self._sharded_payload(k4_ipc=None),
        )
        assert rc == 1

    def test_sharded_scaling_floor_armed_fails_below_floor(self, checker, tmp_path):
        """A fresh run that *asserted* scaling (>= 4 cores) is held to
        the absolute floor recorded in the baseline."""
        rc = self._run_sharded(
            checker, tmp_path,
            self._sharded_payload(),
            self._sharded_payload(k4_speedup=1.2),
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "fresh_kwargs",
        [
            {"k4_speedup": 1.2, "scaling_asserted": False},
            {"k4_speedup": 1.2, "cpu_count": 2},
        ],
        ids=["not-asserted", "too-few-cores"],
    )
    def test_sharded_scaling_floor_disarmed_passes(
        self, checker, tmp_path, fresh_kwargs
    ):
        """A laptop run records its (noisy) speedups without being held
        to a parallelism bar the machine cannot reach."""
        rc = self._run_sharded(
            checker, tmp_path,
            self._sharded_payload(),
            self._sharded_payload(**fresh_kwargs),
        )
        assert rc == 0

    def test_missing_baseline_passes(self, checker, tmp_path):
        (tmp_path / "base").mkdir()
        _write(tmp_path / "fresh", "BENCH_streaming.json", _streaming_payload(5000.0, 6.4))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )
        assert rc == 0


class TestServingRules:
    @staticmethod
    def _serving_payload(
        *,
        tenants: int = 4,
        engaged: bool = True,
        bit_identical: bool = True,
        drop_wait: str | None = None,
        drop_recovery: str | None = None,
    ) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        wait_ms = {"p50": 0.1, "p95": 4.2, "p99": 18.0}
        if drop_wait:
            del wait_ms[drop_wait]
        recovery = {
            "bit_identical": bit_identical,
            "checkpoint_ms": 1.0,
            "recovery_ms": 2.5,
            "replayed_ops": 3,
        }
        if drop_recovery:
            del recovery[drop_recovery]
        payload["serving"] = {
            "tenants": tenants,
            "tenants_floor": 4,
            "admission": {
                "admitted": 300,
                "rejected_queue_full": 5,
                "engaged": engaged,
                "wait_ms": wait_ms,
            },
            "recovery": recovery,
        }
        return payload

    def _run(self, checker, tmp_path, base: dict, fresh: dict) -> int:
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", fresh)
        return checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )

    def test_healthy_serving_passes(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path, self._serving_payload(), self._serving_payload()
        )
        assert rc == 0

    def test_missing_fresh_serving_section_fails(self, checker, tmp_path):
        fresh = self._serving_payload()
        del fresh["serving"]
        rc = self._run(checker, tmp_path, self._serving_payload(), fresh)
        assert rc == 1

    def test_recovery_not_bit_identical_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._serving_payload(),
            self._serving_payload(bit_identical=False),
        )
        assert rc == 1

    def test_admission_not_engaged_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._serving_payload(),
            self._serving_payload(engaged=False),
        )
        assert rc == 1

    def test_tenants_below_recorded_floor_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._serving_payload(),
            self._serving_payload(tenants=3),
        )
        assert rc == 1

    def test_missing_wait_percentile_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._serving_payload(),
            self._serving_payload(drop_wait="p99"),
        )
        assert rc == 1

    def test_missing_recovery_timing_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._serving_payload(),
            self._serving_payload(drop_recovery="recovery_ms"),
        )
        assert rc == 1

    def test_no_serving_baseline_passes(self, checker, tmp_path):
        """First run: the fresh side introduces the section."""
        rc = self._run(
            checker, tmp_path, _streaming_payload(5000.0, 6.4), self._serving_payload()
        )
        assert rc == 0


class TestResilienceRules:
    @staticmethod
    def _resilience_payload(
        *,
        completed: bool = True,
        rounds_to_recover: float = 1.0,
        overhead: float = 1.05,
        ceil: float = 1.5,
        drop: str | None = None,
    ) -> dict:
        payload = _streaming_payload(5000.0, 6.4)
        section = {
            "num_shards": 2,
            "faults_injected": 2,
            "completed_with_faults": completed,
            "respawns": 2,
            "respawn_seconds": 0.02,
            "rounds_to_recover": rounds_to_recover,
            "deadline_overhead_ratio": overhead,
            "deadline_overhead_ceil": ceil,
        }
        if drop:
            del section[drop]
        payload["resilience"] = section
        return payload

    def _run(self, checker, tmp_path, base: dict, fresh: dict) -> int:
        _write(tmp_path / "base", "BENCH_streaming.json", base)
        _write(tmp_path / "fresh", "BENCH_streaming.json", fresh)
        return checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_streaming.json"]
        )

    def test_healthy_resilience_passes(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._resilience_payload(), self._resilience_payload(),
        )
        assert rc == 0

    def test_missing_fresh_resilience_section_fails(self, checker, tmp_path):
        fresh = self._resilience_payload()
        del fresh["resilience"]
        rc = self._run(checker, tmp_path, self._resilience_payload(), fresh)
        assert rc == 1

    def test_not_completed_with_faults_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._resilience_payload(),
            self._resilience_payload(completed=False),
        )
        assert rc == 1

    def test_rounds_to_recover_regression_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._resilience_payload(rounds_to_recover=1.0),
            self._resilience_payload(rounds_to_recover=2.0),
        )
        assert rc == 1

    def test_overhead_past_recorded_ceiling_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._resilience_payload(ceil=1.5),
            self._resilience_payload(overhead=1.8),
        )
        assert rc == 1

    def test_missing_respawn_timing_fails(self, checker, tmp_path):
        rc = self._run(
            checker, tmp_path,
            self._resilience_payload(),
            self._resilience_payload(drop="respawn_seconds"),
        )
        assert rc == 1

    def test_no_resilience_baseline_passes(self, checker, tmp_path):
        """First run: the fresh side introduces the section."""
        rc = self._run(
            checker, tmp_path,
            _streaming_payload(5000.0, 6.4), self._resilience_payload(),
        )
        assert rc == 0


class TestMatchingRules:
    @staticmethod
    def _payload(speedup: float, floor: float = 5.0) -> dict:
        return {
            "bench": "matching",
            "speedup_at_500": speedup,
            "speedup_floor": floor,
        }

    def test_floor_violation_fails(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_matching.json", self._payload(8.0))
        _write(tmp_path / "fresh", "BENCH_matching.json", self._payload(4.5))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_matching.json"]
        )
        assert rc == 1

    def test_drop_over_tolerance_fails_even_above_floor(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_matching.json", self._payload(10.0))
        _write(tmp_path / "fresh", "BENCH_matching.json", self._payload(6.0))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_matching.json"]
        )
        assert rc == 1

    def test_healthy_results_pass(self, checker, tmp_path):
        _write(tmp_path / "base", "BENCH_matching.json", self._payload(8.0))
        _write(tmp_path / "fresh", "BENCH_matching.json", self._payload(7.8))
        rc = checker.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh"),
             "--bench", "BENCH_matching.json"]
        )
        assert rc == 0


class TestAgainstCommittedBaselines:
    """End-to-end over the real committed files."""

    def test_committed_baselines_pass_against_themselves(self, checker, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 0

    def test_corrupted_baseline_fails(self, checker, tmp_path):
        """Synthetic regression: inflate the committed baseline so the
        repo's own fresh numbers look like a >30% collapse — the gate
        must fire (this is the CI-bites proof the issue asks for)."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        corrupted = json.loads((base / "BENCH_streaming.json").read_text())
        corrupted["no_prediction"]["events_per_second"] *= 10.0
        (base / "BENCH_streaming.json").write_text(json.dumps(corrupted))
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 1

    def test_corrupted_health_baseline_fails(self, checker, tmp_path):
        """Raising the recorded health floor above the repo's own fresh
        rate must trip the gate — the proof the health checks bite on
        the real committed file, not just synthetic payloads."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        corrupted = json.loads((base / "BENCH_streaming.json").read_text())
        assert "health" in corrupted, "committed baseline lost its health section"
        corrupted["health"]["delta_incremental_rate_floor"] = 0.999
        (base / "BENCH_streaming.json").write_text(json.dumps(corrupted))
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 1

    def test_corrupted_ipc_ceiling_baseline_fails(self, checker, tmp_path):
        """Lowering the recorded IPC ceiling below the repo's own fresh
        per-round pipe bytes must trip the gate — the proof the IPC
        budget bites on the real committed file."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        corrupted = json.loads((base / "BENCH_streaming.json").read_text())
        sharded = corrupted.get("sharded")
        assert sharded, "committed baseline lost its sharded section"
        fresh_ipc = [
            v["ipc_bytes_per_round"]
            for v in sharded["variants"].values()
            if v.get("ipc_bytes_per_round")
        ]
        assert fresh_ipc, "committed sharded section records no IPC figures"
        sharded["ipc_bytes_per_round_ceil"] = min(fresh_ipc) - 1
        (base / "BENCH_streaming.json").write_text(json.dumps(corrupted))
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 1

    def test_corrupted_serving_baseline_fails(self, checker, tmp_path):
        """Raising the recorded tenant floor above the repo's own fresh
        tenant count must trip the gate — the proof the serving checks
        bite on the real committed file."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        corrupted = json.loads((base / "BENCH_streaming.json").read_text())
        serving = corrupted.get("serving")
        assert serving, "committed baseline lost its serving section"
        serving["tenants_floor"] = serving["tenants"] + 1
        (base / "BENCH_streaming.json").write_text(json.dumps(corrupted))
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 1

    def test_corrupted_resilience_baseline_fails(self, checker, tmp_path):
        """Lowering the recorded deadline-overhead ceiling below the
        repo's own fresh ratio must trip the gate — the proof the
        resilience checks bite on the real committed file."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        corrupted = json.loads((base / "BENCH_streaming.json").read_text())
        resilience = corrupted.get("resilience")
        assert resilience, "committed baseline lost its resilience section"
        resilience["deadline_overhead_ceil"] = (
            json.loads((REPO_ROOT / "BENCH_streaming.json").read_text())[
                "resilience"
            ]["deadline_overhead_ratio"]
            / 2.0
        )
        (base / "BENCH_streaming.json").write_text(json.dumps(corrupted))
        rc = checker.main(["--baseline", str(base), "--fresh", str(REPO_ROOT)])
        assert rc == 1

    def test_committed_scaling_floor_is_armed_on_capable_runs(self, checker, tmp_path):
        """The committed baseline records the scaling floor that arms
        on >= 4-core scaling-asserted runs: a fresh result asserting
        scaling below that floor must fail against the real file."""
        base = tmp_path / "base"
        base.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, base / name)
        committed = json.loads((base / "BENCH_streaming.json").read_text())
        floor = committed["sharded"].get("scaling_floor")
        assert floor is not None, "committed baseline lost its scaling floor"
        fresh = json.loads(json.dumps(committed))
        fresh["sharded"]["scaling_asserted"] = True
        fresh["sharded"]["cpu_count"] = checker._SCALING_MIN_CORES
        fresh["sharded"]["variants"]["K4_process"]["speedup_vs_serial"] = (
            floor - 0.5
        )
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        for name in checker.BENCH_FILES:
            shutil.copy(REPO_ROOT / name, fresh_dir / name)
        (fresh_dir / "BENCH_streaming.json").write_text(json.dumps(fresh))
        rc = checker.main(["--baseline", str(base), "--fresh", str(fresh_dir)])
        assert rc == 1

    def test_tolerance_validation(self, checker, tmp_path):
        with pytest.raises(SystemExit):
            checker.main(
                ["--baseline", str(tmp_path), "--fresh", str(tmp_path),
                 "--tolerance", "1.5"]
            )
