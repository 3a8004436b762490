"""Multi-instance deployment: topology, core plans, traffic harness."""

from .topology import (CORES_PER_INSTANCE, CoreTopology, InstancePlan,
                       TOPOLOGY_PROFILES, default_core_plan, plan_from_block,
                       topology_for)
from .harness import (DEFAULT_TARGETS, DeploymentConfig, InstanceMetrics,
                      MetricsBundle, PhyTestTraffic, check_throughput,
                      expected_goodput_mbps, expected_slot_counts,
                      run_deployment, traffic_shapes)

__all__ = [
    "CoreTopology", "InstancePlan", "TOPOLOGY_PROFILES",
    "CORES_PER_INSTANCE", "default_core_plan", "plan_from_block",
    "topology_for",
    "DeploymentConfig", "PhyTestTraffic", "InstanceMetrics", "MetricsBundle",
    "run_deployment", "check_throughput", "traffic_shapes",
    "expected_goodput_mbps", "expected_slot_counts",
    "DEFAULT_TARGETS",
]
