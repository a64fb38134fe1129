"""Memory-controller scheduling vs drain cost (beyond-paper ablation).

Replays each scheme's drain trace through the FR-FCFS window model at a
realistic bank geometry.  Two findings:

* reordering helps every scheme (Horus's periodic coalesced address/MAC
  writes collide with its otherwise perfectly-interleaved data stream under
  strict FCFS — a measured, non-obvious result); and
* no scheduler closes the scheme gap: Base-LU stays several-fold above
  Horus even with an ideal reordering window, because its cost is extra
  *work*, not unlucky ordering.
"""

from repro.experiments.result import ExperimentResult, ShapeCheck
from repro.experiments.suite import DrainSuite
from repro.mem.banking import BankGeometry
from repro.mem.scheduler import schedule_trace

GEOMETRY = BankGeometry(channels=1, banks_per_channel=8,
                        command_slot_ns=2.5)
SCHEMES = ("nosec", "base-lu", "horus-slm")


def run(suite: DrainSuite) -> ExperimentResult:
    rows = []
    makespans: dict[tuple[str, str], float] = {}
    for scheme in SCHEMES:
        config, trace = suite.traced_drain(scheme)
        for policy in ("fcfs", "frfcfs"):
            result = schedule_trace(trace, config, GEOMETRY, policy)
            makespans[(scheme, policy)] = result.makespan_ns
            rows.append([scheme, policy, result.requests,
                         result.makespan_ns / 1e6, result.reordered])

    gap_fcfs = makespans[("base-lu", "fcfs")] / makespans[("horus-slm",
                                                           "fcfs")]
    gap_frfcfs = makespans[("base-lu", "frfcfs")] / makespans[("horus-slm",
                                                               "frfcfs")]
    checks = [
        ShapeCheck(
            "FR-FCFS is never slower than FCFS for any scheme",
            all(makespans[(s, "frfcfs")] <= makespans[(s, "fcfs")] * 1.001
                for s in SCHEMES),
            "frfcfs <= fcfs for all schemes"),
        ShapeCheck(
            "scheduling does not close the Horus-vs-baseline gap",
            gap_frfcfs > 2.5,
            f"gap {gap_fcfs:.1f}x (fcfs) -> {gap_frfcfs:.1f}x (frfcfs)"),
    ]
    return ExperimentResult(
        experiment_id="ablation-scheduler",
        title="Drain makespan under FCFS vs FR-FCFS memory scheduling "
              "(8 banks)",
        headers=["scheme", "policy", "requests", "makespan ms",
                 "reordered issues"],
        rows=rows,
        paper_expectation="(beyond paper) the baseline's drain cost is "
                          "extra work, not unlucky request ordering",
        checks=checks,
    )
