"""The benchmark's workloads.  Why each one exists is in README.md."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Vertices of the input ``contact_network`` (about 30k edges).
VERTICES = 3000
#: Vertices in ``--tiny`` mode (the benchmark's own test).
TINY_VERTICES = 300


@dataclass(frozen=True)
class Workload:
    kind: str                      # "parallel" or "sequential"
    backend: Optional[str] = None  # parallel only: sim | threads | procs
    ranks: int = 1
    t: int = 0                     # parallel: switch operations per call
    step_size: Optional[int] = None
    fault_tolerance: bool = False
    tiny_t: int = 0
    tiny_step_size: Optional[int] = None
    #: sequential: target visit rate; t = switches_for_visit_rate(m, x)
    visit_rate: float = 0.0

    def switches(self, tiny: bool) -> int:
        return self.tiny_t if tiny else self.t

    def step(self, tiny: bool) -> Optional[int]:
        return self.tiny_step_size if tiny else self.step_size


WORKLOADS = {
    "sim-contact": Workload("parallel", backend="sim", ranks=16, t=5000,
                            tiny_t=300),
    "threads-ft": Workload("parallel", backend="threads", ranks=2, t=600,
                           step_size=200, fault_tolerance=True,
                           tiny_t=40, tiny_step_size=20),
    "procs-contact": Workload("parallel", backend="procs", ranks=2, t=1000,
                              tiny_t=100),
    "seq-contact": Workload("sequential", visit_rate=0.75),
}
