"""Stage topologies, the workload harness, trace comparison, and the
data-ownership audit.

Import a name from the module that defines it: the package re-exports only
the ten names the benchmark reads as ``migration.<name>``, six of which its
tracer wraps on the package."""

from .audit import AUDIT_NOT_APPLICABLE, AUDIT_OK, audit_ownership
from .harness import parse_workload, run_workload
from .stages import FIRST_STAGE, LAST_STAGE, build_stage
from .traces import compare_traces, serialize_trace
