"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ValidationError -> 2,
ResourceGuardError -> 3, InternalError -> 4.  BYTE_BUDGET is the one
peak-memory budget that the array kernels check up front.
"""

BYTE_BUDGET = 1 << 31  # peak bytes any one kernel may plan for


class ValidationError(ValueError):
    """Input violates a documented precondition (bad modulus, parity, range...)."""


class ResourceGuardError(RuntimeError):
    """Requested computation exceeds a feasibility guard.

    Carries a human-readable cost estimate so the caller can decide
    whether to raise the guard explicitly.
    """

    def __init__(self, message: str, cost_estimate: str = ""):
        super().__init__(message)
        self.cost_estimate = cost_estimate


class InternalError(AssertionError):
    """A structural invariant the code maintains itself was broken."""


def check_bytes(what: str, need: float, workload: str) -> None:
    """Reject a kernel before it allocates when its estimated peak bytes
    `need` for `workload` exceed BYTE_BUDGET."""
    if need > BYTE_BUDGET:
        raise ResourceGuardError(
            f"{what} over the byte budget",
            cost_estimate=f"{need:.2e} bytes peak for {workload} (budget {BYTE_BUDGET:.2e} bytes)",
        )
