"""Result record shared by the empirical-vs-predicted experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CorrelationReport:
    """One experiment: empirical value, predicted main term, relative error."""

    experiment: str
    empirical: float
    predicted_main: float
    N: int
    params: dict
    rel_error: float = field(init=False)

    def __post_init__(self):
        if self.predicted_main != 0:
            err = abs(self.empirical - self.predicted_main) / abs(self.predicted_main)
        else:
            err = math.inf if self.empirical != 0 else 0.0
        object.__setattr__(self, "rel_error", err)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "empirical": self.empirical,
            "predicted_main": self.predicted_main,
            "rel_error": self.rel_error,
            "N": self.N,
            "params": self.params,
        }
