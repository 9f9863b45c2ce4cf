"""Parameter bundles shared by every solver.

All types are frozen dataclasses validated at construction; instances are
immutable and safe to share across threads. A construction with bad values
raises one ParamError listing every violated bound under its scenario key
(for example "firm.lambda: must be inside (0, 1], got 1.5").
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ParamError(ValueError):
    """Every violated bound of one parameter bundle, one message each."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


class UtilityFamily(enum.Enum):
    ADDITIVE = "additive"
    COBB_DOUGLAS = "cobb_douglas"


@dataclass(frozen=True)
class ContractParams:
    """Employer's offer: evaluation probability, bonus/penalty rate, base wage."""

    p: float
    alpha: float
    w0: float

    def __post_init__(self) -> None:
        errors = []
        if not 0.0 <= self.p <= 1.0:
            errors.append(f"contract.p: must be within [0, 1], got {self.p}")
        if not 0.0 <= self.alpha <= 1.0:
            errors.append(f"contract.alpha: must be within [0, 1], got {self.alpha}")
        if not 0.0 <= self.w0 < math.inf:
            errors.append(f"contract.w0: must be finite and >= 0, got {self.w0}")
        if errors:
            raise ParamError(errors)


@dataclass(frozen=True)
class WorkerPrefs:
    """Utility family plus its parameters.

    Additive: u(c, e) = ln(c) - b*e.
    Cobb-Douglas: u(c, e) = (1 - e)^gamma * c^beta.
    Family-inappropriate parameters must be None.
    """

    family: UtilityFamily
    delta: float
    b: float | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        errors = []
        if not 0.0 < self.delta < 1.0:
            errors.append(f"prefs.delta: must be inside (0, 1), got {self.delta}")
        if self.family is UtilityFamily.ADDITIVE:
            present, absent = ("b",), ("gamma", "beta")
        else:
            present, absent = ("gamma", "beta"), ("b",)
        for name in present:
            value = getattr(self, name)
            if value is None or not 0.0 < value < math.inf:
                errors.append(f"prefs.{name}: must be finite and > 0, got {value}")
        for name in absent:
            if getattr(self, name) is not None:
                errors.append(f"prefs.{name}: must be absent for the "
                              f"{self.family.value} family")
        if errors:
            raise ParamError(errors)

    @staticmethod
    def additive(delta: float, b: float = 1.0) -> "WorkerPrefs":
        return WorkerPrefs(family=UtilityFamily.ADDITIVE, delta=delta, b=b)

    @staticmethod
    def cobb_douglas(delta: float, gamma: float, beta: float) -> "WorkerPrefs":
        return WorkerPrefs(family=UtilityFamily.COBB_DOUGLAS, delta=delta,
                           gamma=gamma, beta=beta)


def require_family(prefs: WorkerPrefs, family: UtilityFamily, user: str) -> None:
    """The one family guard of the solvers: raise ValueError naming
    prefs.family unless prefs is of `family`, which `user` needs."""
    if prefs.family is not family:
        raise ValueError(f"prefs.family: must be {family.value} for {user}, "
                         f"got {prefs.family.value}")


@dataclass(frozen=True)
class FirmParams:
    """Production and monitoring side: f(e) = k*e, wage scale lam*k,
    per-evaluation cost c, employer discount eta."""

    k: float
    lam: float
    c: float
    eta: float

    def __post_init__(self) -> None:
        errors = []
        if not 0.0 < self.k < math.inf:
            errors.append(f"firm.k: must be finite and > 0, got {self.k}")
        if not 0.0 < self.lam <= 1.0:
            errors.append(f"firm.lambda: must be inside (0, 1], got {self.lam}")
        if not 0.0 <= self.c < math.inf:
            errors.append(f"firm.c: must be finite and >= 0, got {self.c}")
        if not 0.0 < self.eta <= 1.0:
            errors.append(f"firm.eta: must be inside (0, 1], got {self.eta}")
        if errors:
            raise ParamError(errors)

    @property
    def wage_scale(self) -> float:
        return self.lam * self.k


@dataclass(frozen=True)
class Horizon:
    """Number of work periods."""

    T: int

    def __post_init__(self) -> None:
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ParamError([f"horizon.T: must be an integer >= 1, got {self.T}"])
