"""The enums whose values the command line offers as choices, in a leaf
module that imports only ``enum``, so that the argument parser needs no
engine.  ``inequalities``, ``martingales`` and ``construction`` re-export
them."""

from enum import Enum


class InequalityId(str, Enum):
    MAX_AVERAGES = "max_averages"
    GARSIA_UNWEIGHTED = "garsia_unweighted"
    QUADRATIC = "quadratic"
    BRIDGE = "bridge"
    ALTERNATING = "alternating"
    VNA_WEIGHTED = "vna_weighted"
    GARSIA_WEIGHTED = "garsia_weighted"
    HARDY = "hardy"


class VerifyMode(str, Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


class MartingaleKind(str, Enum):
    M2 = "m2"
    M3 = "m3"
    MTILDE = "mtilde"
    WEIGHTED = "weighted"
    CHAIN_QUADRATIC = "chain_quadratic"


class Basis(str, Enum):
    """Which state vector a transition system linearizes."""

    QUADRATIC = "quadratic"
    WEIGHTED = "weighted"
