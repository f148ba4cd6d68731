"""BTB substrates: baseline designs, hierarchies, and helpers.

Everything here is the *substrate* the paper compares against or builds
on: the conventional set-associative BTB (Section 2), replacement
policies, the return address stack, the ITTAGE indirect-target predictor
(Section 5.6), a two-level BTB hierarchy (Section 5.9), and a
Shotgun-like prefetching BTB (Section 5.10).  The PDede designs
themselves live in :mod:`repro.core`.
"""

from repro.btb.base import BTBLookup, BranchTargetPredictor, BTBStats
from repro.btb.replacement import (
    FifoPolicy,
    LruPolicy,
    FifoTable,
    LruTable,
    RandomPolicy,
    RandomTable,
    ReplacementPolicy,
    ReplacementTable,
    SrripPolicy,
    SrripTable,
    make_replacement_policy,
    make_replacement_table,
)
from repro.btb.baseline import BaselineBTB
from repro.btb.ras import ReturnAddressStack
from repro.btb.ittage import ITTagePredictor
from repro.btb.twolevel import TwoLevelBTB
from repro.btb.shotgun import ShotgunBTB
from repro.btb.prefetch import TemporalPrefetchBTB
from repro.btb.ghrp import GhrpBTB
from repro.btb.microbtb import MicroBTB
from repro.btb.shadow import ShadowBTB

__all__ = [
    "BTBLookup",
    "BTBStats",
    "BranchTargetPredictor",
    "FifoPolicy",
    "LruPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SrripPolicy",
    "make_replacement_policy",
    "FifoTable",
    "LruTable",
    "RandomTable",
    "ReplacementTable",
    "SrripTable",
    "make_replacement_table",
    "BaselineBTB",
    "ReturnAddressStack",
    "ITTagePredictor",
    "TwoLevelBTB",
    "ShotgunBTB",
    "TemporalPrefetchBTB",
    "GhrpBTB",
    "MicroBTB",
    "ShadowBTB",
]
