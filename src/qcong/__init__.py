"""qcong: exact q-series arithmetic and verification of congruences for
overpartitions with regular non-overlined parts.

Layers, bottom up: `series` (truncated integer power series with a fast
big-int multiply), `qfunctions` (theta/eta constructors and a dissection
identity catalog), `counting` (independent DP oracles), `congruence`
(claim families, verification, search), `suite` (the full acceptance
run), `cli` (command-line surface).
"""

from .series import EtaQuotient

__version__ = "0.1.0"

__all__ = ["EtaQuotient"]
