"""Central numeric tolerance record.

Every module pulls its thresholds from the single ``TOL`` instance below so
that the package has one place where numerical policy lives.  The split is:

* ``scalar``      -- identities between scalars (traces, table sums, margins).
* ``structural``  -- identities between matrices (unitarity, idempotence,
                     dichotomy), measured in Frobenius or max norm.
* ``psd``         -- eigenvalue floor accepted for density matrices.
* ``verdict``     -- default epsilon for inequality/equality verdicts,
                     joint-probability feasibility included; the only
                     tolerance exposed on the CLI.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    scalar: float = 1e-12
    structural: float = 1e-10
    psd: float = 1e-10
    verdict: float = 1e-9


TOL = Tolerances()
