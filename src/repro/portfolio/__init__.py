"""Algorithm-portfolio serving: per-width tuned design points.

The paper fixes one design (Karatsuba, L = 2) for every width; this
package serves each width bucket with the *measured-fastest* design
instead.  Three pieces:

* :mod:`repro.portfolio.design` — :class:`DesignPoint` space
  (schoolbook / karatsuba / toom3 x unroll depth x optimizer x
  backend), feasibility rules and the pipeline factory.
* :mod:`repro.portfolio.toom3` / :mod:`repro.portfolio.schoolbook` —
  the two non-Karatsuba datapaths behind the shared
  :class:`~repro.karatsuba.pipeline.KaratsubaPipeline` interface.
* :mod:`repro.portfolio.tuner` — the measuring sweep and the versioned
  :class:`TuningTable` (``TUNE_portfolio.json``) the service resolves
  requests against (``ServiceConfig.portfolio=True``).
"""

from repro.portfolio.design import (
    ALGORITHMS,
    BASELINE,
    DesignPoint,
    SchoolbookPipeline,
    Toom3Pipeline,
    build_pipeline,
)
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import Toom3Controller
from repro.portfolio.tuner import (
    SCHEMA_VERSION,
    BucketEntry,
    Measurement,
    TuningTable,
    candidate_designs,
    measure,
    select,
    sweep,
    validate_table_payload,
)

__all__ = [
    "ALGORITHMS",
    "BASELINE",
    "BucketEntry",
    "DesignPoint",
    "Measurement",
    "SCHEMA_VERSION",
    "SchoolbookController",
    "SchoolbookPipeline",
    "Toom3Controller",
    "Toom3Pipeline",
    "TuningTable",
    "build_pipeline",
    "candidate_designs",
    "measure",
    "select",
    "sweep",
    "validate_table_payload",
]
