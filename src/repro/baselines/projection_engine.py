"""Static-projection-only baseline.

Projects the input stream with the very same projection paths GCX
derives, but never executes a ``signOff``: the buffer holds the full
projected document until the end of the run.  This is the strategy of
Marian & Siméon's "Projecting XML Documents" [12] and the projection
half of the systems the paper's Section 1 surveys — "the decisions
regarding what to buffer and when to delete from buffers are made at
compile-time only".

The engine deliberately reuses the whole GCX runtime with garbage
collection switched off, so the measured difference against GCX
isolates exactly the paper's contribution: the *dynamic* half of the
buffer minimization.
"""

from __future__ import annotations

from repro.core.engine import GCXEngine


class ProjectionOnlyEngine(GCXEngine):
    """GCX's projector without GCX's garbage collector."""

    name = "projection-only"

    def __init__(
        self,
        first_witness: bool = True,
        record_series: bool = True,
        drain: bool = True,
        compiled: bool = True,
        compiled_eval: bool = True,
    ):
        super().__init__(
            gc_enabled=False,
            first_witness=first_witness,
            record_series=record_series,
            drain=drain,
            compiled=compiled,
            compiled_eval=compiled_eval,
        )
