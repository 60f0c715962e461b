"""Two names read only by the benchmark harness in ``perfbench/``.

Seeded ensembles run through
:meth:`~repro.crn.simulation.ssa.StochasticSimulator.simulate_ensemble`;
nothing under ``src/`` imports this module.  Both names go with the
next change to the benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.crn.simulation.ssa import StochasticSimulator

#: ``(raw >> 11) * 2**-53`` maps a 53-bit integer to [0, 1) exactly the
#: way ``Generator.random()`` does internally.
_UNIFORM_SCALE = 2.0 ** -53


def _verify_raw_uniforms() -> bool:
    """Does ``random_raw() >> 11`` reproduce ``Generator.random()``?

    Checked on an interleaved exponential/uniform stream -- the exact
    call pattern of the SSA event loop -- so a bit generator that
    consumes a different number of words per double reads ``False``.
    """
    probe = np.random.default_rng(np.random.SeedSequence(9941))
    mirror = np.random.default_rng(np.random.SeedSequence(9941))
    raw = mirror.bit_generator.random_raw
    for _ in range(8):
        expected = probe.random()
        probe.standard_exponential()
        if (raw() >> 11) * _UNIFORM_SCALE != expected:
            return False
        mirror.standard_exponential()
    return True

#: Read only by perfbench, which reports it as ``batch_raw_uniforms``.
_RAW_UNIFORMS_OK = _verify_raw_uniforms()

#: Read only by perfbench's traced run, which wraps
#: ``BatchStochasticSimulator.__dict__["simulate_ensemble"]``; an alias
#: (not a subclass) so that entry is the one ensemble method itself.
BatchStochasticSimulator = StochasticSimulator
