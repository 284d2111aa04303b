"""Counter-based random streams.

Every random draw in the package comes from a named (domain, tag) stream of a
master seed, so that serial, parallel, or re-ordered execution all see the
same numbers.  Streams are derived with `numpy.random.SeedSequence` spawn
keys, which hash (entropy, spawn_key) into independent PCG64 states.

numpy loads `numpy.random` only on first use; importing it by name here puts
that one-time cost (about 15 ms) in the package import, not in the first
command that draws.
"""

from numpy.random import PCG64, Generator, SeedSequence

# Stream domains.  Keep these stable: changing them changes every trace.
DOMAIN_ESTIMATOR = 1     # per-outer-iteration Gaussian directions, tag = t
DOMAIN_OUTPUT_INDEX = 2  # random-index output rule of the outer loop
DOMAIN_INIT = 3          # per-seed experiment initializations, tag unused


def stream(master_seed, domain, tag=0):
    """Generator for the (domain, tag) stream of master_seed."""
    ss = SeedSequence(entropy=int(master_seed), spawn_key=(int(domain), int(tag)))
    return Generator(PCG64(ss))


def init_stream(seed):
    """Generator used to map an experiment seed to its initialization.

    Uses a single-element spawn key so the draw is independent of the
    estimator streams belonging to the same integer seed.
    """
    ss = SeedSequence(entropy=int(seed), spawn_key=(DOMAIN_INIT,))
    return Generator(PCG64(ss))


def seeded_initialization(seed):
    """Uniform initialization on [-2, 2]^2 for an experiment seed."""
    return init_stream(seed).uniform(-2.0, 2.0, size=2)
