"""Counter-based random streams.

Every random draw in the package comes from a named (domain, tag) stream of a
master seed, so that serial, parallel, or re-ordered execution all see the
same numbers.  Streams are derived with `numpy.random.SeedSequence` spawn
keys, which hash (entropy, spawn_key) into independent PCG64 states.

`numpy.random` loads when the first stream is built, not with the package:
numpy imports it on the first access to `np.random`.  That import, with the
`secrets` and OpenSSL `_hashlib` modules it pulls in, costs about 6 MiB of
peak memory and 13 ms, which `scan` and every process that only imports the
package never use; a command that draws pays it once.
"""

import numpy as np

# Stream domains.  Keep these stable: changing them changes every trace.
DOMAIN_ESTIMATOR = 1     # per-outer-iteration Gaussian directions, tag = t
DOMAIN_OUTPUT_INDEX = 2  # random-index output rule of the outer loop
DOMAIN_INIT = 3          # per-seed experiment initializations, tag unused


def _generator(entropy, spawn_key):
    random = np.random
    return random.Generator(random.PCG64(
        random.SeedSequence(entropy=int(entropy), spawn_key=spawn_key)))


def stream(master_seed, domain, tag=0):
    """Generator for the (domain, tag) stream of master_seed."""
    return _generator(master_seed, (int(domain), int(tag)))


def init_stream(seed):
    """Generator used to map an experiment seed to its initialization.

    Uses a single-element spawn key so the draw is independent of the
    estimator streams belonging to the same integer seed.
    """
    return _generator(seed, (DOMAIN_INIT,))


def seeded_initialization(seed):
    """Uniform initialization on [-2, 2]^2 for an experiment seed."""
    return init_stream(seed).uniform(-2.0, 2.0, size=2)
