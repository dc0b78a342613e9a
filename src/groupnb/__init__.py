"""Group-wise opcode-frequency malware classification.

Executables are bucketed into fixed-width file-size groups; each group
gets its own top-k opcode feature set and multinomial Naive Bayes
model, and batches are classified either sequentially or across
worker-process lanes with bit-identical results.

Each module lists its public names in its own __all__; this package
exports all of them.
"""

from . import bench, classifier, corpus, engine, errors, features, synth
from .bench import *
from .classifier import *
from .corpus import *
from .engine import *
from .errors import *
from .features import *
from .synth import *

__all__ = [
    *bench.__all__,
    *classifier.__all__,
    *corpus.__all__,
    *engine.__all__,
    *errors.__all__,
    *features.__all__,
    *synth.__all__,
]
