"""Rule catalog.  Importing this package registers every rule.

Catalog (see ``docs/static_analysis.md`` for rationale and examples):

========  ========================================================
SHM001    ``SharedMemory`` must be closed (creators also unlinked)
          on every CFG path, or ownership must escape the scope.
SHM002    No explicit ``pickle`` — the shm transport moves columns.
PAR001    ``Pool``/``Process``/executors must be joined, terminated,
          or shut down on every CFG path.
PAR002    Worker functions must not read module-level mutable state.
PAR101    Worker-reachable functions must not write module globals
          or mutate captured closure variables.
PAR102    No lambdas / nested functions submitted to process
          backends (they do not pickle).
PAR103    Worker shm slice writes must derive from chunk arguments.
DET001    No unseeded ``random`` / ``numpy.random`` use in library
          code; seeds must flow from parameters.
DET101    No set iteration into ordered sinks without ``sorted``.
DET102    Unseeded RNG in worker-reachable code is an error.
OBS101    Tracer span names must be in the declared vocabulary.
OBS102    Tracer event names must be in the declared vocabulary.
OBS103    Tracer counter/gauge names must be in the vocabulary.
COR001    No bare ``except:`` and no ``except Exception`` that
          swallows (a broad handler must re-raise).
API001    No mutable default arguments.
========  ========================================================
"""

from __future__ import annotations

from repro.analysis.rules.api import MutableDefaultArgRule
from repro.analysis.rules.correctness import BroadExceptRule
from repro.analysis.rules.det_flow import (
    UnorderedIterationRule,
    WorkerUnseededRandomRule,
)
from repro.analysis.rules.determinism import UnseededRandomRule
from repro.analysis.rules.obs_contract import (
    CounterVocabularyRule,
    EventVocabularyRule,
    SpanVocabularyRule,
)
from repro.analysis.rules.par_flow import (
    OverlappingShmWriteRule,
    UnpicklableWorkerRule,
    WorkerGlobalWriteRule,
)
from repro.analysis.rules.parallel import ModuleStateInWorkerRule, UnjoinedWorkerRule
from repro.analysis.rules.shm import SharedMemoryLifecycleRule

__all__ = [
    "BroadExceptRule",
    "CounterVocabularyRule",
    "EventVocabularyRule",
    "ModuleStateInWorkerRule",
    "MutableDefaultArgRule",
    "OverlappingShmWriteRule",
    "SharedMemoryLifecycleRule",
    "SpanVocabularyRule",
    "UnjoinedWorkerRule",
    "UnorderedIterationRule",
    "UnpicklableWorkerRule",
    "UnseededRandomRule",
    "WorkerGlobalWriteRule",
    "WorkerUnseededRandomRule",
]
