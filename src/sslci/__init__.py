"""Numerical library for two-view self-supervised learning analysis.

Provides closed-form pretext/downstream estimators for tractable generative
models, conditional-independence diagnostics, an alternating conditional
expectation (ACE) solver on finite supports, a topic-model instantiation,
and a CLI harness for seeded simulation studies.

Every name in the ``__all__`` of a library module below is importable from
here; that list is the one place that makes a name public.
"""

from . import independence, learn, linalg, models, operators, topics
from .linalg import *  # noqa: F403
from .models import *  # noqa: F403
from .learn import *  # noqa: F403
from .independence import *  # noqa: F403
from .operators import *  # noqa: F403
from .topics import *  # noqa: F403

_LIBRARY = (linalg, models, learn, independence, operators, topics)
__all__ = [name for module in _LIBRARY for name in module.__all__]
