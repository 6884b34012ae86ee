"""detlint's rule set — importing this package registers every rule.

Each module holds one rule; its docstring names the incident that
motivated it.  Adding a rule:

1. create ``rules/<name>.py`` with a :class:`repro.analysis.engine.Rule`
   subclass decorated with ``@register_rule``;
2. import it below (imports are the registration mechanism);
3. declare where it patrols in ``analysis/config.py``'s ``RULE_SCOPES``
   (a rule with no scope entry runs nowhere);
4. pin fire/no-fire fixtures in ``tests/test_detlint.py``.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    det_random,
    det_repr,
    det_setiter,
    det_time,
    flt_accum,
    int_boundary,
    mp_pickle,
)
