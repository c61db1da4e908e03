"""Example counts of the hypothesis differential suites.

Tier-1 runs each suite at the small example count it passes to
:func:`search_settings`.  CI's deep-search step selects the
``des-oracle`` profile (registered in ``tests/conftest.py``) and runs
those suites alone; every example count then becomes the profile's.
"""

from hypothesis import settings

#: the profile CI selects for the deep run; its own example count wins
ORACLE_PROFILE = "des-oracle"


def search_settings(tier1_examples: int, **overrides) -> settings:
    """``tier1_examples`` examples, unless CI selected the deep profile."""
    deep = settings.get_current_profile_name() == ORACLE_PROFILE
    return settings(
        max_examples=settings.default.max_examples if deep else tier1_examples,
        deadline=None,
        **overrides,
    )
