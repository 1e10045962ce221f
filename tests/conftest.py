"""Hypothesis profiles for the property tests.

The "ci" profile (select it with --hypothesis-profile=ci) prints the
reproduction blob of every failing example and draws more examples for
the property tests that do not fix their own count.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=300, print_blob=True, deadline=None)
