"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=ci`` draws the same examples on every run
and prints a reproduction blob with each failure, so a failing CI run can
be replayed locally.  Without the option, runs stay randomized.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, derandomize=True)
