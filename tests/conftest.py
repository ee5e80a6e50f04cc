"""Hypothesis profiles.  `ci` draws the same examples on every run, so a
property with a tolerance cannot fail CI on one unlucky draw; select it with
`--hypothesis-profile=ci`.  Runs without the flag keep the random default."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
