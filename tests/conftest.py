from hypothesis import settings

# The active profile (the default, or "ci" under CI) with a reproduction blob
# on failure: a failing example's arrays print rounded, and the blob replays
# it exactly with @reproduce_failure.
settings.register_profile("print_blob", parent=settings.default, print_blob=True)
settings.load_profile("print_blob")
