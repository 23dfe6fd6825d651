from hypothesis import settings

# Property tests draw the same examples on every run, and replay no saved
# failures, so the suite's outcome does not depend on a seed or on state
# left by an earlier run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("deterministic")
