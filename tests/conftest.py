from hypothesis import settings

# Fixed examples, no example database and no per-example deadline keep the
# suite reproducible on hosts whose CPU speed varies from run to run.
settings.register_profile("paulidelta", derandomize=True, deadline=None, database=None)
settings.load_profile("paulidelta")
