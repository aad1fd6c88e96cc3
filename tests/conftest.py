import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run, have no per-example
# deadline (the host's speed varies) and keep no example database on disk.
settings.register_profile("mapda", database=None, derandomize=True, deadline=None)
settings.load_profile("mapda")
