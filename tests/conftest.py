import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the references' own checks hold under python -O too
pytest.register_assert_rewrite("reference")
