import pathlib
import sys

# Tier-1 runs unchanged in two ways: from a checkout, where src/ is added to
# the path below, or from any directory against an installed package
# (`cd /tmp && python -m pytest -q /path/to/checkout/tests`), as CI runs it.
try:
    import fibint  # noqa: F401
except ImportError:  # running from a source checkout without installation
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
