"""Test-session set-up shared by every test under tests/.

When a hypothesis test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to offer a patch for the failing example.  That
module imports libcst, which defines a `mypy_extensions.TypedDict` and so
raises a DeprecationWarning.  pyproject.toml turns DeprecationWarnings into
errors, so the import fails inside pytest's report hook and the session
stops with INTERNALERROR: the failing test's report is lost and no later
test runs.  Importing the module once here, with the warning silenced, makes
the plugin's import a no-op; the filter itself stays as it is.
"""

import warnings

pytest_plugins = ["pytester"]

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst missing: the plugin then offers no patch
        pass
