import warnings

# When a property fails, Hypothesis imports hypothesis.extra._patching to explain
# it. That module imports libcst, which raises a DeprecationWarning
# (mypy_extensions.TypedDict). pyproject.toml turns the warning into an error, so
# the run ends in a pytest INTERNALERROR and hides the falsifying example. Import
# the module once here, ignoring DeprecationWarning for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: Hypothesis then explains nothing
        pass
