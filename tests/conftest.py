import os
import platform
import warnings

# The OpenBLAS kernel the goldens and tests/corpus.jsonl were written under. OpenBLAS picks its kernel
# from the CPU, and LAPACK's eigh rounds differently under each: identity defects near 1e-15, a
# two-cycle phase of 2.3e-35 that reads 0 elsewhere and the last digits of RK4 runs move between the
# SkylakeX kernel of AVX-512 CPUs and the Haswell kernel that AVX2-only CPUs (Zen among them) get.
# Every x86-64 CPU that runs this suite is made to take the Haswell one, which needs AVX2; other
# machines keep their own kernel. The setting must precede the first NumPy import: pytest loads
# this file before any test module, and the regenerate commands of test_golden.py import it first.
BLAS_KERNEL = {"OPENBLAS_CORETYPE": "Haswell"}

if platform.machine().lower() in ("x86_64", "amd64"):
    os.environ.update(BLAS_KERNEL)

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
