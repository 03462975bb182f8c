"""Exact dynamics and geometric phases of two Ising-coupled spin-1/2 particles
in a rotating magnetic field.

The package namespace is lazy (PEP 562): `import twospin` loads no submodule
and no NumPy. A public name, or one of the submodules below such as
`twospin.spectral`, imports its submodule on first use.
"""

from importlib import import_module

# The public names of each submodule, as `from twospin import *` exports them.
_EXPORTS = {
    "core": ("BASIS_LABELS", "PARAM_GROUPS", "Operator4", "SpinParams", "TwoSpinState"),
    "evolution": ("EvolutionResult", "evolve_exact", "evolve_stepped", "exact_propagator"),
    "hamiltonian": ("frame_rotation", "h_rotating_frame", "h_total", "transverse_parts"),
    "phases": (
        "PhaseBreakdown", "aa_breakdown", "aa_phase", "adiabatic_phases", "berry_phase",
        "legacy_single_spin_phase", "principal_value",
    ),
    "spectral": (
        "EigenPair", "EigenSystem", "eigensystem", "singlet_energy", "tilde_eigensystem", "triplet_energies",
    ),
    "twocycle": (
        "AA_FLIP_SET", "ADIABATIC_FLIP_SET", "AATwoCycleResult", "AdiabaticTwoCycleResult", "BerryGate",
        "berry_gate", "run_aa_two_cycle", "run_adiabatic_two_cycle",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
