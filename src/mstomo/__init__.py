"""Two-ion entangling-gate simulation, tomography and entanglement analysis.

The package simulates the bichromatic spin-dependent-force gate on a pair
of trapped-ion qubits (including motional dynamics and the dominant noise
channels), generates synthetic projective-measurement data in the nine
two-qubit Pauli bases, reconstructs density matrices by a constrained
Pearson-weighted least-squares fit, and quantifies the entanglement of the
result.

The API lives in the submodules (``mstomo.gate``, ``mstomo.tomography``,
...); importing the package loads none of them, so ``import mstomo.gate``
does not pay for the fit's scipy import.
"""

__version__ = "0.1.0"
