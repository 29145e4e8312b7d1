"""Deterministic federated-learning simulator with sparsified client
updates, label-skew Dirichlet partitioning, and byte-accurate
communication accounting.

Each name is imported from the module that defines it, for example
`from fedsparse.federation import run_experiment`; importing the package
alone loads no submodule."""

__version__ = "0.1.0"
