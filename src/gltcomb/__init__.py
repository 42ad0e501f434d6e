"""Combinatorial invariants of the Deligne category Rep(GL_t) and its
abelian envelope: weight diagrams, cap multiplicities, Grothendieck-group
matrices and Fock-space actions."""

from .partitions import (
    Bipartition,
    Partition,
    bipartitions_up_to,
    n_weight,
    partitions_of,
    partitions_up_to,
)
from .diagrams import (
    GENERIC,
    FAMILY_D,
    FAMILY_DPRIME,
    WeightDiagram,
    build_diagram,
    core_key,
    same_core,
    stable_window,
    symbol_at,
)
from .caps import D_inverse, D_matrix, lift_row, mult_D
from .lr import B_matrix, lr_coeff, lr_product, schur_product_oracle
from .fock import (
    Mode,
    apply_generator,
    dominance_leq,
    omega,
    phi_n,
    pi_n,
)
from .grothendieck import (
    EigenLabel,
    a_matrix,
    a_tilde,
    b_matrix,
    e_tilde,
    f_on_standard,
    hom_dim,
    x_eigenvalue,
)
from .matrices import BipartitionMatrix

__all__ = [
    "Bipartition",
    "Partition",
    "bipartitions_up_to",
    "n_weight",
    "partitions_of",
    "partitions_up_to",
    "GENERIC",
    "FAMILY_D",
    "FAMILY_DPRIME",
    "WeightDiagram",
    "build_diagram",
    "core_key",
    "same_core",
    "stable_window",
    "symbol_at",
    "D_inverse",
    "D_matrix",
    "lift_row",
    "mult_D",
    "B_matrix",
    "lr_coeff",
    "lr_product",
    "schur_product_oracle",
    "Mode",
    "apply_generator",
    "dominance_leq",
    "omega",
    "phi_n",
    "pi_n",
    "EigenLabel",
    "a_matrix",
    "a_tilde",
    "b_matrix",
    "e_tilde",
    "f_on_standard",
    "hom_dim",
    "x_eigenvalue",
    "BipartitionMatrix",
]
