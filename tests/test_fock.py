from fractions import Fraction

import pytest

from gltcomb import fock
from gltcomb.fock import (
    Mode,
    apply_generator,
    dominance_leq,
    h_eigenvalue,
    omega,
    partition_to_sequence,
    phi_n,
    pi_n,
    wedge_basis,
)
from gltcomb.matrices import add_into
from gltcomb.partitions import Bipartition, Partition, bipartitions_up_to, n_weight, partitions_up_to
from reference import commutator_defect

P = Partition.of


def test_plain_action():
    vec = apply_generator("f", 0, Mode.plain(), {P(): 1})
    assert vec == {P(1): 1}
    vec = apply_generator("f", 1, Mode.plain(), {P(1): 1})
    assert vec == {P(2): 1}
    assert apply_generator("f", 0, Mode.plain(), {P(1): 1}) == {}
    assert apply_generator("e", 0, Mode.plain(), {P(1): 1}) == {P(): 1}


def test_twisted_dual_action():
    # the restricted dual is the shifted dual at t = 0: f_a removes a box of
    # content -a
    vec = apply_generator("f", -1, Mode.shifted_dual(0), {P(2): 1})
    assert vec == {P(1): 1}
    assert apply_generator("e", -1, Mode.shifted_dual(0), {P(1): 1}) == {P(2): 1}


def test_shifted_dual_action():
    # at shift t, f_a removes a box of content -(a+t)
    vec = apply_generator("f", -3, Mode.shifted_dual(2), {P(2): 1})
    assert vec == {P(1): 1}
    assert apply_generator("f", -1, Mode.shifted_dual(2), {P(2): 1}) == {}


def test_tensor_leibniz():
    vac = Bipartition.of((), ())
    out = apply_generator("f", 0, Mode.tensor(0), {vac: 1})
    assert out == {Bipartition.of((1,), ()): 1}
    one = Bipartition.of((1,), (1,))
    out = apply_generator("f", 0, Mode.tensor(0), {one: 1})
    assert out == {Bipartition.of((1,), ()): 1}
    out = apply_generator("f", -1, Mode.tensor(0), {one: 1})
    assert out == {Bipartition.of((1, 1), (1,)): 1}
    out = apply_generator("f", 0, Mode.tensor(0), {Bipartition.of((2,), (1,)): 1})
    assert out == {Bipartition.of((2,), ()): 1}


def test_tautological_action():
    mode = Mode.tautological()
    assert apply_generator("f", 2, mode, {2: 1}) == {3: 1}
    assert apply_generator("f", 2, mode, {1: 1}) == {}
    assert apply_generator("e", 2, mode, {3: 1}) == {2: 1}
    assert h_eigenvalue(2, mode, 2) == 1
    assert h_eigenvalue(2, mode, 3) == -1
    assert h_eigenvalue(2, mode, 0) == 0


def test_wedge_action_no_signs():
    mode = Mode.wedge(2)
    out = apply_generator("f", 0, mode, {(0, -1): 1})
    assert out == {(1, -1): 1}
    # blocked when a+1 already occupied
    assert apply_generator("f", -1, mode, {(0, -1): 1}) == {}


def test_commutators_vanish_small():
    modes = [Mode.plain(), Mode.shifted_dual(0), Mode.shifted_dual(1), Mode.tensor(-1)]
    for mode in modes:
        basis = partitions_up_to(3) if mode.kind != "tensor" else [
            Bipartition.of((1,), (1,)), Bipartition.of((2,), ())
        ]
        for key in basis:
            for a in range(-3, 4):
                for b in range(-3, 4):
                    assert commutator_defect(a, b, mode, {key: 1}) == {}


def test_tensor_h_eigenvalue():
    mode = Mode.tensor(1)
    lam = Bipartition.of((2,), (1,))
    for a in range(-4, 5):
        want = n_weight(lam.black, a) - n_weight(lam.white, -(a + 1))
        assert h_eigenvalue(a, mode, lam) == want


def test_omega_matches_n_weight():
    nu = P(3, 1)
    w = omega(nu)
    for a in range(-5, 6):
        assert w.get(a, 0) == n_weight(nu, a)


def test_dominance():
    vac = Bipartition.of((), ())
    one = Bipartition.of((1,), (1,))
    assert dominance_leq(vac, vac, 0)
    assert dominance_leq(one, vac, 0)
    assert not dominance_leq(vac, one, 0)


def test_sequences_and_energy():
    nu = P(2, 1)
    seq = partition_to_sequence(nu, 3)
    assert seq == (2, 0, -2)


def test_pi_phi_compatibility():
    for nu in partitions_up_to(3):
        for n in range(1, 5):
            assert phi_n(pi_n({nu: 1}, n + 1)) == pi_n({nu: 1}, n)


def test_wedge_basis_counts():
    # energy <= k wedge vectors biject with partitions of size <= k when n >= k
    for k in range(1, 5):
        for n in range(k, k + 2):
            assert len(wedge_basis(n, k)) == len(partitions_up_to(k))


def _apply_basis_reference(gen, a, mode, key, out, coeff):
    """The per-call box moves apply_generator used before the box tables."""
    add = add_into
    if mode.kind == "plain":
        nu = key.add_box(a) if gen == "f" else key.remove_box(a)
        if nu is not None:
            add(out, nu, coeff)
    elif mode.kind == "shifted":
        c = -(a + mode.t)
        nu = key.remove_box(c) if gen == "f" else key.add_box(c)
        if nu is not None:
            add(out, nu, coeff)
    elif mode.kind == "tensor":
        black = key.black.add_box(a) if gen == "f" else key.black.remove_box(a)
        if black is not None:
            add(out, Bipartition(black, key.white), coeff)
        c = -(a + mode.t)
        white = key.white.remove_box(c) if gen == "f" else key.white.add_box(c)
        if white is not None:
            add(out, Bipartition(key.black, white), coeff)
    elif mode.kind == "taut":
        if gen == "f" and key == a:
            add(out, a + 1, coeff)
        elif gen == "e" and key == a + 1:
            add(out, a, coeff)
    elif mode.kind == "wedge":
        src, dst = (a, a + 1) if gen == "f" else (a + 1, a)
        if src in key and dst not in key:
            add(out, tuple(dst if v == src else v for v in key), coeff)


def _apply_reference(gen, a, mode, vec):
    out = {}
    for key, coeff in vec.items():
        _apply_basis_reference(gen, a, mode, key, out, coeff)
    return out


def test_apply_generator_matches_per_call_box_moves():
    bases = [
        (Mode.plain(), partitions_up_to(5)),
        (Mode.tautological(), range(-6, 7)),
        (Mode.wedge(3), wedge_basis(3, 4)),
    ]
    for t in (-2, 0, 3):
        bases.append((Mode.shifted_dual(t), partitions_up_to(5)))
        bases.append((Mode.tensor(t), bipartitions_up_to(4)))
    for mode, basis in bases:
        # single keys, and a sum of keys for the linear extension
        vecs = [{key: 2} for key in basis] + [dict.fromkeys(list(basis)[:12], -3)]
        for vec in vecs:
            for gen in ("f", "e"):
                for a in (*range(-7, 8), True):
                    got = apply_generator(gen, a, mode, vec)
                    assert got == _apply_reference(gen, a, mode, vec), (mode, vec, gen, a)
                for a in (1.0, Fraction(1), "generic", None, 0.5):
                    with pytest.raises(ValueError, match="generator index must be an integer"):
                        apply_generator(gen, a, mode, vec)


@pytest.mark.parametrize("kind", ["bogus", "twisted"])
def test_images_rejects_an_unknown_mode(kind):
    with pytest.raises(ValueError, match=f"unknown mode '{kind}'"):
        fock.images("f", Mode(kind), (2, 1, 0))
