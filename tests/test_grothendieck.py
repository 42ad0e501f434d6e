import pytest

from gltcomb import grothendieck
from gltcomb.caps import D_inverse, D_matrix, inverse_row
from gltcomb.diagrams import GENERIC
from gltcomb.grothendieck import (
    EigenLabel,
    INTEGER_FAMILY,
    SHIFTED_FAMILY,
    InternalInconsistencyError,
    a_matrix,
    a_tilde,
    b_matrix,
    b_row,
    e_tilde,
    f_on_standard,
    hom_dim,
    x_eigenvalue,
)
from gltcomb.lr import B_matrix
from gltcomb.matrices import BipartitionMatrix
from gltcomb.partitions import Bipartition, bipartitions_up_to, n_weight

VAC = Bipartition.of((), ())
ONE = Bipartition.of((1,), (1,))


def test_a_tilde_entries():
    m = a_tilde(0, 0, 2)
    assert m.get(VAC, Bipartition.of((1,), ())) == 1
    assert m.get(ONE, Bipartition.of((1,), ())) == 1
    assert m.get(VAC, VAC) == 0


def test_e_tilde_is_transpose():
    for t, family in [(-2, None), (0, None), (1, None),
                      (GENERIC, INTEGER_FAMILY), (GENERIC, SHIFTED_FAMILY)]:
        for a in range(-3, 4):
            assert e_tilde(a, t, 3, family) == a_tilde(a, t, 3, family).transpose()


def test_generic_family_split():
    m_int = a_tilde(1, GENERIC, 2, INTEGER_FAMILY)
    assert all(lam.white == mu.white for lam, mu, _ in m_int.items())
    m_sh = a_tilde(-1, GENERIC, 2, SHIFTED_FAMILY)
    assert all(lam.black == mu.black for lam, mu, _ in m_sh.items())
    # the shifted copy removes a white box of content -a
    assert m_sh.get(ONE, Bipartition.of((1,), ())) == 0
    assert m_sh.get(
        Bipartition.of((), (2,)), Bipartition.of((), (1,))
    ) == 1


def test_generic_family_required():
    """Every reader of the family rule refuses generic t without a family."""
    calls = [
        lambda family: a_tilde(0, GENERIC, 2, family),
        lambda family: e_tilde(0, GENERIC, 2, family),
        lambda family: a_matrix(0, GENERIC, 2, family),
        lambda family: f_on_standard(ONE, 0, GENERIC, family),
    ]
    for call in calls:
        for family in (None, "dprime"):
            with pytest.raises(ValueError, match="generic t needs family"):
                call(family)


def _a_tilde_reference(a, t, n, family=None):
    """a_tilde by one pass over the index, moving one box of each lam.  The
    family rule is spelled out here, apart from the code it checks."""
    m = BipartitionMatrix(n)
    if t != GENERIC:
        black_on, white_c = True, -(a + t)
    elif family == INTEGER_FAMILY:
        black_on, white_c = True, None
    else:
        assert family == SHIFTED_FAMILY
        black_on, white_c = False, -a
    for lam in bipartitions_up_to(n):
        if black_on:
            black = lam.black.add_box(a)
            if black is not None and lam.size + 1 <= n:
                m.set(lam, Bipartition(black, lam.white), 1)
        if white_c is not None:
            white = lam.white.remove_box(white_c)
            if white is not None:
                m.set(lam, Bipartition(lam.black, white), 1)
    return m


def test_a_tilde_matches_per_lam_loop():
    params = [(t, None) for t in range(-4, 5)]
    params += [(GENERIC, INTEGER_FAMILY), (GENERIC, SHIFTED_FAMILY)]
    for n in range(7):
        for t, family in params:
            for a in range(-6, 7):
                assert a_tilde(a, t, n, family) == _a_tilde_reference(a, t, n, family)


def test_a_matrix_conjugation():
    for n in range(7):
        for t in range(-4, 5):
            d = D_matrix(t, n + 1)
            d_inv = D_inverse(t, n + 1)
            for a in range(-5, 6):
                got = a_matrix(a, t, n)
                product = d.mul(a_tilde(a, t, n + 1)).mul(d_inv).restrict(n)
                assert got == product
                assert all(v >= 0 for _, _, v in got.items())


def test_a_matrix_reports_negative_entry(monkeypatch):
    """A D^-1 row made negative on purpose must raise, naming an entry that
    the reference product shows negative."""
    a, t, n = 0, 0, 3
    rows = {lam: dict(inverse_row(lam, t)) for lam in bipartitions_up_to(n + 1)}
    rows[ONE][ONE] = -7
    monkeypatch.setattr(grothendieck, "inverse_row", lambda lam_, t_: rows[lam_])
    product = D_matrix(t, n + 1).mul(a_tilde(a, t, n + 1)).mul(
        BipartitionMatrix(n + 1, rows)).restrict(n)
    negative = {f"{v} at ({lam}, {mu})" for lam, mu, v in product.items() if v < 0}
    assert negative
    with pytest.raises(InternalInconsistencyError) as exc:
        a_matrix(a, t, n)
    message = str(exc.value)
    assert message.startswith("negative tilting multiplicity ")
    assert message.endswith(f", a={a}, t={t}")
    named = message[len("negative tilting multiplicity "):-len(f", a={a}, t={t}")]
    assert named in negative


def test_b_matrix_reports_first_negative_entry_in_index_order(monkeypatch):
    """D^-1 rows made negative on purpose: b_matrix and check_nonnegative name
    the first negative entry of B D^-1, rows in index order and each row's
    entries in the order the zero-dropping product first stores them."""
    from gltcomb import verify

    t, n = 0, 4
    box = Bipartition.of((1,), ())

    # Every size-2 row gains -3 at box, then -5 at VAC.  The first negative
    # row is [[],[1,1]] in index order but [[1],[1]] in B's own row order, and
    # its first negative entry is at box, which sorts after VAC.
    def defective(nu, t_):
        row = inverse_row(nu, t_)
        if nu.size != 2:
            return row
        return {**row, box: row.get(box, 0) - 3, VAC: row.get(VAC, 0) - 5}

    monkeypatch.setattr(grothendieck, "inverse_row", defective)
    B = B_matrix(n).rows
    negative = []
    for lam in bipartitions_up_to(n):
        row: dict = {}
        for nu, v in B[lam].items():
            for mu, w in defective(nu, t).items():
                acc = row.get(mu, 0) + v * w
                if acc:
                    row[mu] = acc
                else:
                    del row[mu]
        negative += [f"negative tilting multiplicity {v} at ({lam}, {mu}), t={t}"
                     for mu, v in row.items() if v < 0]
    assert len(negative) > 1
    with pytest.raises(InternalInconsistencyError) as exc:
        b_matrix(t, n)
    assert str(exc.value) == negative[0]
    res = verify.check_nonnegative(verify.VerifyConfig(), gen_range=0, t_values=[t], max_size=n)
    assert res.failures[0] == negative[0]


def test_a_matrix_generic_equals_a_tilde():
    """At generic t no cap forms, so D = I and the conjugation is a_tilde."""
    for family in (INTEGER_FAMILY, SHIFTED_FAMILY):
        for n in range(6):
            for a in range(-4, 5):
                assert a_matrix(a, GENERIC, n, family) == a_tilde(a, GENERIC, n, family), (family, a, n)


def _row_difference(x, y, lam):
    """Row lam of x minus row lam of y, zeros dropped."""
    diff = dict(x.get(lam, {}))
    for mu, v in y.get(lam, {}).items():
        diff[mu] = diff.get(mu, 0) - v
    return {mu: v for mu, v in diff.items() if v}


def test_generic_t_relations():
    """At generic t the two families are commuting copies of sl_Z: on the
    interior rows of truncation 5, in the row-vector convention (F then E is
    F.mul(E)), [E_a, F_b] is delta_ab h_a within a family and 0 across
    families, where h^int_a(lam) = n_weight(black, a) and
    h^sh_a(lam) = -n_weight(white, -a); and F^int_a commutes with F^sh_b."""
    n, gens = 5, range(-4, 5)
    interior = [lam for lam in bipartitions_up_to(n) if lam.size <= n - 1]
    h = {
        INTEGER_FAMILY: lambda lam, a: n_weight(lam.black, a),
        SHIFTED_FAMILY: lambda lam, a: -n_weight(lam.white, -a),
    }
    families = (INTEGER_FAMILY, SHIFTED_FAMILY)
    f = {(fam, b): a_tilde(b, GENERIC, n, fam) for fam in families for b in gens}
    e = {(fam, a): e_tilde(a, GENERIC, n, fam) for fam in families for a in gens}
    instances, failures = 0, []
    for e_fam in families:
        for f_fam in families:
            for a in gens:
                for b in gens:
                    e_mat, f_mat = e[e_fam, a], f[f_fam, b]
                    fe, ef = f_mat.mul(e_mat).rows, e_mat.mul(f_mat).rows
                    for lam in interior:
                        instances += 1
                        want = h[e_fam](lam, a) if (e_fam, a) == (f_fam, b) else 0
                        want = {lam: want} if want else {}
                        if _row_difference(fe, ef, lam) != want:
                            failures.append((e_fam, a, f_fam, b, lam))
    assert instances == 12312
    assert failures == []
    instances = 0
    for a in gens:
        for b in gens:
            f_int, f_sh = f[INTEGER_FAMILY, a], f[SHIFTED_FAMILY, b]
            one, other = f_int.mul(f_sh).rows, f_sh.mul(f_int).rows
            for lam in interior:
                instances += 1
                if _row_difference(one, other, lam):
                    failures.append((a, b, lam))
    assert instances == 3078
    assert failures == []


def test_a_matrix_above_diagonal():
    for t in (-1, 0, 1):
        for a in (-1, 0, 1):
            big = a_matrix(a, t, 3)
            tilde = a_tilde(a, t, 3)
            for lam in bipartitions_up_to(3):
                for mu in bipartitions_up_to(3):
                    if lam.size < mu.size:
                        assert big.get(lam, mu) == tilde.get(lam, mu)


def test_b_matrix_roundtrip():
    for t in (-2, 0, 1):
        b = b_matrix(t, 4)
        assert b.is_unitriangular()
        assert b.mul(D_matrix(t, 4)) == B_matrix(4)
        assert all(v >= 0 for _, _, v in b.items())


def test_b_matrix_generic():
    assert b_matrix(GENERIC, 3) == B_matrix(3)


def test_rows_do_not_depend_on_the_truncation():
    """inverse_row and b_row are the rows of D^-1 and b in every truncation
    that holds lam, and D^-1 is the inverse of D there."""
    top = 7
    for t in [*range(-4, 5), GENERIC]:
        inverse = {lam: inverse_row(lam, t) for lam in bipartitions_up_to(top)}
        b = {lam: b_row(lam, t) for lam in bipartitions_up_to(top)}
        for n in range(top + 1):
            d_inv = D_inverse(t, n)
            assert D_matrix(t, n).mul(d_inv) == BipartitionMatrix.identity(n)
            inv_rows, b_rows = d_inv.rows, b_matrix(t, n).rows
            for lam in bipartitions_up_to(n):
                assert inv_rows[lam] == inverse[lam]
                assert b_rows[lam] == b[lam]


def test_hom_dim_matches_paired_multiplicities():
    """hom_dim against its defining sum over the standards nu."""
    from gltcomb.caps import mult_D

    index = bipartitions_up_to(4)
    for t in list(range(-3, 4)) + [GENERIC]:
        for lam in index:
            for mu in index:
                want = sum(
                    mult_D(lam, nu, t) * mult_D(mu, nu, t)
                    for nu in bipartitions_up_to(min(lam.size, mu.size))
                )
                assert hom_dim(lam, mu, t) == want


def test_hom_dim_examples():
    assert hom_dim(ONE, ONE, 0) == 2
    assert hom_dim(VAC, ONE, 0) == 1
    assert hom_dim(ONE, VAC, 0) == 1
    assert hom_dim(ONE, ONE, GENERIC) == 1
    assert hom_dim(ONE, ONE, 5) == 1


def test_eigen_labels():
    label = x_eigenvalue(VAC, Bipartition.of((1,), ()), 0)
    assert label == EigenLabel("int", 0)
    assert label.value(7) == 0
    label = x_eigenvalue(ONE, Bipartition.of((1,), ()), 0)
    assert label == EigenLabel("shifted", 0)
    assert label.value(3) == -3
    assert x_eigenvalue(VAC, ONE, 0) is None
    assert x_eigenvalue(VAC, VAC, 0) is None


def test_eigen_label_matches_connection():
    for t in (-1, 0, 2):
        tilde = {a: a_tilde(a, t, 3) for a in range(-5, 6)}
        for lam in bipartitions_up_to(2):
            for mu in bipartitions_up_to(3):
                label = x_eigenvalue(lam, mu, t)
                hits = [a for a, m in tilde.items() if m.get(lam, mu)]
                if label is None:
                    assert hits == []
                else:
                    assert hits == [label.value(t)]


def test_f_on_standard():
    sub, quot = f_on_standard(ONE, 0, 0)
    assert sub is None
    assert quot == Bipartition.of((1,), ())
    sub, quot = f_on_standard(VAC, 0, 0)
    assert sub == Bipartition.of((1,), ())
    assert quot is None
    sub, quot = f_on_standard(ONE, 1, 0)
    assert sub == Bipartition.of((2,), (1,))
    assert quot is None


def test_f_on_standard_reads_a_tilde_rows():
    """sub is lam's black addition and quot its white removal in a_tilde's row
    of lam, at integer t and in both generic families."""
    n = 4
    params = [(t, None) for t in range(-3, 4)]
    params += [(GENERIC, INTEGER_FAMILY), (GENERIC, SHIFTED_FAMILY)]
    for t, family in params:
        for a in range(-4, 5):
            rows = a_tilde(a, t, n + 1, family).rows
            for lam in bipartitions_up_to(n):
                sub, quot = f_on_standard(lam, a, t, family)
                assert {mu for mu in (sub, quot) if mu is not None} == rows.get(lam, {}).keys()
                assert sub is None or (sub.white == lam.white and sub.size == lam.size + 1)
                assert quot is None or (quot.black == lam.black and quot.size == lam.size - 1)
