import pytest

from gltcomb.diagrams import (
    CIRC,
    CROSS,
    FAMILY_D,
    FAMILY_DPRIME,
    GENERIC,
    LT,
    build_diagram,
    core_key,
    same_core,
    stable_window,
    symbol_at,
)
from gltcomb.partitions import Bipartition, bipartitions_up_to
from reference import diagram_to_bipartition


def window_string(lam, t, family, lo=-5, hi=5):
    d = build_diagram(lam, t, family)
    return "".join(d.symbol(s) for s in range(lo, hi + 1))


def test_vacuum_diagrams():
    vac = Bipartition.of((), ())
    assert window_string(vac, 0, FAMILY_D) == "xxxxxoooooo"
    assert window_string(vac, 0, FAMILY_DPRIME) == "xxxxxoooooo"


def test_worked_examples():
    lam = Bipartition.of((2,), (2,))
    assert window_string(lam, 1, FAMILY_D) == "xxxx>o<>ooo"
    assert window_string(lam, 1, FAMILY_DPRIME) == "xxx>x<o>ooo"
    conj = Bipartition.of((2,), (1, 1))
    assert window_string(conj, 1, FAMILY_DPRIME) == "xxxx>o<>ooo"


def test_transpose_lemma_small():
    for lam in bipartitions_up_to(4):
        for t in range(-3, 4):
            conj = lam.conjugate()
            d = build_diagram(lam, t, FAMILY_D)
            dp = build_diagram(conj, t, FAMILY_DPRIME)
            lo = min(d.window[0], dp.window[0]) - 2
            hi = max(d.window[1], dp.window[1]) + 2
            for s in range(lo, hi + 1):
                assert d.symbol(s) == dp.symbol(s)


def test_tails_are_crosses_then_circles():
    """At generic t the lattice holds no cross, so the left tail is '<'."""
    lam = Bipartition.of((3, 1), (2,))
    for t in (-2, 0, 2, GENERIC):
        for family in (FAMILY_D, FAMILY_DPRIME):
            left, right = stable_window(lam, t, family)
            for s in range(left - 5, left):
                assert symbol_at(lam, t, family, s) == (LT if t == GENERIC else CROSS)
            for s in range(right + 1, right + 6):
                assert symbol_at(lam, t, family, s) == CIRC


def test_generic_t_has_no_crosses_or_gt():
    for lam in bipartitions_up_to(3):
        for family in (FAMILY_D, FAMILY_DPRIME):
            d = build_diagram(lam, GENERIC, family)
            for s in range(d.window[0] - 2, d.window[1] + 3):
                assert d.symbol(s) in (CIRC, "<")


def test_stable_window_at_generic_t_drops_the_black_bounds():
    """The generic window is the integer one without the C set's bounds,
    t - len(black) on the left and black_1 + t on the right."""
    for lam in bipartitions_up_to(5):
        lw = lam.white
        assert stable_window(lam, GENERIC, FAMILY_D) == (-lw.length - 1, max(lw.row(1), 0))
        assert stable_window(lam, GENERIC, FAMILY_DPRIME) == (min(-lw.row(1), 0) - 1, max(lw.length, 0))
        with pytest.raises(ValueError):
            core_key(lam, GENERIC)


@pytest.mark.parametrize("family", [FAMILY_D, FAMILY_DPRIME])
def test_symbol_outside_the_window_is_the_per_position_rule(family):
    """WeightDiagram.symbol reads the nearer end of the window outside it;
    that agrees with symbol_at everywhere, at integer and generic t."""
    for lam in bipartitions_up_to(5):
        for t in [*range(-5, 6), GENERIC]:
            d = build_diagram(lam, t, family)
            for s in range(d.window[0] - 5, d.window[1] + 6):
                assert d.symbol(s) == symbol_at(lam, t, family, s), (lam, t, s)


def test_same_core_examples():
    vac = Bipartition.of((), ())
    one = Bipartition.of((1,), (1,))
    assert same_core(vac, one, 0)
    assert not same_core(vac, one, 1)
    # generic t: distinct bipartitions never share a core
    assert not same_core(vac, one, GENERIC)
    assert same_core(one, one, GENERIC)


def test_diagram_to_bipartition_roundtrip():
    for lam in bipartitions_up_to(4):
        for t in (-2, 0, 1, 3):
            d = build_diagram(lam, t, FAMILY_DPRIME)
            symbols = {s: d.symbol(s) for s in range(d.window[0], d.window[1] + 1)}
            assert diagram_to_bipartition(symbols, t) == lam


def test_render_shows_origin():
    out = build_diagram(Bipartition.of((), ()), 0, FAMILY_DPRIME).render()
    assert "x" in out and "o" in out
    assert "0" in out


def test_json_contains_symbols():
    d = build_diagram(Bipartition.of((1,), ()), 0, FAMILY_D)
    payload = d.to_json()
    assert payload["family"] == FAMILY_D
    assert payload["t"] == 0
    assert isinstance(payload["symbols"], str)


def window_same_core(lam, mu, t, family):
    """Cored symbols (each cross read as a circle) compared position by
    position over the union window.  At generic t the C-track's '>' symbols
    sit off the lattice at t + (black_i - i), so the black parts must agree
    as well."""
    if t == GENERIC and lam.black != mu.black:
        return False
    dl, dm = build_diagram(lam, t, family), build_diagram(mu, t, family)
    left = min(dl.window[0], dm.window[0])
    right = max(dl.window[1], dm.window[1])

    def cored(d, s):
        return CIRC if d.symbol(s) == CROSS else d.symbol(s)

    return all(cored(dl, s) == cored(dm, s) for s in range(left, right + 1))


@pytest.mark.parametrize("family", [FAMILY_D, FAMILY_DPRIME])
def test_same_core_matches_window_comparison(family):
    index = bipartitions_up_to(4)
    for t in [*range(-4, 5), GENERIC]:
        for lam in index:
            for mu in index:
                assert same_core(lam, mu, t, family) == window_same_core(lam, mu, t, family)


def test_core_key_rejects_generic_t():
    with pytest.raises(ValueError):
        core_key(Bipartition.of((), ()), GENERIC)


# The per-position membership predicates that build_diagram and symbol_at
# replaced with one pass; kept as the reference for the symbol rule.
def ref_in_c_track(black, t, s):
    """Membership of s in {black_i + t - i : i >= 1} for integer t."""
    if s <= t - black.length - 1:
        return True
    return any(black.rows[i - 1] + t - i == s for i in range(1, black.length + 1))


def ref_in_d_set(white, s):
    """Membership of s in {white_i - i : i >= 1}."""
    if s <= -white.length - 1:
        return True
    return any(white.rows[i - 1] - i == s for i in range(1, white.length + 1))


def ref_in_dprime_set(white, s):
    """Membership of s in Z minus {i - white_i - 1 : i >= 1}."""
    if s >= white.length:
        return False
    return all(i - white.row(i) - 1 != s for i in range(1, white.length + 1))


def ref_symbol(lam, t, family, s):
    in_c = False if t == GENERIC else ref_in_c_track(lam.black, t, s)
    in_d = ref_in_d_set(lam.white, s) if family == FAMILY_D else ref_in_dprime_set(lam.white, s)
    return {(True, True): CROSS, (True, False): ">", (False, True): "<", (False, False): CIRC}[
        (in_c, in_d)
    ]


@pytest.mark.parametrize("family", [FAMILY_D, FAMILY_DPRIME])
@pytest.mark.parametrize("t", list(range(-6, 7)) + [GENERIC])
def test_one_pass_symbols_match_per_position_reference(family, t):
    for lam in bipartitions_up_to(6):
        d = build_diagram(lam, t, family)
        left, right = d.window
        assert d.symbols == "".join(ref_symbol(lam, t, family, s) for s in range(left, right + 1))
        for s in range(left - 3, right + 4):
            assert symbol_at(lam, t, family, s) == ref_symbol(lam, t, family, s)


def test_symbol_at_rejects_unknown_family():
    with pytest.raises(ValueError):
        symbol_at(Bipartition.of((), ()), 0, "q", 0)


@pytest.mark.parametrize("family", [FAMILY_D, FAMILY_DPRIME])
def test_core_key_matches_the_built_diagram(family):
    """core_key reads lam's window itself; its keys are the '>' and '<'
    positions of the WeightDiagram that build_diagram gives."""
    for lam in bipartitions_up_to(6):
        for t in range(-6, 7):
            d = build_diagram(lam, t, family)
            want = tuple(
                (s, d.symbol(s)) for s in range(d.window[0], d.window[1] + 1) if d.symbol(s) in (">", "<")
            )
            assert core_key(lam, t, family) == want, (lam, t)
