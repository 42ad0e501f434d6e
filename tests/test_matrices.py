from gltcomb.matrices import BipartitionMatrix
from gltcomb.partitions import Bipartition


def test_equal_size_off_diagonal_is_not_unitriangular():
    m = BipartitionMatrix.identity(1)
    m.set(Bipartition.of((), (1,)), Bipartition.of((1,), ()), 5)
    assert not m.is_unitriangular()
